"""Seeded inputs for the three workloads, each with the exact answer its
oracle checks against.

Everything here is plain numpy and never imports nfix: the program under
test only ever sees the files and arrays built here.  The same seed gives
the same inputs byte for byte.  Random draws set the matrices, anchors,
offsets and start points; the shape of every workload (regimes, dimensions,
constants, sizes) is fixed, so the amount of work per request barely moves
with the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Machine epsilon; the certificate oracle allows this many units of
# roundoff per unit of fixed-point size (see SolveCase.slack).
EPS = float(np.finfo(float).eps)
CERT_SLACK_ULPS = 64.0

SUITES = ("axioms", "bounded", "bounded-sets", "product-ball", "reduction", "ratio")


@dataclass(frozen=True)
class Scale:
    """Sizes that differ between the real benchmark and its self-test."""

    check_trials: Optional[int] = None   # None: the CLI default of `nfix check`
    cauchy_lengths: tuple = (40, 80, 160)
    explicit_terms: tuple = (2000, 5000)
    # certified solves a run needs on solve-mix, and on the other
    # workloads; they fix the tail percentile (see workload.py)
    solve_samples_main: int = 1000
    solve_samples_reference: int = 300


FULL = Scale()
TINY = Scale(check_trials=10, cauchy_lengths=(6, 8, 10), explicit_terms=(40, 60),
             solve_samples_main=20, solve_samples_reference=20)


@dataclass
class Complement:
    """Orthonormal basis of the anchor span's complement and the anchor
    volume: the anchored semi-norm of x is volume * |qc^T x|."""

    qc: np.ndarray
    volume: float

    @classmethod
    def of(cls, anchors: np.ndarray) -> "Complement":
        q, _ = np.linalg.qr(anchors.T, mode="complete")
        volume = math.sqrt(float(np.linalg.det(anchors @ anchors.T)))
        return cls(qc=q[:, anchors.shape[0]:], volume=volume)

    def seminorm(self, x) -> float:
        return self.volume * float(np.linalg.norm(self.qc.T @ np.asarray(x, dtype=float)))


@dataclass
class SolveCase:
    """One solve request: a problem file plus what a correct answer is.

    ``refusal`` names the exception a correct program must raise (and then
    the request succeeds only if it does); otherwise the solve must certify.
    For affine maps ``u_star`` is the exact fixed point in complement
    coordinates, u* = (I - B11)^-1 qc^T b, so the true error of a returned
    point x is volume * |qc^T x - u*|.  ``saturating`` marks the one
    nonlinear map, whose certificate is a residual, not an error bound.
    """

    name: str
    path: str
    tol: float
    comp: Complement
    refusal: Optional[str] = None
    u_star: Optional[np.ndarray] = None
    size: float = 1.0
    saturating: bool = False

    @property
    def slack(self) -> float:
        """Absolute roundoff allowance for the certificate check: on scaled
        identities the a-priori envelope is exact, so the computed error
        exceeds it by a few ulps of the iterate size."""
        return CERT_SLACK_ULPS * EPS * self.comp.volume * self.size


@dataclass
class OpnormCase:
    name: str
    path: str
    exact: float                 # true bound constant (inf for a kernel violator)
    known: Optional[float] = None  # estimates must land within 2 % of this


@dataclass
class ContractionCase:
    name: str
    dim: int
    order: int
    anchors: np.ndarray
    matrix: np.ndarray
    comp: Complement
    lipschitz: float             # exact contraction constant |B11|_2
    seed: int


@dataclass
class CauchyCase:
    name: str
    dim: int
    order: int
    anchors: np.ndarray
    items: np.ndarray
    expected: float              # max pairwise semi-norm distance, by projection


@dataclass
class Inputs:
    workdir: str
    seed: int
    scale: Scale
    solves: list
    opnorms: list
    contractions: list
    cauchys: list
    check_seed: int


def _rows(a) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _vec(a) -> list:
    return [float(v) for v in np.ravel(a)]


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _kernel_preserving(rng, anchors: np.ndarray, b11: np.ndarray) -> np.ndarray:
    """Matrix acting as b11 on the complement and mapping the anchor span
    into itself, with random coupling blocks of norm 1/2 (so iterates stay
    at unit scale)."""
    k = anchors.shape[0]
    q, _ = np.linalg.qr(anchors.T, mode="complete")
    qa, qc = q[:, :k], q[:, k:]
    m = qc.shape[1]
    return (qc @ b11 @ qc.T + qa @ _with_norm(rng, k, m, 0.5) @ qc.T
            + qa @ _with_norm(rng, k, k, 0.5) @ qa.T)


def _with_norm(rng, rows: int, cols: int, norm: float) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    return g * (norm / np.linalg.norm(g, 2))


def _anchors(rng, count: int, dim: int) -> np.ndarray:
    """Random unit anchors: anchor volume at most 1."""
    a = rng.standard_normal((count, dim))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _point(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    """Random point of expected length ``scale``."""
    return rng.standard_normal(dim) * (scale / math.sqrt(dim))


def _axes(dim: int, skip: tuple) -> np.ndarray:
    return np.eye(dim)[[i for i in range(dim) if i not in skip]]


class _SolveBuilder:
    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.cases = []

    def add(self, name, anchors, operator, solver, x0, comp, *, matrix=None, offset=None,
            refusal=None, saturating=False):
        dim = anchors.shape[1]
        data = {
            "dimension": dim,
            "order": anchors.shape[0] + 1,
            "anchors": _rows(anchors),
            "operator": operator,
            "solver": solver,
            "x0": _vec(x0),
            "seed": self.seed,
        }
        path = _write(self.workdir, "solve-" + name, data)
        u_star = None
        size = float(np.linalg.norm(comp.qc.T @ x0))
        if matrix is not None:
            b = np.zeros(dim) if offset is None else offset
            b11 = comp.qc.T @ matrix @ comp.qc
            u_star = np.linalg.solve(np.eye(b11.shape[0]) - b11, comp.qc.T @ b)
            size = max(size, float(np.linalg.norm(u_star)))
        self.cases.append(SolveCase(name, path, float(solver.get("tol", 1e-10)), comp, refusal, u_star,
                                    size, saturating))

    def affine(self, name, anchors, matrix, offset, x0, solver, **kw):
        op = {"kind": "affine", "matrix": _rows(matrix), "offset": _vec(offset)}
        self.add(name, anchors, op, solver, x0, Complement.of(anchors),
                 matrix=matrix, offset=offset, **kw)


def _build_solves(workdir: str, seed: int, scale: Scale) -> list:
    """The solve catalogue: one cycle of solve-mix.  Anchors are unit
    vectors and fixed points have length ~1, so iterates stay at unit scale."""
    rng = np.random.default_rng([seed, 1])
    sb = _SolveBuilder(workdir, seed)
    orders = {3: 2, 16: 3, 64: 4}

    def contraction(d, alpha):
        """Anchors, a random kernel-preserving matrix with |B11|_2 = alpha,
        an offset and a start point.  B11 is a rotated triangular matrix
        whose eigenvalues all sit near alpha / 3, so the orbit contracts
        faster than alpha, by about the same factor for every seed."""
        anchors = _anchors(rng, orders[d] - 1, d)
        m = d - anchors.shape[0]
        t = 0.5 * np.eye(m) + np.triu(_with_norm(rng, m, m, 1.0), 1)
        if m == 2:
            t[0, 1] = 1.0
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        b11 = q @ t @ q.T * (alpha / np.linalg.norm(t, 2))
        a = _kernel_preserving(rng, anchors, b11)
        return anchors, a, _point(rng, d, 1.0 - alpha), _point(rng, d)

    def picard(alpha, **extra):
        return {"regime": "picard", "alpha": alpha, "tol": 1e-10, **extra}

    # scaled identities: the a-priori envelope equals the true error, so
    # these are the tight certificates
    for d in (3, 16, 64):
        for alpha in (0.5, 0.8, 0.95):
            anchors = _anchors(rng, orders[d] - 1, d)
            sb.affine(f"picard-tight-d{d}-a{alpha}", anchors, alpha * np.eye(d),
                      _point(rng, d, 1.0 - alpha), _point(rng, d), picard(alpha))

    # random kernel-preserving contractions at their exact Lipschitz
    # constant: the spectral radius is smaller, so the certificate is slack
    for d in (3, 16, 64):
        for alpha in (0.6, 0.9):
            sb.affine(f"picard-slack-d{d}-a{alpha}", *contraction(d, alpha), picard(alpha))

    # ball regime, admitted with a radius twice the threshold
    for d in (3, 16):
        anchors, a, b, x0 = contraction(d, 0.7)
        radius = 2.0 * Complement.of(anchors).seminorm(x0 - a @ x0 - b) / (1.0 - 0.7)
        sb.affine(f"ball-d{d}", anchors, a, b, x0, {"regime": "ball", "alpha": 0.7, "radius": radius,
                                                    "tol": 1e-10})

    # summable regime: geometric constants, and explicit lists of thousands
    # of terms whose tail sums cost O(list length) per step
    for d in (3, 16):
        sb.affine(f"summable-geometric-d{d}", *contraction(d, 0.8),
                  {"regime": "summable", "a_seq": {"kind": "geometric", "ratio": 0.8}, "tol": 1e-10})
    for n_terms in scale.explicit_terms:
        alpha = 0.9
        terms = [alpha ** k for k in range(1, n_terms + 1)]
        tail = alpha ** (n_terms + 1) / (1.0 - alpha)
        sb.affine(f"summable-explicit-{n_terms}", *contraction(16, alpha),
                  {"regime": "summable", "a_seq": {"kind": "explicit", "terms": terms, "tail": tail},
                   "tol": 1e-10})

    # builtins: scale under kannan (beta >= factor / (1 - factor) holds)
    for d in (3, 16):
        anchors = _anchors(rng, orders[d] - 1, d)
        factor = 0.3
        sb.add(f"kannan-scale-d{d}", anchors,
               {"kind": "builtin", "name": "scale", "params": {"factor": factor}},
               {"regime": "kannan", "beta": 0.45, "tol": 1e-10}, _point(rng, d),
               Complement.of(anchors), matrix=factor * np.eye(d))

    # rotation-scale under picard: anchors span every axis the rotation
    # fixes, so alpha = factor is exact and the certificate tight
    for d, factor in ((3, 0.7), (16, 0.9)):
        anchors = _axes(d, (0, 1))
        theta = float(rng.uniform(0.3, 2.5))
        rot = np.eye(d)
        rot[:2, :2] = factor * np.array([[math.cos(theta), -math.sin(theta)],
                                         [math.sin(theta), math.cos(theta)]])
        sb.add(f"rotation-scale-d{d}", anchors,
               {"kind": "builtin", "name": "rotation-scale",
                "params": {"axis1": 0, "axis2": 1, "angle": theta, "factor": factor}},
               picard(factor), _point(rng, d), Complement.of(anchors), matrix=rot)

    # saturating under edelstein: the anchors span every fixed axis, the
    # residual falls like 1/k^2, so tol 1e-5 takes ~300 steps
    for d in (3, 16):
        anchors = _axes(d, (0,))
        x0 = _point(rng, d)
        x0[0] = rng.uniform(1.0, 2.0)
        sb.add(f"edelstein-saturating-d{d}", anchors,
               {"kind": "builtin", "name": "saturating", "params": {}},
               {"regime": "edelstein", "tol": 1e-5}, x0, Complement.of(anchors), saturating=True)

    # refusals.  diag(0.9, 0.5) on the complement of e3 with alpha = 0.7
    # declared: an orbit along e2 contracts at exactly 0.5, so only the
    # sampled cross-check can refute alpha; along e1 the orbit guard must.
    d = 3
    anchors = _axes(d, (0, 1))
    c = float(rng.uniform(-1.0, 1.0))
    a = np.diag([0.9, 0.5, 1.0])
    zero = np.zeros(d)
    sb.affine("refuse-crosscheck", anchors, a, zero, np.array([0.0, 1.0, c]), picard(0.7),
              refusal="ConstantMismatchError")
    sb.affine("refuse-orbit-guard", anchors, a, zero, np.array([1.0, 0.0, c]),
              picard(0.7, crosscheck_pairs=0), refusal="ConstantMismatchError")
    anchors, a, b, x0 = contraction(d, 0.7)
    radius = 0.5 * Complement.of(anchors).seminorm(x0 - a @ x0 - b) / (1.0 - 0.7)
    sb.affine("refuse-ball-radius", anchors, a, b, x0,
              {"regime": "ball", "alpha": 0.7, "radius": radius, "tol": 1e-10},
              refusal="PreconditionError")
    return sb.cases


def _build_opnorms(workdir: str, seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    cases = []

    def write(name, anchors, matrix):
        data = {"dimension": anchors.shape[1], "order": anchors.shape[0] + 1,
                "anchors": _rows(anchors), "operator": {"kind": "affine", "matrix": _rows(matrix)},
                "seed": seed}
        return _write(workdir, "opnorm-" + name, data)

    # known answer: diag(2, 1, 1) with anchor e2 has bound constant 2
    anchors = np.array([[0.0, 1.0, 0.0]])
    cases.append(OpnormCase("d3-diag211", write("d3-diag211", anchors, np.diag([2.0, 1.0, 1.0])),
                            exact=2.0, known=2.0))

    # d=4 in a random frame, singular values 1.5, 1.47, 1.44 on the complement
    anchors = _anchors(rng, 1, 4)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = _kernel_preserving(rng, anchors, u @ np.diag([1.5, 1.47, 1.44]) @ v.T)
    cases.append(OpnormCase("d4", write("d4", anchors, a), exact=1.5))

    # d=64: singular values spread over [1.35, 1.5]; sampling stays below
    # the exact norm, and the three formulas agree to ~1 %
    anchors = _anchors(rng, 3, 64)
    u, _ = np.linalg.qr(rng.standard_normal((61, 61)))
    v, _ = np.linalg.qr(rng.standard_normal((61, 61)))
    sigma = np.linspace(0.9, 1.0, 61) * 1.5
    a = _kernel_preserving(rng, anchors, u @ np.diag(sigma) @ v.T)
    cases.append(OpnormCase("d64", write("d64", anchors, a), exact=float(sigma.max())))

    # a dense random matrix moves the kernel out of itself: gated to inf
    anchors = _anchors(rng, 1, 4)
    cases.append(OpnormCase("d4-violator", write("d4-violator", anchors, rng.standard_normal((4, 4))),
                            exact=math.inf))
    return cases


def _build_contractions(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    d = 16
    anchors = _anchors(rng, 2, d)
    a = _kernel_preserving(rng, anchors, _with_norm(rng, d - 2, d - 2, 0.8))
    return [ContractionCase("d16", d, 3, anchors, a, Complement.of(anchors), 0.8, seed)]


def _build_cauchys(seed: int, scale: Scale) -> list:
    rng = np.random.default_rng([seed, 4])
    cases = []
    d = 8
    for m in scale.cauchy_lengths:
        anchors = _anchors(rng, 2, d)
        items = rng.standard_normal((m, d))
        comp = Complement.of(anchors)
        coords = items @ comp.qc
        gaps = coords[:, None, :] - coords[None, :, :]
        expected = comp.volume * float(np.sqrt(np.max(np.sum(gaps * gaps, axis=2))))
        cases.append(CauchyCase(f"m{m}", d, 3, anchors, items, expected))
    return cases


def build(workdir: str, seed: int, scale: Scale = FULL) -> Inputs:
    """Write every problem file under ``workdir`` and return the cases."""
    os.makedirs(workdir, exist_ok=True)
    return Inputs(
        workdir=workdir,
        seed=seed,
        scale=scale,
        solves=_build_solves(workdir, seed, scale),
        opnorms=_build_opnorms(workdir, seed),
        contractions=_build_contractions(seed),
        cauchys=_build_cauchys(seed, scale),
        check_seed=seed,
    )
