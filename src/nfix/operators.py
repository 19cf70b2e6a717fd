"""Self-maps of R^d and their anchored-semi-norm analysis.

Covers the operator abstraction (affine maps plus a small fixed catalog of
named nonlinear maps), the exact Lipschitz constant of an operator with a
linear part, operator-norm estimation by three equivalent supremum
formulas, contraction-constant and Kannan-constant estimation, and a
sampled continuity probe.

Suprema are estimated over deterministic seeded samples, so every estimate
is a reproducible lower bound of the true supremum.  Sampling is chunked so
that a larger budget only ever extends the sample set: the reported value
is monotone nondecreasing in the budget.  Operators that move the semi-norm
kernel out of itself admit no finite bound constant at all; they are gated
to an explicit +inf instead of a meaningless sample maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .nnorm import AnchoredSpace, as_vector

_CHUNK = 1024

BUILTIN_NAMES = ("scale", "constant", "saturating", "rotation-scale", "step")


@dataclass(eq=False)
class OperatorSpec:
    """Declarative self-map of R^d.

    kind "affine": x -> matrix @ x + offset.
    kind "builtin": one of the catalog maps, configured by ``params``:

    - "scale":          x -> factor * x
    - "constant":       x -> value
    - "saturating":     first coordinate t -> t / (1 + |t|), others fixed
    - "rotation-scale": rotation by ``angle`` in the (axis1, axis2) plane,
                        scaled by ``factor``, other coordinates fixed
    - "step":           first coordinate t -> t + height for t >= threshold,
                        t otherwise (deliberately discontinuous)
    """

    kind: str
    matrix: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    name: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "affine":
            a = np.asarray(self.matrix, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"affine matrix must be square, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("affine matrix has non-finite entries")
            self.matrix = a
            if self.offset is None:
                self.offset = np.zeros(a.shape[0])
            self.offset = as_vector(self.offset, a.shape[0])
        elif self.kind == "builtin":
            if self.name not in BUILTIN_NAMES:
                raise ValueError(f"unknown builtin operator {self.name!r}")
            _validate_builtin_params(self.name, self.params)
        else:
            raise ValueError(f"operator kind must be 'affine' or 'builtin', got {self.kind!r}")

    @property
    def dim(self) -> Optional[int]:
        if self.kind == "affine":
            return self.matrix.shape[0]
        if self.name == "constant":
            return len(self.params["value"])
        return None

    def compile(self, dim: int) -> Callable[[np.ndarray], np.ndarray]:
        """Single-point evaluator ``step(x)`` for ``dim``-dimensional inputs.

        Dimension and parameter checks run here, once; the rotation matrix,
        the constant vector and the transposed affine matrix are built here
        too.  ``step`` itself validates nothing: it expects a finite 1-D
        float64 array of length ``dim`` and returns a new array.  It computes
        exactly what ``apply_batch`` computes for a one-row batch.
        """
        rows = _row_map(self, dim)
        return lambda x: rows(x.reshape(1, -1))[0]

    def linear_part(self, dim: int) -> Optional[np.ndarray]:
        """The (dim, dim) matrix L with T(x) - T(y) = L (x - y), or None.

        Affine maps give their matrix, "scale" factor * I, "rotation-scale"
        its rotation matrix and "constant" zeros; "saturating" and "step"
        are not affine and give None.
        """
        if self.kind == "affine":
            _check_dim(self, dim)
            return self.matrix
        if self.name == "scale":
            return float(self.params["factor"]) * np.eye(dim)
        if self.name == "rotation-scale":
            return _rotation_matrix(self, dim)
        if self.name == "constant":
            return np.zeros((dim, dim))
        return None


def _validate_builtin_params(name, params):
    required = {
        "scale": {"factor"},
        "constant": {"value"},
        "saturating": set(),
        "rotation-scale": {"axis1", "axis2", "angle"},
        "step": set(),
    }[name]
    missing = required - set(params)
    if missing:
        raise ValueError(f"builtin {name!r} missing params {sorted(missing)}")
    if name == "constant":
        params["value"] = as_vector(params["value"])
    if name == "rotation-scale":
        a1, a2 = int(params["axis1"]), int(params["axis2"])
        if a1 == a2 or a1 < 0 or a2 < 0:
            raise ValueError("rotation-scale needs two distinct nonnegative axes")
        params.setdefault("factor", 1.0)
    if name == "step":
        params.setdefault("threshold", 0.0)
        params.setdefault("height", 1.0)


def affine_operator(matrix, offset=None) -> OperatorSpec:
    return OperatorSpec(kind="affine", matrix=np.asarray(matrix, dtype=float), offset=offset)


def builtin_operator(name: str, **params) -> OperatorSpec:
    return OperatorSpec(kind="builtin", name=name, params=dict(params))


def is_linear(op: OperatorSpec) -> bool:
    """True for affine operators with an exactly zero offset."""
    return op.kind == "affine" and not np.any(op.offset)


def compose(second: OperatorSpec, first: OperatorSpec) -> OperatorSpec:
    """Affine composition second(first(x))."""
    if second.kind != "affine" or first.kind != "affine":
        raise ValueError("compose supports affine operators only")
    if second.matrix.shape != first.matrix.shape:
        raise ValueError("dimension mismatch in composition")
    return affine_operator(
        second.matrix @ first.matrix, second.matrix @ first.offset + second.offset
    )


def _rotation_matrix(op: OperatorSpec, d: int) -> np.ndarray:
    i, j = int(op.params["axis1"]), int(op.params["axis2"])
    if i >= d or j >= d:
        raise ValueError(f"rotation-scale axes ({i}, {j}) exceed dimension {d}")
    theta = float(op.params["angle"])
    f = float(op.params.get("factor", 1.0))
    r = np.eye(d)
    r[i, i] = f * math.cos(theta)
    r[i, j] = -f * math.sin(theta)
    r[j, i] = f * math.sin(theta)
    r[j, j] = f * math.cos(theta)
    return r


def _check_dim(op: OperatorSpec, d: int):
    if op.matrix.shape[0] != d:
        raise ValueError(f"dimension mismatch: operator is {op.matrix.shape[0]}-D, points are {d}-D")


def _row_map(op: OperatorSpec, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The operator as a map on (m, d) arrays of row points, checked for
    dimension ``d`` once, with everything that depends on ``d`` prebuilt."""
    if op.kind == "affine":
        _check_dim(op, d)
        mt, offset = op.matrix.T, op.offset
        return lambda pts: pts @ mt + offset
    name = op.name
    if name == "scale":
        factor = float(op.params["factor"])
        return lambda pts: factor * pts
    if name == "constant":
        value = as_vector(op.params["value"], d)
        return lambda pts: np.tile(value, (pts.shape[0], 1))
    if name == "saturating":
        def saturate(pts):
            out = pts.copy()
            t = out[:, 0]
            out[:, 0] = t / (1.0 + np.abs(t))
            return out
        return saturate
    if name == "rotation-scale":
        rt = _rotation_matrix(op, d).T
        return lambda pts: pts @ rt
    if name == "step":
        thr = float(op.params["threshold"])
        h = float(op.params["height"])

        def jump(pts):
            out = pts.copy()
            out[:, 0] = np.where(out[:, 0] >= thr, out[:, 0] + h, out[:, 0])
            return out
        return jump
    raise ValueError(f"unknown builtin operator {name!r}")


def apply(op: OperatorSpec, x) -> np.ndarray:
    """Evaluate the operator at one point."""
    x = as_vector(x)
    return op.compile(x.size)(x)


def apply_batch(op: OperatorSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate the operator on rows of ``points``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("apply_batch expects a 2-D array of row points")
    return _row_map(op, pts.shape[1])(pts)


# ---------------------------------------------------------------------------
# kernel preservation
# ---------------------------------------------------------------------------

def kernel_preserved(op: OperatorSpec, space: AnchoredSpace, samples: int = 32, seed: int = 0) -> bool:
    """Does the operator map the semi-norm kernel span(b_2..b_n) into itself?

    True exactly when ``kernel_violation_witness`` finds no witness, so the
    gate and its witness always agree.  Without this property no finite
    bound constant M with ||Tx|| <= M ||x|| can exist.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return kernel_violation_witness(op, space, samples, seed) is None


def kernel_violation_witness(
    op: OperatorSpec, space: AnchoredSpace, samples: int = 32, seed: int = 0
) -> Optional[np.ndarray]:
    """A kernel point whose image leaves the kernel, or None if preserved.

    An image stays in the kernel when its part off the anchor span is at
    most ``space.rank_tol`` times the scale of the arithmetic behind it:
    the length of the entrywise |A| |b| (the product's forward-error bound)
    for an anchor image A b, |c| for the offset c, and |x| + |y| for a
    builtin's image y of x.  Affine maps are decided exactly: the witness
    is 0 if the offset leaves the span, else the first anchor whose image
    does.  Builtins are probed at 0, the anchors, their doubles and
    ``samples`` random kernel points, in order.
    """
    if op.kind == "affine":
        if op.matrix.shape[0] != space.dim:
            raise ValueError("dimension mismatch between operator and space")
        if _first_off_span(space, op.offset[None, :], np.linalg.norm(op.offset)) is not None:
            return np.zeros(space.dim)
        return _moved_anchor(space, op.matrix)
    rng = np.random.default_rng([_seed_key(seed), 103])
    coeffs = rng.standard_normal((samples, space.order - 1)) * 2.0
    candidates = np.vstack([np.zeros(space.dim), space.anchors, 2.0 * space.anchors, coeffs @ space.anchors])
    images = apply_batch(op, candidates)
    scales = np.linalg.norm(candidates, axis=1) + np.linalg.norm(images, axis=1)
    bad = _first_off_span(space, images, scales)
    return None if bad is None else candidates[bad]


def _first_off_span(space: AnchoredSpace, images: np.ndarray, scales) -> Optional[int]:
    """Index of the first row of ``images`` whose part off the anchor span
    exceeds ``space.rank_tol`` times its row of ``scales``, or None."""
    off = np.linalg.norm(images @ space.complement_basis, axis=1)
    bad = np.flatnonzero(off > space.rank_tol * scales)
    return int(bad[0]) if bad.size else None


def _moved_anchor(space: AnchoredSpace, matrix: np.ndarray) -> Optional[np.ndarray]:
    """The first anchor b whose image ``matrix @ b`` leaves the anchor span,
    measured against the length of |matrix| |b|, or None if there is none."""
    bounds = np.abs(space.anchors) @ np.abs(matrix).T
    bad = _first_off_span(space, space.anchors @ matrix.T, np.linalg.norm(bounds, axis=1))
    return None if bad is None else space.anchors[bad]


def lipschitz_constant(op: OperatorSpec, space: AnchoredSpace) -> Optional[float]:
    """The exact semi-norm Lipschitz constant of an operator with a linear part.

    With L the operator's linear part (``OperatorSpec.linear_part``) and C
    the complement basis, ||Tx - Ty|| = ||L (x - y)||; when L maps the
    anchor span into itself this is at most sigma_max(C^T L C) ||x - y||,
    with equality for some pair, so the constant is the spectral norm of the
    map L induces on the quotient of R^d by the anchor span.  The offset
    plays no part.  When L moves an anchor off the span (the affine rule of
    ``kernel_violation_witness``, applied to L alone) no finite constant
    exists and the result is +inf.  Operators without a linear part
    ("saturating", "step") give None: only a sampled estimate is available
    for them.
    """
    lin = op.linear_part(space.dim)
    if lin is None:
        return None
    if _moved_anchor(space, lin) is not None:
        return math.inf
    c = space.complement_basis
    return float(np.linalg.norm(c.T @ lin @ c, 2))


def _seed_key(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return int(seed)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class OperatorNormEstimate:
    """Sampled supremum for one of the three norm formulas.

    ``value`` is the exact maximum of the method's objective over the seeded
    sample (or +inf when the kernel gate fails); it never decreases when the
    budget grows, because samples accumulate chunk by chunk.
    """

    value: float
    method: str
    samples: int
    kernel_preserved: bool


def _probe_chunks(space: AnchoredSpace, budget: int, seed: int, stream: int):
    """Yield (complement directions, radii in [0,1), anchor coefficients).

    Chunk i is drawn from its own generator keyed by (seed, stream, i), and a
    partial last chunk is a prefix of the full draw, so the first k samples
    are the same for every budget >= k.
    """
    m = space.complement_dim
    nk = space.order - 1
    produced = 0
    chunk_idx = 0
    while produced < budget:
        rng = np.random.default_rng([_seed_key(seed), stream, chunk_idx])
        dirs = rng.standard_normal((_CHUNK, m))
        radii = rng.random(_CHUNK)
        coeffs = rng.standard_normal((_CHUNK, nk))
        take = min(_CHUNK, budget - produced)
        yield dirs[:take], radii[:take], coeffs[:take]
        produced += take
        chunk_idx += 1


def _probe_point_chunks(space: AnchoredSpace, budget: int, seed: int, method: str):
    """Yield, chunk by chunk, the sample points of operator_norm's ``method``.

    "I" scales unit directions to semi-norm radius in [0, 1), "II" normalizes
    them to semi-norm 1, "III" scales them to radius in [0.5, 3); each point
    also gets a random anchor-span (kernel) part.
    """
    if method not in ("I", "II", "III"):
        raise ValueError(f"method must be one of I, II, III, got {method!r}")
    for dirs, radii, coeffs in _probe_chunks(space, budget, seed, stream=7):
        if method == "I":
            yield space.ball_points(dirs, radii, coeffs)
        elif method == "II":
            raw = space.ball_points(dirs, np.ones_like(radii), coeffs)
            yield raw / space.seminorm_batch(raw)[:, None]
        else:
            yield space.ball_points(dirs, 0.5 + 2.5 * radii, coeffs)


def draw_probe_points(space: AnchoredSpace, budget: int, seed: int, method: str = "II") -> np.ndarray:
    """The exact sample points operator_norm evaluates for the given method."""
    return np.vstack(list(_probe_point_chunks(space, budget, seed, method)))


def operator_norm(
    op: OperatorSpec, space: AnchoredSpace, method: str, budget: int, seed: int = 0
) -> OperatorNormEstimate:
    """Estimate the bound constant of a linear operator by seeded sampling.

    method "I":   sup ||Tx|| over sampled points with ||x|| <= 1
    method "II":  sup ||Tx|| over sampled points normalized to ||x|| = 1
    method "III": sup ||Tx|| / ||x|| over sampled points with ||x|| above roundoff

    (all semi-norms anchored).  Points are drawn as unit directions in the
    orthogonal complement of the anchor span plus random anchor-span
    components; the latter cannot change either side of the objective.
    Kernel-violating operators return the +inf marker.
    """
    if method not in ("I", "II", "III"):
        raise ValueError(f"method must be one of I, II, III, got {method!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if op.kind != "affine" or np.any(op.offset):
        raise ValueError("operator_norm requires a linear operator (affine with zero offset)")
    if op.matrix.shape[0] != space.dim:
        raise ValueError("dimension mismatch between operator and space")
    if not kernel_preserved(op, space, samples=32, seed=seed):
        return OperatorNormEstimate(math.inf, method, budget, kernel_preserved=False)

    best = 0.0
    for pts in _probe_point_chunks(space, budget, seed, method):
        num = space.seminorm_batch(apply_batch(op, pts))
        if method == "III":
            den = space.seminorm_batch(pts)
            keep = den > space.roundoff_floor(np.sqrt(np.einsum("ij,ij->i", pts, pts)))
            obj = num[keep] / den[keep]
        else:
            obj = num
        if obj.size:
            best = max(best, float(np.max(obj)))
    return OperatorNormEstimate(best, method, budget, kernel_preserved=True)


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ContractionEstimate:
    """Sampled suprema of the two displacement ratios.

    alpha_hat: sup ||Tx - Ty|| / ||x - y||             (plain contraction)
    beta_hat:  sup ||Tx - Ty|| / (||x - Tx|| + ||y - Ty||)   (Kannan form)

    Both are exact maxima over the sampled pair set; re-evaluating the
    recorded witness pair reproduces them up to roundoff (the semi-norms
    are computed in one stacked batch, so the last bits may differ).
    """

    alpha_hat: float
    beta_hat: float
    witness_pair: Optional[tuple]
    witness_pair_kannan: Optional[tuple]
    samples: int
    seed: int


def contraction_constant(
    op: OperatorSpec, space: AnchoredSpace, budget: int, seed: int = 0
) -> ContractionEstimate:
    """Sample ``budget`` point pairs and take the two ratio suprema.  A pair
    counts for a ratio only where its denominator exceeds the space's
    roundoff floor at |x| + |y| + |Tx| + |Ty|."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best = [0.0, 0.0]
    wit = [None, None]
    for chunk_idx, produced in enumerate(range(0, budget, _CHUNK)):
        rng = np.random.default_rng([_seed_key(seed), 11, chunk_idx])
        take = min(_CHUNK, budget - produced)
        # pairs are drawn interleaved, so a partial chunk is a prefix of the
        # full one and the first k pairs are the same for every budget >= k
        pairs = rng.standard_normal((take, 2, space.dim)) * 1.5
        xs, ys = pairs[:, 0], pairs[:, 1]
        txs = apply_batch(op, xs)
        tys = apply_batch(op, ys)
        # the four displacement arrays, projected in one call
        diffs = np.concatenate([txs - tys, xs - ys, xs - txs, ys - tys])
        num, den, dx, dy = space.seminorm_batch(diffs).reshape(4, take)
        ends = np.concatenate([xs, ys, txs, tys])
        floor = space.roundoff_floor(np.sqrt(np.einsum("ij,ij->i", ends, ends)).reshape(4, take).sum(axis=0))
        for j, den_j in enumerate((den, dx + dy)):
            keep = np.flatnonzero(den_j > floor)
            if keep.size:
                ratios = num[keep] / den_j[keep]
                i = int(np.argmax(ratios))
                if ratios[i] > best[j]:
                    best[j] = float(ratios[i])
                    wit[j] = (xs[keep[i]].copy(), ys[keep[i]].copy())
    return ContractionEstimate(best[0], best[1], wit[0], wit[1], budget, seed)


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ContinuityProbe:
    """Outcome of a sampled epsilon-delta check at one base point.

    ``ok`` is False when some sampled x with ||x - x0|| < delta produced
    ||Tx - Tx0|| >= epsilon; ``witness`` then holds the worst such x.  The
    probe also pushes one generated convergent sequence through the operator
    and reports the image residual trend (should vanish for a continuous
    map, and visibly fail to for a kernel violator).
    """

    ok: bool
    witness: Optional[np.ndarray]
    max_image_distance: float
    epsilon: float
    delta: float
    sequence_residuals: list


def continuity_probe(
    op: OperatorSpec,
    space: AnchoredSpace,
    x0,
    epsilon: float,
    candidate_delta: float,
    samples: int,
    seed: int = 0,
) -> ContinuityProbe:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (epsilon > 0 and candidate_delta > 0):
        raise ValueError("epsilon and candidate_delta must be positive")
    x0 = as_vector(x0, space.dim)
    tx0 = apply(op, x0)

    worst = 0.0
    witness = None
    for dirs, radii, coeffs in _probe_chunks(space, samples, seed, stream=13):
        pts = space.ball_points(dirs, radii * candidate_delta, coeffs, center=x0)
        imgs = space.seminorm_batch(apply_batch(op, pts) - tx0)
        i = int(np.argmax(imgs))
        if imgs[i] > worst:
            worst = float(imgs[i])
            witness = pts[i].copy()
    ok = worst < epsilon

    # sequential form: push one b-convergent sequence x_k -> x0 through T
    rng = np.random.default_rng([_seed_key(seed), 17])
    u = rng.standard_normal(space.complement_dim)
    u /= max(np.linalg.norm(u), 1e-30)
    direction = space.complement_basis @ u
    steps = min(max(samples, 8), 40)
    coeffs = rng.standard_normal((steps, space.order - 1))
    k = np.arange(1, steps + 1, dtype=float)[:, None]
    seq_pts = x0 + (candidate_delta / (k * space.anchor_volume)) * direction + coeffs @ space.anchors / k
    seq_residuals = space.seminorm_batch(apply_batch(op, seq_pts) - tx0).tolist()

    return ContinuityProbe(
        ok=ok,
        witness=None if ok else witness,
        max_image_distance=worst,
        epsilon=epsilon,
        delta=candidate_delta,
        sequence_residuals=seq_residuals,
    )
