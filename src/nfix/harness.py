"""Randomized property suites for the norm axioms and operator theorems.

Each suite runs seeded trials against a generated instance family and
returns structured reports with the worst observed violation and a
serialized counterexample when something failed.  Rerunning a suite with
the same seed reproduces its report exactly; trials are independent and
aggregation is a deterministic reduction in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .nnorm import AnchoredSpace, _lengths, as_vector, gram_volumes
from .operators import (
    OperatorSpec,
    _affine_form,
    _bound_constants,
    _compile,
    _kernel_gate,
    _quotient_map,
    _seed_key,
    affine_operator,
    apply_batch,
)
from .solvers import SolverConfig, edelstein_solve, explicit_sequence, summable_solve

RATIO_FLAG_TOL = 1e-9  # a sampled ratio this close to 1 breaks strictness
BOUNDED_SET_POINTS = 32  # ball points check_bounded_sets maps per operator
PROBE_SAMPLES = 64  # continuity-probe points per base point in check_bounded_iff_continuous

# The stacked suites draw and decide their trials SUITE_BLOCK at a time, and
# fewer when one trial's tuples hold many coordinates, so memory does not
# grow with the trial count.
SUITE_BLOCK = 4096
_SUITE_BLOCK_ELEMENTS = 1 << 18


@dataclass
class PropertyReport:
    property_id: str
    trials: int
    failures: int
    worst_violation: float
    counterexample: Optional[dict]
    seed: int

    def to_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "counterexample": self.counterexample,
            "seed": self.seed,
        }


def canonical_space(dim: int, order: int) -> AnchoredSpace:
    """Anchors e_2, ..., e_order: the standard instance used by the CLI."""
    return AnchoredSpace(dim=dim, order=order, anchors=np.eye(dim)[1:order])


def _kernel_preserving_matrices(space: AnchoredSpace, rng, count: int) -> np.ndarray:
    """``count`` random (d, d) matrices that map the anchor span into itself
    (block triangular over the orthonormal split), each drawn from ``rng``
    as its complement, mixed and anchor blocks in turn."""
    m, k = space.complement_dim, space.order - 1
    draws = rng.standard_normal((count, m * m + k * m + k * k))
    b11, b21, b22 = np.split(draws, [m * m, m * m + k * m], axis=1)
    qc, qa = space.complement_basis, space.anchor_basis
    return (qc @ b11.reshape(-1, m, m) @ qc.T + qa @ b21.reshape(-1, k, m) @ qc.T
            + qa @ b22.reshape(-1, k, k) @ qa.T)


def random_kernel_preserving_operator(space: AnchoredSpace, rng) -> OperatorSpec:
    """Random linear operator whose matrix maps the anchor span into itself
    (block triangular over the orthonormal split)."""
    return affine_operator(_kernel_preserving_matrices(space, rng, 1)[0])


def _blocks(trials: int, width: int, elements: int = _SUITE_BLOCK_ELEMENTS) -> list:
    """(start, rows) spans covering ``trials`` trials in order, each at most
    SUITE_BLOCK rows and, for trials of ``width`` coordinates, at most
    ``elements`` coordinates.  Every suite takes these before it draws (the
    bounded suites through their gated-block pass, ``_gated_blocks``), so a
    count below 1, which would pass having checked nothing, is refused here."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    step = max(1, min(SUITE_BLOCK, elements // width))
    return [(start, min(step, trials - start)) for start in range(0, trials, step)]


def _redrawn(rows: int, draw: Callable, accept: Callable) -> np.ndarray:
    """``draw(rows)``, with every row that ``accept`` rejects drawn again as
    one block until none is."""
    out = draw(rows)
    redraw = np.flatnonzero(~accept(out))
    while redraw.size:
        fresh = draw(redraw.size)
        out[redraw] = fresh
        redraw = redraw[~accept(fresh)]
    return out


def _conditioned_tuples(rng, rows: int, count: int, dim: int, min_ratio: float = 0.05) -> np.ndarray:
    """``rows`` standard normal tuples of ``count`` vectors, each redrawn until
    its volume is a healthy fraction of the product of its lengths; the
    double-precision tolerance claims hold for such conditioned draws."""
    def accept(vs):
        scale = np.prod(_lengths(vs), axis=-1)
        return (scale > 0) & (gram_volumes(vs) > min_ratio * scale)

    return _redrawn(rows, lambda m: rng.standard_normal((m, count, dim)), accept)


def _norms(norm_fn: Optional[Callable], tuples: np.ndarray) -> np.ndarray:
    """The norm under test over a stack of tuples shaped (..., k, d): stacked
    Gram volumes, or a user ``norm_fn`` called on one tuple at a time."""
    if norm_fn is None:
        return gram_volumes(tuples)
    flat = tuples.reshape(-1, *tuples.shape[-2:])
    return np.array([norm_fn(t) for t in flat], dtype=float).reshape(tuples.shape[:-2])


class _Tally:
    """Failures, worst value and counterexample of one property over blocks of
    trials in trial order: the first failed trial at the worst value, as a
    loop over the trials finds it, else the first failed trial of all."""

    def __init__(self):
        self.failures = 0
        self.worst = 0.0
        self.ce = None

    def add(self, values: np.ndarray, failed: np.ndarray, witness: Callable[[int], dict]):
        """``values`` measure each trial of a block (NaN never counts as
        worst), ``failed`` marks its failures, ``witness(i)`` describes
        trial i of the block."""
        self.failures += int(np.count_nonzero(failed))
        above = values > self.worst
        if above.any():
            i = int(np.argmax(np.where(above, values, -np.inf)))
            self.worst = float(values[i])
            if failed[i]:
                self.ce = witness(i)
        if self.ce is None and failed.any():
            self.ce = witness(int(np.argmax(failed)))

    def report(self, property_id: str, trials: int, seed: int) -> PropertyReport:
        return PropertyReport(property_id, trials, self.failures, self.worst, self.ce, seed)


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

def check_axiom_suite(
    dim: int,
    order: int,
    trials: int = 1000,
    seed: int = 0,
    norm_fn: Optional[Callable] = None,
) -> list[PropertyReport]:
    """One report per norm axiom, evaluated on seeded random tuples.

    ``norm_fn`` substitutes the norm under test (used to plant bugs and
    prove the suite can catch them); it is called on one tuple at a time.
    The default is the Gram volume norm, decided for a block of trials in
    one stacked call.
    """
    if not (2 <= order <= dim):
        raise ValueError("need 2 <= order <= dim")
    seed = _seed_key(seed)
    reports = []
    blocks = _blocks(trials, 3 * order * dim)  # N4 stacks three tuples a trial

    # N1: degenerate tuples collapse to zero, independent tuples do not
    rng = np.random.default_rng([seed, 1])
    tally = _Tally()
    for _, rows in blocks:
        vs = _conditioned_tuples(rng, rows, order - 1, dim, min_ratio=1e-6)
        coeffs = rng.uniform(-2.0, 2.0, size=(rows, order - 1))
        slot = rng.integers(0, order, size=rows)
        indep = _conditioned_tuples(rng, rows, order, dim, min_ratio=1e-6)
        # the combination of vs goes into slot, the rows of vs around it in order
        at_slot = np.arange(order) == slot[:, None]
        dependent = np.empty((rows, order, dim))
        dependent[at_slot] = (coeffs[:, None, :] @ vs)[:, 0]
        dependent[~at_slot] = vs.reshape(-1, dim)
        scale = np.maximum(np.prod(_lengths(dependent), axis=-1), 1.0)
        got, val = _norms(norm_fn, np.stack([dependent, indep]))
        excess = got - 1e-9 * scale
        tally.add(excess, excess > 0, lambda i: {"case": "dependent tuple not collapsed",
                                                 "tuple": dependent[i].tolist(), "value": float(got[i])})
        tally.add(np.full(rows, np.nan), ~(val > 0.0), lambda i: {"case": "independent tuple collapsed",
                                                                  "tuple": indep[i].tolist(), "value": float(val[i])})
    reports.append(tally.report("axioms.N1", trials, seed))

    # N2: permutation invariance, relative 1e-12
    rng = np.random.default_rng([seed, 2])
    tally = _Tally()
    for _, rows in blocks:
        vs = _conditioned_tuples(rng, rows, order, dim)
        perm = rng.permuted(np.tile(np.arange(order), (rows, 1)), axis=1)
        base, got = _norms(norm_fn, np.stack([vs, np.take_along_axis(vs, perm[:, :, None], axis=1)]))
        rel = np.abs(got - base) / np.maximum(np.maximum(base, got), 1e-30)
        tally.add(rel, rel > 1e-12, lambda i: {"tuple": vs[i].tolist(), "permutation": [int(p) for p in perm[i]],
                                               "base": float(base[i]), "permuted": float(got[i])})
    reports.append(tally.report("axioms.N2", trials, seed))

    # N3: absolute homogeneity in the first slot, relative 1e-12
    rng = np.random.default_rng([seed, 3])
    tally = _Tally()
    for _, rows in blocks:
        vs = _conditioned_tuples(rng, rows, order, dim)
        # |alpha| >= 1e-3 only keeps the draw stream, and with it the reports, as they were:
        # the unit-scaled rank verdict and the volumes stay homogeneous at any alpha
        alpha = _redrawn(rows, lambda m: rng.uniform(-10.0, 10.0, size=m), lambda a: np.abs(a) >= 1e-3)
        scaled_tuples = vs.copy()
        scaled_tuples[:, 0] *= alpha[:, None]
        base, got = _norms(norm_fn, np.stack([vs, scaled_tuples]))
        want = np.abs(alpha) * base
        rel = np.abs(got - want) / np.maximum(np.maximum(got, want), 1e-30)
        tally.add(rel, rel > 1e-12, lambda i: {"tuple": vs[i].tolist(), "alpha": float(alpha[i]),
                                               "scaled": float(got[i]), "expected": float(want[i])})
    reports.append(tally.report("axioms.N3", trials, seed))

    # N4: triangle inequality in the first slot, absolute slack 1e-9
    rng = np.random.default_rng([seed, 4])
    tally = _Tally()
    for _, rows in blocks:
        rest = rng.standard_normal((rows, order - 1, dim))
        x = rng.standard_normal((rows, dim))
        y = rng.standard_normal((rows, dim))
        firsts = np.stack([x + y, x, y])[:, :, None, :]
        tuples = np.concatenate([firsts, np.broadcast_to(rest, (3, *rest.shape))], axis=2)
        lhs, nx, ny = _norms(norm_fn, tuples)
        rhs = nx + ny
        excess = lhs - rhs - 1e-9
        tally.add(excess, excess > 0, lambda i: {"x": x[i].tolist(), "y": y[i].tolist(), "rest": rest[i].tolist(),
                                                 "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    reports.append(tally.report("axioms.N4", trials, seed))
    return reports


# ---------------------------------------------------------------------------
# bounded <-> continuous
# ---------------------------------------------------------------------------

def _gated_blocks(space: AnchoredSpace, rng, trials: int, ops, width: int):
    """The gated-block pass of the bounded suites.  Their operators
    T(x) = L x + c are the default family of ``trials`` matrices drawn from
    ``rng``, or ``ops``; each ``_blocks`` span of them, for ``width``
    coordinates an operator, comes as (start, L, c, witness, violated, M):
    the kernel gate's witness rows and verdicts, and the exact bound
    constant M, 0 for a kernel violator."""
    d = space.dim
    if ops is not None and not ops:
        raise ValueError("ops must not be empty")
    blocks = _blocks(trials if ops is None else len(ops), width)
    if ops is None:
        lin, offset = _kernel_preserving_matrices(space, rng, trials), np.zeros((trials, d))
    elif None in (forms := [_affine_form(op, d) for op in ops]):
        raise ValueError(f"the bounded suites need operators with an affine form, not {ops[forms.index(None)].name!r}")
    else:
        lin, offset = (np.array(part, dtype=float) for part in zip(*forms))
    for start, rows in blocks:
        lin_b, off_b = lin[start:start + rows], offset[start:start + rows]
        witness, violated = _kernel_gate(space, lin_b, off_b)
        m = np.where(violated, 0.0, _bound_constants(space, lin_b))
        yield start, lin_b, off_b, witness, violated, m


def check_bounded_iff_continuous(
    space: AnchoredSpace,
    trials: int = 1000,
    seed: int = 0,
    ops: Optional[Sequence[OperatorSpec]] = None,
) -> PropertyReport:
    """Linear kernel-preserving operators with their exact bound constant M
    (``lipschitz_constant``) must pass the epsilon-delta probe with
    delta = eps / (M + 1), at 0 and at a random base point.

    An operator that moves the kernel out of itself violates the family
    precondition: the suite flags it as a failure and records the
    constructed divergent-image sequence as the counterexample.  The
    operators (the default family, or ``ops`` with an affine form) come a
    block at a time from the gated-block pass ``_gated_blocks``; each
    operator that keeps the kernel draws eps, x0 and ``draw_ball`` rows from
    the suite's own generator.
    """
    seed = _seed_key(seed)
    rng = np.random.default_rng([seed, 10])
    d, s = space.dim, PROBE_SAMPLES
    u = space.complement_basis[:, 0]
    tally = _Tally()
    for start, lin, off, witness, violated, m in _gated_blocks(space, rng, trials, ops, 2 * s * d):
        rows = len(lin)
        eps, delta, radii, x0 = np.zeros(rows), np.zeros(rows), np.zeros((rows, s)), np.zeros((rows, 2, d))
        dirs, coeffs = np.zeros((rows, s, space.complement_dim)), np.zeros((rows, s, space.order - 1))
        for i in np.flatnonzero(~violated):
            eps[i] = rng.uniform(0.2, 2.0)
            delta[i] = eps[i] / (m[i] + 1.0)
            x0[i, 1] = rng.standard_normal(d)
            dirs[i], radii[i], coeffs[i] = space.draw_ball(rng, s, delta[i])
        # (operator, base point, sample): both base points share the draw
        pts = space.ball_points(dirs[:, None], radii[:, None], coeffs[:, None], center=x0[:, :, None])
        lt = lin.swapaxes(-1, -2)[:, None]
        tx0 = x0[:, :, None] @ lt + off[:, None, None]
        imgs = space.seminorm_batch((pts @ lt + off[:, None, None] - tx0).reshape(-1, d)).reshape(rows, 2, s)
        reach = imgs.max(axis=-1)
        failed = (reach >= eps[:, None]) & ~violated[:, None]
        values = np.where(failed, reach - eps[:, None], np.nan)
        violations = {}
        for i in np.flatnonzero(violated):
            t_limit = np.zeros(d) @ lin[i].T + off[i]
            residuals = [space.seminorm_raw((witness[i] + u / k) @ lin[i].T + off[i] - t_limit) for k in range(1, 17)]
            failed[i, 0], values[i, 0] = True, min(residuals[8:])
            violations[i] = {
                "operator_index": start + int(i),
                "reason": "kernel not preserved: images of a vanishing sequence stay away from the image of its limit",
                "witness": witness[i].tolist(),
                "image_residuals": residuals,
            }

        def probe_failure(j):
            i, b = divmod(j, 2)
            if violated[i]:
                return violations[i]
            return {"operator_index": start + i, "reason": "continuity probe failed", "x0": x0[i, b].tolist(),
                    "witness": pts[i, b, np.argmax(imgs[i, b])].tolist(), "epsilon": float(eps[i]),
                    "delta": float(delta[i]), "image_distance": float(reach[i, b])}
        tally.add(values.ravel(), failed.ravel(), probe_failure)
    return tally.report("bounded_iff_continuous", start + rows, seed)  # the last block ends at the operator count


def check_bounded_sets(
    space: AnchoredSpace,
    trials: int = 1000,
    seed: int = 0,
    ops: Optional[Sequence[OperatorSpec]] = None,
) -> PropertyReport:
    """Bounded sets map into bounded sets: sampled points with semi-norm at
    most R land within M * R (+1e-9) of the origin, M the exact bound
    constant (``lipschitz_constant``).  Kernel violators are flagged with
    their unbounded-ratio witness.  As in ``check_bounded_iff_continuous``,
    the operators come a block at a time from the gated-block pass
    ``_gated_blocks``: each draws its radius and ``sample_ball``'s points in
    turn, and the images are one stacked pass."""
    seed = _seed_key(seed)
    rng = np.random.default_rng([seed, 20])
    d, s = space.dim, BOUNDED_SET_POINTS
    tally = _Tally()
    for start, lin, off, witness, violated, m in _gated_blocks(space, rng, trials, ops, s * d):
        rows = len(lin)
        radius, radii = np.zeros(rows), np.zeros((rows, s))
        dirs, coeffs = np.zeros((rows, s, space.complement_dim)), np.zeros((rows, s, space.order - 1))
        for i in np.flatnonzero(~violated):
            radius[i] = rng.uniform(0.5, 3.0)
            dirs[i], radii[i], coeffs[i] = space.draw_ball(rng, s, radius[i])
        pts = space.ball_points(dirs, radii, coeffs)
        imgs = space.seminorm_batch((pts @ lin.swapaxes(-1, -2) + off[:, None]).reshape(-1, d)).reshape(rows, s)
        bound = m * radius
        values = imgs.max(axis=1) - (bound + 1e-9)
        failed = (values > 0) | violated
        for i in np.flatnonzero(violated):
            values[i] = space.seminorm_raw(witness[i] @ lin[i].T + off[i])

        def escape(i):
            if violated[i]:
                return {"operator_index": start + i,
                        "reason": "kernel violator: zero semi-norm point with nonzero image, ratio unbounded",
                        "witness": witness[i].tolist(), "image_seminorm": float(values[i])}
            j = int(np.argmax(imgs[i]))
            return {"operator_index": start + i, "reason": "image escaped the bounded set", "point": pts[i, j].tolist(),
                    "image_seminorm": float(imgs[i, j]), "bound": float(bound[i])}
        tally.add(values, failed, escape)
    return tally.report("bounded_sets", start + rows, seed)


# ---------------------------------------------------------------------------
# product balls
# ---------------------------------------------------------------------------

def check_product_ball_lemma(
    space: AnchoredSpace,
    x0,
    y0,
    r1: float,
    r: Optional[float] = None,
    r_prime: Optional[float] = None,
    trials: int = 1000,
    seed: int = 0,
) -> PropertyReport:
    """Pairs drawn from the two component balls must land inside the product
    ball of radius r1 around (x0, y0).

    Component radii default to 0.4 * r1 and must satisfy r + r' < r1: the
    sum bound is what the containment chain actually uses, so radii merely
    below r1 are not enough.  worst_violation reports how far the sampled
    product distance exceeded r + r' (0 when the chain held everywhere).
    """
    if r is None:
        r = 0.4 * r1
    if r_prime is None:
        r_prime = 0.4 * r1
    if not (r > 0 and r_prime > 0):
        raise ValueError("component radii must be positive")
    if not (r + r_prime < r1):
        raise ValueError(f"need r + r' < r1, got {r} + {r_prime} >= {r1}")
    x0, y0 = as_vector(x0, space.dim), as_vector(y0, space.dim)
    seed = _seed_key(seed)
    rng = np.random.default_rng([seed, 30])
    order, dim = space.order, space.dim
    tally = _Tally()
    for _, rows in _blocks(trials, 2 * order * dim):
        x = space.sample_ball(rng, rows, r, center=x0)
        y = space.sample_ball(rng, rows, r_prime, center=y0)
        # product_nnorm of (x - x0, y - y0) beside the anchor pairs (b, b):
        # the Gram volume of each side, both sides in one stacked call
        tuples = np.empty((2, rows, order, dim))
        tuples[0, :, 0] = x - x0
        tuples[1, :, 0] = y - y0
        tuples[:, :, 1:] = space.anchors
        left, right = gram_volumes(tuples)
        dist = left + right
        tally.add(dist - (r + r_prime), dist >= r1,
                  lambda i: {"x": x[i].tolist(), "y": y[i].tolist(), "product_distance": float(dist[i]), "r1": r1})
    return tally.report("product_ball", trials, seed)


# ---------------------------------------------------------------------------
# reduction of the geometric regime to the summable one
# ---------------------------------------------------------------------------

REFERENCE_BLOCK_ELEMENTS = 8192  # most rows x dim the Banach reference iterates at once
REDUCTION_TOL = 1e-10  # the certified-error target of every reduction solve and its reference


class _BanachReference(NamedTuple):
    """Banach's iteration for a stack of rows, with its closed-form bounds."""

    iterates: np.ndarray  # (steps + 1, rows, dim); row i is valid up to stop[i]
    bounds: np.ndarray    # (steps, rows, 3): apriori, aposteriori, certified
    stop: np.ndarray      # (rows,) the step each row stops at, 0 when x0 is fixed
    cover: np.ndarray     # (rows,) steps the a-priori bound alone needs, plus one


def _banach_reference(space: AnchoredSpace, step, alpha: np.ndarray, x0: np.ndarray) -> _BanachReference:
    """Iterate x_{k+1} = T x_k for every row of ``x0`` in lock step.

    ``step`` maps a (rows, dim) stack, and row i contracts by ``alpha[i]``.
    Row i's bounds are Banach's: a priori alpha^k / (1 - alpha) * res_0, a
    posteriori alpha / (1 - alpha) * res_k, with res_k the semi-norm of
    x_k - x_{k-1} in the projection form vol * |(I - B B^T) v|; the row stops
    at the first step where their minimum is at most REDUCTION_TOL.  No row
    runs past the step where the a-priori bound alone reaches it.
    """
    basis, vol = space.anchor_basis, space.anchor_volume

    def residuals(x, x_next):
        d = x_next - x
        return vol * _lengths(d - (d @ basis) @ basis.T)

    x, x_next = x0, step(x0)
    res0 = residuals(x, x_next)
    moving = res0 > 0.0
    with np.errstate(divide="ignore"):
        need = np.ceil(np.log(REDUCTION_TOL * (1.0 - alpha) / res0) / np.log(alpha))
    cover = np.where(moving, np.maximum(need, 1.0), 0.0).astype(int) + 1
    stop = np.where(moving, -1, 0)
    rate = alpha / (1.0 - alpha)
    iterates, bounds = [x0], []
    res = res0
    for k in range(1, int(cover.max()) + 1):
        if k > 1:
            x, x_next = x_next, step(x_next)
            res = residuals(x, x_next)
        apriori = alpha ** k / (1.0 - alpha) * res0
        apost = rate * res
        bounds.append(np.stack((apriori, apost, np.minimum(apriori, apost)), axis=1))
        iterates.append(x_next)
        stop[(stop < 0) & (bounds[-1][:, 2] <= REDUCTION_TOL)] = k
        if np.all(stop >= 0):
            break
    return _BanachReference(np.stack(iterates), np.stack(bounds), stop, cover)


def _reduction_rows(space: AnchoredSpace, ops, step, alpha: np.ndarray, x0: np.ndarray,
                    xstar: Optional[np.ndarray]) -> list:
    """Banach's theorem as the summable one with a_k = alpha^k, for a stack
    of problems: one summable solve per row, given alpha^1 ... alpha^N as an
    explicit list with the declared tail alpha^(N+1) / (1 - alpha), all
    checked at once against the lock-step reference and, where ``xstar``
    holds the exact fixed points, against those.  Returns one
    (worst discrepancy, problems) pair per row."""
    ref = _banach_reference(space, step, alpha, x0)
    reports = []
    for i, op in enumerate(ops):
        a, n = float(alpha[i]), int(ref.cover[i])
        seq = explicit_sequence([a ** k for k in range(1, n + 1)], tail=a ** (n + 1) / (1.0 - a))
        cfg = SolverConfig(regime="summable", a_seq=seq, tol=REDUCTION_TOL, keep_iterates=True)
        reports.append(summable_solve(op, space, x0[i], cfg))

    # the certificate against the exact fixed point, for every row at once
    if xstar is not None:
        points = np.stack([r.fixed_point for r in reports])
        certified = np.array([r.certified_error for r in reports])
        errors = space.seminorm_batch(points - xstar)
        slack = space.roundoff_floor(_lengths(points) + _lengths(xstar))
        excess = errors - (certified + slack)

    out = []
    for i, r in enumerate(reports):
        problems = []
        k_ref = int(ref.stop[i])
        worst = 0.0
        if r.iterations != k_ref:
            problems.append(f"iteration counts differ: {r.iterations} vs {k_ref} for the reference")
            worst = float(abs(r.iterations - k_ref))
        common = min(r.iterations, k_ref) + 1
        gap = float(np.max(np.abs(np.asarray(r.iterates[:common]) - ref.iterates[:common, i])))
        worst = max(worst, gap)
        if gap > 1e-12:
            problems.append(f"iterates diverge by {gap:.3e}")
        if common > 1:
            got = np.array([row[2:] for row in r.trace[:common - 1]])
            want = ref.bounds[:common - 1, i]
            scale = np.maximum(np.abs(got), np.abs(want))
            rel = float(np.max(np.abs(got - want) / np.where(scale > 0.0, scale, 1.0)))
            if rel > 1e-12:
                problems.append(f"bounds differ by {rel:.3e} relative")
                worst = max(worst, rel)
        end = float(np.max(np.abs(r.fixed_point - ref.iterates[k_ref, i])))
        if end > 1e-12:
            problems.append(f"returned point is {end:.3e} from the reference's last iterate")
            worst = max(worst, end)
        if xstar is not None and excess[i] > 0.0:
            problems.append(f"certified error {r.certified_error:.3e} is below "
                            f"the exact error {errors[i]:.3e}")
            worst = max(worst, float(excess[i]))
        out.append((worst, problems))
    return out


def check_banach_reduction(op, space: AnchoredSpace, x0, alpha: float, seed: int = 0) -> PropertyReport:
    """The summable solver with a_k = alpha^k given as an explicit list must
    replay Banach's iteration: the reference's iterates and stopping step,
    its closed-form bounds to 1e-12 relative, and, for an operator with a
    linear part L, a certificate that covers the distance to the exact fixed
    point.  That point is unique modulo the anchor span, where I - L may be
    singular, so it is taken as C z with (I - C^T L C) z = C^T T(0)."""
    x0 = as_vector(x0, space.dim)[None, :]
    seed = _seed_key(seed)
    f = _compile(op, space)
    xstar = None
    if f.lin is not None:
        c, lin, t0 = space.complement_basis, f.lin, f.offset
        try:
            xstar = (c @ np.linalg.solve(np.eye(space.complement_dim) - _quotient_map(space, lin), c.T @ t0))[None, :]
        except np.linalg.LinAlgError:
            pass  # no unique fixed point modulo the span: the engine refuses alpha
    [(worst, problems)] = _reduction_rows(space, [op], f.step, np.array([alpha], dtype=float), x0, xstar)
    ce = {"alpha": alpha, "x0": x0[0].tolist(), "problems": problems} if problems else None
    return PropertyReport("banach_reduction", 1, 1 if problems else 0, worst, ce, seed)


def reduction_suite(dim: int, order: int, trials: int = 1000, seed: int = 0) -> PropertyReport:
    """check_banach_reduction over a family of random affine contractions
    alpha * I + c, as many in lock step at a time as REFERENCE_BLOCK_ELEMENTS
    coordinates allow: all 1000 at d = 3, 128 at d = 64."""
    space = canonical_space(dim, order)
    seed = _seed_key(seed)
    rng = np.random.default_rng([seed, 40])
    tally = _Tally()
    for start, rows in _blocks(trials, dim, REFERENCE_BLOCK_ELEMENTS):
        alpha = np.empty(rows)
        offset = np.empty((rows, dim))
        x0 = np.empty((rows, dim))
        for j in range(rows):
            alpha[j] = rng.uniform(0.1, 0.9)
            offset[j] = rng.standard_normal(dim)
            x0[j] = rng.standard_normal(dim)
        ops = [affine_operator(a * np.eye(dim), offset=c) for a, c in zip(alpha, offset)]
        worst, problems = zip(*_reduction_rows(space, ops, lambda x: x * alpha[:, None] + offset, alpha, x0,
                                               offset / (1.0 - alpha)[:, None]))
        tally.add(np.array(worst), np.array([bool(p) for p in problems]),
                  lambda j: {"trial": start + j, "alpha": float(alpha[j]), "x0": x0[j].tolist(),
                             "problems": problems[j]})
    return tally.report("banach_reduction", trials, seed)


# ---------------------------------------------------------------------------
# contractive ratios
# ---------------------------------------------------------------------------

def check_contractive_ratio(
    op: OperatorSpec,
    space: AnchoredSpace,
    x0,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 1500,
) -> PropertyReport:
    """Sampled displacement ratios of a declared contractive-type map must
    stay strictly below 1, and so must the ratios in the terminal window of
    its iteration trace.  worst_violation reports the largest ratio seen;
    a value within 1e-9 of 1 is flagged (an isometry, not a contractive
    map)."""
    x0, seed = as_vector(x0, space.dim), _seed_key(seed)
    rng = np.random.default_rng([seed, 50])
    tally = _Tally()
    for start, rows in _blocks(trials, 2 * space.dim):
        p, q = (rng.standard_normal((rows, 2, space.dim)) * 1.5).swapaxes(0, 1)
        den = space.seminorm_batch(p - q)
        keep = np.flatnonzero(den > space.roundoff_floor(_lengths(p) + _lengths(q)))
        p, q, den = p[keep], q[keep], den[keep]
        f = space.seminorm_batch(apply_batch(op, p) - apply_batch(op, q)) / den
        tally.add(f, f >= 1.0 - RATIO_FLAG_TOL, lambda i: {"trial": start + int(keep[i]), "p": p[i].tolist(),
                                                           "q": q[i].tolist(), "ratio": float(f[i])})

    cfg = SolverConfig(regime="edelstein", tol=tol, max_iter=max_iter)
    report = edelstein_solve(op, space, x0, cfg)
    window = [f for _, f in report.ratios[-32:]]
    if window:
        terminal = max(window)
        tally.add(np.array([terminal]), np.array([terminal >= 1.0 - RATIO_FLAG_TOL]),
                  lambda _: {"case": "terminal window of the iteration trace", "max_ratio": terminal,
                             "iterations": report.iterations, "converged": report.converged})
    return tally.report("contractive_ratio", trials, seed)
