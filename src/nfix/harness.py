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

from .nnorm import AnchoredSpace, as_vector, gram_volumes
from .operators import (
    OperatorSpec,
    affine_operator,
    apply,
    apply_batch,
    continuity_probe,
    kernel_violation_witness,
    lipschitz_constant,
)
from .solvers import SolverConfig, edelstein_solve, explicit_sequence, summable_solve

RATIO_FLAG_TOL = 1e-9  # a sampled ratio this close to 1 breaks strictness
BOUNDED_SET_POINTS = 32  # ball points check_bounded_sets maps per operator

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


def canonical_space(dim: int, order: int, rank_tol: float = 1e-9) -> AnchoredSpace:
    """Anchors e_2, ..., e_order: the standard instance used by the CLI."""
    return AnchoredSpace(dim=dim, order=order, anchors=np.eye(dim)[1:order], rank_tol=rank_tol)


def random_kernel_preserving_operator(space: AnchoredSpace, rng, spread: float = 1.0) -> OperatorSpec:
    """Random linear operator whose matrix maps the anchor span into itself
    (block triangular over the orthonormal split)."""
    m = space.complement_dim
    k = space.order - 1
    b11 = rng.standard_normal((m, m)) * spread
    b21 = rng.standard_normal((k, m)) * spread
    b22 = rng.standard_normal((k, k)) * spread
    qc = space.complement_basis
    qa = space.anchor_basis
    return affine_operator(qc @ b11 @ qc.T + qa @ b21 @ qc.T + qa @ b22 @ qa.T)


def _vec(x) -> list:
    return [float(v) for v in np.asarray(x).ravel()]


def _tuple_list(vectors) -> list:
    return [_vec(v) for v in vectors]


def _blocks(trials: int, width: int):
    """(start, rows) spans covering ``trials`` trials in order, each at most
    SUITE_BLOCK rows and, for trials of ``width`` coordinates, at most
    _SUITE_BLOCK_ELEMENTS coordinates."""
    step = max(1, min(SUITE_BLOCK, _SUITE_BLOCK_ELEMENTS // width))
    for start in range(0, trials, step):
        yield start, min(step, trials - start)


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
        scale = np.prod(np.linalg.norm(vs, axis=-1), axis=-1)
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
    """Failures, worst value and counterexample of one property, reduced over
    blocks of trials in trial order: the counterexample is the first failed
    trial that reaches the worst value, as a loop over the trials finds it."""

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

    def report(self, property_id: str, trials: int, seed: int) -> PropertyReport:
        return PropertyReport(property_id, trials, self.failures, self.worst, self.ce, seed)


def _bound_constant(op: OperatorSpec, space: AnchoredSpace) -> float:
    """The exact bound constant M of a kernel-preserving operator: an upper
    bound, as the bounded suites' inequalities need, not a sampled one."""
    m = lipschitz_constant(op, space)
    if m is None:
        raise ValueError("the bounded suites need operators with a linear part")
    return m


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (2 <= order <= dim):
        raise ValueError("need 2 <= order <= dim")
    reports = []
    blocks = list(_blocks(trials, 3 * order * dim))  # N4 stacks three tuples a trial

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
        scale = np.maximum(np.prod(np.linalg.norm(dependent, axis=-1), axis=-1), 1.0)
        got, val = _norms(norm_fn, np.stack([dependent, indep]))
        excess = got - 1e-9 * scale
        tally.add(excess, excess > 0, lambda i: {"case": "dependent tuple not collapsed",
                                                 "tuple": _tuple_list(dependent[i]), "value": float(got[i])})
        collapsed = np.flatnonzero(~(val > 0.0))
        tally.failures += collapsed.size
        if tally.ce is None and collapsed.size:
            i = collapsed[0]
            tally.ce = {"case": "independent tuple collapsed", "tuple": _tuple_list(indep[i]), "value": float(val[i])}
    reports.append(tally.report("axioms.N1", trials, seed))

    # N2: permutation invariance, relative 1e-12
    rng = np.random.default_rng([seed, 2])
    tally = _Tally()
    for _, rows in blocks:
        vs = _conditioned_tuples(rng, rows, order, dim)
        perm = rng.permuted(np.tile(np.arange(order), (rows, 1)), axis=1)
        base, got = _norms(norm_fn, np.stack([vs, np.take_along_axis(vs, perm[:, :, None], axis=1)]))
        rel = np.abs(got - base) / np.maximum(np.maximum(base, got), 1e-30)
        tally.add(rel, rel > 1e-12, lambda i: {"tuple": _tuple_list(vs[i]), "permutation": [int(p) for p in perm[i]],
                                               "base": float(base[i]), "permuted": float(got[i])})
    reports.append(tally.report("axioms.N2", trials, seed))

    # N3: absolute homogeneity in the first slot, relative 1e-12
    rng = np.random.default_rng([seed, 3])
    tally = _Tally()
    for _, rows in blocks:
        vs = _conditioned_tuples(rng, rows, order, dim)
        # below the rank snap homogeneity degenerates by design
        alpha = _redrawn(rows, lambda m: rng.uniform(-10.0, 10.0, size=m), lambda a: np.abs(a) >= 1e-3)
        scaled_tuples = vs.copy()
        scaled_tuples[:, 0] *= alpha[:, None]
        base, got = _norms(norm_fn, np.stack([vs, scaled_tuples]))
        want = np.abs(alpha) * base
        rel = np.abs(got - want) / np.maximum(np.maximum(got, want), 1e-30)
        tally.add(rel, rel > 1e-12, lambda i: {"tuple": _tuple_list(vs[i]), "alpha": float(alpha[i]),
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
        tally.add(excess, excess > 0, lambda i: {"x": _vec(x[i]), "y": _vec(y[i]), "rest": _tuple_list(rest[i]),
                                                 "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    reports.append(tally.report("axioms.N4", trials, seed))
    return reports


# ---------------------------------------------------------------------------
# bounded <-> continuous
# ---------------------------------------------------------------------------

def check_bounded_iff_continuous(
    space: AnchoredSpace,
    trials: int = 1000,
    seed: int = 0,
    ops: Optional[Sequence[OperatorSpec]] = None,
) -> PropertyReport:
    """Linear kernel-preserving operators with their exact bound constant M
    (``lipschitz_constant``) must pass the epsilon-delta probe with
    delta = eps / (M + 1).

    An operator that moves the kernel out of itself violates the family
    precondition: the suite flags it as a failure and records the
    constructed divergent-image sequence as the counterexample.
    """
    rng = np.random.default_rng([seed, 10])
    if ops is None:
        ops = [random_kernel_preserving_operator(space, rng) for _ in range(trials)]
    failures = 0
    worst = 0.0
    ce = None
    for i, op in enumerate(ops):
        witness = kernel_violation_witness(op, space, seed=seed + i)
        if witness is not None:
            failures += 1
            u = space.complement_basis[:, 0]
            t_limit = apply(op, np.zeros(space.dim))
            residuals = [
                space.seminorm_raw(apply(op, witness + u / k) - t_limit)
                for k in range(1, 17)
            ]
            stuck = min(residuals[8:])
            if stuck > worst:
                worst = stuck
                ce = {
                    "operator_index": i,
                    "reason": "kernel not preserved: images of a vanishing sequence stay away from the image of its limit",
                    "witness": _vec(witness),
                    "image_residuals": residuals,
                }
            continue
        m = _bound_constant(op, space)
        eps = float(rng.uniform(0.2, 2.0))
        delta = eps / (m + 1.0)
        for x0 in (np.zeros(space.dim), rng.standard_normal(space.dim)):
            probe = continuity_probe(op, space, x0, eps, delta, samples=64, seed=seed + i)
            if not probe.ok:
                failures += 1
                excess = probe.max_image_distance - eps
                if excess > worst:
                    worst = excess
                    ce = {
                        "operator_index": i,
                        "reason": "continuity probe failed",
                        "x0": _vec(x0),
                        "witness": _vec(probe.witness),
                        "epsilon": eps,
                        "delta": delta,
                        "image_distance": probe.max_image_distance,
                    }
    return PropertyReport("bounded_iff_continuous", len(ops), failures, worst, ce, seed)


def check_bounded_sets(
    space: AnchoredSpace,
    trials: int = 1000,
    seed: int = 0,
    ops: Optional[Sequence[OperatorSpec]] = None,
) -> PropertyReport:
    """Bounded sets map into bounded sets: sampled points with semi-norm at
    most R land within M * R (+1e-9) of the origin, M the exact bound
    constant (``lipschitz_constant``).  Kernel violators are flagged with
    their unbounded-ratio witness."""
    rng = np.random.default_rng([seed, 20])
    if ops is None:
        ops = [random_kernel_preserving_operator(space, rng) for _ in range(trials)]
    failures = 0
    worst = 0.0
    ce = None
    for i, op in enumerate(ops):
        witness = kernel_violation_witness(op, space, seed=seed + i)
        if witness is not None:
            failures += 1
            img = space.seminorm_raw(apply(op, witness))
            if img > worst:
                worst = img
                ce = {
                    "operator_index": i,
                    "reason": "kernel violator: zero semi-norm point with nonzero image, ratio unbounded",
                    "witness": _vec(witness),
                    "image_seminorm": img,
                }
            continue
        m = _bound_constant(op, space)
        radius = float(rng.uniform(0.5, 3.0))
        pts = space.sample_ball(rng, BOUNDED_SET_POINTS, radius)
        imgs = space.seminorm_batch(apply_batch(op, pts))
        excess = float(np.max(imgs)) - (m * radius + 1e-9)
        if excess > 0:
            failures += 1
            if excess > worst:
                worst = excess
                j = int(np.argmax(imgs))
                ce = {
                    "operator_index": i,
                    "reason": "image escaped the bounded set",
                    "point": _vec(pts[j]),
                    "image_seminorm": float(imgs[j]),
                    "bound": m * radius,
                }
    return PropertyReport("bounded_sets", len(ops), failures, worst, ce, seed)


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
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
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
        left, right = gram_volumes(tuples, space.rank_tol)
        dist = left + right
        tally.add(dist - (r + r_prime), dist >= r1,
                  lambda i: {"x": _vec(x[i]), "y": _vec(y[i]), "product_distance": float(dist[i]), "r1": r1})
    return tally.report("product_ball", trials, seed)


# ---------------------------------------------------------------------------
# reduction of the geometric regime to the summable one
# ---------------------------------------------------------------------------

REFERENCE_BLOCK = 128  # rows the Banach reference iterates at once; memory is block x steps x dim


class _BanachReference(NamedTuple):
    """Banach's iteration for a stack of rows, with its closed-form bounds."""

    iterates: np.ndarray  # (steps + 1, rows, dim); row i is valid up to stop[i]
    bounds: np.ndarray    # (steps, rows, 3): apriori, aposteriori, certified
    stop: np.ndarray      # (rows,) the step each row stops at, 0 when x0 is fixed
    cover: np.ndarray     # (rows,) steps the a-priori bound alone needs, plus one


def _banach_reference(space: AnchoredSpace, step, alpha: np.ndarray, x0: np.ndarray,
                      tol: float) -> _BanachReference:
    """Iterate x_{k+1} = T x_k for every row of ``x0`` in lock step.

    ``step`` maps a (rows, dim) stack, and row i contracts by ``alpha[i]``.
    Row i's bounds are Banach's: a priori alpha^k / (1 - alpha) * res_0, a
    posteriori alpha / (1 - alpha) * res_k, with res_k the semi-norm of
    x_k - x_{k-1} in the projection form vol * |(I - B B^T) v|; the row stops
    at the first step where their minimum is at most tol.  No row runs past
    the step where the a-priori bound alone reaches tol.
    """
    basis, vol = space.anchor_basis, space.anchor_volume

    def residuals(x, x_next):
        d = x_next - x
        return vol * np.linalg.norm(d - (d @ basis) @ basis.T, axis=1)

    x, x_next = x0, step(x0)
    res0 = residuals(x, x_next)
    moving = res0 > 0.0
    with np.errstate(divide="ignore"):
        need = np.ceil(np.log(tol * (1.0 - alpha) / res0) / np.log(alpha))
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
        stop[(stop < 0) & (bounds[-1][:, 2] <= tol)] = k
        if np.all(stop >= 0):
            break
    return _BanachReference(np.stack(iterates), np.stack(bounds), stop, cover)


def _reduction_rows(space: AnchoredSpace, ops, step, alpha: np.ndarray, x0: np.ndarray,
                    xstar: Optional[np.ndarray], tol: float) -> list:
    """Banach's theorem as the summable one with a_k = alpha^k, for a stack
    of problems: one summable solve per row, given alpha^1 ... alpha^N as an
    explicit list with the declared tail alpha^(N+1) / (1 - alpha), all
    checked at once against the lock-step reference and, where ``xstar``
    holds the exact fixed points, against those.  Returns one
    (worst discrepancy, problems) pair per row."""
    ref = _banach_reference(space, step, alpha, x0, tol)
    reports = []
    for i, op in enumerate(ops):
        a, n = float(alpha[i]), int(ref.cover[i])
        seq = explicit_sequence([a ** k for k in range(1, n + 1)], tail=a ** (n + 1) / (1.0 - a))
        cfg = SolverConfig(regime="summable", a_seq=seq, tol=tol, keep_iterates=True)
        reports.append(summable_solve(op, space, x0[i], cfg))

    # the certificate against the exact fixed point, for every row at once
    if xstar is not None:
        points = np.stack([r.fixed_point for r in reports])
        certified = np.array([r.certified_error for r in reports])
        errors = space.anchor_volume * np.linalg.norm((points - xstar) @ space.complement_basis, axis=1)
        slack = space.roundoff_floor(np.linalg.norm(points, axis=1) + np.linalg.norm(xstar, axis=1))
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


def check_banach_reduction(op, space: AnchoredSpace, x0, alpha: float, seed: int = 0,
                           tol: float = 1e-10) -> PropertyReport:
    """The summable solver with a_k = alpha^k given as an explicit list must
    replay Banach's iteration: the reference's iterates and stopping step,
    its closed-form bounds to 1e-12 relative, and, for an operator with a
    linear part L, a certificate that covers the distance to the exact fixed
    point.  That point is unique modulo the anchor span, where I - L may be
    singular, so it is taken as C z with (I - C^T L C) z = C^T T(0)."""
    x0 = as_vector(x0, space.dim)[None, :]
    lin = op.linear_part(space.dim)
    xstar = None
    if lin is not None:
        c = space.complement_basis
        t0 = apply(op, np.zeros(space.dim))
        try:
            xstar = (c @ np.linalg.solve(np.eye(space.complement_dim) - c.T @ lin @ c, c.T @ t0))[None, :]
        except np.linalg.LinAlgError:
            pass  # no unique fixed point modulo the span: the engine refuses alpha
    [(worst, problems)] = _reduction_rows(space, [op], lambda x: apply_batch(op, x),
                                          np.array([alpha], dtype=float), x0, xstar, tol)
    ce = {"alpha": alpha, "x0": _vec(x0), "problems": problems} if problems else None
    return PropertyReport("banach_reduction", 1, 1 if problems else 0, worst, ce, seed)


def reduction_suite(dim: int, order: int, trials: int = 1000, seed: int = 0,
                    tol: float = 1e-10) -> PropertyReport:
    """check_banach_reduction over a family of random affine contractions
    alpha * I + c, REFERENCE_BLOCK of them in lock step at a time."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space = canonical_space(dim, order)
    rng = np.random.default_rng([seed, 40])
    failures = 0
    worst = 0.0
    ce = None
    for start in range(0, trials, REFERENCE_BLOCK):
        rows = min(REFERENCE_BLOCK, trials - start)
        alpha = np.empty(rows)
        offset = np.empty((rows, dim))
        x0 = np.empty((rows, dim))
        for j in range(rows):
            alpha[j] = rng.uniform(0.1, 0.9)
            offset[j] = rng.standard_normal(dim)
            x0[j] = rng.standard_normal(dim)
        ops = [affine_operator(a * np.eye(dim), offset=c) for a, c in zip(alpha, offset)]
        results = _reduction_rows(space, ops, lambda x: x * alpha[:, None] + offset, alpha, x0,
                                  offset / (1.0 - alpha)[:, None], tol)
        for j, (w, problems) in enumerate(results):
            if problems:
                failures += 1
                if w > worst:
                    ce = {"trial": start + j, "alpha": float(alpha[j]), "x0": _vec(x0[j]),
                          "problems": problems}
            worst = max(worst, w)
    return PropertyReport("banach_reduction", trials, failures, worst, ce, seed)


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
    rng = np.random.default_rng([seed, 50])
    x0 = np.asarray(x0, dtype=float)
    tally = _Tally()
    for start, rows in _blocks(trials, 2 * space.dim):
        p, q = (rng.standard_normal((rows, 2, space.dim)) * 1.5).swapaxes(0, 1)
        den = space.seminorm_batch(p - q)
        keep = np.flatnonzero(den > space.roundoff_floor(np.linalg.norm(p, axis=1) + np.linalg.norm(q, axis=1)))
        p, q, den = p[keep], q[keep], den[keep]
        f = space.seminorm_batch(apply_batch(op, p) - apply_batch(op, q)) / den
        tally.add(f, f >= 1.0 - RATIO_FLAG_TOL, lambda i: {"trial": start + int(keep[i]), "p": _vec(p[i]),
                                                           "q": _vec(q[i]), "ratio": float(f[i])})
    failures, worst, ce = tally.failures, tally.worst, tally.ce

    cfg = SolverConfig(regime="edelstein", tol=tol, max_iter=max_iter)
    report = edelstein_solve(op, space, x0, cfg)
    window = [f for _, f in report.ratios[-32:]]
    if window:
        terminal = max(window)
        worst = max(worst, terminal)
        if terminal >= 1.0 - RATIO_FLAG_TOL:
            failures += 1
            if ce is None or terminal >= worst:
                ce = {
                    "case": "terminal window of the iteration trace",
                    "max_ratio": terminal,
                    "iterations": report.iterations,
                    "converged": report.converged,
                }
    return PropertyReport("contractive_ratio", trials, failures, worst, ce, seed)
