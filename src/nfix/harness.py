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

from .nnorm import AnchoredSpace, ProductPoint, as_vector, gram_nnorm, product_nnorm
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


def _conditioned_tuple(rng, count: int, dim: int, min_ratio: float = 0.05) -> np.ndarray:
    """Standard normal tuple redrawn until its volume is a healthy fraction of
    the product of lengths; the double-precision tolerance claims hold for
    such conditioned draws."""
    while True:
        vs = rng.standard_normal((count, dim))
        scale = float(np.prod(np.linalg.norm(vs, axis=1)))
        if scale > 0 and gram_nnorm(vs) > min_ratio * scale:
            return vs


def _bound_constant(op: OperatorSpec, space: AnchoredSpace) -> float:
    """The exact bound constant M of a kernel-preserving operator: an upper
    bound, as the bounded suites' inequalities need, not a sampled one."""
    m = lipschitz_constant(op, space)
    if m is None:
        raise ValueError("the bounded suites need operators with a linear part")
    return m


def _sample_in_ball(space: AnchoredSpace, center: np.ndarray, radius: float, rng) -> np.ndarray:
    """A point with anchored semi-norm distance strictly below ``radius``."""
    dirs = rng.standard_normal((1, space.complement_dim))
    radii = rng.random(1) * radius
    coeffs = rng.standard_normal((1, space.order - 1))
    return space.ball_points(dirs, radii, coeffs, center=center)[0]


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
    prove the suite can catch them); default is the Gram volume norm.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (2 <= order <= dim):
        raise ValueError("need 2 <= order <= dim")
    norm = norm_fn or gram_nnorm
    reports = []

    # N1: degenerate tuples collapse to zero, independent tuples do not
    rng = np.random.default_rng([seed, 1])
    failures = 0
    worst = 0.0
    ce = None
    for _ in range(trials):
        vs = _conditioned_tuple(rng, order - 1, dim, min_ratio=1e-6)
        coeffs = rng.uniform(-2.0, 2.0, size=order - 1)
        combo = coeffs @ vs
        slot = rng.integers(0, order)
        dependent = np.insert(vs, slot, combo, axis=0)
        scale = max(float(np.prod(np.linalg.norm(dependent, axis=1))), 1.0)
        got = norm(dependent)
        excess = got - 1e-9 * scale
        if excess > 0:
            failures += 1
            if excess > worst:
                worst = excess
                ce = {"case": "dependent tuple not collapsed", "tuple": _tuple_list(dependent), "value": got}
        indep = _conditioned_tuple(rng, order, dim, min_ratio=1e-6)
        val = norm(indep)
        if not val > 0.0:
            failures += 1
            if ce is None:
                ce = {"case": "independent tuple collapsed", "tuple": _tuple_list(indep), "value": val}
    reports.append(PropertyReport("axioms.N1", trials, failures, worst, ce, seed))

    # N2: permutation invariance, relative 1e-12
    rng = np.random.default_rng([seed, 2])
    failures = 0
    worst = 0.0
    ce = None
    for _ in range(trials):
        vs = _conditioned_tuple(rng, order, dim)
        base = norm(vs)
        perm = rng.permutation(order)
        got = norm(vs[perm])
        rel = abs(got - base) / max(base, got, 1e-30)
        if rel > worst:
            worst = rel
            if rel > 1e-12:
                ce = {"tuple": _tuple_list(vs), "permutation": [int(p) for p in perm],
                      "base": base, "permuted": got}
        if rel > 1e-12:
            failures += 1
    reports.append(PropertyReport("axioms.N2", trials, failures, worst, ce, seed))

    # N3: absolute homogeneity in the first slot, relative 1e-12
    rng = np.random.default_rng([seed, 3])
    failures = 0
    worst = 0.0
    ce = None
    for _ in range(trials):
        vs = _conditioned_tuple(rng, order, dim)
        alpha = 0.0
        while abs(alpha) < 1e-3:  # below the rank snap homogeneity degenerates by design
            alpha = rng.uniform(-10.0, 10.0)
        base = norm(vs)
        scaled_tuple = vs.copy()
        scaled_tuple[0] = alpha * scaled_tuple[0]
        got = norm(scaled_tuple)
        want = abs(alpha) * base
        rel = abs(got - want) / max(got, want, 1e-30)
        if rel > worst:
            worst = rel
            if rel > 1e-12:
                ce = {"tuple": _tuple_list(vs), "alpha": alpha, "scaled": got, "expected": want}
        if rel > 1e-12:
            failures += 1
    reports.append(PropertyReport("axioms.N3", trials, failures, worst, ce, seed))

    # N4: triangle inequality in the first slot, absolute slack 1e-9
    rng = np.random.default_rng([seed, 4])
    failures = 0
    worst = 0.0
    ce = None
    for _ in range(trials):
        rest = rng.standard_normal((order - 1, dim))
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lhs = norm(np.vstack([x + y, rest]))
        rhs = norm(np.vstack([x, rest])) + norm(np.vstack([y, rest]))
        excess = lhs - rhs - 1e-9
        if excess > worst:
            worst = excess
            ce = {"x": _vec(x), "y": _vec(y), "rest": _tuple_list(rest), "lhs": lhs, "rhs": rhs}
        if excess > 0:
            failures += 1
    worst = max(worst, 0.0)
    if failures == 0:
        ce = None
    reports.append(PropertyReport("axioms.N4", trials, failures, worst, ce, seed))
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
        witness = kernel_violation_witness(op, space, samples=32, seed=seed + i)
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
    points_per_op: int = 32,
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
        witness = kernel_violation_witness(op, space, samples=32, seed=seed + i)
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
        dirs = rng.standard_normal((points_per_op, space.complement_dim))
        radii = rng.random(points_per_op) * radius
        coeffs = rng.standard_normal((points_per_op, space.order - 1))
        pts = space.ball_points(dirs, radii, coeffs)
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
    anchor_pairs = [ProductPoint(b, b) for b in space.anchors]
    failures = 0
    worst = 0.0
    ce = None
    for _ in range(trials):
        x = _sample_in_ball(space, x0, r, rng)
        y = _sample_in_ball(space, y0, r_prime, rng)
        dist = product_nnorm([ProductPoint(x - x0, y - y0)] + anchor_pairs, tol=space.rank_tol)
        violation = dist - (r + r_prime)
        if violation > worst:
            worst = violation
            if dist >= r1:
                ce = {"x": _vec(x), "y": _vec(y), "product_distance": dist, "r1": r1}
        if dist >= r1:
            failures += 1
    worst = max(worst, 0.0)
    return PropertyReport("product_ball", trials, failures, worst, ce, seed)


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
    failures = 0
    worst = 0.0
    ce = None
    for i in range(trials):
        p = rng.standard_normal(space.dim) * 1.5
        q = rng.standard_normal(space.dim) * 1.5
        den = space.seminorm_raw(p - q)
        if den <= space.roundoff_floor(np.linalg.norm(p) + np.linalg.norm(q)):
            continue
        num = space.seminorm_raw(apply(op, p) - apply(op, q))
        f = num / den
        if f > worst:
            worst = f
            if f >= 1.0 - RATIO_FLAG_TOL:
                ce = {"trial": i, "p": _vec(p), "q": _vec(q), "ratio": f}
        if f >= 1.0 - RATIO_FLAG_TOL:
            failures += 1

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
