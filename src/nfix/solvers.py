"""Fixed-point iteration with certified anchored-semi-norm error bounds.

Five regimes share one iteration engine and differ only in the bound model,
the sampled cross-check run before iterating, and the ball containment test:

- picard:    contraction constant alpha in (0,1); a-priori envelope
             alpha^k / (1 - alpha) * ||x0 - Tx0|| for the k-th iterate.
- ball:      picard restricted to a closed semi-norm ball; admission test
             ||x0 - Tx0|| < (1 - alpha) * radius, containment asserted
             against the induction bound (1 - alpha^k) * radius.
- summable:  iterated-displacement constants a_k with summable series; the
             k-th iterate carries the tail bound S(k) * ||x0 - x1|| with
             S(q) = sum_{v >= q} a_v.
- kannan:    displacement-sum constant beta in (0, 1/2); the geometric rate
             is r = beta / (1 - beta) and the envelope r^k / (1 - r) * res0.
- edelstein: strictly nonexpansive maps; no rate exists, so the solver is
             best-effort and reports the smallest observed fixed-point
             residual together with the consecutive displacement ratios.

Picard, ball and kannan are the summable model with a geometric sequence,
so every envelope is S(k) * res0.  Each step k also records an
a-posteriori bound obtained by re-rooting the same telescoping chain at the
previous iterate (S(1) times the latest displacement); stopping uses
min(a-priori, a-posteriori) <= tol, and that minimum is the certified error
of the returned point.  All distances are semi-norm distances, so
uniqueness claims hold modulo the anchor span; the independence of
{x*, anchors} is checked after the fact and reported, never enforced.

The engine compiles the operator and the semi-norm once per solve and
validates nothing per step.  Finiteness is checked lazily: a non-finite
coordinate in an iterate always makes its projected residual NaN or inf, so
the full checks run only when a residual is not finite, and a bad iterate is
still refused at the step that produced it.

Declared constants are trusted for the certificate but cross-checked
before iterating; a found value exceeding the declared one aborts loudly,
because every bound above would be fiction.  A contraction constant alpha
(picard, ball, and a_1 of summable) is checked against the exact constant
``lipschitz_constant`` when the operator has a linear part, and against
a sampled estimate otherwise; Kannan's beta is always sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .nnorm import AnchoredSpace, as_vector
from .operators import OperatorSpec, apply_batch, contraction_constant, lipschitz_constant

REGIMES = ("picard", "ball", "summable", "kannan", "edelstein")

UNIQUE_MOD_KERNEL = "kernel_modulo_unique"
INDEPENDENCE_FAILED = "independence_condition_failed"

# A found (exact or sampled) constant may exceed the declared one by at most
# this before the solver refuses to certify.
CROSSCHECK_SLACK = 1e-6


class SolverInputError(ValueError):
    """Configuration or constant rejected before iteration starts."""


class PreconditionError(SolverInputError):
    """Ball admission test failed; carries both sides of the inequality."""

    def __init__(self, lhs: float, rhs: float):
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"ball precondition violated: ||x0 - Tx0|| = {lhs:.17g} "
            f"is not < (1 - alpha) * radius = {rhs:.17g}"
        )


class ConstantMismatchError(SolverInputError):
    """A found contraction constant exceeds the declared one.

    ``sampled`` holds the found constant: a sampled ratio, or with ``exact``
    the operator's exact Lipschitz constant (+inf when its linear part moves
    the anchor span)."""

    def __init__(self, name: str, declared: float, sampled: float, exact: bool = False):
        self.name = name
        self.declared = declared
        self.sampled = sampled
        found = (f"the exact {name} = {sampled:.17g} of the operator's linear part"
                 if exact else f"sampled {name}_hat = {sampled:.17g}")
        super().__init__(
            f"declared {name} = {declared:.17g} is contradicted by {found}; "
            f"certificates would be fiction"
        )


class ContainmentError(RuntimeError):
    """An iterate escaped the admission ball; the supplied alpha cannot be a
    valid contraction constant there."""

    def __init__(self, step: int, displacement: float, bound: float):
        self.step = step
        self.displacement = displacement
        self.bound = bound
        super().__init__(
            f"iterate {step} left the ball: displacement {displacement:.17g} "
            f"exceeds (1 - alpha^k) * radius = {bound:.17g}"
        )


class NonFiniteIterateError(RuntimeError):
    """Iteration produced NaN/Inf; aborted immediately at the given step."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite iterate at step {step}; aborting")


@dataclass(eq=False)
class ASeq:
    """Displacement constants a_k for the summable regime.

    kind "geometric": a_k = ratio^k with 0 < ratio < 1; tails have the
    closed form S(q) = ratio^q / (1 - ratio).  kind "explicit": a finite
    list of nonnegative terms plus a declared bound on the remaining tail
    sum (0 means the terms vanish beyond the list).
    """

    kind: str
    ratio: Optional[float] = None
    terms: Optional[list] = None
    tail: float = 0.0
    _suffix: Optional[list] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind == "geometric":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise SolverInputError("geometric a_seq needs ratio in (0, 1); the series diverges otherwise")
        elif self.kind == "explicit":
            if not self.terms:
                raise SolverInputError("explicit a_seq needs at least one term")
            self.terms = [float(t) for t in self.terms]
            if any(not math.isfinite(t) or t < 0 for t in self.terms):
                raise SolverInputError("explicit a_seq terms must be finite and nonnegative")
            if not (math.isfinite(self.tail) and self.tail >= 0):
                raise SolverInputError("explicit a_seq needs a finite nonnegative declared tail bound")
            # _suffix[i] = sum(terms[i:]), summed from the far end; _suffix[-1] = 0
            self._suffix = list(accumulate(reversed(self.terms), initial=0.0))[::-1]
        else:
            raise SolverInputError(f"a_seq kind must be 'geometric' or 'explicit', got {self.kind!r}")

    def term(self, k: int) -> float:
        if self.kind == "geometric":
            return self.ratio ** k
        if k <= len(self.terms):
            return self.terms[k - 1]
        return self.tail  # beyond the list only the tail bound is known

    def tail_sum(self, q: int) -> float:
        """S(q) = sum_{v >= q} a_v (declared bound for the explicit kind)."""
        if self.kind == "geometric":
            return self.ratio ** q / (1.0 - self.ratio)
        return self._suffix[min(q - 1, len(self.terms))] + self.tail


def geometric_sequence(ratio: float) -> ASeq:
    return ASeq(kind="geometric", ratio=ratio)


def explicit_sequence(terms, tail: float = 0.0) -> ASeq:
    return ASeq(kind="explicit", terms=list(terms), tail=tail)


@dataclass(eq=False)
class SolverConfig:
    """Regime selection plus the constants the chosen theorem needs."""

    regime: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    radius: Optional[float] = None
    a_seq: Optional[ASeq] = None
    tol: float = 1e-10
    max_iter: int = 10 ** 6
    seed: int = 0
    crosscheck_pairs: int = 64
    keep_iterates: bool = False

    def validate(self):
        if self.regime not in REGIMES:
            raise SolverInputError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise SolverInputError("tol must be a positive real")
        if self.max_iter < 1:
            raise SolverInputError("max_iter must be >= 1")
        if self.seed < 0:
            raise SolverInputError("seed must be nonnegative")
        if self.crosscheck_pairs < 0:
            raise SolverInputError("crosscheck_pairs must be >= 0")
        if self.regime in ("picard", "ball"):
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise SolverInputError("alpha must lie in the open interval (0, 1)")
        if self.regime == "ball":
            if self.radius is None or not (self.radius > 0):
                raise SolverInputError("ball regime needs a positive radius")
        if self.regime == "kannan":
            if self.beta is None or not (0.0 < self.beta < 0.5):
                raise SolverInputError("beta must lie in the open interval (0, 1/2)")
        if self.regime == "summable":
            if self.a_seq is None:
                raise SolverInputError("summable regime needs an a_seq")
        return self


class TraceRow(NamedTuple):
    """Row k describes the k-th application x_{k-1} -> x_k.

    residual    = ||x_{k-1} - x_k||        (semi-norm displacement)
    apriori     = envelope for ||x_k - x*|| rooted at x0
    aposteriori = envelope for ||x_k - x*|| re-rooted at x_{k-1}
    certified   = min(apriori, aposteriori)
    """

    k: int
    residual: float
    apriori: float
    aposteriori: float
    certified: float


@dataclass(eq=False)
class SolverReport:
    regime: str
    fixed_point: np.ndarray
    iterations: int
    trace: list
    certified_error: float
    converged: bool
    uniqueness_note: str
    independence_ok: bool
    residual0: float
    max_displacement: Optional[float] = None
    ball_trace: Optional[list] = None
    ratios: Optional[list] = None
    iterates: Optional[list] = None
    message: str = ""


def _check_finite(x: np.ndarray, step: int):
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterateError(step)


def _independence(space: AnchoredSpace, point: np.ndarray, certified: float):
    """Is every point within ``certified`` of ``point`` off the kernel?  The
    unsnapped semi-norm must exceed the certificate plus the space's
    roundoff floor at |point|, so a large kernel component hides no small
    gap."""
    ok = space.seminorm_raw(point) > certified + space.roundoff_floor(float(np.linalg.norm(point)))
    return ok, (UNIQUE_MOD_KERNEL if ok else INDEPENDENCE_FAILED)


def _crosscheck(op, space, cfg, x0):
    """Refuse a declared rate that a found constant exceeds by more than
    ``CROSSCHECK_SLACK``.  Kannan's beta is checked against a sampled
    beta_hat.  A contraction constant (alpha of picard and ball, a_1 of
    summable) is checked against the exact Lipschitz constant when the
    operator has a linear part, which any ball's ratios reach too; otherwise
    pairs are sampled, for the ball regime inside the admission ball, where
    a locally valid alpha must dominate every displacement ratio."""
    n = cfg.crosscheck_pairs
    if n < 1:
        return
    exact = False
    if cfg.regime == "kannan":
        name, declared = "beta", cfg.beta
        found = contraction_constant(op, space, budget=n, seed=cfg.seed).beta_hat
    else:
        seq, name = _bound_model(cfg)
        declared = seq.term(1)
        if cfg.regime == "ball":
            name = "alpha (on the ball)"
        found = lipschitz_constant(op, space)
        exact = found is not None
        if not exact and cfg.regime == "ball":
            rng = np.random.default_rng([cfg.seed, 23])
            xs, ys = (space.sample_ball(rng, n, cfg.radius, center=x0) for _ in range(2))
            num = space.seminorm_batch(apply_batch(op, xs) - apply_batch(op, ys))
            den = space.seminorm_batch(xs - ys)
            keep = den > space.roundoff_floor(np.linalg.norm(xs, axis=1) + np.linalg.norm(ys, axis=1))
            found = float(np.max(num[keep] / den[keep], initial=0.0))
        elif not exact:
            found = contraction_constant(op, space, budget=n, seed=cfg.seed).alpha_hat
    if found > declared + CROSSCHECK_SLACK:
        raise ConstantMismatchError(name, declared, found, exact=exact)


def _bound_model(cfg: SolverConfig):
    """(a_seq whose tails bound the error, name of its guarded rate) for the
    configured regime; (None, None) for edelstein, which has no envelope."""
    if cfg.regime in ("picard", "ball"):
        return geometric_sequence(cfg.alpha), "alpha"
    if cfg.regime == "kannan":
        return geometric_sequence(cfg.beta / (1.0 - cfg.beta)), "beta-rate"
    if cfg.regime == "summable":
        return cfg.a_seq, "a_1"
    return None, None


def _solve(regime: str, op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """The iteration engine behind every regime."""
    cfg.validate()
    if cfg.regime != regime:
        raise SolverInputError(f"{regime}_solve got regime {cfg.regime!r}")
    seq, guard_name = _bound_model(cfg)
    ball = regime == "ball"
    x0 = as_vector(x0, space.dim).copy()
    step = op.compile(space.dim)
    x1 = step(x0)
    _check_finite(x1, 1)
    res0 = space.seminorm_raw(x0 - x1)
    if ball:
        threshold = (1.0 - cfg.alpha) * cfg.radius
        if not (res0 < threshold):
            raise PreconditionError(res0, threshold)

    trace = []
    iterates = [x0.copy()] if cfg.keep_iterates else None
    ball_trace = [] if ball else None
    max_disp = 0.0 if ball else None
    if res0 == 0.0:
        # x0 is fixed modulo the kernel
        return _report(regime, space, cfg, x0, 0, trace, 0.0, res0, iterates, max_disp, ball_trace)

    if seq is not None:
        _crosscheck(op, space, cfg, x0)

    dist = space.projection_kernel()
    isfinite = math.isfinite
    sqrt = math.sqrt
    floor = space.roundoff_floor
    x0_len = sqrt(x0.dot(x0))
    if seq is not None:
        tail_sum = seq.tail_sum
        rate = seq.term(1)
        apost_factor = tail_sum(1)
    best = x0
    x_prev = x0
    x_next = x1
    certified = math.inf
    prev_res = None
    k = 0
    # a non-finite iterate makes the kernel compute 0 * inf; that iterate is
    # refused below, so numpy's "invalid value" warning would only be noise
    with np.errstate(invalid="ignore"):
        while k < cfg.max_iter:
            k += 1
            if k > 1:
                x_next = step(x_prev)
            diff = x_next - x_prev
            res_k = dist(diff)
            if not isfinite(res_k):
                # x_next has a NaN/inf coordinate, or x_next - x_prev
                # overflowed: run the full checks, which raise for both
                _check_finite(x_next, k)
                res_k = space.seminorm_raw(diff)
            if ball:
                # the ball theorem's own diagnostic comes first: an escaping
                # iterate names the violated induction bound directly
                diff = x_next - x0
                disp = dist(diff)
                if not isfinite(disp):
                    disp = space.seminorm_raw(diff)
                bound = (1.0 - cfg.alpha ** k) * cfg.radius
                ball_trace.append((k, disp, bound))
                if disp > max_disp:
                    max_disp = disp
                if disp > bound and disp > bound + floor(x0_len + sqrt(x_next.dot(x_next))):
                    raise ContainmentError(k, disp, bound)
            if seq is None:
                # no envelope: the certificate is the smallest residual
                # ||x - Tx|| seen, attained at x = x_prev
                trace.append(TraceRow(k, res_k, math.inf, math.inf, math.inf))
                if res_k < certified:
                    certified = res_k
                    best = x_prev
            else:
                if prev_res is not None:
                    # the orbit is the sharpest sample of the constant: a
                    # residual breaking the declared recursion by more than
                    # its roundoff floor proves the constant false
                    limit = rate * prev_res * (1.0 + 1e-9)
                    if res_k > limit and res_k > limit + floor(sqrt(max(x_prev.dot(x_prev),
                                                                        x_next.dot(x_next)))):
                        raise ConstantMismatchError(f"{guard_name} (orbit residual recursion, step {k})",
                                                    rate, res_k / prev_res)
                prev_res = res_k
                apriori = tail_sum(k) * res0
                apost = apost_factor * res_k
                certified = min(apriori, apost)
                trace.append(TraceRow(k, res_k, apriori, apost, certified))
                best = x_next
            if iterates is not None:
                iterates.append(x_next.copy())
            if certified <= cfg.tol:
                break
            x_prev = x_next
    return _report(regime, space, cfg, best, k, trace, certified, res0, iterates, max_disp, ball_trace)


def _report(regime, space, cfg, point, k, trace, certified, res0, iterates, max_disp, ball_trace):
    converged = certified <= cfg.tol
    ratios = None
    message = ""
    if regime == "edelstein":
        residuals = [row.residual for row in trace]
        ratios = [
            (i + 1, residuals[i + 1] / residuals[i])
            for i in range(len(residuals) - 1)
            if residuals[i] > 0.0
        ]
        if not converged:
            message = f"max_iter = {cfg.max_iter} exceeded; best residual {certified:.17g}"
    elif not converged:
        message = f"max_iter = {cfg.max_iter} exceeded without certification"
    ok, note = _independence(space, point, certified)
    return SolverReport(
        regime=regime,
        fixed_point=point,
        iterations=k,
        trace=trace,
        certified_error=certified,
        converged=converged,
        uniqueness_note=note,
        independence_ok=ok,
        residual0=res0,
        max_displacement=max_disp,
        ball_trace=ball_trace,
        ratios=ratios,
        iterates=iterates,
        message=message,
    )


def picard_solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Iterate a declared contraction and certify the geometric envelope.

    Stops when min(alpha^k / (1-alpha) * res0, alpha / (1-alpha) * res_k)
    falls to tol; that minimum is the certified semi-norm error.  A zero
    starting residual (x0 fixed modulo the kernel) returns immediately.
    """
    return _solve("picard", op, space, x0, cfg)


def ball_solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Picard iteration admitted into a closed ball around the start.

    Requires ||x0 - Tx0|| < (1 - alpha) * radius and raises with both sides
    otherwise.  Every iterate is asserted to obey the induction bound
    ||x0 - x_k|| <= (1 - alpha^k) * radius; the largest observed
    displacement is reported.
    """
    return _solve("ball", op, space, x0, cfg)


def summable_solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Iteration under summable iterated-displacement constants a_k.

    The k-th iterate carries the a-priori bound S(k) * ||x0 - x1|| and the
    re-rooted a-posteriori bound S(1) * res_k.  With a_k = alpha^k this
    reproduces picard_solve bit for bit: same iterates, same bounds, same
    stopping step.
    """
    return _solve("summable", op, space, x0, cfg)


def kannan_solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Iteration under the displacement-sum condition with constant beta.

    The induced geometric rate is r = beta / (1 - beta) < 1; bounds and
    stopping mirror the picard regime with alpha replaced by r.
    """
    return _solve("kannan", op, space, x0, cfg)


def edelstein_solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Best-effort iteration for strictly nonexpansive maps.

    No rate exists, so there is no error envelope: the solver tracks the
    smallest observed fixed-point residual ||x - Tx||, returns the
    minimizing iterate, and reports success only if that residual reached
    tol.  certified_error is that residual, not a distance-to-fixed-point
    bound.  The consecutive displacement ratios
    f(x_{k-1}, x_k) = res_{k+1} / res_k are reported alongside; ratios
    pinned at 1 flag a map outside the theorem's reach (an isometry).
    """
    return _solve("edelstein", op, space, x0, cfg)


def solve(op: OperatorSpec, space: AnchoredSpace, x0, cfg: SolverConfig) -> SolverReport:
    """Run the regime named in the config."""
    return _solve(cfg.regime, op, space, x0, cfg)
