"""Self-maps of R^d and their anchored-semi-norm analysis.

Covers the operator abstraction (affine maps plus a small fixed catalog of
named nonlinear maps), the exact kernel gate, Lipschitz and Kannan
constants of every catalog operator, operator-norm estimation by three
equivalent supremum formulas, sampled contraction and Kannan constants, and
a sampled continuity probe.

The estimators take suprema over deterministic seeded samples, so every
estimate is a reproducible lower bound of the exact value.  Sampling is
chunked so that a larger budget only ever extends the sample set: the
reported value is monotone nondecreasing in the budget.  Operators that
move the semi-norm kernel out of itself are gated to an explicit +inf bound
constant instead of a meaningless sample maximum.  One gate and one draw
per chunk serve all three operator-norm formulas, each value bit for bit
what a call of its own gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .nnorm import ROUNDOFF, _BLOCK_ELEMENTS, AnchoredSpace, _along_points, _length, _lengths, _sum_squares, as_vector

_CHUNK = 1024

# builtin name -> (required params, optional params with their defaults)
_BUILTIN_PARAMS = {
    "scale": (("factor",), {}),
    "constant": (("value",), {}),
    "saturating": ((), {}),
    "rotation-scale": (("axis1", "axis2", "angle"), {"factor": 1.0}),
    "step": ((), {"threshold": 0.0, "height": 1.0}),
}


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
            if self.name not in _BUILTIN_PARAMS:
                raise ValueError(f"unknown builtin operator {self.name!r}")
            _validate_builtin_params(self.name, self.params)
        else:
            raise ValueError(f"operator kind must be 'affine' or 'builtin', got {self.kind!r}")


def _is_finite_number(v) -> bool:
    """A float in range, or an integer (not bool) that converts to one."""
    if isinstance(v, (float, np.floating)):
        return math.isfinite(v)
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _validate_builtin_params(name, params):
    required, defaults = _BUILTIN_PARAMS[name]
    missing = set(required) - set(params)
    if missing:
        raise ValueError(f"builtin {name!r} missing params {sorted(missing)}")
    unknown = set(params) - set(required) - set(defaults)
    if unknown:
        raise ValueError(f"builtin {name!r} got unknown params {sorted(unknown)}")
    for key, value in defaults.items():
        params.setdefault(key, value)
    for key in sorted(params.keys() & {"factor", "angle", "threshold", "height"}):
        if not _is_finite_number(params[key]):
            raise ValueError(f"builtin {name!r} param {key!r} must be a finite number, got {params[key]!r}")
    if name == "constant":
        params["value"] = as_vector(params["value"])
    if name == "rotation-scale":
        for key in ("axis1", "axis2"):
            if isinstance(params[key], bool) or not isinstance(params[key], (int, np.integer)):
                raise ValueError(f"rotation-scale param {key!r} must be an integer, got {params[key]!r}")
        a1, a2 = params["axis1"], params["axis2"]
        if a1 == a2 or a1 < 0 or a2 < 0:
            raise ValueError("rotation-scale needs two distinct nonnegative axes")


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
    i, j = op.params["axis1"], op.params["axis2"]
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


def _affine_form(op: OperatorSpec, d: int) -> Optional[tuple]:
    """(L, c) with T(x) = L x + c on R^d, or None for "saturating" and
    "step": affine maps give (matrix, offset), "scale" (factor * I, 0),
    "rotation-scale" (its rotation matrix, 0) and "constant" (0, value)."""
    if op.kind == "affine":
        if op.matrix.shape[0] != d:
            raise ValueError(f"dimension mismatch: operator is {op.matrix.shape[0]}-D, points are {d}-D")
        return op.matrix, op.offset
    name = op.name
    if name == "scale":
        return float(op.params["factor"]) * np.eye(d), np.zeros(d)
    if name == "rotation-scale":
        return _rotation_matrix(op, d), np.zeros(d)
    if name == "constant":
        return np.zeros((d, d)), as_vector(op.params["value"], d)
    return None


def _e1_map(op: OperatorSpec) -> Callable[[np.ndarray], np.ndarray]:
    """g with T(x)_1 = g(x_1) for "saturating" and "step", which fix every
    other coordinate: t / (1 + |t|), and t + height for t >= threshold."""
    if op.name == "saturating":
        return lambda t: t / (1.0 + np.abs(t))
    thr, h = float(op.params["threshold"]), float(op.params["height"])
    return lambda t: np.where(t >= thr, t + h, t)


def _row_map(op: OperatorSpec, form: Optional[tuple]) -> Callable[[np.ndarray], np.ndarray]:
    """The operator as a map on (..., d) arrays of row points, one point included,
    from its ``_affine_form``: ``pts @ L^T + c`` with L^T prebuilt, or g of x_1."""
    if form is not None:
        mt, offset = form[0].T, form[1]
        return lambda pts: pts @ mt + offset
    g = _e1_map(op)

    def move_e1(pts):
        out = pts.copy()
        out[..., 0] = g(pts[..., 0])
        return out
    return move_e1


class _Compiled(NamedTuple):
    """An operator built for a space: ``step``, its unchecked ``_row_map``, whose every call returns a new
    array with ``apply_batch``'s bits, and the form T(x) = lin x + offset (None for "saturating", "step")."""

    op: OperatorSpec
    step: Callable[[np.ndarray], np.ndarray]
    lin: Optional[np.ndarray]
    offset: Optional[np.ndarray]


def _compile(op: OperatorSpec, space: AnchoredSpace) -> _Compiled:
    """``op`` built for ``space`` from one ``_affine_form`` call, which checks its dimension."""
    form = _affine_form(op, space.dim)
    return _Compiled(op, _row_map(op, form), *(form or (None, None)))


def apply(op: OperatorSpec, x) -> np.ndarray:
    """Evaluate the operator at one point."""
    x = as_vector(x)
    return _row_map(op, _affine_form(op, x.size))(x)


def apply_batch(op: OperatorSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate the operator on rows of ``points``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("apply_batch expects a 2-D array of row points")
    return _row_map(op, _affine_form(op, pts.shape[1]))(pts)


# ---------------------------------------------------------------------------
# exact kernel gate and constants
# ---------------------------------------------------------------------------

def kernel_preserved(op: OperatorSpec, space: AnchoredSpace) -> bool:
    """Does the operator map the semi-norm kernel span(b_2..b_n) into itself?

    True exactly when ``kernel_violation_witness`` finds no witness, so the
    gate and its witness always agree.  Without this property no finite
    bound constant M with ||Tx|| <= M ||x|| can exist.
    """
    return kernel_violation_witness(op, space) is None


def kernel_violation_witness(op: OperatorSpec, space: AnchoredSpace) -> Optional[np.ndarray]:
    """A kernel point whose image leaves the kernel, or None if preserved.

    An operator with an affine form T(x) = L x + c is ``_kernel_gate``'s
    stack of one.  "saturating" and "step" move x_1 alone (``_e1_split``):
    nothing leaves a span holding e1; one orthogonal to e1 gives 0 if
    T(0) != 0; else the anchor with the largest |a_1|, scaled to
    a_1 = 2 max(threshold, 1) (threshold 1 for saturating), unless its move
    along e1 is 0.
    """
    form = _affine_form(op, space.dim)
    if form is not None:
        witness, violated = _kernel_gate(space, *form)
        return witness if violated else None
    split = _e1_split(space)
    if split == "span":
        return None
    g = _e1_map(op)
    if split == "orthogonal":
        return np.zeros(space.dim) if g(0.0) != 0.0 else None
    a = space.anchors[np.argmax(np.abs(space.anchors[:, 0]))]
    witness = (2.0 * max(float(op.params.get("threshold", 1.0)), 1.0) / a[0]) * a
    return witness if g(witness[0]) != witness[0] else None


def _e1_split(space: AnchoredSpace) -> str:
    """"span" when e1's part off the anchor span is at most ``ROUNDOFF``,
    the roundoff floor's share of |e1| = 1, "orthogonal" when its part in
    the span is, else "oblique"."""
    if _length(space.complement_basis[0]) <= ROUNDOFF:
        return "span"
    if _length(space.anchor_basis[0]) <= ROUNDOFF:
        return "orthogonal"
    return "oblique"


def _leave_span(space: AnchoredSpace, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(...): is each row r (..., d) off the anchor span, vol |C^T r| >
    roundoff_floor(|bound|), bound its entrywise bound?  Both are first divided by
    the bound's largest entry (5e-324 for a zero bound), so no entry exceeds sqrt(d)."""
    peaks = bounds.max(axis=-1, keepdims=True, initial=5e-324)
    off, ref = (rows / peaks) @ space.complement_basis, bounds / peaks
    return np.sqrt(_sum_squares(off)) > ROUNDOFF * np.sqrt(_sum_squares(ref))


def _moved_anchors(space: AnchoredSpace, lin: np.ndarray, offset: Optional[np.ndarray] = None) -> np.ndarray:
    """(..., n - 1): does L move b off the anchor span, for each L of a stack
    (..., d, d) and each anchor b?  ``_leave_span`` of L b, bounded by |L| |b|;
    with offsets c (..., d), the row c, bounded by |c|, first: (..., n)."""
    mt = lin.swapaxes(-1, -2)
    rows, bounds = space.anchors @ mt, np.abs(space.anchors) @ np.abs(mt)
    if offset is not None:
        rows = np.concatenate([offset[..., None, :], rows], axis=-2)
        bounds = np.concatenate([np.abs(offset)[..., None, :], bounds], axis=-2)
    return _leave_span(space, rows, bounds)


def _kernel_gate(space: AnchoredSpace, lin: np.ndarray, offset: np.ndarray) -> tuple:
    """The kernel gate of T(x) = L x + c for stacks of L (..., d, d) and
    c (..., d): the witness rows (..., d), 0 where ``_leave_span`` finds c
    off the anchor span by more than roundoff at |c| and else the first
    anchor that ``_moved_anchors`` finds moved, and whether each map moves
    the kernel (a map that does not gets the row 0, which is no witness)."""
    off = _moved_anchors(space, lin, offset)
    points = np.concatenate([np.zeros((1, space.dim)), space.anchors])
    return points[off.argmax(axis=-1)], off.any(axis=-1)


def _quotient_map(space: AnchoredSpace, lin: np.ndarray) -> np.ndarray:
    """C^T L C of every linear part L of a stack (..., d, d)."""
    c = space.complement_basis
    return c.T @ lin @ c


def _bound_constants(space: AnchoredSpace, lin: np.ndarray) -> np.ndarray:
    """sigma_max(C^T L C) of every linear part L of a stack (..., d, d): the
    exact bound constant of each L that keeps the anchor span, which the
    caller has decided (``_moved_anchors`` or ``_kernel_gate``)."""
    return np.linalg.svd(_quotient_map(space, lin), compute_uv=False)[..., 0]


def lipschitz_constant(op: OperatorSpec, space: AnchoredSpace, center=None, radius=None) -> float:
    """The exact sup ||Tx - Ty|| / ||x - y|| over R^d, or over the closed
    ball of ``radius`` around ``center``.

    A linear part L gives sigma_max(C^T L C), reached in any ball, or +inf
    when L moves an anchor off the span by more than roundoff.  "saturating"
    and "step" move x_1 alone, by g(t) = T(t e1)_1: 1 with e1 in the span
    (``_e1_split``); with e1 orthogonal to it, the largest slope of g over
    the reach of x_1 (R, or center_1 +- radius / vol), at least 1 if the
    complement has a second direction: 1 / (1 + min |t|)^2 for saturating,
    and for step 1, or +inf when a nonzero jump lies inside the reach.  Otherwise an anchor move changes
    T off the span: +inf, unless g is a translation (a step of height 0).
    A radius needs a center, and must be > 0.
    """
    if radius is not None and center is None:
        raise ValueError("a radius needs a center")
    if center is not None:
        center = as_vector(center, space.dim)
    if radius is not None and not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    return _lipschitz(_compile(op, space), space, center, radius)


def _lipschitz(f: _Compiled, space: AnchoredSpace, center, radius) -> float:
    """``lipschitz_constant`` of a compiled operator; a ``radius`` > 0 comes with a 1-D ``center``."""
    if f.lin is not None:
        return math.inf if _moved_anchors(space, f.lin).any() else float(_bound_constants(space, f.lin))
    split = _e1_split(space)
    if split == "span":
        return 1.0
    lo, hi = -math.inf, math.inf
    if split == "orthogonal" and radius is not None:
        lo, hi = center[0] - radius / space.anchor_volume, center[0] + radius / space.anchor_volume
    if f.op.name == "step":
        return math.inf if f.op.params["height"] != 0 and lo < f.op.params["threshold"] <= hi else 1.0
    if split == "oblique":
        return math.inf
    slope = 1.0 / (1.0 + (0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)))) ** 2
    return max(slope, 1.0) if space.complement_dim > 1 else slope


def kannan_constant(op: OperatorSpec, space: AnchoredSpace) -> float:
    """The exact sup ||Tx - Ty|| / (||x - Tx|| + ||y - Ty||).

    For T(x) = L x + c with Lbar = C^T L C, u = C^T (x - Tx) and
    w = C^T (y - Ty) range over the complement and C^T (Tx - Ty) =
    Lbar (I - Lbar)^-1 (u - w): the constant is sigma_max of that matrix,
    reached at w = -u; +inf when L moves the span or I - Lbar is singular.
    "saturating" and "step" give +inf: each fixes two points that differ
    modulo the span, or (saturating, span = e1's complement) has the ratio
    1 / s at x = +-s e1.
    """
    return _kannan(_compile(op, space), space)


def _kannan(f: _Compiled, space: AnchoredSpace) -> float:
    if f.lin is None or _moved_anchors(space, f.lin).any():
        return math.inf
    bar = _quotient_map(space, f.lin)
    try:
        return float(np.linalg.norm(np.linalg.solve(np.eye(len(bar)) - bar, bar), 2))
    except np.linalg.LinAlgError:
        return math.inf


def _seed_key(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
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
    budget grows, because samples accumulate chunk by chunk.  The objective
    is evaluated in blocks of whole chunks (``_probe_blocks``), each value
    bit for bit what the chunk alone gives.
    """

    value: float
    method: str
    samples: int
    kernel_preserved: bool


def _keyed_chunks(budget: int, seed: int, stream: int):
    """Yield (generator, rows) for each chunk of a sampling budget.

    Chunk i is drawn from its own generator keyed by (seed, stream, i) and
    a partial last chunk takes a prefix of the full draw, so the first k
    samples are the same for every budget >= k.  The probes draw chunk by
    chunk but compute on blocks of whole chunks (``_probe_blocks``).
    """
    key = _seed_key(seed)
    for i, start in enumerate(range(0, budget, _CHUNK)):
        yield np.random.default_rng([key, stream, i]), min(_CHUNK, budget - start)


def _probe_blocks(space: AnchoredSpace, budget: int, seed: int, stream: int):
    """Yield ``draw_ball``'s (complement directions, radii in [0, 1),
    anchor coefficients) in blocks of whole chunks of ``_keyed_chunks``.

    Each chunk is drawn on its own, ``draw_ball(rng, _CHUNK, 1.0)`` cut to
    its rows, and consecutive chunks are joined into blocks of at most
    ``_BLOCK_ELEMENTS`` coordinates (rows x d), one chunk at least: 5 at
    d = 3, 4 at d = 4, 3 at d = 5, 2 at d = 6-8, one from d = 9 on.  Each
    row keeps the bits of its chunk computed alone: the ufuncs and
    reductions act row by row, and at d = 3-8 each of the probes' products
    gave every row of a block its chunk's bits, for every complement width
    and every last chunk (numpy 2.4, OpenBLAS 0.3.31), except a last chunk
    of one row, which numpy multiplies on its vector path with other bits;
    so that chunk, at a budget of 1 mod 1024 above 1, is a block of its own.
    """
    per_block = max(1, _BLOCK_ELEMENTS // (_CHUNK * space.dim))
    block = []
    for rng, take in _keyed_chunks(budget, seed, stream):
        if len(block) == per_block or (take == 1 and block):
            yield _joined(block)
            block = []
        block.append([a[:take] for a in space.draw_ball(rng, _CHUNK, 1.0)])
    yield _joined(block)


def _joined(block: list) -> tuple:
    """The chunks' draws of a block, each kind in one array."""
    return tuple(parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*block))


def _check_probe_args(methods, budget: int, seed: int) -> None:
    for method in methods:
        if method not in ("I", "II", "III"):
            raise ValueError(f"method must be one of I, II, III, got {method!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    _seed_key(seed)


def _probe_point_sets(space: AnchoredSpace, budget: int, seed: int, methods):
    """Yield, block by block of ``_probe_blocks``, the sample points of each
    of operator_norm's ``methods``, all placed from the block's one draw.

    "I" scales unit directions to semi-norm radius in [0, 1), "II" normalizes
    them to semi-norm 1, "III" scales them to radius in [0.5, 3); each point
    also gets a random anchor-span (kernel) part.  One ``ball_points`` call
    places every method's points from a stack of radii, each point bit for
    bit where a call of its own places it.
    """
    for dirs, radii, coeffs in _probe_blocks(space, budget, seed, stream=7):
        reach = {"I": radii, "II": np.ones_like(radii), "III": 0.5 + 2.5 * radii}
        sets = space.ball_points(dirs, np.stack([reach[m] for m in methods]), coeffs)
        yield [_along_points(np.divide, p, space.seminorm_batch(p)[:, None]) if m == "II" else p
               for m, p in zip(methods, sets)]


def draw_probe_points(space: AnchoredSpace, budget: int, seed: int, method: str = "II") -> np.ndarray:
    """The exact sample points operator_norm evaluates for the given method."""
    _check_probe_args((method,), budget, seed)
    return np.vstack([sets[0] for sets in _probe_point_sets(space, budget, seed, (method,))])


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
    return _operator_norms(op, space, (method,), budget, seed)[0]


def _operator_norms(op: OperatorSpec, space: AnchoredSpace, methods, budget: int, seed: int) -> list:
    """``operator_norm`` of each of ``methods`` from one gate and one draw
    per chunk, with a running maximum per formula over the blocks of
    ``_probe_point_sets``."""
    _check_probe_args(methods, budget, seed)
    if not is_linear(op):
        raise ValueError("operator_norm requires a linear operator (affine with zero offset)")
    if not kernel_preserved(op, space):
        return [OperatorNormEstimate(math.inf, m, budget, kernel_preserved=False) for m in methods]

    # the offset is 0, so T(pts) is one product, pts @ L^T
    mt = op.matrix.T
    best = [0.0] * len(methods)
    for sets in _probe_point_sets(space, budget, seed, methods):
        for j, (method, pts) in enumerate(zip(methods, sets)):
            obj = space.seminorm_batch(pts @ mt)
            if method == "III":
                den = space.seminorm_batch(pts)
                keep = den > space.roundoff_floor(_lengths(pts))
                obj = obj[keep] / den[keep]
            if obj.size:
                best[j] = max(best[j], float(np.max(obj)))
    return [OperatorNormEstimate(b, m, budget, kernel_preserved=True) for m, b in zip(methods, best)]


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
    roundoff floor at |x| + |y| for alpha, or |x| + |y| + |Tx| + |Ty| for beta."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best = [0.0, 0.0]
    wit = [None, None]
    for rng, take in _keyed_chunks(budget, seed, stream=11):
        # pairs are drawn interleaved, so a partial chunk is a prefix of the
        # full one
        pairs = rng.standard_normal((take, 2, space.dim)) * 1.5
        xs, ys = pairs[:, 0], pairs[:, 1]
        txs = apply_batch(op, xs)
        tys = apply_batch(op, ys)
        # the four displacement arrays, projected in one call
        diffs = np.concatenate([txs - tys, xs - ys, xs - txs, ys - tys])
        num, den, dx, dy = space.seminorm_batch(diffs).reshape(4, take)
        lens = _lengths(np.concatenate([xs, ys, txs, tys])).reshape(4, take)
        floors = space.roundoff_floor(lens[0] + lens[1]), space.roundoff_floor(lens.sum(axis=0))
        for j, (den_j, floor) in enumerate(zip((den, dx + dy), floors)):
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
    for dirs, radii, coeffs in _probe_blocks(space, samples, seed, stream=13):
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
    u /= max(_length(u), 1e-30)
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
