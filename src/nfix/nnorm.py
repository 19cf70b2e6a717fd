"""Volume n-norms, anchored semi-norms, and finite-prefix sequence estimators.

The concrete norm used throughout is the Gram (volume) n-norm on R^d:

    ||x_1, ..., x_n|| = sqrt(det G),   G_ij = <x_i, x_j>,

the n-dimensional volume of the parallelepiped spanned by the arguments.
Freezing the last n-1 slots at a fixed anchor tuple (b_2, ..., b_n) yields
the anchored semi-norm ||x, b_2, ..., b_n||, which vanishes exactly on
span(b_2, ..., b_n).  Every "distance" in this package is measured in that
semi-norm, so equalities downstream hold modulo the anchor span (the
semi-norm kernel).

All functions here are pure; values are immutable after construction and
safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Relative threshold for numerical rank decisions (``_qr_split`` alone).
# Chosen to leave headroom between genuine rank deficiency and roundoff.
RANK_TOL = 1e-9

# A computed semi-norm value is roundoff, not distance, when it is at most
# this many ulps of the anchor volume times the Euclidean length of the
# arithmetic behind it (``AnchoredSpace.roundoff_floor``).
ROUNDOFF = 64 * sys.float_info.epsilon

# Most elements one block array may hold: pairs of squared distances in
# b_cauchy_tail, probe coordinates (rows x d) in the operator probes.
_BLOCK_ELEMENTS = 1 << 14

_LENGTH_MIN = 1e-140  # below it, the squares of a length may have lost digits to underflow

_NARROW = 8  # numpy's add.reduce sums narrower rows in order, wider ones pairwise
_TRANSPOSED = 4  # widest rows that broadcast faster transposed (timeit, 1024 rows)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size < 1:
        raise ValueError("vector must have length >= 1")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected length {dim}, got {v.size}")
    return v


def _as_matrix(vectors) -> np.ndarray:
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2:
        raise ValueError("expected a sequence of equal-length vectors")
    if not np.isfinite(rows).all():
        raise ValueError("vectors have non-finite coordinates")
    return rows


def _qr_split(rows: np.ndarray, complete: bool = False):
    """One Householder QR per tuple of a stack shaped (..., k, d), k <= d:
    (Q or None, volumes, dependent), the last two shaped (...).  A single
    (k, d) tuple is a stack of shape ().

    A tuple is dependent when, with every row scaled to unit length, its
    smallest singular value (that of R with its columns so scaled) is at
    most ``RANK_TOL``, whatever the order and lengths of the rows; a zero row
    always is, and the empty tuple, with no singular values, is not.  Each
    column of R is divided by its row's ``_lengths``, which it has exactly,
    so no length underflows or overflows.  A dependent tuple has
    volume exactly 0.0, any other prod |R_ii| (1.0 for the empty tuple).
    Every tuple is factored on its own, so no member's scale reaches
    another's verdict.  Q is the complete orthogonal factor when
    ``complete`` is set, else None.
    """
    cols = rows.swapaxes(-1, -2)
    if complete:
        q, r = np.linalg.qr(cols, mode="complete")
    else:
        q, r = None, np.linalg.qr(cols, mode="r")
    r = r[..., : rows.shape[-2], :]
    lengths = _lengths(rows)
    zero = lengths == 0.0
    # adding ``zero`` turns a zero divisor into 1.0, so a zero row's column stays 0
    unit = r / (lengths + zero)[..., None, :]
    smallest = np.linalg.svd(unit, compute_uv=False)[..., -1:].min(axis=-1, initial=np.inf)
    dependent = zero.any(axis=-1) | (smallest <= RANK_TOL)
    # a dependent tuple's |R_ii| become 0 before the product, which cannot overflow then
    diagonal = np.where(dependent[..., None], 0.0, np.abs(r.diagonal(axis1=-2, axis2=-1)))
    return q, np.multiply.reduce(diagonal, axis=-1), dependent


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """``np.add.reduce(rows * rows, axis=-1)``, bit for bit.  numpy adds a row
    narrower than _NARROW in order, but with an inner loop per row; such rows
    are summed here column by column, in the same order."""
    sq = rows * rows
    if not 1 < sq.shape[-1] < _NARROW:
        return np.add.reduce(sq, axis=-1)
    total = sq[..., 0] + sq[..., 1]
    for j in range(2, sq.shape[-1]):
        total += sq[..., j]
    return total


def _along_points(ufunc, a, b) -> np.ndarray:
    """``ufunc(a, b)`` for operands that broadcast to a stack of points
    (..., w), such as one factor a point (..., 1) or one point for all (w,),
    as a new C-contiguous array; up to _TRANSPOSED entries a point,
    transposed, so numpy's inner loop runs along the points rather than the
    w entries of each.  Each element is one rounding."""
    shape = np.broadcast(a, b).shape
    if len(shape) < 2 or shape[-1] > _TRANSPOSED:
        return ufunc(a, b)
    out = np.empty(shape)
    a, b = (x[:, None] if x.ndim == 1 else x.swapaxes(-1, -2) for x in (np.asarray(a), np.asarray(b)))
    ufunc(a, b, out=out.swapaxes(-1, -2), order="C")
    return out


def _lengths(rows: np.ndarray) -> np.ndarray:
    """|v|_2 of each row v of a stack (..., d) by the length rule: sqrt(v.v) where
    that lies in [_LENGTH_MIN, inf) or v is 0, else |v / max |v_i|| * max |v_i|, so
    no length underflows or overflows (max |v_i| itself where it is inf or NaN)."""
    with np.errstate(over="ignore"):
        lengths = np.sqrt(_sum_squares(rows))
    if not (np.minimum.reduce(lengths, axis=None, initial=np.inf) >= _LENGTH_MIN
            and np.maximum.reduce(lengths, axis=None, initial=0.0) < np.inf):
        redo = ((lengths < _LENGTH_MIN) & rows.any(axis=-1)) | ~(lengths < np.inf)
        if redo.any():
            v = rows[redo]
            peaks = np.abs(v).max(axis=-1)
            finite = peaks < np.inf
            u = v / np.where(finite, peaks, 1.0)[:, None]
            lengths[redo] = np.where(finite, peaks * np.sqrt(_sum_squares(u)), peaks)
    return lengths


def _length(v: np.ndarray) -> float:
    """``_lengths`` of a 1-D array, from one dot where sqrt(v.v) is in range.
    v.v may overflow on the way, so callers ignore numpy's overflow warning."""
    r = math.sqrt(v.dot(v))
    return r if _LENGTH_MIN <= r < math.inf else float(_lengths(v[None, :])[0])


def is_linearly_dependent(vectors) -> bool:
    """Decide linear dependence from one QR of the tuple.

    The tuple is dependent when, with every vector scaled to unit length,
    its smallest singular value is at most ``RANK_TOL``: some unit combination of
    the vectors nearly cancels.  The decision is free of the vectors' order
    and of their lengths, so (1e5, 0) and (0, 1e-5) are independent.
    Degenerate inputs (zero vectors, more vectors than coordinates) are
    valid and simply come out dependent.
    """
    rows = _as_matrix(vectors)
    k, d = rows.shape
    return k > d or bool(_qr_split(rows)[2])


def gram_nnorm(vectors) -> float:
    """Volume of the parallelepiped spanned by ``vectors``.

    This is sqrt(det G) with G the Gram matrix of the tuple, computed as
    prod |R_ii| from one QR of the tuple, which does not square the
    condition number as det G does.  A tuple that is linearly dependent
    under ``is_linearly_dependent``'s rule returns exactly 0.0, so
    degeneracy is decidable rather than a roundoff-sized residue.
    """
    return float(gram_volumes(_as_matrix(vectors)))


def gram_volumes(tuples) -> np.ndarray:
    """``gram_nnorm`` of every tuple of a stack shaped (..., k, d), as an
    array shaped (...): the same bits and the same zero verdicts as one
    call per tuple, from stacked factorisations."""
    rows = np.asarray(tuples, dtype=float)
    if rows.ndim < 2:
        raise ValueError(f"expected a stack of tuples shaped (..., k, d), got shape {rows.shape}")
    k, d = rows.shape[-2:]
    if k > d:
        raise ValueError(f"norm order {k} exceeds space dimension {d}")
    if not np.isfinite(rows).all():
        raise ValueError("vectors have non-finite coordinates")
    return _qr_split(rows)[1]


@dataclass(eq=False)
class AnchoredSpace:
    """R^dim carrying the semi-norm ||x, b_2, ..., b_n|| with fixed anchors.

    ``anchors`` holds the n-1 frozen slots as rows; they must be linearly
    independent under ``RANK_TOL``.  One complete QR of the anchors gives
    their volume, the independence verdict and the orthonormal split of
    R^dim into the anchor span and its complement: the semi-norm of x is
    (Euclidean length of the complement part of x) * (anchor volume).
    """

    dim: int
    order: int
    anchors: np.ndarray
    anchor_volume: float = field(init=False)
    anchor_basis: np.ndarray = field(init=False)
    complement_basis: np.ndarray = field(init=False)
    _complement_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (2 <= self.order <= self.dim):
            raise ValueError(f"order must satisfy 2 <= order <= dim, got order={self.order}, dim={self.dim}")
        anchors = _as_matrix(self.anchors)
        if anchors.shape != (self.order - 1, self.dim):
            raise ValueError(
                f"anchors must be {self.order - 1} vectors of length {self.dim}, got shape {anchors.shape}"
            )
        with np.errstate(over="ignore"):  # an overflowing volume is refused below
            q, volume, dependent = _qr_split(anchors, complete=True)
        if dependent:
            raise ValueError("anchors must be linearly independent")
        if not sys.float_info.min <= volume < math.inf:
            raise ValueError(f"anchor volume {volume:.3g} is outside [{sys.float_info.min:.3g}, inf)")
        self.anchor_volume = float(volume)
        self.anchors = anchors
        self.anchors.setflags(write=False)
        self.anchor_basis = q[:, : self.order - 1]
        self.complement_basis = q[:, self.order - 1:]
        # C^T, contiguous, so a semi-norm is one matrix-vector product
        self._complement_rows = np.ascontiguousarray(self.complement_basis.T)
        for basis in (self.anchor_basis, self.complement_basis, self._complement_rows):
            basis.setflags(write=False)

    @property
    def complement_dim(self) -> int:
        return self.dim - (self.order - 1)

    def roundoff_floor(self, scale):
        """The largest semi-norm value roundoff alone can produce from
        arithmetic on points of Euclidean length ``scale`` (a float or an
        array).  This is the one zero rule: a semi-norm value counts as 0,
        its point as in the kernel, only at or below this floor; the kernel
        gate uses it too.  ``RANK_TOL`` decides ranks of tuples, never that."""
        return ROUNDOFF * self.anchor_volume * scale

    def seminorm(self, x) -> float:
        """||x, b_2, ..., b_n|| in the complement form: (anchor volume) *
        |C^T x|_2, C the complement basis.  Its error is a few ulps of
        vol * |x|, however large x's kernel part, so a small distance beside
        a large kernel component keeps its digits; ``roundoff_floor`` says
        when a value counts as 0."""
        x = as_vector(x, self.dim)
        with np.errstate(over="ignore"):
            return self._seminorm(x)

    seminorm_raw = seminorm

    def _seminorm(self, x: np.ndarray) -> float:
        """``seminorm`` of a finite 1-D float64 array of length dim, unchecked;
        numpy's overflow warning is the caller's to ignore."""
        return self.anchor_volume * _length(self._complement_rows.dot(x))

    def projection_kernel(self) -> Callable[[np.ndarray], float]:
        """``seminorm`` without its input checks, for hot loops.

        The returned function expects a 1-D float64 array of length dim and
        validates nothing.  A non-finite coordinate always yields a non-finite
        result, so a caller may test the result instead of the input.  Call
        it with numpy's overflow warning ignored, as the solver engine does.
        It is ``_seminorm`` with ``_length``'s rule written out, bit for bit.
        """
        dot, vol = self._complement_rows.dot, self.anchor_volume
        sqrt, inf = math.sqrt, math.inf

        def raw(x: np.ndarray) -> float:
            p = dot(x)
            r = sqrt(p.dot(p))
            return vol * (r if _LENGTH_MIN <= r < inf else float(_lengths(p[None, :])[0]))

        return raw

    def seminorm_batch(self, points: np.ndarray) -> np.ndarray:
        """``seminorm`` of many row points at once: vol * ``_lengths(P C)``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {pts.shape}")
        return self.anchor_volume * _lengths(pts @ self.complement_basis)

    def ball_points(self, dirs, radii, coeffs, center=None) -> np.ndarray:
        """Rows ``center + (radii / vol) * unit(dirs) @ Cᵀ + coeffs @ anchors``.

        ``dirs`` are (..., complement_dim) directions in the coordinates of
        the complement basis C, normalised here (a zero row stays zero), and
        ``radii`` (...) the semi-norm distances of the points from
        ``center`` (the origin when None).  ``coeffs`` (..., order - 1)
        combine the anchors into a kernel part, which moves no semi-norm.
        The leading shapes of ``dirs`` and ``radii`` and ``center`` broadcast
        against each other, and that of ``coeffs`` into theirs: the kernel
        part is added in place, with no second array of the points' size.
        """
        units = _along_points(np.divide, dirs, np.maximum(_lengths(dirs), 5e-324)[..., None])
        pts = _along_points(np.multiply, units @ self.complement_basis.T, (radii / self.anchor_volume)[..., None])
        if center is not None:
            pts = _along_points(np.add, center, pts)
        pts += coeffs @ self.anchors
        return pts

    def draw_ball(self, rng: np.random.Generator, rows: int, radius) -> tuple:
        """What ``sample_ball`` draws from ``rng``, in its order: ``rows``
        standard normal directions, radii uniform in [0, radius) and
        standard normal anchor coefficients, as ``ball_points`` takes them."""
        dirs = rng.standard_normal((rows, self.complement_dim))
        radii = rng.random(rows) * radius
        coeffs = rng.standard_normal((rows, self.order - 1))
        return dirs, radii, coeffs

    def sample_ball(self, rng: np.random.Generator, rows: int, radius, center=None) -> np.ndarray:
        """``rows`` random points of the semi-norm ball of ``radius`` around
        ``center``, each with a random kernel part: ``ball_points`` of
        ``draw_ball``'s draws."""
        return self.ball_points(*self.draw_ball(rng, rows, radius), center=center)


def anchored_seminorm(space: AnchoredSpace, x) -> float:
    """``space.seminorm(x)``: ||x, b_2, ..., b_n|| for the space's anchors,
    at most ``roundoff_floor(|x|)`` on their span."""
    return space.seminorm(x)


@dataclass(eq=False)
class Ball:
    """Semi-norm ball around ``center``; open or closed per the flag."""

    space: AnchoredSpace
    center: np.ndarray
    radius: float
    closed: bool = False

    def __post_init__(self):
        self.center = as_vector(self.center, self.space.dim)
        if not (self.radius > 0):
            raise ValueError("radius must be positive")

    def contains(self, x) -> bool:
        """Membership by the semi-norm of x - center: a large kernel
        component cannot hide its distance from the center."""
        s = self.space.seminorm_raw(as_vector(x, self.space.dim) - self.center)
        return s <= self.radius if self.closed else s < self.radius


def ball_membership(ball: Ball, x) -> bool:
    """Membership of ``x`` in the given semi-norm ball."""
    return ball.contains(x)


@dataclass(eq=False)
class ProductPoint:
    """Element (left, right) of the doubled space R^d x R^d."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = as_vector(self.left)
        self.right = as_vector(self.right)
        if self.left.size != self.right.size:
            raise ValueError("product point components must have equal length")


def product_nnorm(points: Sequence[ProductPoint]) -> float:
    """n-norm on the doubled space: the sum of the two component volumes.

    ||(x_1, y_1), ..., (x_n, y_n)|| = ||x_1, ..., x_n|| + ||y_1, ..., y_n||.
    """
    if len(points) < 1:
        raise ValueError("need at least one product point")
    if len({p.left.size for p in points} | {p.right.size for p in points}) > 1:
        raise ValueError("dimension mismatch across product points")
    lefts = np.vstack([p.left for p in points])
    rights = np.vstack([p.right for p in points])
    left, right = gram_volumes(np.stack([lefts, rights]))
    return float(left + right)


@dataclass(eq=False)
class SequencePrefix:
    """Finite prefix x_1, ..., x_m of a sequence in an anchored space."""

    space: AnchoredSpace
    items: np.ndarray

    def __post_init__(self):
        items = np.asarray(self.items, dtype=float)
        # checked before ``_as_matrix``, which reads any 1-D array, [] too, as one item
        if items.shape[:1] == (0,):
            raise ValueError("sequence prefix must be nonempty")
        items = _as_matrix(items)
        if items.shape[1] != self.space.dim:
            raise ValueError(
                f"sequence items must have length {self.space.dim}, got {items.shape[1]}"
            )
        self.items = items
        self.items.setflags(write=False)

    def __len__(self) -> int:
        return self.items.shape[0]


def b_cauchy_tail(seq: SequencePrefix, from_index: int) -> float:
    """Largest pairwise semi-norm distance in the tail of the prefix.

    ``from_index`` is 1-based; the tail is x_{from_index}, ..., x_m.  This is
    the finite-prefix residual standing in for the Cauchy condition: it must
    shrink as ``from_index`` grows for the prefix to look Cauchy.  A singleton
    tail gives 0, and so does a constant one, exactly.

    Distances use the complement form of the semi-norm, as ``seminorm``
    does.  The tail is centred on its first point in the original
    coordinates and then projected onto the complement of the anchor span,
    y_i = (x_i - x_1) C; the squared distances are |y_i|^2 + |y_j|^2 -
    2 y_i.y_j.  Every |y_i| is at most the tail's
    diameter, so this Gram form keeps full relative accuracy at the maximum,
    even for a near-converged tail far from the origin.  Rows of i are
    processed in blocks of at most ``_BLOCK_ELEMENTS`` pairs.
    """
    m = len(seq)
    if not (1 <= from_index <= m):
        raise IndexError(f"from_index must lie in [1, {m}], got {from_index}")
    tail = seq.items[from_index - 1:]
    n = tail.shape[0]
    y = (tail - tail[0]) @ seq.space.complement_basis
    with np.errstate(over="ignore"):
        sq = np.add.reduce(y * y, axis=1)
    # the length rule: out-of-range squares are taken again of y / 2^e, max |y_i| in [1, 2)
    e = 0 if _LENGTH_MIN ** 2 <= np.maximum.reduce(sq) < 1e307 else math.frexp(float(np.abs(y).max()))[1] - 1
    if e:
        y = np.ldexp(y, -e)
        sq = np.add.reduce(y * y, axis=1)
    rows = max(1, _BLOCK_ELEMENTS // n)
    worst_sq = 0.0
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        dist_sq = sq[block, None] + sq[None, :]
        dist_sq -= 2.0 * (y[block] @ y.T)  # in place: one (rows, n) temporary fewer
        worst_sq = max(worst_sq, float(dist_sq.max()))
    return seq.space.anchor_volume * (math.sqrt(worst_sq) * 2.0 ** e)


def b_limit_estimate(seq: SequencePrefix, candidate) -> float:
    """Semi-norm gap between the last prefix element and a candidate limit.

    Finite-prefix proxy for convergence: reported as a residual, never as a
    boolean claim about the infinite tail.  Measured with ``seminorm``, so
    a gap that is small next to a large kernel component keeps its value.
    """
    c = as_vector(candidate, seq.space.dim)
    return seq.space.seminorm_raw(seq.items[-1] - c)
