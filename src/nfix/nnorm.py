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

# Relative threshold for numerical rank decisions.  Chosen to leave
# headroom between genuine rank deficiency and double-precision roundoff.
DEFAULT_RANK_TOL = 1e-9

# A computed semi-norm value is roundoff, not distance, when it is at most
# this many ulps of the anchor volume times the Euclidean length of the
# arithmetic behind it (``AnchoredSpace.roundoff_floor``).
ROUNDOFF = 64 * sys.float_info.epsilon

# Most pairs one block of squared distances in b_cauchy_tail may hold.
_PAIR_BLOCK_ELEMENTS = 1 << 14


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size < 1:
        raise ValueError("vector must have length >= 1")
    if not np.all(np.isfinite(v)):
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


def _qr_split(rows: np.ndarray, tol: float, complete: bool = False):
    """One Householder QR per tuple of a stack shaped (..., k, d), k <= d:
    (Q or None, volumes, dependent), the last two shaped (...).  A single
    (k, d) tuple is a stack of shape ().

    A tuple is dependent when, with every row scaled to unit length, its
    smallest singular value (that of R with its columns so scaled) is at
    most ``tol``, whatever the order and lengths of the rows; a zero row
    always is, and the empty tuple, with no singular values, is not.  Each
    column of R is divided by its row's largest entry before its length is
    taken, so no length underflows or overflows.  A dependent tuple has
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
    peaks = np.abs(rows).max(axis=-1, initial=0.0)
    zero = peaks == 0.0
    # adding ``zero`` turns a zero divisor into 1.0, so a zero row's column stays 0
    scaled = r / (peaks + zero)[..., None, :]
    unit = scaled / (np.linalg.norm(scaled, axis=-2) + zero)[..., None, :]
    smallest = np.linalg.svd(unit, compute_uv=False)[..., -1:].min(axis=-1, initial=np.inf)
    dependent = zero.any(axis=-1) | (smallest <= tol)
    # a dependent tuple's |R_ii| become 0 before the product, which cannot overflow then
    diagonal = np.where(dependent[..., None], 0.0, np.abs(r.diagonal(axis1=-2, axis2=-1)))
    return q, np.multiply.reduce(diagonal, axis=-1), dependent


def is_linearly_dependent(vectors, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Decide linear dependence from one QR of the tuple.

    The tuple is dependent when, with every vector scaled to unit length,
    its smallest singular value is at most ``tol``: some unit combination of
    the vectors nearly cancels.  The decision is free of the vectors' order
    and of their lengths, so (1e5, 0) and (0, 1e-5) are independent.
    Degenerate inputs (zero vectors, more vectors than coordinates) are
    valid and simply come out dependent.
    """
    rows = _as_matrix(vectors)
    k, d = rows.shape
    return k > d or bool(_qr_split(rows, tol)[2])


def gram_nnorm(vectors, tol: float = DEFAULT_RANK_TOL) -> float:
    """Volume of the parallelepiped spanned by ``vectors``.

    This is sqrt(det G) with G the Gram matrix of the tuple, computed as
    prod |R_ii| from one QR of the tuple, which does not square the
    condition number as det G does.  A tuple that is linearly dependent
    under ``is_linearly_dependent``'s rule returns exactly 0.0, so
    degeneracy is decidable rather than a roundoff-sized residue.
    """
    return float(gram_volumes(_as_matrix(vectors), tol))


def gram_volumes(tuples, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
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
    return _qr_split(rows, tol)[1]


@dataclass(eq=False)
class AnchoredSpace:
    """R^dim carrying the semi-norm ||x, b_2, ..., b_n|| with fixed anchors.

    ``anchors`` holds the n-1 frozen slots as rows; they must be linearly
    independent under ``rank_tol``.  One complete QR of the anchors gives
    their volume, the independence verdict and the orthonormal split of
    R^dim into the anchor span and its complement: the semi-norm of x is
    (Euclidean length of the complement part of x) * (anchor volume).
    """

    dim: int
    order: int
    anchors: np.ndarray
    rank_tol: float = DEFAULT_RANK_TOL
    anchor_volume: float = field(init=False)
    anchor_basis: np.ndarray = field(init=False)
    complement_basis: np.ndarray = field(init=False)

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
        q, volume, dependent = _qr_split(anchors, self.rank_tol, complete=True)
        if dependent:
            raise ValueError("anchors must be linearly independent")
        self.anchor_volume = float(volume)
        self.anchors = anchors
        self.anchors.setflags(write=False)
        self.anchor_basis = q[:, : self.order - 1]
        self.complement_basis = q[:, self.order - 1:]
        self.anchor_basis.setflags(write=False)
        self.complement_basis.setflags(write=False)

    @property
    def complement_dim(self) -> int:
        return self.dim - (self.order - 1)

    def roundoff_floor(self, scale):
        """The largest semi-norm value roundoff alone can produce from
        arithmetic on points of Euclidean length ``scale`` (a float or an
        array); a value at or below it counts as 0."""
        return ROUNDOFF * self.anchor_volume * scale

    def seminorm(self, x) -> float:
        """||x, b_2, ..., b_n|| in the projection form of ``seminorm_raw``,
        snapped to exactly 0 when x's distance to the anchor span is at most
        ``rank_tol`` times its own length."""
        x = as_vector(x, self.dim)
        perp = x - self.anchor_basis @ (self.anchor_basis.T @ x)
        off = math.sqrt(perp.dot(perp))
        return 0.0 if off <= self.rank_tol * math.sqrt(x.dot(x)) else self.anchor_volume * off

    def seminorm_raw(self, x) -> float:
        """Semi-norm via the projection identity, without the dependence snap.

        ||x, b_2, ..., b_n|| equals (anchor volume) * ||x - P x||_2 with P the
        orthogonal projector onto the anchor span.  This keeps full relative
        accuracy for tiny x, so residual and displacement arithmetic must use
        it: the dependence snap would otherwise forge zero certificates for a
        small step beside a large kernel component.
        """
        return self.projection_kernel()(as_vector(x, self.dim))

    def projection_kernel(self) -> Callable[[np.ndarray], float]:
        """``seminorm_raw`` without its input checks, for hot loops.

        The returned function expects a 1-D float64 array of length dim and
        validates nothing.  A non-finite coordinate always yields a non-finite
        result, so a caller may test the result instead of the input.
        """
        basis, basis_t, vol = self.anchor_basis, self.anchor_basis.T, self.anchor_volume
        sqrt = math.sqrt

        def raw(x: np.ndarray) -> float:
            perp = x - basis @ (basis_t @ x)
            # sqrt(perp . perp) is what np.linalg.norm computes for 1-D input
            return vol * sqrt(perp.dot(perp))

        return raw

    def seminorm_batch(self, points: np.ndarray) -> np.ndarray:
        """Semi-norms of many row points at once via the projection identity.

        Fast path for sampling loops and solver internals: no dependence
        snap, full relative accuracy at every scale.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {pts.shape}")
        perp = pts - (pts @ self.anchor_basis) @ self.anchor_basis.T
        return self.anchor_volume * np.linalg.norm(perp, axis=1)

    def ball_points(self, dirs, radii, coeffs, center=None) -> np.ndarray:
        """Rows ``center + (radii / vol) * unit(dirs) @ Cᵀ + coeffs @ anchors``.

        ``dirs`` are (m, complement_dim) directions in the coordinates of
        the complement basis C, normalised here (a zero row stays zero), and
        ``radii`` the semi-norm distances of the points from ``center`` (the
        origin when None).  ``coeffs`` (m, order - 1) combine the anchors
        into a kernel part, which moves no semi-norm.
        """
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0.0] = 1.0
        units = dirs / norms[:, None]
        pts = (radii / self.anchor_volume)[:, None] * (units @ self.complement_basis.T)
        if center is not None:
            pts = center + pts
        return pts + coeffs @ self.anchors

    def sample_ball(self, rng: np.random.Generator, rows: int, radius, center=None) -> np.ndarray:
        """``rows`` random points of the semi-norm ball of ``radius`` around
        ``center``, each with a random kernel part: ``ball_points`` of
        standard normal directions, radii uniform in [0, radius) and
        standard normal anchor coefficients, drawn from ``rng`` in that
        order."""
        dirs = rng.standard_normal((rows, self.complement_dim))
        radii = rng.random(rows) * radius
        coeffs = rng.standard_normal((rows, self.order - 1))
        return self.ball_points(dirs, radii, coeffs, center=center)


def anchored_seminorm(space: AnchoredSpace, x) -> float:
    """||x, b_2, ..., b_n|| for the space's anchors; zero exactly on their span."""
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
        """Membership by the unsnapped semi-norm: a large kernel component
        of x - center cannot hide its distance from the center."""
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


def product_nnorm(points: Sequence[ProductPoint], tol: float = DEFAULT_RANK_TOL) -> float:
    """n-norm on the doubled space: the sum of the two component volumes.

    ||(x_1, y_1), ..., (x_n, y_n)|| = ||x_1, ..., x_n|| + ||y_1, ..., y_n||.
    """
    if len(points) < 1:
        raise ValueError("need at least one product point")
    lefts = np.vstack([p.left for p in points])
    rights = np.vstack([p.right for p in points])
    if lefts.shape[1] != rights.shape[1]:
        raise ValueError("dimension mismatch across product points")
    left, right = gram_volumes(np.stack([lefts, rights]), tol)
    return float(left + right)


@dataclass(eq=False)
class SequencePrefix:
    """Finite prefix x_1, ..., x_m of a sequence in an anchored space."""

    space: AnchoredSpace
    items: np.ndarray

    def __post_init__(self):
        items = _as_matrix(self.items)
        if items.shape[0] < 1:
            raise ValueError("sequence prefix must be nonempty")
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

    Distances use the projection form of the semi-norm without the
    dependence snap, as ``seminorm_raw`` does.  The tail is centred on its
    first point in the original coordinates and then projected onto the
    complement of the anchor span, y_i = (x_i - x_1) C; the squared distances
    are |y_i|^2 + |y_j|^2 - 2 y_i.y_j.  Every |y_i| is at most the tail's
    diameter, so this Gram form keeps full relative accuracy at the maximum,
    even for a near-converged tail far from the origin.  Rows of i are
    processed in blocks of at most ``_PAIR_BLOCK_ELEMENTS`` pairs.
    """
    m = len(seq)
    if not (1 <= from_index <= m):
        raise IndexError(f"from_index must lie in [1, {m}], got {from_index}")
    tail = seq.items[from_index - 1:]
    n = tail.shape[0]
    y = (tail - tail[0]) @ seq.space.complement_basis
    sq = np.einsum("ij,ij->i", y, y)
    rows = max(1, _PAIR_BLOCK_ELEMENTS // n)
    worst_sq = 0.0
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        dist_sq = sq[block, None] + sq[None, :] - 2.0 * (y[block] @ y.T)
        worst_sq = max(worst_sq, float(dist_sq.max()))
    return seq.space.anchor_volume * math.sqrt(worst_sq)


def b_limit_estimate(seq: SequencePrefix, candidate) -> float:
    """Semi-norm gap between the last prefix element and a candidate limit.

    Finite-prefix proxy for convergence: reported as a residual, never as a
    boolean claim about the infinite tail.  Measured with ``seminorm_raw``,
    without the dependence snap, so a gap that is small next to a large
    kernel component is not forged to 0.
    """
    c = as_vector(candidate, seq.space.dim)
    return seq.space.seminorm_raw(seq.items[-1] - c)
