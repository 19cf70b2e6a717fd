"""Core norm tests: frozen oracle values plus randomized axiom properties."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nfix import nnorm
from nfix.harness import canonical_space
from nfix.nnorm import (
    AnchoredSpace,
    Ball,
    ProductPoint,
    SequencePrefix,
    anchored_seminorm,
    as_vector,
    b_cauchy_tail,
    b_limit_estimate,
    ball_membership,
    gram_nnorm,
    is_linearly_dependent,
    product_nnorm,
)


# ---------------------------------------------------------------------------
# independent oracles: cofactor-expansion determinants, no linalg
# ---------------------------------------------------------------------------

def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def gram_oracle(vectors):
    """sqrt(det Gram) via cofactor expansion, for tuples of 2 or 3 vectors."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    g = [[float(np.dot(a, b)) for b in vs] for a in vs]
    if len(vs) == 2:
        d = det2(g)
    elif len(vs) == 3:
        d = det3(g)
    else:
        raise AssertionError("oracle covers tuples of 2 or 3 vectors")
    return float(np.sqrt(max(d, 0.0)))


def space_e23(d=3):
    """Anchors (e_2, e_3) in R^d: the workhorse space of most examples."""
    anchors = np.eye(d)[1:3]
    return AnchoredSpace(dim=d, order=3, anchors=anchors)


# ---------------------------------------------------------------------------
# gram_nnorm
# ---------------------------------------------------------------------------

def test_gram_orthonormal_pair_is_one():
    assert gram_nnorm([(1.0, 0.0), (0.0, 1.0)]) == 1.0


def test_gram_diagonal_pair_matches_cofactor_oracle():
    # oracle: |det [[2,0],[0,3]]| = 6 by 2x2 cofactor expansion
    assert abs(det2([[2.0, 0.0], [0.0, 3.0]])) == 6.0
    assert gram_nnorm([(2.0, 0.0), (0.0, 3.0)]) == pytest.approx(6.0, rel=1e-12)


def test_gram_dependent_tuple_is_exactly_zero():
    assert gram_nnorm([(1.0, 2.0), (2.0, 4.0)]) == 0.0


def test_gram_rejects_order_above_dimension():
    with pytest.raises(ValueError):
        gram_nnorm([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_gram_rejects_ragged_and_nonfinite_input():
    with pytest.raises(ValueError):
        gram_nnorm([(1.0, 0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        gram_nnorm([(np.nan, 0.0), (0.0, 1.0)])


def test_gram_two_by_two_equals_abs_cross_determinant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c, d = rng.standard_normal(4) * 3.0
        got = gram_nnorm([(a, b), (c, d)])
        want = abs(a * d - b * c)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# anchored semi-norm
# ---------------------------------------------------------------------------

def test_anchored_seminorm_cofactor_oracle_value():
    sp = space_e23()
    x = np.array([5.0, 1.0, 2.0])
    # oracle: 3x3 Gram determinant of ((5,1,2), e2, e3) = 25 by cofactor expansion
    want = gram_oracle([x, sp.anchors[0], sp.anchors[1]])
    assert want == pytest.approx(5.0, rel=1e-14)
    assert sp.seminorm(x) == pytest.approx(want, rel=1e-12)


def test_anchored_seminorm_vanishes_on_anchor_span():
    sp = space_e23()
    assert sp.seminorm([0.0, 7.0, -3.0]) == 0.0
    assert anchored_seminorm(sp, [0.0, 7.0, -3.0]) == 0.0
    assert anchored_seminorm(sp, [5.0, 1.0, 2.0]) == sp.seminorm([5.0, 1.0, 2.0])
    # in the span of random anchors the complement form reads roundoff, at most the floor
    rng = np.random.default_rng(31)
    sp = AnchoredSpace(dim=5, order=3, anchors=rng.standard_normal((2, 5)))
    for scale in (1e-8, 1.0, 1e8):
        x = scale * (sp.anchors.T @ rng.standard_normal(2))
        assert anchored_seminorm(sp, x) <= sp.roundoff_floor(np.linalg.norm(x))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("kernel", [1e7, 1e9, 1e12])
def test_a_small_distance_beside_a_large_kernel_part_is_not_read_as_0(order, kernel):
    # the distance 1e-3 lies below 1e-9 |x|, yet at |x| = 1e7 it is 7000
    # roundoff floors (1.4e-7); the axis complement reads it in full even
    # beside a kernel part of 1e12
    sp = canonical_space(3, order)
    x = [1e-3, kernel, 0.0]
    for value in (anchored_seminorm(sp, x), sp.seminorm(x)):
        assert abs(value - 1e-3) <= 4 * math.ulp(1e-3)


def test_anchored_seminorm_scales_with_first_coordinate():
    sp = space_e23()
    for alpha in (-4.5, -1.0, 0.25, 9.0):
        assert sp.seminorm([alpha, 0.0, 0.0]) == pytest.approx(abs(alpha), rel=1e-12)


def test_seminorm_batch_matches_scalar_path():
    sp = space_e23(d=4)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((64, 4)) * 2.0
    batch = sp.seminorm_batch(pts)
    for i in range(pts.shape[0]):
        assert batch[i] == pytest.approx(sp.seminorm(pts[i]), rel=1e-10, abs=1e-12)


def test_space_validation_rejects_bad_anchors():
    with pytest.raises(ValueError):
        AnchoredSpace(dim=3, order=3, anchors=[(0, 1, 0), (0, 2, 0)])
    with pytest.raises(ValueError):
        AnchoredSpace(dim=2, order=3, anchors=[(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        AnchoredSpace(dim=3, order=1, anchors=np.empty((0, 3)))


# ---------------------------------------------------------------------------
# rank decisions
# ---------------------------------------------------------------------------

def test_dependence_basis_vectors_independent():
    assert not is_linearly_dependent([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])


def test_dependence_scalar_multiple():
    assert is_linearly_dependent([(1.0, 2.0), (2.0, 4.0)])


@pytest.mark.parametrize("s,volume", [(1e-110, None), (1e-102, 1e-306), (1e102, 1e306), (1e110, None)])
def test_anchors_must_have_a_volume_in_the_float_range(s, volume):
    # three anchors 1e-110 e_i have volume 0.0, and every semi-norm read 0;
    # at 1e110 the volume is inf, seminorm(0) NaN, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if volume is None:
            with pytest.raises(ValueError, match="anchor volume"):
                AnchoredSpace(dim=4, order=4, anchors=s * np.eye(4)[1:])
        else:
            sp = AnchoredSpace(dim=4, order=4, anchors=s * np.eye(4)[1:])
            assert sp.anchor_volume == pytest.approx(volume, rel=1e-14)
            assert sp.seminorm(np.zeros(4)) == 0.0


def test_dependence_tiny_perturbation_below_tolerance():
    # oracle: with unit rows the smallest singular value is ~7e-16, below
    # the threshold 1e-9, so numerical rank is 1
    assert nnorm.RANK_TOL == 1e-9
    assert is_linearly_dependent([(1.0, 0.0), (1.0, 1e-15)])


def test_dependence_perturbation_above_tolerance():
    assert not is_linearly_dependent([(1.0, 0.0), (1.0, 2e-9)])


def test_dependence_degenerate_inputs():
    assert is_linearly_dependent([(0.0, 0.0)])
    assert not is_linearly_dependent([(0.0, 3.0)])
    # more vectors than coordinates can never be independent
    assert is_linearly_dependent([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_empty_tuple_is_independent_with_unit_volume():
    # det of the 0 x 0 Gram matrix is 1; the QR has no singular value to test
    assert not is_linearly_dependent(np.empty((0, 3)))
    assert gram_nnorm(np.empty((0, 3))) == 1.0


# ---------------------------------------------------------------------------
# product norm
# ---------------------------------------------------------------------------

def test_product_norm_sums_component_volumes():
    pts = [ProductPoint((1.0, 0.0), (2.0, 0.0)), ProductPoint((0.0, 1.0), (0.0, 3.0))]
    got = product_nnorm(pts)
    want = gram_nnorm([(1.0, 0.0), (0.0, 1.0)]) + gram_nnorm([(2.0, 0.0), (0.0, 3.0)])
    assert got == want  # definitional: exact two-term sum
    assert got == pytest.approx(7.0, rel=1e-12)


def test_product_norm_zero_points():
    pts = [ProductPoint((0.0, 0.0), (0.0, 0.0)), ProductPoint((0.0, 0.0), (0.0, 0.0))]
    assert product_nnorm(pts) == 0.0


def test_product_norm_dependent_left_leaves_right():
    pts = [ProductPoint((1.0, 2.0), (1.0, 0.0)), ProductPoint((2.0, 4.0), (0.0, 1.0))]
    assert product_nnorm(pts) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_ball_membership_interior_boundary_and_kernel():
    sp = space_e23()
    open_ball = Ball(space=sp, center=np.zeros(3), radius=1.0, closed=False)
    closed_ball = Ball(space=sp, center=np.zeros(3), radius=1.0, closed=True)
    assert ball_membership(open_ball, [0.5, 0.0, 0.0])
    assert not ball_membership(open_ball, [1.0, 0.0, 0.0])
    assert ball_membership(closed_ball, [1.0, 0.0, 0.0])
    # semi-norm degeneracy: huge anchor-span offsets are invisible
    assert ball_membership(open_ball, [0.0, 99.0, 99.0])


def test_ball_contains_sees_a_unit_gap_beside_a_huge_kernel_part():
    # a kernel part of 1e12 hides no part of the distance 1 of [1, 1e12, 0]
    ball = Ball(space=canonical_space(3, 3), center=np.zeros(3), radius=0.5)
    assert not ball.contains([1.0, 1e12, 0.0])
    assert not ball_membership(ball, [1.0, 1e12, 0.0])
    assert ball.contains([0.25, 1e12, 0.0])


# ---------------------------------------------------------------------------
# sequence estimators
# ---------------------------------------------------------------------------

def test_cauchy_tail_constant_sequence():
    sp = space_e23()
    seq = SequencePrefix(space=sp, items=np.tile([1.0, 2.0, 3.0], (6, 1)))
    for start in range(1, 7):
        assert b_cauchy_tail(seq, start) == 0.0


def test_cauchy_tail_geometric_matches_exhaustive_oracle():
    sp = space_e23()
    items = np.array([[2.0 ** (1 - k), 0.0, 0.0] for k in range(1, 11)])
    seq = SequencePrefix(space=sp, items=items)
    # oracle: exhaustive pairwise max over the 10-element prefix
    worst = 0.0
    for i in range(10):
        for j in range(10):
            worst = max(worst, gram_oracle([items[i] - items[j], sp.anchors[0], sp.anchors[1]]))
    assert worst == 0.998046875
    assert b_cauchy_tail(seq, 1) == pytest.approx(worst, rel=1e-14)
    assert b_cauchy_tail(seq, 10) == 0.0


def test_cauchy_tail_alternating_diameter():
    sp = space_e23()
    items = np.array([[(-1.0) ** k, 0.0, 0.0] for k in range(8)])
    seq = SequencePrefix(space=sp, items=items)
    assert b_cauchy_tail(seq, 1) == pytest.approx(2.0, rel=1e-14)


def test_cauchy_tail_index_bounds():
    sp = space_e23()
    seq = SequencePrefix(space=sp, items=np.zeros((3, 3)))
    with pytest.raises(IndexError):
        b_cauchy_tail(seq, 0)
    with pytest.raises(IndexError):
        b_cauchy_tail(seq, 4)


def _exhaustive_tail(seq, from_index):
    """Oracle: the pairwise maximum by an explicit double loop over seminorm_raw."""
    tail = seq.items[from_index - 1:]
    worst = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            worst = max(worst, seq.space.seminorm_raw(tail[j] - tail[i]))
    return worst


def _random_space(rng, d, order):
    return AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))


def test_cauchy_tail_random_prefixes_match_exhaustive_loop():
    rng = np.random.default_rng(123)
    for d, order, m, start in [(3, 2, 7, 1), (8, 3, 40, 5), (16, 4, 100, 1), (16, 3, 90, 12), (5, 5, 300, 2)]:
        sp = _random_space(rng, d, order)
        seq = SequencePrefix(space=sp, items=rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0))
        n = m - start + 1
        if m == 300:
            # the tail's rows of i span at least two blocks of pairs
            assert nnorm._BLOCK_ELEMENTS // n < n
        assert b_cauchy_tail(seq, start) == pytest.approx(_exhaustive_tail(seq, start), rel=1e-12)
        assert b_cauchy_tail(seq, m - 1) == pytest.approx(_exhaustive_tail(seq, m - 1), rel=1e-12)


def test_cauchy_tail_near_converged_prefix_mpmath_oracle():
    # |x| ~ 1e3, gaps ~ 1e-6: projecting the points before subtracting them
    # would lose ~9 digits here, and |a|^2 + |b|^2 - 2 a.b on points that
    # are not centred on the tail all of them
    rng = np.random.default_rng(7)
    d, order, m = 5, 3, 12
    sp = _random_space(rng, d, order)
    limit = rng.standard_normal(d) * 1e3
    items = limit + rng.standard_normal((m, d)) * 1e-6
    seq = SequencePrefix(space=sp, items=items)
    with mpmath.workdps(60):
        anchors = [[mpmath.mpf(float(v)) for v in b] for b in sp.anchors]
        worst = mpmath.mpf(0)
        for i in range(m):
            for j in range(i + 1, m):
                diff = [mpmath.mpf(float(a)) - mpmath.mpf(float(b)) for a, b in zip(items[j], items[i])]
                vs = [diff] + anchors
                g = mpmath.matrix([[mpmath.fsum(x * y for x, y in zip(a, b)) for b in vs] for a in vs])
                worst = max(worst, mpmath.sqrt(mpmath.det(g)))
        oracle = float(worst)
    assert 1e-7 < oracle / sp.anchor_volume < 1e-5
    assert b_cauchy_tail(seq, 1) == pytest.approx(oracle, rel=1e-12)


def test_cauchy_tail_matches_an_mpmath_oracle_at_extreme_scales():
    # the squares of y = (x_i - x_1) C underflowed below ~1e-154 (a tail
    # {0, s e1, s e3} read as constant, 0.0) and overflowed past ~1e154
    rng = np.random.default_rng(29)
    d, order, m = 5, 3, 9
    sp = _random_space(rng, d, order)
    unit = rng.standard_normal((m, d))
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        anchors = [[mpmath.mpf(float(v)) for v in b] for b in sp.anchors]
        for s in 10.0 ** np.arange(-200, 201, 25):
            items = unit * s
            # the gaps are scaled by 2^-e exactly, so mpmath's det sees a well-scaled G
            e = math.frexp(s)[1]
            worst = mpmath.mpf(0)
            for i in range(m):
                for j in range(i + 1, m):
                    gap = [mpmath.ldexp(mpmath.mpf(float(a)) - mpmath.mpf(float(b)), -e) for a, b in zip(items[j], items[i])]
                    vs = [gap] + anchors
                    g = mpmath.matrix([[mpmath.fsum(x * y for x, y in zip(a, b)) for b in vs] for a in vs])
                    worst = max(worst, mpmath.ldexp(mpmath.sqrt(mpmath.det(g)), e))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = b_cauchy_tail(SequencePrefix(space=sp, items=items), 1)
            assert abs(got - float(worst)) <= 64 * eps * float(worst)


def test_cauchy_tail_constant_and_singleton_tails_are_exactly_zero():
    rng = np.random.default_rng(5)
    sp = _random_space(rng, 8, 3)
    point = rng.standard_normal(8) * 1e3
    seq = SequencePrefix(space=sp, items=np.tile(point, (200, 1)))
    assert nnorm._BLOCK_ELEMENTS // 200 < 200
    assert b_cauchy_tail(seq, 1) == 0.0
    moving = SequencePrefix(space=sp, items=rng.standard_normal((30, 8)))
    assert b_cauchy_tail(moving, 30) == 0.0
    assert b_cauchy_tail(SequencePrefix(space=sp, items=[point]), 1) == 0.0


def test_estimators_do_not_snap_a_gap_beside_a_large_kernel_component():
    # [1, 1e12, 0] is 1 away from the origin; the rank snap relative to the
    # largest entry used to report 0
    sp = canonical_space(3, 3)
    seq = SequencePrefix(space=sp, items=[[0.0, 0.0, 0.0], [1.0, 1e12, 0.0]])
    assert b_cauchy_tail(seq, 1) == pytest.approx(1.0, rel=1e-12)
    last = SequencePrefix(space=sp, items=[[1.0, 1e12, 0.0]])
    assert b_limit_estimate(last, np.zeros(3)) == pytest.approx(1.0, rel=1e-12)


def test_limit_estimate_values():
    sp = space_e23()
    items = np.array([[2.0 ** (1 - k), 0.0, 0.0] for k in range(1, 21)])
    seq = SequencePrefix(space=sp, items=items)
    assert b_limit_estimate(seq, np.zeros(3)) == pytest.approx(2.0 ** -19, rel=1e-14)
    assert b_limit_estimate(seq, items[-1]) == 0.0
    # candidate offset by an anchor-span vector sits at distance zero
    assert b_limit_estimate(seq, items[-1] + np.array([0.0, 5.0, -2.0])) == 0.0


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


# ---------------------------------------------------------------------------
# axiom properties (randomized)
# ---------------------------------------------------------------------------

finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def tuple_strategy(n, d):
    return st.lists(
        st.lists(finite_coord, min_size=d, max_size=d), min_size=n, max_size=n
    )


def well_conditioned(*vectors):
    """Condition bound: near-degenerate or badly scale-mismatched tuples lose
    the stated tolerances to determinant cancellation, so the axiom
    tolerances are quoted for conditioned samples only.  Requires the tuple
    volume to be a healthy fraction of the product of lengths and every
    vector to live within two decades of the largest entry."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    top = max(float(np.max(np.abs(v))) for v in vs)
    if top == 0.0 or min(float(np.max(np.abs(v))) for v in vs) < 1e-2 * top:
        return False
    scale = 1.0
    for v in vs:
        scale *= max(float(np.linalg.norm(v)), 1e-30)
    return gram_nnorm(vs) > 0.2 * scale


def conditioned(tuples, *fixed):
    """Tuples drawn from ``tuples`` that, completed by the ``fixed``
    vectors, pass ``well_conditioned``.  Up to half of all draws fail it, so
    the condition is a filter, which hypothesis retries before it counts an
    example invalid; as an assume() in the test, every failure counted, and
    50 of them before the 10th valid example (about 1 run in 1000) failed
    the filter_too_much health check."""
    return tuples.filter(lambda vs: well_conditioned(*vs, *fixed))


@settings(max_examples=150, deadline=None)
@given(vs=conditioned(tuple_strategy(2, 3)), seed=st.integers(0, 10_000))
def test_permutation_invariance_pairs(vs, seed):
    base = gram_nnorm(vs)
    swapped = gram_nnorm([vs[1], vs[0]])
    assert abs(base - swapped) <= 1e-12 * max(base, swapped, 1e-30)


@settings(max_examples=150, deadline=None)
@given(vs=conditioned(tuple_strategy(3, 4)))
def test_permutation_invariance_triples(vs):
    import itertools

    base = gram_nnorm(vs)
    for perm in itertools.permutations(vs):
        got = gram_nnorm(list(perm))
        assert abs(base - got) <= 1e-12 * max(base, got, 1e-30)


@settings(max_examples=150, deadline=None)
@given(
    vs=conditioned(tuple_strategy(2, 3)),
    alpha=st.floats(min_value=1e-3, max_value=10.0).flatmap(
        lambda a: st.sampled_from([a, -a])
    ),
)
def test_absolute_homogeneity(vs, alpha):
    # the scaled first vector must stay above the rank threshold, which is
    # measured against the whole tuple; homogeneity below that scale
    # degenerates to an exact zero by design (the price of exact N1)
    assume(abs(alpha) * np.max(np.abs(vs[0])) > 1e-6 * np.max(np.abs(vs)))
    base = gram_nnorm(vs)
    scaled = gram_nnorm([np.asarray(vs[0]) * alpha, vs[1]])
    want = abs(alpha) * base
    assert abs(scaled - want) <= 1e-12 * max(scaled, want, 1e-30)


@settings(max_examples=200, deadline=None)
@given(xyr=tuple_strategy(3, 3).filter(lambda t: well_conditioned(t[0], t[2]) and well_conditioned(t[1], t[2])))
def test_triangle_inequality_first_slot(xyr):
    x, y, *rest = xyr
    lhs = gram_nnorm([np.asarray(x) + np.asarray(y)] + rest)
    rhs = gram_nnorm([x] + rest) + gram_nnorm([y] + rest)
    assert lhs <= rhs + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    x=conditioned(tuple_strategy(1, 3), *space_e23().anchors),
    y=conditioned(tuple_strategy(1, 3), *space_e23().anchors),
    alpha=st.floats(min_value=1e-3, max_value=10.0),
)
def test_anchored_seminorm_is_a_seminorm(x, y, alpha):
    sp = space_e23()
    x = np.asarray(x[0])
    y = np.asarray(y[0])
    tri = sp.seminorm(x + y)
    assert tri <= sp.seminorm(x) + sp.seminorm(y) + 1e-9
    hom = sp.seminorm(alpha * x)
    want = alpha * sp.seminorm(x)
    assert abs(hom - want) <= 1e-12 * max(hom, want, 1e-30)


def test_dependent_tuples_collapse_and_independent_tuples_do_not():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        combo = rng.uniform(-2, 2) * a + rng.uniform(-2, 2) * b
        scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(combo)
        assert gram_nnorm([a, b, combo]) <= 1e-9 * max(scale, 1.0)
        c = rng.standard_normal(4)
        if not is_linearly_dependent([a, b, c]):
            assert gram_nnorm([a, b, c]) > 0.0


# ---------------------------------------------------------------------------
# scale and order: one QR decides rank on the tuple with unit-length rows
# ---------------------------------------------------------------------------

def _mp_gram_volume(vectors):
    """Oracle: sqrt(det G) of the double-valued tuple in 60-digit arithmetic.
    Each vector is first divided by a power of two near its largest entry,
    which is exact, so mpmath's det sees a well-scaled G at any scale."""
    with mpmath.workdps(60):
        vs, scale = [], mpmath.mpf(1)
        for v in vectors:
            e = math.frexp(max(abs(float(x)) for x in v))[1]
            vs.append([mpmath.ldexp(mpmath.mpf(float(x)), -e) for x in v])
            scale *= mpmath.ldexp(1, e)
        g = mpmath.matrix([[mpmath.fsum(a * b for a, b in zip(u, w)) for w in vs] for u in vs])
        return float(scale * mpmath.sqrt(mpmath.det(g)))


@pytest.mark.parametrize("dim,order", [(3, 2), (5, 3), (16, 4), (64, 3)])
def test_raw_seminorm_is_within_a_few_ulps_of_an_mpmath_oracle(dim, order):
    # seminorm_raw, seminorm_batch and seminorm, vol * |C^T x|, against
    # sqrt(det G(x, anchors)) of the same doubles in 60-digit arithmetic: the
    # error stays within 16 ulps of vol * |x| at anchor scales 1e-8 ... 1e8
    # and point scales 1e-200 ... 1e200, where the squares of C^T x under-
    # or overflow, with kernel parts of x up to 1e8 times its part off the
    # span, and no numpy warning
    rng = np.random.default_rng([dim, order, 23])
    eps = np.finfo(float).eps
    worst = 0.0
    for scale in 10.0 ** np.arange(-8, 9, 4):
        sp = AnchoredSpace(dim=dim, order=order, anchors=scale * rng.standard_normal((order - 1, dim)))
        for ratio in (0.0, 1.0, 1e4, 1e8):
            off = sp.complement_basis @ rng.standard_normal(sp.complement_dim)
            kernel = sp.anchors.T @ rng.standard_normal(order - 1)
            unit = off + ratio * np.linalg.norm(off) / np.linalg.norm(kernel) * kernel
            for x_scale in 10.0 ** np.arange(-200, 201, 50):
                x = unit * x_scale * 10.0 ** rng.integers(-6, 7)
                exact = _mp_gram_volume([x, *sp.anchors])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = [sp.seminorm_raw(x), sp.seminorm_batch(x[None])[0], sp.seminorm(x)]
                for value in got:
                    worst = max(worst, abs(value - exact) / (eps * sp.anchor_volume * math.hypot(*x)))
    assert worst <= 16.0


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e-160, 1e200, 1e300])
def test_an_axis_point_off_the_span_keeps_its_seminorm_at_extreme_scales(s):
    # |C^T x| was sqrt(y.y): y.y overflowed at 1e200, and the snap then read
    # the point as in the kernel; it underflowed at 1e-170, so a closed ball
    # of radius 1e-300 around 0 held the point, and lost digits at 1e-160
    sp = canonical_space(3, 2)
    x = np.array([s, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert anchored_seminorm(sp, x) == sp.seminorm(x) == sp.seminorm_raw(x) == \
            sp.seminorm_batch(np.stack([x, x]))[1] == s
        assert not Ball(space=sp, center=np.zeros(3), radius=0.5 * s, closed=True).contains(x)


def test_gram_scale_mismatched_pair_keeps_its_area():
    # the old elimination threshold, 1e-9 * 1e5, swallowed the second vector
    assert gram_nnorm([[1e5, 0.0], [0.0, 1e-5]]) == pytest.approx(1.0, rel=1e-15)
    assert not is_linearly_dependent([[1e5, 0.0], [0.0, 1e-5]])


def test_seminorm_of_a_large_point_beside_unit_anchors():
    sp = canonical_space(3, 3)
    assert sp.seminorm([1e12, 1.0, 0.0]) == pytest.approx(1e12, rel=1e-15)
    ball = Ball(space=sp, center=np.zeros(3), radius=1.0)
    assert not ball.contains([1e9, 0.0, 0.0])
    # with axis anchors a point of the anchor span reads exactly 0 at every scale
    assert sp.seminorm([0.0, 1e12, -3.0]) == 0.0
    assert sp.seminorm([2e-12, 0.0, 0.0]) == pytest.approx(2e-12, rel=1e-15)


def test_orthogonal_anchors_of_different_scales_are_accepted():
    sp = AnchoredSpace(dim=3, order=3, anchors=[[0.0, 1e10, 0.0], [0.0, 0.0, 1.0]])
    assert sp.anchor_volume == pytest.approx(1e10, rel=1e-15)
    assert sp.seminorm([2.0, 5.0, 7.0]) == pytest.approx(2e10, rel=1e-15)


def test_dependence_verdict_and_volume_do_not_depend_on_the_order():
    import itertools

    # a = e1, b = e1 + eps e2, c = e2 + 0.5 e3: the distance of b to the span
    # of the vectors before it depends on where b stands, so a rule on that
    # distance alone called the eps = 2e-9 tuple independent in one order
    # and dependent in another
    for eps, dependent in ((2e-9, True), (1e-8, False)):
        tuples = list(itertools.permutations([[1.0, 0.0, 0.0], [1.0, eps, 0.0], [0.0, 1.0, 0.5]]))
        assert [is_linearly_dependent(t) for t in tuples] == [dependent] * len(tuples)
        volumes = [gram_nnorm(t) for t in tuples]
        if dependent:
            assert volumes == [0.0] * len(tuples)
        else:
            # the tuple's condition number is ~3e8, so the last 8 digits are roundoff
            assert volumes == pytest.approx([0.5 * eps] * len(tuples), rel=1e-6)


def test_rank_verdict_holds_at_extreme_row_scales():
    # a row's squared length underflows at 1e-170 and overflows at 1e155;
    # neither may turn a nonzero row into a zero or a dependent one
    for tiny, huge in ((1e-170, 1e155), (1e-300, 1e300)):
        assert not is_linearly_dependent([[tiny, 0.0]])
        assert not is_linearly_dependent([[huge, 0.0]])
        assert not is_linearly_dependent([[huge, 0.0], [0.0, tiny]])
        assert is_linearly_dependent([[tiny, tiny], [2.0 * tiny, 2.0 * tiny]])
        assert is_linearly_dependent([[huge, huge], [huge, huge]])
    assert gram_nnorm([[1e-170, 0.0]]) == 1e-170
    assert gram_nnorm([[1e155, 0.0]]) == 1e155
    sp = AnchoredSpace(dim=3, order=3, anchors=[[1e155, 0.0, 0.0], [0.0, 1e-170, 0.0]])
    assert sp.anchor_volume == pytest.approx(1e-15, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_stacked_qr_split_matches_single_tuples(d):
    # one stack mixing zero rows, exactly dependent tuples and rows at
    # 1e-170 / 1e155: every member must get the bits and the verdict of its
    # own single-tuple call, so no member's scale reaches another's
    rng = np.random.default_rng(d)
    for k in range(1, d + 1):
        stack = rng.standard_normal((9, k, d))
        stack[1, 0] = 0.0
        stack[2, -1] = 2.0 * stack[2, 0]
        stack[3, 0] *= 1e-170
        stack[4, -1] *= 1e155
        stack[5] *= 1e-170
        stack[5, -1] = 2.0 * stack[5, 0]
        stack[6] *= 1e155
        stack[6, -1] = stack[6, 0]
        stack[7, 0] *= 1e155
        stack[7, -1] *= 1e-170
        for complete in (False, True):
            q, volumes, dependent = nnorm._qr_split(stack, complete=complete)
            assert volumes.shape == dependent.shape == (9,)
            for i, rows in enumerate(stack):
                q1, volume, dep = nnorm._qr_split(rows, complete=complete)
                assert volumes[i].tobytes() == np.float64(volume).tobytes()
                assert dependent[i] == dep
                assert volume == gram_nnorm(rows)
                assert dep == is_linearly_dependent(rows)
                if complete:
                    assert q[i].tobytes() == q1.tobytes()
                else:
                    assert q is None and q1 is None
        assert dependent[1] and volumes[1] == 0.0
        assert not dependent[[0, 3, 4, 7]].any()
        if k > 1:
            assert dependent[[2, 5, 6]].all() and not volumes[[2, 5, 6]].any()
        assert nnorm.gram_volumes(stack).tobytes() == volumes.tobytes()
        assert nnorm.gram_volumes(stack[None, 2:4]).shape == (1, 2)


def test_gram_volumes_checks_its_stack():
    with pytest.raises(ValueError):
        nnorm.gram_volumes(np.ones(3))
    with pytest.raises(ValueError):
        nnorm.gram_volumes(np.ones((4, 3, 2)))
    with pytest.raises(ValueError):
        nnorm.gram_volumes([[[np.inf, 0.0], [0.0, 1.0]]])
    assert nnorm.gram_volumes(np.zeros((0, 2, 3))).shape == (0,)
    assert nnorm.gram_volumes(np.empty((2, 0, 3))).tolist() == [1.0, 1.0]


def test_random_full_order_anchors_are_accepted():
    # 63 Gaussian anchors in R^64 are far from dependent (every unit
    # combination has length above 1e-2), though the product of their
    # distances over the product of their lengths is ~1e-13
    rng = np.random.default_rng(0)
    anchors = rng.standard_normal((63, 64))
    sp = AnchoredSpace(dim=64, order=64, anchors=anchors)
    assert sp.anchor_volume == pytest.approx(_mp_gram_volume(anchors), rel=1e-12)


def test_badly_scaled_tuples_match_mpmath_gram_oracle():
    # rows well-conditioned up to scale, with lengths from 1e-8 to 1e8
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        rows = _conditioned_rows(rng, 3, 5) * (10.0 ** rng.uniform(-8.0, 8.0, size=3))[:, None]
        oracle = _mp_gram_volume(rows)
        got = gram_nnorm(rows)
        assert got > 0.0
        worst = max(worst, abs(got - oracle) / oracle)
    assert worst <= 1e-12


def _conditioned_rows(rng, k, d):
    while True:
        rows = rng.standard_normal((k, d))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        if gram_nnorm(rows) > 0.1:
            return rows


def test_ball_points_match_the_inline_formula():
    rng = np.random.default_rng(11)
    for d, order in [(3, 2), (5, 3), (16, 4)]:
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)) * 3.0)
        n = 50
        center = rng.standard_normal(d)
        dirs = rng.standard_normal((n, sp.complement_dim))
        radii = rng.random(n) * 2.5
        coeffs = rng.standard_normal((n, order - 1))
        got = sp.ball_points(dirs, radii, coeffs, center=center)
        norms = np.linalg.norm(dirs, axis=1)
        want = (
            center
            + (radii / sp.anchor_volume / norms)[:, None] * (dirs @ sp.complement_basis.T)
            + coeffs @ sp.anchors
        )
        scale = np.linalg.norm(want, axis=1)
        assert np.max(np.linalg.norm(got - want, axis=1) / scale) <= 1e-15
        # without a kernel part each point lies at its radius from the origin
        bare = sp.ball_points(dirs, radii, np.zeros_like(coeffs))
        assert sp.seminorm_batch(bare) == pytest.approx(radii, rel=1e-13)
    zero = sp.ball_points(np.zeros((1, sp.complement_dim)), np.ones(1), np.zeros((1, order - 1)))
    assert np.all(zero == 0.0)


def test_ball_points_keep_their_radius_whatever_the_length_of_the_direction():
    # a plain |dir| was 0 below ~1e-154, which left the point at |dir| times
    # its radius, and inf past ~1.3e154, which put it at the centre
    rng = np.random.default_rng(31)
    sp = AnchoredSpace(dim=5, order=3, anchors=rng.standard_normal((2, 5)))
    dirs = rng.standard_normal((16, sp.complement_dim))
    radii = 0.1 + 2.5 * rng.random(16)
    eps = np.finfo(float).eps
    for s in 10.0 ** np.arange(-200, 201, 25):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sp.seminorm_batch(sp.ball_points(s * dirs, radii, np.zeros((16, 2))))
        assert np.all(np.abs(got - radii) <= 8 * eps * radii)


# ---------------------------------------------------------------------------
# short rows: the same bits as numpy's reduction and broadcasts
# ---------------------------------------------------------------------------

_WIDTHS = list(range(1, 10)) + [16, 61]


def _rows_of_many_scales(rng, shape):
    # entries whose squares differ by up to ~10^8, so a sum taken in
    # another order rounds differently somewhere in every stack
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, shape)


@pytest.mark.parametrize("width", _WIDTHS)
def test_lengths_equal_numpy_reduction_bit_for_bit(width):
    rng = np.random.default_rng([41, width])
    m = 300
    for lead in [(), (m,), (3, m)]:
        rows = _rows_of_many_scales(rng, lead + (width,))
        want = np.sqrt(np.add.reduce(rows * rows, axis=-1))
        got = nnorm._lengths(rows)
        assert got.shape == want.shape and np.array_equal(got, want)
    # a strided view of wider rows takes the same rule
    rows = _rows_of_many_scales(rng, (m, 2 * width))[:, ::2]
    assert np.array_equal(nnorm._lengths(rows), np.sqrt(np.add.reduce(rows * rows, axis=-1)))


@pytest.mark.parametrize("width", _WIDTHS)
@pytest.mark.parametrize("s", [1e160, 1e-160])
def test_length_rule_at_extreme_scales_is_the_rescaled_length(width, s):
    # at 1e+-160 every square overflows or underflows, so each row takes the
    # rule's second form: |v / max |v_i|| * max |v_i|, written out here
    rng = np.random.default_rng([43, width])
    rows = s * _rows_of_many_scales(rng, (200, width))
    peaks = np.abs(rows).max(axis=-1)
    u = rows / peaks[:, None]
    want = peaks * np.sqrt(np.add.reduce(u * u, axis=-1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nnorm._lengths(rows)
    assert np.array_equal(got, want)
    assert np.all(np.isfinite(got) & (got > 0.0))


def _ball_points_written_out(sp, dirs, radii, coeffs, center=None):
    """``ball_points`` as a plain numpy expression, for directions whose
    lengths are in range: every broadcast runs along the last axis."""
    units = dirs / np.maximum(np.sqrt(np.add.reduce(dirs * dirs, axis=-1)), 5e-324)[..., None]
    pts = (radii / sp.anchor_volume)[..., None] * (units @ sp.complement_basis.T)
    if center is not None:
        pts = center + pts
    return pts + coeffs @ sp.anchors


@pytest.mark.parametrize("dim,order", [(3, 2), (4, 2), (5, 2), (6, 3), (10, 2), (12, 3)])
def test_ball_points_equal_the_written_out_expression_bit_for_bit(dim, order):
    # complement widths 2 to 9 and point widths 3 to 12, on both sides of
    # the widths where the rows are summed and scaled in another layout
    rng = np.random.default_rng([47, dim, order])
    sp = AnchoredSpace(dim=dim, order=order, anchors=rng.standard_normal((order - 1, dim)))
    m, k = 257, sp.complement_dim
    dirs = _rows_of_many_scales(rng, (m, k))
    dirs[5] = 0.0  # a zero direction stays zero
    radii = rng.random(m)
    coeffs = rng.standard_normal((m, order - 1))
    center = rng.standard_normal(dim)
    stacked = np.stack([radii, np.ones(m), 0.5 + 2.5 * radii])
    for r in (radii, stacked):
        for c in (None, center):
            got = sp.ball_points(dirs, r, coeffs, center=c)
            want = _ball_points_written_out(sp, dirs, r, coeffs, center=c)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert np.array_equal(got, want)
    assert np.array_equal(sp.ball_points(dirs, stacked, np.zeros_like(coeffs))[:, 5], np.zeros((3, dim)))
    # one point: leading shape ()
    one = (dirs[0], np.float64(radii[0]), coeffs[0])
    assert np.array_equal(sp.ball_points(*one, center=center), _ball_points_written_out(sp, *one, center=center))
    # the bounded suite's broadcast: (operators, base points, samples)
    d4, r4, c4 = dirs[:256].reshape(16, 1, 16, k), radii[:256].reshape(16, 1, 16), coeffs[:256].reshape(16, 1, 16, -1)
    x0 = rng.standard_normal((16, 2, 1, dim))
    got = sp.ball_points(d4, r4, c4, center=x0)
    assert got.shape == (16, 2, 16, dim) and np.array_equal(got, _ball_points_written_out(sp, d4, r4, c4, center=x0))


@pytest.mark.parametrize("dim", [3, 8])
def test_ball_points_add_the_center_bit_for_bit_along_the_samples(dim):
    # the bounded suite's broadcast, (operators, 2 base points, 64 samples),
    # and the continuity probe's, one center for a block of rows: the
    # center's addition runs along the samples at d = 3 and along the
    # entries of each point at d = 8, each element one addition either way
    rng = np.random.default_rng([48, dim])
    sp = AnchoredSpace(dim=dim, order=2, anchors=rng.standard_normal((1, dim)))
    rows = (1 << 18) // (2 * 64 * dim)  # operators in one of the suite's blocks: 682 at d = 3
    for center, pts in ((rng.standard_normal((rows, 2, 1, dim)), rng.standard_normal((rows, 1, 64, dim))),
                        (rng.standard_normal(dim), rng.standard_normal((5120, dim)))):
        got = nnorm._along_points(np.add, center, pts)
        assert got.flags.c_contiguous and np.array_equal(got, center + pts)
    dirs, radii = rng.standard_normal((rows, 1, 64, sp.complement_dim)), rng.random((rows, 1, 64))
    coeffs, x0 = rng.standard_normal((rows, 1, 64, 1)), rng.standard_normal((rows, 2, 1, dim))
    got = sp.ball_points(dirs, radii, coeffs, center=x0)
    assert got.shape == (rows, 2, 64, dim) and np.array_equal(got, _ball_points_written_out(sp, dirs, radii, coeffs, x0))


_E2 = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: as_vector([]), "vector must have length >= 1"),
    (lambda: nnorm._as_matrix(np.zeros((2, 2, 2))), "expected a sequence of equal-length vectors"),
    (lambda: AnchoredSpace(dim=0, order=2, anchors=[[1.0]]), "dim must be a positive integer"),
    (lambda: AnchoredSpace(dim=3, order=2, anchors=np.eye(3)[1:]),
     "anchors must be 1 vectors of length 3, got shape (2, 3)"),
    (lambda: _E2.seminorm_batch(np.zeros(3)), "expected shape (m, 3), got (3,)"),
    (lambda: Ball(_E2, np.zeros(3), 0.0), "radius must be positive"),
    (lambda: ProductPoint([1.0, 2.0], [1.0, 2.0, 3.0]), "product point components must have equal length"),
    (lambda: product_nnorm([]), "need at least one product point"),
    (lambda: product_nnorm([ProductPoint([1.0, 0.0], [0.0, 1.0]), ProductPoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]),
     "dimension mismatch across product points"),
    (lambda: SequencePrefix(_E2, np.zeros((0, 3))), "sequence prefix must be nonempty"),
    (lambda: SequencePrefix(_E2, np.empty((0, 5))), "sequence prefix must be nonempty"),
    (lambda: SequencePrefix(_E2, []), "sequence prefix must be nonempty"),
    (lambda: SequencePrefix(_E2, [[]]), "sequence items must have length 3, got 0"),
    (lambda: SequencePrefix(_E2, np.zeros((2, 2))), "sequence items must have length 3, got 2"),
], ids=["empty-vector", "3d-matrix", "dim-0", "anchor-shape", "batch-shape", "ball-radius-0",
        "product-point-lengths", "product-empty", "product-mixed-dims", "prefix-empty", "prefix-empty-wide",
        "prefix-empty-list", "prefix-one-empty-item", "prefix-item-length"])
def test_nnorm_refuses_bad_input_with_its_own_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
