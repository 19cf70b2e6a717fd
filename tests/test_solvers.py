"""Solver tests against closed-form geometric oracles."""

import math
import warnings
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest

from nfix import operators
from nfix.harness import canonical_space
from nfix.nnorm import ROUNDOFF, AnchoredSpace
from nfix.operators import (
    affine_operator,
    apply,
    apply_batch,
    builtin_operator,
    contraction_constant,
    kannan_constant,
    kernel_preserved,
    lipschitz_constant,
)
from nfix.solvers import (
    ASeq,
    ConstantMismatchError,
    ContainmentError,
    NonFiniteIterateError,
    PreconditionError,
    SolverConfig,
    SolverInputError,
    ball_solve,
    edelstein_solve,
    explicit_sequence,
    geometric_sequence,
    kannan_solve,
    picard_solve,
    solve,
    summable_solve,
)


def space_e23(d=3):
    return AnchoredSpace(dim=d, order=3, anchors=np.eye(d)[1:3])


REGIME_CONSTANTS = {
    "picard": {"alpha": 0.95},
    "ball": {"alpha": 0.95, "radius": 1e3},
    "summable": {"a_seq": explicit_sequence([0.95 ** k for k in range(1, 41)])},
    "kannan": {"beta": 0.49},
    "edelstein": {},
}


def half_shift_op(d=3):
    """T(x) = x/2 + e1; fixed point (2, 0, ..., 0), iterates 2 - 2^(1-k)."""
    return affine_operator(0.5 * np.eye(d), offset=np.eye(d)[0])


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------

def test_picard_analytic_problem_bounds_are_tight():
    sp = space_e23()
    cfg = SolverConfig(regime="picard", alpha=0.5, tol=1e-10)
    report = picard_solve(half_shift_op(), sp, np.zeros(3), cfg)
    assert report.converged
    assert report.iterations == 35
    assert len(report.trace) == 35
    assert abs(report.fixed_point[0] - 2.0) <= 1e-10
    assert report.independence_ok
    assert report.uniqueness_note == "kernel_modulo_unique"
    for row in report.trace:
        # closed form: residual, both bounds, and the true error all equal 2^(1-k)
        want = 2.0 ** (1 - row.k)
        assert row.residual == pytest.approx(want, abs=1e-15)
        assert row.apriori == pytest.approx(want, abs=1e-15)
        assert row.aposteriori == pytest.approx(want, abs=1e-15)
    assert report.certified_error <= 1e-10
    assert report.trace[-1].apriori == pytest.approx(2.0 ** -34, abs=1e-18)


def test_picard_envelope_dominates_true_error():
    sp = space_e23()
    cfg = SolverConfig(regime="picard", alpha=0.5, tol=5e-14)
    report = picard_solve(half_shift_op(), sp, np.zeros(3), cfg)
    x = np.zeros(3)
    op = half_shift_op()
    for row in report.trace[:40]:
        x = apply(op, x)
        true_err = abs(x[0] - 2.0)  # oracle: anchors orthonormal, error lives in coord 1
        assert true_err <= row.apriori + 1e-12
        assert abs(true_err - row.apriori) <= 1e-12  # tight for this instance


def test_picard_kernel_shift_returns_immediately():
    sp = space_e23()
    shift = affine_operator(np.eye(3), offset=[0.0, 1.0, 0.0])  # T(x) = x + e2
    cfg = SolverConfig(regime="picard", alpha=0.5)
    report = picard_solve(shift, sp, np.zeros(3), cfg)
    assert report.converged
    assert report.iterations == 0
    assert report.certified_error == 0.0
    assert np.allclose(report.fixed_point, np.zeros(3))
    # theta together with the anchors is a dependent set
    assert not report.independence_ok
    assert report.uniqueness_note == "independence_condition_failed"
    report2 = picard_solve(shift, sp, np.array([1.0, 0.0, 0.0]), cfg)
    assert report2.independence_ok


def test_picard_contraction_to_origin_iteration_count():
    sp = space_e23()
    tol = 1e-10
    cfg = SolverConfig(regime="picard", alpha=0.5, tol=tol)
    report = picard_solve(affine_operator(0.5 * np.eye(3)), sp, np.array([1.0, 0.0, 0.0]), cfg)
    assert report.converged
    assert sp.seminorm(report.fixed_point) <= tol
    assert report.iterations <= math.ceil(math.log2(2.0 / tol))


def test_picard_residual_recursion_random_affine():
    sp = space_e23()
    rng = np.random.default_rng(99)
    for _ in range(20):
        alpha = rng.uniform(0.1, 0.9)
        op = affine_operator(alpha * np.eye(3), offset=rng.standard_normal(3))
        cfg = SolverConfig(regime="picard", alpha=alpha, tol=1e-10)
        report = picard_solve(op, sp, rng.standard_normal(3), cfg)
        assert report.converged
        rows = report.trace
        for prev, cur in zip(rows, rows[1:]):
            assert cur.residual <= alpha * prev.residual + 1e-12
            assert cur.residual <= prev.residual * (1 + 1e-9)
        for row in rows:
            # cumulative form; absolute slack absorbs subtraction noise of
            # near-fixed-point displacements
            assert row.residual <= alpha ** (row.k - 1) * report.residual0 + 1e-12


def test_picard_rejects_bad_alpha_and_regime():
    sp = space_e23()
    with pytest.raises(SolverInputError):
        picard_solve(half_shift_op(), sp, np.zeros(3), SolverConfig(regime="picard", alpha=1.0))
    with pytest.raises(SolverInputError):
        picard_solve(half_shift_op(), sp, np.zeros(3), SolverConfig(regime="picard", alpha=-0.1))
    with pytest.raises(SolverInputError):
        picard_solve(half_shift_op(), sp, np.zeros(3), SolverConfig(regime="ball", alpha=0.5, radius=1.0))


def test_picard_crosscheck_catches_false_constant():
    sp = space_e23()
    op = builtin_operator("scale", factor=0.5)
    cfg = SolverConfig(regime="picard", alpha=0.3)
    with pytest.raises(ConstantMismatchError) as err:
        picard_solve(op, sp, np.array([1.0, 0.0, 0.0]), cfg)
    assert err.value.declared == 0.3
    assert err.value.found > 0.3


def test_picard_orbit_refutes_false_constant():
    # with the pair crosscheck disabled, the orbit itself still refutes a
    # fictional alpha: expanding residuals break the declared recursion
    sp = space_e23()
    op = builtin_operator("scale", factor=3.0)
    cfg = SolverConfig(regime="picard", alpha=0.9, crosscheck_pairs=0, max_iter=10 ** 6)
    with pytest.raises(ConstantMismatchError) as err:
        picard_solve(op, sp, np.array([1.0, 0.0, 0.0]), cfg)
    # the message names what the orbit measured: a residual ratio, not an exact constant
    assert (err.value.name, err.value.declared, err.value.found) == ("alpha", 0.9, 3.0)
    assert "contradicted by the residual ratio of orbit step 2 = 3;" in str(err.value)
    assert "exact" not in str(err.value)


@pytest.mark.parametrize("j", [20, 24])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_an_alpha_below_the_exact_one_by_more_than_roundoff_is_refused(j, tol):
    # L = diag(1 - 2^-j, 1, 0.5) fixes x* = 0 modulo the anchor e2.  An
    # absolute slack of 1e-6 let alpha = exact - 0.9e-6 pass, and from
    # (e_s, 0, e_w) a converged solve certified up to 3.72 times less than
    # its exact error: a certificate multiplies a slack on alpha by 1 / (1 - alpha)
    sp = canonical_space(3, 2)
    exact = 1.0 - 2.0 ** -j
    op = affine_operator(np.diag([exact, 1.0, 0.5]))
    fiction = 0.0
    for e_s in (0.5 * tol, tol, 1.5 * tol, 1.9 * tol):
        for e_w in np.logspace(-6, 2, 9):
            x0 = np.array([e_s, 0.0, e_w])
            with pytest.raises(ConstantMismatchError) as err:
                picard_solve(op, sp, x0, SolverConfig(regime="picard", alpha=exact - 0.9e-6, tol=tol))
            assert err.value.found == exact
            # the orbit guard alone cannot see it: the weak axis contracts at 0.5
            report = picard_solve(op, sp, x0, SolverConfig(regime="picard", alpha=exact - 0.9e-6, tol=tol,
                                                            crosscheck_pairs=0))
            x = [Fraction(v) for v in report.fixed_point]
            if report.converged:
                fiction = max(fiction, math.sqrt(x[0] ** 2 + x[2] ** 2) / report.certified_error)
    assert fiction > 1.0


@pytest.mark.parametrize("s", [1e8, 3e13, 1e160])
def test_a_large_span_block_does_not_widen_the_roundoff_pad(s):
    # diag(0.9, s, 0.9) keeps the anchor e2, and no term of C^T L C = 0.9 I
    # touches s.  A pad sized by |L|_F reached 0.43 at s = 3e13, and
    # alpha = 0.5 certified 6.6e-11 for an exact error of 0.049
    op = affine_operator(np.diag([0.9, s, 0.9]))
    for regime, constants in (("picard", {"alpha": 0.5}), ("kannan", {"beta": 0.45})):
        with pytest.raises(ConstantMismatchError) as err:
            solve(op, canonical_space(3, 2), np.array([1.0, 0.0, 1.0]), SolverConfig(regime=regime, **constants))
        assert err.value.found == pytest.approx(0.9 if regime == "picard" else 9.0, rel=1e-15)


def test_false_alpha_at_d64_is_refused_on_every_seed():
    # 0.3 I + 1.2 u v^T with unit u, v in the complement: the orbit contracts
    # at the spectral radius ~0.3, so no orbit guard fires, but the Lipschitz
    # constant is 1.19 - 1.33.  A 64-pair sample of it accepted alpha = 0.5 on 21
    # of these 40 seeds.
    for seed in range(40):
        rng = np.random.default_rng([seed, 64])
        sp = AnchoredSpace(dim=64, order=4, anchors=rng.standard_normal((3, 64)))
        u, v = rng.standard_normal((2, 61)) @ sp.complement_basis.T
        a = 0.3 * np.eye(64) + 1.2 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        exact = np.linalg.norm(sp.complement_basis.T @ a @ sp.complement_basis, 2)
        cfg = SolverConfig(regime="picard", alpha=0.5, tol=1e-10)
        with pytest.raises(ConstantMismatchError) as err:
            picard_solve(affine_operator(a), sp, rng.standard_normal(64), cfg)
        assert err.value.found == pytest.approx(exact, rel=1e-12)
        assert "exact alpha" in str(err.value)


def test_small_anchors_cannot_forge_a_certificate():
    # anchor volume 1e-14 puts every sampled semi-norm under the ratio
    # floor, so a sample found alpha_hat = 0 and scale(0.95) was certified
    # with alpha = 0.1, its true error 1.1e10 times the certificate
    sp = AnchoredSpace(dim=3, order=3, anchors=[[0.0, 1e-7, 0.0], [0.0, 0.0, 1e-7]])
    cfg = SolverConfig(regime="picard", alpha=0.1, tol=1e-24)
    with pytest.raises(ConstantMismatchError) as err:
        picard_solve(builtin_operator("scale", factor=0.95), sp, np.array([1.0, 0.0, 0.0]), cfg)
    assert err.value.found == pytest.approx(0.95, rel=1e-15)


# regime -> (the factor f of L = f I + m e1 e2^T, the declared constants)
LEAK_REGIMES = {
    "picard": (0.5, {"alpha": 0.5}),
    "ball": (0.5, {"alpha": 0.5, "radius": 1e8}),
    "summable": (0.5, {"a_seq": geometric_sequence(0.5)}),
    "kannan": (0.3, {"beta": 0.45}),
}


def _leak(factor, move, kernel):
    """T(x) = L x + (1, 0, 1), L = factor I + move e1 e2^T, which moves the
    anchor e2 of canonical_space(3, 2) by ``move`` e1, and the start
    (2, kernel, 2), whose kernel part the move turns into a distance."""
    lin = factor * np.eye(3)
    lin[0, 1] = move
    return affine_operator(lin, offset=[1.0, 0.0, 1.0]), np.array([2.0, kernel, 2.0])


def _exact_error(op, x):
    """|x_1 - x*_1, x_3 - x*_3|, the semi-norm error of x in canonical_space(3, 2),
    and |x*|, with the fixed point x* of the upper triangular map exact in
    fractions; the error is rounded once, at the end."""
    lin = [[Fraction(v) for v in row] for row in op.matrix]
    star = [Fraction(0)] * 3
    for i in reversed(range(3)):  # back substitution of (I - L) x* = c
        star[i] = (Fraction(op.offset[i]) + sum(lin[i][j] * star[j] for j in range(i + 1, 3))) / (1 - lin[i][i])
    err_sq = sum((Fraction(x[i]) - star[i]) ** 2 for i in (0, 2))
    return math.sqrt(err_sq), math.sqrt(sum(v * v for v in star))


@pytest.mark.parametrize("move", [1e-10, 1e-12, 1e-13])
@pytest.mark.parametrize("kernel", [1e10, 1e12, 1e15])
def test_a_map_that_moves_the_span_above_roundoff_is_refused(move, kernel):
    # a move of the anchor by 1e-10 e1 was inside a rank tolerance of 1e-9:
    # the gate passed L, the exact constant read sigma_max(C^T L C) = f, and
    # picard certified 0 for a true error of move * kernel (100 at 1e-10,
    # 1e12), however far above the roundoff floor
    sp = canonical_space(3, 2)
    for regime, (factor, constants) in LEAK_REGIMES.items():
        op, x0 = _leak(factor, move, kernel)
        assert not kernel_preserved(affine_operator(op.matrix), sp)
        assert lipschitz_constant(op, sp) == kannan_constant(op, sp) == math.inf
        with pytest.raises(ConstantMismatchError) as err:
            solve(op, sp, x0, SolverConfig(regime=regime, tol=1e-10, **constants))
        assert err.value.found == math.inf
    # with the cross-check off, the certificate is fiction
    op, x0 = _leak(0.5, move, kernel)
    report = picard_solve(op, sp, x0, SolverConfig(regime="picard", alpha=0.5, tol=1e-10, crosscheck_pairs=0))
    true_error, star_len = _exact_error(op, report.fixed_point)
    assert report.converged and report.certified_error == 0.0
    assert true_error == pytest.approx(move * kernel, rel=1e-6)
    assert true_error > 10.0 * sp.roundoff_floor(np.linalg.norm(report.fixed_point) + star_len)


@pytest.mark.parametrize("regime", sorted(LEAK_REGIMES))
def test_a_leak_whose_roundoff_pad_overflows_is_refused(regime):
    # the leak of 1e-10 beside an axis scaled by 1e308, which x0 leaves at 0,
    # so every iterate stays finite while |C|^T |L| |C| overflows: a pad of
    # inf waved every rate through and switched the orbit guard off, and
    # picard certified 0 for a true error of 100
    factor, constants = LEAK_REGIMES[regime]
    lin = np.diag([factor, factor, 1e308])
    lin[0, 1], lin[0, 2] = 1e-10, 1e308
    with pytest.raises(ConstantMismatchError) as err:
        solve(affine_operator(lin, offset=[1.0, 0.0, 0.0]), canonical_space(3, 2), np.array([2.0, 1e12, 0.0]),
              SolverConfig(regime=regime, tol=1e-10, **constants))
    assert err.value.found == math.inf


def test_a_move_below_roundoff_keeps_certificates_within_the_floor():
    # a move of 1e-15 is under the gate's 64 eps, so the map passes as one
    # that keeps the span; what it leaks into the semi-norm (10 here) stays
    # under the roundoff floor at |x| + |x*|, which every certificate may miss by
    sp = canonical_space(3, 2)
    for regime, (factor, constants) in LEAK_REGIMES.items():
        op, x0 = _leak(factor, 1e-15, 1e16)
        assert kernel_preserved(affine_operator(op.matrix), sp)
        report = solve(op, sp, x0, SolverConfig(regime=regime, tol=1e-10, **constants))
        assert report.converged
        true_error, star_len = _exact_error(op, report.fixed_point)
        assert true_error <= report.certified_error + sp.roundoff_floor(np.linalg.norm(report.fixed_point) + star_len)


# (operator, regime constants, outcome at every anchor scale): the outcome
# is the exception raised, or (iterations, converged, independence_ok)
SCALE_FAMILY = {
    "kannan-scale": (builtin_operator("scale", factor=0.45), {"regime": "kannan", "beta": 0.05},
                     "ConstantMismatchError"),
    "picard-saturating": (builtin_operator("saturating"), {"regime": "picard", "alpha": 0.1},
                          "ConstantMismatchError"),
    "picard-saturating-unchecked": (builtin_operator("saturating"),
                                    {"regime": "picard", "alpha": 0.1, "crosscheck_pairs": 0},
                                    "ConstantMismatchError"),
    "ball-saturating": (builtin_operator("saturating"), {"regime": "ball", "alpha": 0.5, "radius": 0.5},
                        "ConstantMismatchError"),
    "picard-affine": (affine_operator([[0.6, 0.0, 0.0], [0.2, 0.5, 0.1], [0.3, 0.0, 0.4]],
                                      offset=[1.0, 2.0, 3.0]),
                      {"regime": "picard", "alpha": 0.6}, (47, True, True)),
}


@pytest.mark.parametrize("s", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("name", sorted(SCALE_FAMILY))
def test_outcomes_are_invariant_under_anchor_scale(name, s):
    # anchors s e2, s e3: the n-norm is homogeneous, so every semi-norm
    # scales by s^2, and tol and radius do too.  A zero test on an absolute
    # threshold switches itself off once the semi-norms fall under it, and
    # would then certify at small s what unit scale refuses.
    op, constants, outcome = SCALE_FAMILY[name]
    constants = dict(constants)
    if "radius" in constants:
        constants["radius"] *= s ** 2
    sp = AnchoredSpace(dim=3, order=3, anchors=[[0.0, s, 0.0], [0.0, 0.0, s]])
    cfg = SolverConfig(tol=1e-10 * s ** 2, **constants)
    try:
        report = solve(op, sp, np.array([0.4, 0.5, -0.3]), cfg)
    except SolverInputError as err:
        assert type(err).__name__ == outcome
    else:
        assert (report.iterations, report.converged, report.independence_ok) == outcome
        unit = solve(op, AnchoredSpace(dim=3, order=3, anchors=np.eye(3)[1:3]), np.array([0.4, 0.5, -0.3]),
                     SolverConfig(tol=1e-10, **SCALE_FAMILY[name][1]))
        residuals = np.array([row.residual for row in report.trace])
        unit_residuals = np.array([row.residual for row in unit.trace])
        np.testing.assert_allclose(residuals, s ** 2 * unit_residuals, rtol=1e-12, atol=0.0)


FRAME_MATRIX = np.array([[0.5, 0.0, 0.0, 0.1],
                         [0.2, 0.4, 0.1, 0.0],
                         [0.1, 0.0, 0.3, 0.2],
                         [0.1, 0.0, 0.0, 0.4]])
FRAME_OFFSET = np.array([1.0, 2.0, 3.0, -1.0])


def frame_affine(q):
    # FRAME_MATRIX maps span(e2, e3) into itself; its exact constant is 0.56
    return affine_operator(q @ FRAME_MATRIX @ q.T, offset=q @ FRAME_OFFSET)


def frame_scale(factor):
    return lambda q: builtin_operator("scale", factor=factor)  # factor * I is the same in every frame


# (operator in the frame q, regime constants, outcome in every frame): the
# outcome is the exception raised, or (iterations, converged, independence_ok)
FRAME_FAMILY = {
    "picard-affine": (frame_affine, {"regime": "picard", "alpha": 0.6}, (35, True, True)),
    "picard-affine-false-alpha": (frame_affine, {"regime": "picard", "alpha": 0.5}, "ConstantMismatchError"),
    "summable-affine": (frame_affine, {"regime": "summable",
                                       "a_seq": explicit_sequence([0.6 ** k for k in range(1, 61)])},
                        (35, True, True)),
    "ball-affine": (frame_affine, {"regime": "ball", "alpha": 0.6, "radius": 50.0}, (35, True, True)),
    "ball-affine-small-radius": (frame_affine, {"regime": "ball", "alpha": 0.6, "radius": 0.5},
                                 "PreconditionError"),
    "picard-scale": (frame_scale(0.5), {"regime": "picard", "alpha": 0.5}, (33, True, False)),
    "kannan-scale": (frame_scale(0.2), {"regime": "kannan", "beta": 0.3}, (15, True, False)),
    "kannan-scale-false-beta": (frame_scale(0.45), {"regime": "kannan", "beta": 0.05},
                                "ConstantMismatchError"),
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(FRAME_FAMILY))
def test_outcomes_are_invariant_under_an_orthogonal_change_of_frame(name, seed):
    # the Gram volume is invariant under orthogonal maps, so moving the
    # anchors, x0 and the offset to Q. and A to Q A Q^T (Q random, Haar
    # distributed) must leave every count, refusal and verdict unchanged
    q = np.eye(4)
    if seed is not None:
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
    make_op, constants, outcome = FRAME_FAMILY[name]
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3] @ q.T)
    try:
        report = solve(make_op(q), sp, q @ np.array([0.4, 0.5, -0.3, 0.7]),
                       SolverConfig(tol=1e-10, **constants))
    except SolverInputError as err:
        assert type(err).__name__ == outcome
    else:
        assert (report.iterations, report.converged, report.independence_ok) == outcome


@pytest.mark.parametrize("regime", ["picard", "ball"])
def test_maps_without_a_linear_part_are_cross_checked_exactly(regime):
    # saturating's slope 1 / (1 + |t|)^2 reaches 1 at t = 0, which lies in
    # the reach of x_1 on all of R and on the ball x_1 in [-0.4, 0.6]
    cfg = SolverConfig(regime=regime, alpha=0.5, radius=0.5, tol=1e-8)
    with pytest.raises(ConstantMismatchError) as err:
        solve(builtin_operator("saturating"), space_e23(), np.array([0.1, 0.0, 0.0]), cfg)
    assert err.value.found == 1.0
    assert "exact" in str(err.value)


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_picard_orbit_guard_is_scale_aware(seed):
    # large anchor volume (~400-570) and |x*| ~ 160: near convergence the
    # residual sits at its roundoff floor vol * eps * |x|, far above an
    # absolute 1e-12, and must not be read as a broken recursion
    rng = np.random.default_rng(seed)
    sp = AnchoredSpace(dim=64, order=4, anchors=rng.standard_normal((3, 64)))
    offset = rng.standard_normal(64)
    op = affine_operator(0.95 * np.eye(64), offset=offset)
    report = picard_solve(op, sp, np.zeros(64), SolverConfig(regime="picard", alpha=0.95, tol=1e-10))
    assert report.converged
    star = offset / 0.05  # exact fixed point of 0.95 x + b
    slack = 64 * np.finfo(float).eps * sp.anchor_volume * np.linalg.norm(star)
    assert sp.seminorm_raw(report.fixed_point - star) <= report.certified_error + slack


def _random_frame(d, seed):
    """A Haar random orthogonal (d, d) matrix and the space anchored at its
    first two columns."""
    q, r = np.linalg.qr(np.random.default_rng([seed, d]).standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    return q, AnchoredSpace(dim=d, order=3, anchors=q[:, :2].T)


@pytest.mark.parametrize("d", [3, 16, 64])
def test_rates_near_1_in_random_frames_are_held_to_the_roundoff_pad(d):
    # alpha I in a random frame: the computed sigma_max(C^T L C) and the
    # orbit's residual ratios exceed alpha by ulps, which the roundoff pad
    # must absorb however small 1 - alpha is; 100 ROUNDOFF |C^T L C| below
    # alpha is beyond it (a pad of ROUNDOFF w^T |L| w, w = |C| 1, let it
    # pass at d = 64, where that sum grows as d^2)
    for seed in range(5):
        q, sp = _random_frame(d, seed)
        x0 = q[:, 2:] @ np.random.default_rng(seed).standard_normal(d - 2)
        for gap in (2.0 ** -10, 2.0 ** -20, 2.0 ** -30, 2.0 ** -40):
            alpha = 1.0 - gap
            op = affine_operator(alpha * np.eye(d))
            for constants in ({"regime": "picard", "alpha": alpha},
                              {"regime": "ball", "alpha": alpha, "radius": 2.0 * sp.seminorm(x0)},
                              {"regime": "summable", "a_seq": geometric_sequence(alpha)}):
                report = solve(op, sp, x0, SolverConfig(tol=1e-10, max_iter=5, **constants))
                assert report.iterations == 5
            short = alpha - 100 * ROUNDOFF * alpha
            with pytest.raises(ConstantMismatchError) as err:
                solve(op, sp, x0, SolverConfig(regime="picard", alpha=short, tol=1e-10))
            assert err.value.found == pytest.approx(alpha, abs=ROUNDOFF)


def test_the_orbit_guard_grants_the_pad_the_crosscheck_grants():
    # alpha I at d = 64 in a random frame has |M|_F ~ 9.3 alpha, so alpha
    # declared 6 ROUNDOFF alpha short passes the cross-check; from a start
    # in the complement the residuals then break the bare declared recursion
    # by 6 (1 - alpha) floors at |x_prev|, which the guard's pad must grant
    for seed in range(3):
        q, sp = _random_frame(64, seed)
        x0 = q[:, 2:] @ np.random.default_rng(seed).standard_normal(62)
        for alpha in (0.3, 0.5, 0.7):
            short = alpha - 6 * ROUNDOFF * alpha
            for constants in ({"regime": "picard", "alpha": short},
                              {"regime": "ball", "alpha": short, "radius": 2.0 * sp.seminorm(x0)},
                              {"regime": "summable", "a_seq": geometric_sequence(short)}):
                assert solve(affine_operator(alpha * np.eye(64)), sp, x0, SolverConfig(tol=1e-10, **constants)).converged


@pytest.mark.parametrize("d,seeds", [(3, 10), (16, 4), (64, 2)])
def test_honest_maps_in_random_frames_certify_the_exact_error(d, seeds):
    # L keeps the anchor span: in the frame q it is [[0.5 I, K], [0, alpha U]]
    # with U orthogonal, so its exact alpha is the declared one.  The fixed
    # point of the float map is solved in 40 digits; every certificate must
    # hold up to the roundoff floor at |x| + |x*|
    for seed in range(seeds):
        q, sp = _random_frame(d, seed)
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.3, 0.95))
        u = np.linalg.qr(rng.standard_normal((d - 2, d - 2)))[0]
        block = np.zeros((d, d))
        block[:2, :2] = 0.5 * np.eye(2)
        block[:2, 2:] = rng.standard_normal((2, d - 2))
        block[2:, 2:] = alpha * u
        lin, offset = q @ block @ q.T, rng.standard_normal(d)
        with mpmath.workdps(40):
            star = mpmath.lu_solve(mpmath.eye(d) - mpmath.matrix(lin.tolist()), mpmath.matrix(offset.tolist()))
            star = np.array([float(v) for v in star])
        for constants in ({"regime": "picard", "alpha": alpha},
                          {"regime": "ball", "alpha": alpha, "radius": 1e3},
                          {"regime": "summable", "a_seq": geometric_sequence(alpha)}):
            report = solve(affine_operator(lin, offset), sp, rng.standard_normal(d),
                           SolverConfig(tol=1e-10, **constants))
            assert report.converged
            error = sp.seminorm_raw(report.fixed_point - star)
            slack = sp.roundoff_floor(np.linalg.norm(report.fixed_point) + np.linalg.norm(star))
            assert error <= report.certified_error + slack


def test_nonfinite_iterate_aborts_with_step():
    sp = space_e23()
    with np.errstate(over="ignore"):
        # one-step overflow: finite input, infinite image
        op = affine_operator(1e200 * np.eye(3))
        cfg = SolverConfig(regime="picard", alpha=0.9, crosscheck_pairs=0)
        with pytest.raises(NonFiniteIterateError) as err:
            picard_solve(op, sp, np.array([1e200, 0.0, 0.0]), cfg)
        assert err.value.step == 1
        # edelstein has no rate to guard with, so divergence runs to overflow
        cfg_e = SolverConfig(regime="edelstein", tol=1e-10, max_iter=10 ** 6)
        with pytest.raises(NonFiniteIterateError) as err2:
            edelstein_solve(builtin_operator("scale", factor=3.0), sp,
                            np.array([1.0, 0.0, 0.0]), cfg_e)
        assert err2.value.step > 1


@pytest.mark.parametrize("regime", ["picard", "ball", "summable", "kannan", "edelstein"])
def test_nonfinite_kernel_coordinate_aborts_at_its_step(regime):
    # the overflow lands in the anchor coordinate e2 only, where the semi-norm
    # cannot see it; the residual still turns non-finite at that very step
    sp = space_e23()
    op = affine_operator(np.diag([0.5, 1e10, 0.5]))
    cfg = SolverConfig(regime=regime, tol=1e-10, crosscheck_pairs=0, **REGIME_CONSTANTS[regime])
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterateError) as err:
            solve(op, sp, np.array([1.0, 1.0, 0.0]), cfg)
    assert err.value.step == 31  # 1e10 ** 31 overflows; certification would need 34 steps


@pytest.mark.parametrize("regime,op,x0,constants,step", [
    # x1 = -1.5e308 is finite, x0 - x1 is not
    ("picard", affine_operator(np.diag([-1.5, 1.0, 1.0])), [1e308, 0.0, 0.0], {"alpha": 0.5}, 1),
    # x_193 = -1.1^193 * 1e300 ~ -9.6e307 is finite, x_193 - x_192 is not
    ("edelstein", builtin_operator("scale", factor=-1.1), [1e300, 0.0, 0.0], {"max_iter": 10 ** 5}, 193),
    # x_2 - x_1 is finite, the ball's displacement x_2 - x0 is not
    ("ball", affine_operator(np.diag([0.5, 1.0, 0.5]), offset=[0.0, -1e308, 0.0]), [1.0, 1e308, 0.0],
     {"alpha": 0.5, "radius": 10.0}, 2),
])
def test_overflowing_displacement_between_finite_iterates_aborts_at_its_step(regime, op, x0, constants, step):
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime=regime, tol=1e-10, **constants)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterateError) as err:
            solve(op, sp, np.array(x0), cfg)
    assert err.value.step == step


def test_a_far_start_records_finite_residuals():
    # every iterate and displacement is finite, but y.y of C^T x overflowed
    # near 1e154, so the trace opened with inf residuals and bounds
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime="picard", alpha=0.5, tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = picard_solve(builtin_operator("scale", factor=0.5), sp, np.array([1e200, 0.0, 0.0]), cfg)
    assert report.converged
    assert report.residual0 == report.trace[0].residual == 5e199
    assert all(math.isfinite(v) for row in report.trace for v in row)


@pytest.mark.parametrize("regime,factor,constants,error,match", [
    ("picard", 0.9, {"alpha": 0.5}, ConstantMismatchError, "step 2"),
    ("ball", 0.9, {"alpha": 0.5, "radius": 1e301}, ConstantMismatchError, "step 2"),
    ("ball", 2.0, {"alpha": 0.5, "radius": 3e200}, ContainmentError, "iterate 2 left"),
])
def test_a_far_start_keeps_the_orbit_guard_and_containment_test(regime, factor, constants, error, match):
    # the roundoff floors pad both tests by a multiple of |x|; taken as
    # sqrt(x.x) that length overflowed past ~1.3e154, the padding became inf
    # and a false alpha certified (picard of scale(0.9) at k = 696, true
    # error ~1e168) while an escaping ball orbit ran on; from (1, 0, 0) both
    # are refused at step 2, and so they must be from (1e200, 0, 0)
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime=regime, crosscheck_pairs=0, **constants)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            solve(builtin_operator("scale", factor=factor), sp, np.array([1e200, 0.0, 0.0]), cfg)


@pytest.mark.parametrize("s,steps", [(1e-170, 432), (1e-150, 499), (1e-140, 532)])
def test_tiny_starts_certify_with_the_exact_alpha(s, steps):
    # y.y of C^T x underflowed below ~1e-154: from 1e-170 the start read as
    # fixed with a certificate of 0.0, and from 1e-150 and 1e-140 the lost
    # digits broke the orbit recursion and the guard refused alpha = 0.5
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime="picard", alpha=0.5, tol=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = picard_solve(builtin_operator("scale", factor=0.5), sp, np.array([s, 0.0, 0.0]), cfg)
    assert report.converged and report.iterations == steps
    # halving is exact, so every residual is exactly half the one before
    residuals = [row.residual for row in report.trace]
    assert residuals[0] == 0.5 * s
    assert all(b == 0.5 * a for a, b in zip(residuals, residuals[1:]))
    # the fixed point is 0
    assert abs(report.fixed_point[0]) <= report.certified_error <= cfg.tol


def test_picard_max_iter_returns_partial_report():
    sp = space_e23()
    cfg = SolverConfig(regime="picard", alpha=0.99, tol=1e-12, max_iter=5)
    op = affine_operator(0.99 * np.eye(3), offset=[1.0, 0.0, 0.0])
    report = picard_solve(op, sp, np.zeros(3), cfg)
    assert not report.converged
    assert report.iterations == 5
    assert len(report.trace) == 5
    assert "max_iter" in report.message


def test_picard_uniqueness_modulo_kernel_two_starts():
    sp = space_e23()
    op = affine_operator(0.6 * np.eye(3), offset=[0.8, 0.0, 0.0])
    tol = 1e-10
    rng = np.random.default_rng(5)
    a = picard_solve(op, sp, rng.standard_normal(3), SolverConfig(regime="picard", alpha=0.6, tol=tol))
    b = picard_solve(op, sp, rng.standard_normal(3), SolverConfig(regime="picard", alpha=0.6, tol=tol))
    assert sp.seminorm(a.fixed_point - b.fixed_point) <= 2 * tol


def test_picard_fixed_point_certificate():
    sp = space_e23()
    alpha = 0.7
    op = affine_operator(alpha * np.eye(3), offset=[1.0, 2.0, -1.0])
    cfg = SolverConfig(regime="picard", alpha=alpha, tol=1e-9)
    report = picard_solve(op, sp, np.zeros(3), cfg)
    gap = sp.seminorm(report.fixed_point - apply(op, report.fixed_point))
    assert gap <= cfg.tol * (1 + alpha) / (1 - alpha)


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def test_ball_radius_three_contains_iterates():
    sp = space_e23()
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=3.0, tol=1e-10)
    report = ball_solve(half_shift_op(), sp, np.zeros(3), cfg)
    assert report.converged
    assert abs(report.fixed_point[0] - 2.0) <= 1e-10
    assert report.max_displacement < 2.0
    assert report.max_displacement > 1.99
    for k, disp, bound in report.ball_trace:
        assert disp <= bound + 1e-9
        assert bound == pytest.approx((1 - 0.5 ** k) * 3.0, rel=1e-15)


def test_ball_radius_too_small_rejected_with_both_sides():
    sp = space_e23()
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=1.5, tol=1e-10)
    with pytest.raises(PreconditionError) as err:
        ball_solve(half_shift_op(), sp, np.zeros(3), cfg)
    assert err.value.lhs == pytest.approx(1.0)
    assert err.value.rhs == pytest.approx(0.75)
    assert "1" in str(err.value) and "0.75" in str(err.value)


def test_ball_constant_map_trivial_acceptance():
    sp = space_e23()
    x0 = np.array([0.3, 1.0, -1.0])
    op = builtin_operator("constant", value=x0)
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=1.0)
    report = ball_solve(op, sp, x0, cfg)
    assert report.converged
    assert report.iterations == 0
    assert report.certified_error == 0.0


def test_ball_containment_violation_detected():
    # rotation in the complement plane is an isometry: the admission test
    # passes for a small first step, but the orbit circles away from x0 and
    # breaks the induction bound at step 2
    op = builtin_operator("rotation-scale", axis1=0, axis2=3, angle=0.8, factor=1.0)
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=2.5, tol=1e-10,
                       crosscheck_pairs=0, max_iter=50)
    sp4 = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    with pytest.raises(ContainmentError) as err:
        ball_solve(op, sp4, np.array([1.5, 0.0, 0.0, 0.0]), cfg)
    assert err.value.step == 2


def test_ball_crosscheck_uses_in_ball_pairs():
    sp = space_e23()
    # scale by 0.9 passes the admission test with a generous radius but its
    # displacement ratio 0.9, in the ball as everywhere, refutes the declared alpha
    op = builtin_operator("scale", factor=0.9)
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=1.0, tol=1e-8)
    with pytest.raises(ConstantMismatchError) as err:
        ball_solve(op, sp, np.array([1.0, 0.0, 0.0]), cfg)
    assert err.value.found == pytest.approx(0.9, abs=1e-9)


# ---------------------------------------------------------------------------
# summable
# ---------------------------------------------------------------------------

def test_summable_geometric_reproduces_picard_bitwise():
    sp = space_e23()
    op = half_shift_op()
    cfg_p = SolverConfig(regime="picard", alpha=0.5, tol=1e-10, keep_iterates=True)
    cfg_s = SolverConfig(regime="summable", a_seq=geometric_sequence(0.5), tol=1e-10,
                         keep_iterates=True)
    rp = picard_solve(op, sp, np.zeros(3), cfg_p)
    rs = summable_solve(op, sp, np.zeros(3), cfg_s)
    assert rp.iterations == rs.iterations
    assert rp.certified_error == rs.certified_error
    for a, b in zip(rp.trace, rs.trace):
        assert a.residual == b.residual
        assert a.apriori == b.apriori
        assert a.aposteriori == b.aposteriori
    for xa, xb in zip(rp.iterates, rs.iterates):
        assert np.array_equal(xa, xb)
    assert sp.seminorm(rp.fixed_point - rs.fixed_point) <= 2 * cfg_p.tol


def test_summable_geometric_tail_closed_form():
    seq = geometric_sequence(0.5)
    for q in range(1, 10):
        assert seq.tail_sum(q) == 2.0 ** (1 - q)
    # the q = 1 tail equals the a-posteriori factor of the picard regime
    assert seq.tail_sum(1) == 0.5 / (1.0 - 0.5)


def test_summable_explicit_list_arithmetic():
    seq = explicit_sequence([0.9, 0.5, 0.1, 0.01], tail=0.0)
    assert seq.tail_sum(1) == pytest.approx(1.51, rel=1e-15)
    assert seq.tail_sum(4) == pytest.approx(0.01, rel=1e-15)
    assert seq.tail_sum(5) == 0.0


@pytest.mark.parametrize("n", [5, 40, 5000])
def test_explicit_tail_sums_are_sums_from_the_far_end(n):
    # the suffix sums come from one array pass; they must keep the bits of
    # adding the terms one by one from the last
    rng = np.random.default_rng(n)
    terms = (rng.random(n) * 10.0 ** rng.integers(-8, 3, n)).tolist()
    seq = explicit_sequence(terms, tail=0.125)
    reference = list(accumulate(reversed(terms), initial=0.0))[::-1]
    assert seq.terms == terms and all(type(t) is float for t in seq.terms)
    for q in range(1, n + 3):
        got = seq.tail_sum(q)
        assert type(got) is float and got == reference[min(q - 1, n)] + 0.125


def test_summable_nilpotent_operator_finite_support():
    # shift-and-scale: fifth power vanishes, so the declared list is the
    # genuine operator norm sequence and the bound hits exactly zero
    d = 6
    lam = 0.9
    a = np.zeros((d, d))
    for i in range(4):
        a[i + 1, i] = lam
    sp = AnchoredSpace(dim=d, order=2, anchors=np.eye(d)[5:6])
    op = affine_operator(a)
    seq = explicit_sequence([lam, lam ** 2, lam ** 3, lam ** 4], tail=0.0)
    cfg = SolverConfig(regime="summable", a_seq=seq, tol=1e-12)
    report = summable_solve(op, sp, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), cfg)
    assert report.converged
    assert report.iterations == 5
    assert report.trace[-1].apriori == 0.0
    assert report.certified_error == 0.0
    assert sp.seminorm(report.fixed_point) <= 1e-12


def test_summable_constant_map_stops_quickly():
    sp = space_e23()
    op = builtin_operator("constant", value=[2.0, 0.0, 0.0])
    cfg = SolverConfig(regime="summable", a_seq=geometric_sequence(0.5), tol=1e-10)
    report = summable_solve(op, sp, np.zeros(3), cfg)
    assert report.converged
    assert np.allclose(report.fixed_point, [2.0, 0.0, 0.0])


def test_summable_validation():
    with pytest.raises(SolverInputError):
        geometric_sequence(1.0)
    with pytest.raises(SolverInputError):
        geometric_sequence(0.0)
    with pytest.raises(SolverInputError):
        explicit_sequence([])
    with pytest.raises(SolverInputError):
        explicit_sequence([0.5, -0.1])
    with pytest.raises(SolverInputError):
        explicit_sequence([0.5], tail=math.inf)
    with pytest.raises(SolverInputError):
        SolverConfig(regime="summable").validate()


@pytest.mark.parametrize("fields,message", [
    ({"tol": 0.0}, "tol must be a positive real"),
    ({"tol": math.inf}, "tol must be a positive real"),
    ({"max_iter": 0}, "max_iter must be >= 1"),
    ({"crosscheck_pairs": -1}, "crosscheck_pairs must be >= 0"),
    # 2.5 ran 3 steps and True 1 step, each reported as that max_iter exceeded
    ({"max_iter": 2.5}, r"max_iter must be an integer, got 2\.5"),
    ({"max_iter": True}, "max_iter must be an integer, got True"),
    ({"crosscheck_pairs": 64.0}, r"crosscheck_pairs must be an integer, got 64\.0"),
    ({"crosscheck_pairs": False}, "crosscheck_pairs must be an integer, got False"),
    ({"regime": "ball"}, "ball regime needs a positive radius"),
    ({"regime": "ball", "radius": 0.0}, "ball regime needs a positive radius"),
    # tol True ran as 1.0 and radius True was taken; a string raised a bare TypeError
    ({"tol": True}, "tol must be a real number, got True"),
    ({"tol": None}, "tol must be a real number, got None"),
    ({"tol": "1e-3"}, "tol must be a real number, got '1e-3'"),
    ({"alpha": "0.5"}, "alpha must be a real number, got '0.5'"),
    ({"alpha": np.True_}, "alpha must be a real number, got np.True_"),
    ({"regime": "kannan", "beta": False}, "beta must be a real number, got False"),
    ({"radius": True}, "radius must be a real number, got True"),
    ({"regime": "ball", "radius": "2"}, "radius must be a real number, got '2'"),
])
def test_solver_config_refuses_each_bad_setting(fields, message):
    with pytest.raises(SolverInputError, match=message):
        SolverConfig(**{"regime": "picard", "alpha": 0.5, **fields}).validate()


def test_solver_config_takes_integer_and_numpy_reals():
    op, x0 = builtin_operator("scale", factor=0.5), [1.0, 0.0, 2.0]
    ball = SolverConfig(regime="ball", alpha=np.float32(0.5), radius=np.int64(100), tol=np.float64(1e-10))
    assert ball_solve(op, space_e23(), x0, ball).converged
    kannan = SolverConfig(regime="kannan", beta=np.float16(0.45), tol=1)
    report = kannan_solve(builtin_operator("scale", factor=0.3), space_e23(), x0, kannan)
    assert report.converged and 0.0 < report.certified_error <= 1.0


def test_solver_config_takes_numpy_integer_counts():
    cfg = SolverConfig(regime="picard", alpha=0.5, max_iter=np.int64(3), crosscheck_pairs=np.uint8(0))
    report = picard_solve(builtin_operator("scale", factor=0.5), space_e23(), [1.0, 0.0, 0.0], cfg)
    assert report.iterations == 3 and report.message == "max_iter = 3 exceeded without certification"


# ---------------------------------------------------------------------------
# kannan
# ---------------------------------------------------------------------------

def test_kannan_scale_quarter_closed_forms():
    sp = space_e23()
    beta = 1.0 / 3.0
    rate = beta / (1.0 - beta)
    assert rate == pytest.approx(0.5, abs=1e-15)
    op = builtin_operator("scale", factor=0.25)
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = SolverConfig(regime="kannan", beta=beta, tol=1e-10)
    report = kannan_solve(op, sp, x0, cfg)
    assert report.converged
    res0 = 0.75  # ||x0 - x0/4||
    assert report.residual0 == pytest.approx(res0, rel=1e-15)
    x = x0.copy()
    for row in report.trace:
        # bound 2 * (1/2)^k * 0.75 dominates the true error 4^-k
        want_bound = rate ** row.k / (1.0 - rate) * res0
        assert row.apriori == pytest.approx(want_bound, rel=1e-12)
        true_err = 4.0 ** (-row.k) * 1.0
        assert true_err <= row.apriori + 1e-15
        assert row.residual == pytest.approx(res0 * 4.0 ** (1 - row.k), rel=1e-12)
    rows = report.trace
    for prev, cur in zip(rows, rows[1:]):
        assert cur.residual <= 0.5 * prev.residual + 1e-12


def test_kannan_constant_map():
    sp = space_e23()
    op = builtin_operator("constant", value=[5.0, 1.0, 1.0])
    cfg = SolverConfig(regime="kannan", beta=0.01, tol=1e-10)
    report = kannan_solve(op, sp, np.zeros(3), cfg)
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(report.fixed_point, [5.0, 1.0, 1.0])


def test_kannan_slow_beta_certifies_within_formula_budget():
    sp = space_e23()
    beta = 0.49
    rate = beta / (1.0 - beta)
    # scale factor whose displacement-sum constant is exactly 0.49
    factor = 0.49 / 1.49
    op = builtin_operator("scale", factor=factor)
    x0 = np.array([1.0, 0.0, 0.0])
    tol = 1e-10
    report = kannan_solve(op, sp, x0, SolverConfig(regime="kannan", beta=beta, tol=tol))
    assert report.converged
    res0 = (1.0 - factor) * 1.0
    formula = math.ceil(math.log(tol * (1.0 - rate) / res0) / math.log(rate))
    assert report.iterations <= formula
    # the a-priori envelope alone crosses tol exactly at the formula's step
    crossing = next(k for k in range(1, 10_000) if rate ** k / (1.0 - rate) * res0 <= tol)
    assert crossing == formula


def test_kannan_rejects_bad_beta_and_false_constant():
    sp = space_e23()
    op = builtin_operator("scale", factor=0.25)
    with pytest.raises(SolverInputError):
        kannan_solve(op, sp, np.ones(3), SolverConfig(regime="kannan", beta=0.5))
    with pytest.raises(SolverInputError):
        kannan_solve(op, sp, np.ones(3), SolverConfig(regime="kannan", beta=0.0))
    # scale 0.45 needs beta >= 0.45/0.55 > 1/2: any declared beta is refuted
    with pytest.raises(ConstantMismatchError):
        kannan_solve(builtin_operator("scale", factor=0.45), sp, np.ones(3),
                     SolverConfig(regime="kannan", beta=0.49))
    # scale 0.3 has beta = 3/7 exactly: 5e-7 short of it is far beyond roundoff
    with pytest.raises(ConstantMismatchError) as err:
        kannan_solve(builtin_operator("scale", factor=0.3), canonical_space(3, 2), np.array([1.0, 0.0, 2.0]),
                     SolverConfig(regime="kannan", beta=3.0 / 7.0 - 5e-7))
    assert err.value.found == pytest.approx(3.0 / 7.0, rel=1e-15)


@pytest.mark.parametrize("d", [16, 64])
def test_kannan_beta_is_checked_against_its_exact_value(d):
    # T = C Lbar C^T x + c with Lbar = Q diag(0.3, 0.001, ...) Q^T has the
    # Kannan constant 0.3 / 0.7.  A 64-pair sample found 0.09 at d = 16,
    # seed 0, and with beta declared just above it kannan certified 2.3e-10
    # for a true error of 8.1e-10 at tol 1e-8: x0 is x* plus an error
    # along the weak direction and 1e-7 along the strong one
    sp = canonical_space(d, 2)
    c = sp.complement_basis
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))[0]
        lbar = q @ np.diag([0.3] + [0.001] * (d - 2)) @ q.T
        offset = rng.standard_normal(d)
        op = affine_operator(c @ lbar @ c.T, offset=offset)
        xstar = c @ np.linalg.solve(np.eye(d - 1) - lbar, c.T @ offset)
        x0 = xstar + c @ (q[:, 1] + 1e-7 * q[:, 0])
        exact = kannan_constant(op, sp)
        assert exact == pytest.approx(0.3 / 0.7, rel=1e-12)
        sampled = contraction_constant(op, sp, budget=64, seed=0).beta_hat
        with pytest.raises(ConstantMismatchError) as err:
            kannan_solve(op, sp, x0, SolverConfig(regime="kannan", beta=sampled * (1 + 1e-6), tol=1e-8))
        assert err.value.found == exact
        for tol in (1e-6, 1e-8, 1e-10):
            report = kannan_solve(op, sp, x0, SolverConfig(regime="kannan", beta=exact, tol=tol))
            error = sp.seminorm_raw(report.fixed_point - xstar)
            assert report.converged
            assert error <= report.certified_error + sp.roundoff_floor(np.linalg.norm(xstar))


# ---------------------------------------------------------------------------
# edelstein
# ---------------------------------------------------------------------------

def test_edelstein_saturating_closed_form():
    sp = space_e23()
    op = builtin_operator("saturating")
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = SolverConfig(regime="edelstein", tol=1e-6, max_iter=1100, keep_iterates=True)
    report = edelstein_solve(op, sp, x0, cfg)
    assert report.converged
    assert report.iterations == 1000  # residual 1/(k(k+1)) crosses 1e-6 at k = 1000
    for k in range(1, 101):
        assert abs(report.iterates[k][0] - 1.0 / (1.0 + k)) <= 1e-12
    for k, f in report.ratios[:200]:
        assert f == pytest.approx(k / (k + 2.0), rel=1e-9)
    assert report.certified_error <= 1e-6


def test_edelstein_contraction_matches_picard():
    sp = space_e23()
    op = affine_operator(0.5 * np.eye(3))
    cfg_e = SolverConfig(regime="edelstein", tol=1e-10)
    cfg_p = SolverConfig(regime="picard", alpha=0.5, tol=1e-10)
    re_ = edelstein_solve(op, sp, np.array([1.0, 0.0, 0.0]), cfg_e)
    rp = picard_solve(op, sp, np.array([1.0, 0.0, 0.0]), cfg_p)
    assert re_.converged
    assert sp.seminorm(re_.fixed_point - rp.fixed_point) <= 10 * cfg_e.tol


def test_edelstein_isometry_never_converges():
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    op = builtin_operator("rotation-scale", axis1=0, axis2=3, angle=1.0, factor=1.0)
    cfg = SolverConfig(regime="edelstein", tol=1e-6, max_iter=300)
    report = edelstein_solve(op, sp, np.array([1.0, 0.0, 0.0, 0.0]), cfg)
    assert not report.converged
    assert report.iterations == 300
    residuals = [row.residual for row in report.trace]
    assert max(residuals) - min(residuals) <= 1e-9  # flat
    assert all(abs(f - 1.0) <= 1e-9 for _, f in report.ratios)
    assert "max_iter" in report.message


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_solve_dispatches_by_regime():
    sp = space_e23()
    report = solve(half_shift_op(), sp, np.zeros(3), SolverConfig(regime="picard", alpha=0.5))
    assert report.regime == "picard"
    with pytest.raises(SolverInputError):
        solve(half_shift_op(), sp, np.zeros(3), SolverConfig(regime="newton"))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

ENGINE_KINDS = ("affine", "scale", "constant", "saturating", "rotation-scale", "step")


def engine_operator(kind, d):
    if kind == "affine":
        return affine_operator(np.diag(np.resize([0.5, 0.7, 0.3, 0.4], d)) + 0.2 * np.eye(d, k=-1),
                               offset=np.resize([1.0, 0.5, -0.25, 2.0], d))
    if kind == "constant":
        return builtin_operator("constant", value=np.resize([1.0, 2.0, 3.0, 4.0], d))
    if kind == "rotation-scale":
        return builtin_operator("rotation-scale", axis1=0, axis2=d - 1, angle=0.7, factor=0.6)
    params = {"scale": {"factor": 0.5}, "saturating": {}, "step": {"threshold": 0.0, "height": -1.0}}
    return builtin_operator(kind, **params[kind])


def engine_space(d):
    """e2, e3 in R^4; in larger dimensions two anchors tilted off the axes,
    so the complement basis is not a coordinate projection."""
    anchors = np.eye(d)[1:3]
    if d > 4:
        anchors = anchors + 0.25 * np.eye(d)[[d - 1, d - 2]] - 0.125 * np.eye(d)[[3, 4]]
    return AnchoredSpace(dim=d, order=3, anchors=anchors)


@pytest.mark.parametrize("d", [4, 16, 64])
@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("regime", sorted(REGIME_CONSTANTS))
def test_engine_steps_match_public_apply_and_seminorm(regime, kind, d):
    # the compiled step and distance inside the engine must be bit-for-bit
    # the public, validating apply / apply_batch / seminorm_raw
    sp = engine_space(d)
    op = engine_operator(kind, d)
    cfg = SolverConfig(regime=regime, tol=1e-300, max_iter=25, crosscheck_pairs=0,
                       keep_iterates=True, **REGIME_CONSTANTS[regime])
    report = solve(op, sp, np.resize([0.5, 1.0, -2.0, 0.25], d), cfg)
    its = report.iterates
    assert report.iterations >= 2
    assert len(its) == report.iterations + 1 == len(report.trace) + 1
    for k in range(1, len(its)):
        want = apply(op, its[k - 1])
        assert its[k].tobytes() == want.tobytes()
        assert want.tobytes() == apply_batch(op, its[k - 1].reshape(1, -1))[0].tobytes()
        assert report.trace[k - 1].residual == sp.seminorm_raw(its[k] - its[k - 1])


def test_independence_of_a_tiny_fixed_point_off_the_kernel():
    # x -> x/2 + 1e-12 e1 fixes 2e-12 e1, which is off the anchor span
    # (e2, e3); the rank threshold relative to the anchors' entries used to
    # call it dependent
    sp = canonical_space(3, 3)
    op = affine_operator(0.5 * np.eye(3), offset=[1e-12, 0.0, 0.0])
    report = picard_solve(op, sp, np.zeros(3), SolverConfig(regime="picard", alpha=0.5, tol=1e-20))
    assert report.fixed_point == pytest.approx([2e-12, 0.0, 0.0], rel=1e-6, abs=0.0)
    assert report.independence_ok
    assert report.uniqueness_note == "kernel_modulo_unique"
    # a large kernel component beside it must not hide the gap: (2e-3, 2e7, 0)
    # is 2e-3 off the span, within 1e-9 of its own length
    beside = picard_solve(affine_operator(0.5 * np.eye(3), offset=[1e-3, 1e7, 0.0]), sp, np.zeros(3),
                          SolverConfig(regime="picard", alpha=0.5, tol=1e-12))
    assert beside.fixed_point == pytest.approx([2e-3, 2e7, 0.0], rel=1e-8, abs=0.0)
    assert beside.certified_error < 1e-3
    assert beside.independence_ok
    # a fixed point inside the kernel still fails the condition
    inside = picard_solve(affine_operator(0.5 * np.eye(3), offset=[0.0, 1e-12, 0.0]), sp, np.zeros(3),
                          SolverConfig(regime="picard", alpha=0.5, tol=1e-20))
    assert not inside.independence_ok


def test_independence_needs_the_whole_certificate_ball_off_the_kernel():
    # the scale map fixes 0, which lies in the kernel; kannan returns a point
    # ~1e-11 off it, but its certificate ball reaches into the kernel
    for d in (3, 16):
        sp = canonical_space(d, 2)
        x0 = np.random.default_rng(d).standard_normal(d) / math.sqrt(d)
        report = kannan_solve(builtin_operator("scale", factor=0.3), sp, x0,
                              SolverConfig(regime="kannan", beta=0.45, tol=1e-10))
        assert report.converged
        assert 0.0 < sp.seminorm(report.fixed_point) <= report.certified_error
        assert not report.independence_ok
        assert report.uniqueness_note == "independence_condition_failed"


@pytest.mark.parametrize("kind", ["harmonic", None])
def test_a_seq_refuses_an_unknown_kind_with_its_own_message(kind):
    with pytest.raises(SolverInputError) as excinfo:
        ASeq(kind=kind, ratio=0.5)
    assert str(excinfo.value) == f"a_seq kind must be 'geometric' or 'explicit', got {kind!r}"


def _random_frame_contraction(d):
    """An affine map in a random orthonormal frame whose first vector is the
    anchor: rates 0.1-0.3 on every axis, so alpha 0.5 and Kannan's beta 0.45
    both hold, and a random offset."""
    rng = np.random.default_rng([25, d])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lin = q @ np.diag(rng.uniform(0.1, 0.3, d)) @ q.T
    space = AnchoredSpace(dim=d, order=2, anchors=q[:, :1].T)
    return space, affine_operator(lin, offset=rng.standard_normal(d)), rng


_ENGINE_CONFIGS = {
    "picard": dict(alpha=0.5),
    "ball": dict(alpha=0.5, radius=1e202),
    "summable": dict(a_seq=geometric_sequence(0.5)),
    "kannan": dict(beta=0.45),
}


@pytest.mark.parametrize("d", [3, 16, 64])
@pytest.mark.parametrize("far", [False, True], ids=["unit-start", "start-1e200"])
@pytest.mark.parametrize("regime", sorted(_ENGINE_CONFIGS))
def test_step_one_residual_is_the_starting_residual_bit_for_bit(regime, far, d):
    space, op, rng = _random_frame_contraction(d)
    x0 = rng.standard_normal(d) * (1e200 if far else 1.0)
    report = solve(op, space, x0, SolverConfig(regime=regime, **_ENGINE_CONFIGS[regime]))
    assert report.iterations >= 1 and math.isfinite(report.residual0)
    assert report.trace[0].residual == report.residual0
    if regime == "ball":
        assert report.max_displacement == max(disp for _, disp, _ in report.ball_trace)
        assert report.ball_trace[0][1] > 0.0


@pytest.mark.parametrize("d", [3, 16, 64])
@pytest.mark.parametrize("far", [False, True], ids=["unit-start", "start-1e200"])
def test_ball_step_one_displacement_is_the_starting_residual(far, d, monkeypatch):
    # step 1's displacement from x0 is res0 (x1 - x0 negates x0 - x1,
    # exactly), so the engine takes one distance for res0 and then one
    # residual and one displacement a step from step 2 on
    space, op, rng = _random_frame_contraction(d)
    x0 = rng.standard_normal(d) * (1e200 if far else 1.0)
    kernel, calls = space.projection_kernel, []

    def counted_kernel():
        raw = kernel()

        def dist(x):
            calls.append(x)
            return raw(x)
        return dist
    monkeypatch.setattr(space, "projection_kernel", counted_kernel)
    report = ball_solve(op, space, x0, SolverConfig(regime="ball", **_ENGINE_CONFIGS["ball"]))
    assert report.iterations >= 2
    with np.errstate(over="ignore"):  # as the engine calls the kernel
        assert report.ball_trace[0][1] == report.residual0 == kernel()(apply(op, x0) - x0)
    assert len(calls) == 2 * report.iterations - 1


def test_ball_max_displacement_is_zero_on_an_immediate_return():
    # x0 in the anchor span: x0 - Tx0 is a kernel point, so res0 = 0
    space = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime="ball", alpha=0.5, radius=1.0)
    report = ball_solve(builtin_operator("scale", factor=0.5), space, [0.0, 3.0, 0.0], cfg)
    assert report.iterations == 0 and report.ball_trace == []
    assert report.max_displacement == 0.0 and type(report.max_displacement) is float


@pytest.mark.parametrize("pairs", [64, 0], ids=["exact-cross-check", "orbit-guard"])
@pytest.mark.parametrize("regime, factor, given, names", [
    ("picard", 0.9, dict(alpha=0.5), ("alpha", "alpha")),
    ("ball", 0.9, dict(alpha=0.5, radius=100.0), ("alpha (on the ball)", "alpha")),
    ("summable", 0.9, dict(a_seq=geometric_sequence(0.5)), ("a_1", "a_1")),
    ("kannan", 0.9, dict(beta=0.2), ("beta", "beta-rate")),
])
def test_each_regime_names_the_constant_it_refuses(regime, factor, given, names, pairs):
    space = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    cfg = SolverConfig(regime=regime, crosscheck_pairs=pairs, **given)
    with pytest.raises(ConstantMismatchError) as excinfo:
        solve(builtin_operator("scale", factor=factor), space, [1.0, 0.0, 2.0], cfg)
    assert excinfo.value.name == names[pairs == 0]
    assert str(excinfo.value).startswith(f"declared {names[pairs == 0]} = ")


@pytest.mark.parametrize("regime, given", [
    ("picard", dict(alpha=0.6)),
    ("ball", dict(alpha=0.6, radius=100.0)),
    ("summable", dict(a_seq=geometric_sequence(0.6))),
    ("kannan", dict(beta=0.4)),
    ("edelstein", {}),
])
def test_each_solve_builds_the_affine_form_once(regime, given, monkeypatch):
    # the step, the roundoff pad and the exact cross-check all read one
    # compiled record, so a solve builds the affine form once, whether the
    # regime admits the map or refuses it
    space = canonical_space(3, 2)  # e1 is orthogonal to the anchor e2
    maps = {
        "affine": affine_operator(0.25 * np.eye(3), offset=[1.0, 0.0, 1.0]),
        "scale": builtin_operator("scale", factor=0.25),
        "rotation-scale": builtin_operator("rotation-scale", axis1=0, axis2=2, angle=0.7, factor=0.25),
        "constant": builtin_operator("constant", value=[1.0, 2.0, 3.0]),
        "saturating": builtin_operator("saturating"),
        "step": builtin_operator("step"),
    }
    build, builds, admitted = operators._affine_form, [], []
    monkeypatch.setattr(operators, "_affine_form", lambda op, d: builds.append(op) or build(op, d))
    for name, op in maps.items():
        builds.clear()
        try:
            solve(op, space, [1.0, 0.0, 2.0], SolverConfig(regime=regime, max_iter=50, **given))
            admitted.append(name)
        except ConstantMismatchError:
            pass
        assert builds == [op], name
    # saturating's slope reaches 1 and step's jump is unbounded, so only
    # edelstein, which has no rate to check, admits them
    assert admitted == (list(maps) if regime == "edelstein" else ["affine", "scale", "rotation-scale", "constant"])
