"""Operator analysis tests: catalog evaluation, norm estimates, ratio suprema."""

import math

import numpy as np
import pytest

from nfix.nnorm import AnchoredSpace
from nfix.operators import (
    OperatorNormEstimate,
    affine_operator,
    apply,
    apply_batch,
    builtin_operator,
    compose,
    continuity_probe,
    contraction_constant,
    draw_probe_points,
    is_linear,
    kernel_preserved,
    kernel_violation_witness,
    lipschitz_constant,
    operator_norm,
)


def space_e23(d=3):
    return AnchoredSpace(dim=d, order=3, anchors=np.eye(d)[1:3])


def random_preserver(space, rng, spread=1.0):
    """Random affine operator mapping the anchor span into itself, plus the
    exact bound constant (largest singular value of the complement block,
    an independent SVD oracle the estimators never see)."""
    m = space.complement_dim
    k = space.order - 1
    b11 = rng.standard_normal((m, m)) * spread
    b21 = rng.standard_normal((k, m)) * spread
    b22 = rng.standard_normal((k, k)) * spread
    qc = space.complement_basis
    qa = space.anchor_basis
    a = qc @ b11 @ qc.T + qa @ b21 @ qc.T + qa @ b22 @ qa.T
    true_norm = float(np.linalg.svd(b11, compute_uv=False)[0]) if m else 0.0
    return affine_operator(a), true_norm


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_apply_affine_half_plus_shift():
    op = affine_operator(0.5 * np.eye(3), offset=[1.0, 0.0, 0.0])
    assert np.allclose(apply(op, np.zeros(3)), [1.0, 0.0, 0.0])


def test_apply_builtin_scale():
    op = builtin_operator("scale", factor=0.5)
    assert np.allclose(apply(op, [2.0, 4.0]), [1.0, 2.0])


def test_apply_affine_diag():
    op = affine_operator(np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(apply(op, [3.0, 0.0, 0.0]), [6.0, 0.0, 0.0])


def test_apply_saturating_first_coordinate():
    op = builtin_operator("saturating")
    assert np.allclose(apply(op, [1.0, 5.0, -2.0]), [0.5, 5.0, -2.0])
    assert np.allclose(apply(op, [-1.0, 0.0, 0.0]), [-0.5, 0.0, 0.0])


def test_apply_step_jumps_at_threshold():
    op = builtin_operator("step", threshold=0.0, height=2.0)
    assert np.allclose(apply(op, [0.5, 1.0]), [2.5, 1.0])
    assert np.allclose(apply(op, [-0.5, 1.0]), [-0.5, 1.0])


def test_apply_rotation_scale_plane():
    op = builtin_operator("rotation-scale", axis1=0, axis2=1, angle=math.pi / 2, factor=2.0)
    got = apply(op, [1.0, 0.0, 7.0])
    assert np.allclose(got, [0.0, 2.0, 7.0], atol=1e-12)


def test_apply_validation():
    with pytest.raises(ValueError):
        builtin_operator("no-such-map")
    with pytest.raises(ValueError):
        apply(affine_operator(np.eye(2)), [1.0, 2.0, 3.0])
    op = builtin_operator("constant", value=[1.0, 2.0])
    with pytest.raises(ValueError):
        apply(op, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("d", [3, 16, 64])
def test_linear_builtins_map_rows_bit_for_bit(d):
    # scale, rotation-scale and constant run as x @ L^T + c from their
    # affine form; on finite rows that must give exactly the direct
    # formulas, for a batch and for compile's one-row step alike
    rng = np.random.default_rng([d, 61])
    pts = rng.standard_normal((8, d)) * 10.0 ** rng.integers(-3, 4, size=(8, 1))
    theta, factor = 0.9, 0.7
    rot = np.eye(d)
    rot[[1, 1, d - 1, d - 1], [1, d - 1, 1, d - 1]] = factor * np.array(
        [math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)])
    value = rng.standard_normal(d)
    for op, direct in (
        (builtin_operator("scale", factor=-0.7), lambda p: -0.7 * p),
        (builtin_operator("rotation-scale", axis1=1, axis2=d - 1, angle=theta, factor=factor),
         lambda p: p @ rot.T),
        (builtin_operator("constant", value=value), lambda p: np.tile(value, (p.shape[0], 1))),
    ):
        assert apply_batch(op, pts).tobytes() == direct(pts).tobytes()
        step = op.compile(d)
        for x in pts:
            assert step(x).tobytes() == direct(x[None, :])[0].tobytes()


def test_apply_batch_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((16, 3))
    for op in (
        affine_operator(rng.standard_normal((3, 3)), offset=rng.standard_normal(3)),
        builtin_operator("saturating"),
        builtin_operator("scale", factor=-0.7),
        builtin_operator("step", threshold=0.1, height=0.5),
        builtin_operator("rotation-scale", axis1=0, axis2=2, angle=0.3),
    ):
        batch = apply_batch(op, pts)
        for i in range(pts.shape[0]):
            assert np.allclose(batch[i], apply(op, pts[i]))


# ---------------------------------------------------------------------------
# kernel preservation
# ---------------------------------------------------------------------------

def test_kernel_preserved_diagonal():
    sp = space_e23()
    assert kernel_preserved(affine_operator(np.diag([2.0, 1.0, 1.0])), sp)


def test_kernel_preserved_swap_fails():
    sp = space_e23()
    swap = np.eye(3)[[1, 0, 2]]
    op = affine_operator(swap)
    assert not kernel_preserved(op, sp)
    w = kernel_violation_witness(op, sp)
    assert w is not None
    assert sp.seminorm(apply(op, w)) > 1e-9
    assert sp.seminorm(w) <= 1e-9


def test_kernel_preserved_constant_map():
    sp = space_e23()
    assert not kernel_preserved(builtin_operator("constant", value=[1.0, 0.0, 0.0]), sp)
    assert kernel_preserved(builtin_operator("constant", value=[0.0, 3.0, -1.0]), sp)


@pytest.mark.parametrize("axes,moved", [((0, 1), 0), ((0, 2), 1), ((0, 3), None), ((1, 2), None)])
def test_kernel_gate_rotation_scale(axes, moved):
    # the rotation of span(e2, e3) in R^4 is decided exactly from its
    # matrix: the witness is the first anchor it moves, whatever the seed
    sp = space_e23(4)
    op = builtin_operator("rotation-scale", axis1=axes[0], axis2=axes[1], angle=0.8, factor=0.6)
    for seed in range(5):
        w = kernel_violation_witness(op, sp, seed=seed)
        if moved is None:
            assert w is None and kernel_preserved(op, sp, seed=seed)
        else:
            assert np.array_equal(w, sp.anchors[moved])
            assert not kernel_preserved(op, sp, seed=seed)


def _near_preserver():
    """Anchor 1e-3 e2 and A = I + 1e-4 e1 e2^T: A b = b + 1e-7 e1 leaves the
    anchor span, though its semi-norm is only 1e-10."""
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1e-3, 0.0]])
    a = np.eye(3)
    a[0, 1] = 1e-4
    return sp, affine_operator(a)


def test_kernel_gate_and_witness_agree_on_a_small_image():
    sp, op = _near_preserver()
    assert not kernel_preserved(op, sp)
    w = kernel_violation_witness(op, sp)
    assert np.array_equal(w, sp.anchors[0])
    assert sp.seminorm(apply(op, w)) == pytest.approx(1e-10, rel=1e-6)


def test_kernel_gate_measures_images_against_the_operator_scale():
    # the projector onto the complement sends the anchors to roundoff of
    # size 1e-16; relative to the images' own length they would look far
    # from the span, relative to |A| |b| they are in it
    rng = np.random.default_rng(4)
    sp = AnchoredSpace(dim=4, order=3, anchors=rng.standard_normal((2, 4)))
    qc = sp.complement_basis
    op = affine_operator(qc @ qc.T)
    images = sp.anchors @ op.matrix.T
    assert np.all(np.linalg.norm(images, axis=1) < 1e-14)
    assert kernel_preserved(op, sp)
    assert kernel_violation_witness(op, sp) is None
    est = operator_norm(op, sp, "I", budget=4096, seed=1)
    assert est.kernel_preserved
    assert 0.99 < est.value <= 1.0 + 1e-12
    # a large matrix with the same kernel behaviour stays preserved too
    assert kernel_preserved(affine_operator(1e12 * qc @ qc.T), sp)


def test_kernel_gate_is_not_hidden_by_an_entry_that_misses_the_anchors():
    # A b = e2 + 1e-4 e3 leaves the span of b = e2 by 1e-4 |b|; the entry
    # 1e6 never meets b, so it must not raise the threshold (with the
    # Frobenius |A| |b| it was 1e-3 and the violation passed)
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]])
    a = np.diag([1e6, 1.0, 1.0])
    a[2, 1] = 1e-4
    op = affine_operator(a)
    assert not kernel_preserved(op, sp)
    assert np.array_equal(kernel_violation_witness(op, sp), sp.anchors[0])
    for method in ("I", "II", "III"):
        assert operator_norm(op, sp, method, budget=64, seed=0).value == math.inf


def test_kernel_violation_witness_offset_is_zero():
    sp = space_e23()
    op = affine_operator(np.eye(3)[[1, 0, 2]], offset=[1.0, 0.0, 0.0])
    assert np.array_equal(kernel_violation_witness(op, sp), np.zeros(3))


def test_kernel_preserved_affine_offset_counts():
    sp = space_e23()
    op = affine_operator(np.eye(3), offset=[1.0, 0.0, 0.0])
    assert not kernel_preserved(op, sp)
    op2 = affine_operator(np.eye(3), offset=[0.0, 1.0, 0.0])
    assert kernel_preserved(op2, sp)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_diag_two():
    sp = space_e23()
    op = affine_operator(np.diag([2.0, 1.0, 1.0]))
    for method in ("I", "II", "III"):
        est = operator_norm(op, sp, method, budget=4000, seed=1)
        assert est.kernel_preserved
        assert abs(est.value - 2.0) <= 0.02 * 2.0
    # on the 1-D complement the normalized and ratio forms are exact
    assert operator_norm(op, sp, "II", 100, seed=1).value == pytest.approx(2.0, abs=1e-9)
    assert operator_norm(op, sp, "III", 100, seed=1).value == pytest.approx(2.0, abs=1e-9)


def test_operator_norm_identity_and_zero():
    sp = space_e23()
    ident = operator_norm(affine_operator(np.eye(3)), sp, "II", 500, seed=3)
    assert ident.value == pytest.approx(1.0, abs=1e-9)
    zero = operator_norm(affine_operator(np.zeros((3, 3))), sp, "III", 500, seed=3)
    assert zero.value == 0.0


def test_operator_norm_kernel_gate_returns_infinity():
    sp = space_e23()
    swap = affine_operator(np.eye(3)[[1, 0, 2]])
    for method in ("I", "II", "III"):
        est = operator_norm(swap, sp, method, budget=64, seed=0)
        assert est.value == math.inf
        assert not est.kernel_preserved


def test_operator_norm_rejects_nonlinear_and_bad_args():
    sp = space_e23()
    with pytest.raises(ValueError):
        operator_norm(builtin_operator("scale", factor=0.5), sp, "I", 10)
    with pytest.raises(ValueError):
        operator_norm(affine_operator(np.eye(3), offset=[0.0, 1.0, 0.0]), sp, "I", 10)
    with pytest.raises(ValueError):
        operator_norm(affine_operator(np.eye(3)), sp, "IV", 10)
    with pytest.raises(ValueError):
        operator_norm(affine_operator(np.eye(3)), sp, "I", 0)


def test_operator_norm_monotone_in_budget():
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    op, _ = random_preserver(sp, np.random.default_rng(8))
    values = [operator_norm(op, sp, "III", b, seed=5).value for b in (10, 100, 1000, 5000)]
    for small, big in zip(values, values[1:]):
        assert big >= small


def test_operator_norm_methods_agree_and_respect_svd_oracle():
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    rng = np.random.default_rng(21)
    for _ in range(10):
        op, true_norm = random_preserver(sp, rng)
        ests = [operator_norm(op, sp, m, budget=10_000, seed=17).value for m in ("I", "II", "III")]
        for a in ests:
            for b in ests:
                assert abs(a - b) <= 0.02 * max(a, b)
            assert a <= true_norm + 1e-9   # sampled sup never exceeds the true sup
            assert a >= 0.97 * true_norm


# ---------------------------------------------------------------------------
# exact Lipschitz constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,order", [(3, 2), (16, 3), (64, 4)])
def test_lipschitz_constant_is_the_complement_block_norm(d, order):
    rng = np.random.default_rng([d, 41])
    for _ in range(5):
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))
        op, true_norm = random_preserver(sp, rng)
        assert lipschitz_constant(op, sp) == pytest.approx(true_norm, rel=1e-12, abs=0.0)


def test_lipschitz_constant_gates_the_linear_part_only():
    sp = space_e23()
    assert lipschitz_constant(affine_operator(np.eye(3)[[1, 0, 2]]), sp) == math.inf
    # the offset moves the kernel, so no bound constant ||Tx|| <= M ||x||
    # exists, but ||Tx - Ty|| = 0.5 ||x - y|| still holds
    shifted = affine_operator(0.5 * np.eye(3), offset=[1.0, 0.0, 0.0])
    assert not kernel_preserved(shifted, sp)
    assert lipschitz_constant(shifted, sp) == 0.5


def test_linear_part_of_the_builtins():
    sp = space_e23(4)
    rng = np.random.default_rng(5)
    xs, ys = rng.standard_normal((2, 20, 4))
    for op, exact in (
        (builtin_operator("scale", factor=-0.7), 0.7),
        (builtin_operator("constant", value=[1.0, 2.0, 3.0, 4.0]), 0.0),
        (builtin_operator("rotation-scale", axis1=0, axis2=3, angle=0.8, factor=0.6), 0.6),
        (builtin_operator("rotation-scale", axis1=0, axis2=1, angle=0.8, factor=0.6), math.inf),
    ):
        lin = op.linear_part(4)
        assert np.allclose(apply_batch(op, xs) - apply_batch(op, ys), (xs - ys) @ lin.T, rtol=0, atol=1e-14)
        assert lipschitz_constant(op, sp) == pytest.approx(exact, rel=1e-15)
    for name in ("saturating", "step"):
        assert builtin_operator(name).linear_part(4) is None
        assert lipschitz_constant(builtin_operator(name), sp) is None


@pytest.mark.parametrize("d,order", [(3, 2), (16, 3)])
def test_operator_norm_formulas_stay_below_the_exact_constant(d, order):
    # The sampled formulas are lower bounds.  Their shortfall
    # 1 - estimate / exact on these five maps at budget 2000:
    #   d=3:  I 0.39 - 1.5 %,  II and III 7.5e-9 - 2.8e-7
    #   d=16: I 22 - 28 %,     II and III 11 - 20 %
    rng = np.random.default_rng([d, 43])
    for k in range(5):
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))
        op, _ = random_preserver(sp, rng)
        exact = lipschitz_constant(op, sp)
        for method in ("I", "II", "III"):
            assert operator_norm(op, sp, method, budget=2000, seed=k).value <= exact * (1 + 1e-12)


def test_operator_norm_formula_one_falls_short_of_diag_two():
    # diag(2, 1, 1, 1) with the anchor on the second axis, in a random
    # orthogonal frame of R^4.  Formula I samples radii in [0, 1), so at
    # budget 10^4 it lands 2.2 % under the norm 2 here (2.04 % in the frame
    # where this shortfall was first seen); II and III land 1.2e-4 under.
    rng = np.random.default_rng([51, 2])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    sp = AnchoredSpace(dim=4, order=2, anchors=q[:, 1][None, :])
    op = affine_operator(q @ np.diag([2.0, 1.0, 1.0, 1.0]) @ q.T)
    assert lipschitz_constant(op, sp) == pytest.approx(2.0, rel=1e-12)
    one = operator_norm(op, sp, "I", budget=10_000, seed=51).value
    assert 0.97 * 2.0 < one < 0.98 * 2.0


def test_operator_norm_displayed_bound_on_probe_points():
    # ||Tx|| <= value * ||x|| + 1e-9 on the estimator's own sample
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    op, _ = random_preserver(sp, np.random.default_rng(31))
    est = operator_norm(op, sp, "III", budget=2000, seed=9)
    pts = draw_probe_points(sp, 2000, seed=9, method="III")
    lhs = sp.seminorm_batch(apply_batch(op, pts))
    rhs = est.value * sp.seminorm_batch(pts) + 1e-9
    assert np.all(lhs <= rhs)


def test_anchor_shift_invariance():
    sp = space_e23()
    op = affine_operator(np.diag([1.7, 1.0, 1.0]))
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.standard_normal(3)
        shift = rng.standard_normal(2) @ sp.anchors
        assert abs(sp.seminorm(x + shift) - sp.seminorm(x)) <= 1e-9
        assert abs(sp.seminorm(apply(op, x + shift)) - sp.seminorm(apply(op, x))) <= 1e-9


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def test_contraction_constant_scale_half_is_exact():
    sp = space_e23()
    est = contraction_constant(builtin_operator("scale", factor=0.5), sp, budget=500, seed=2)
    assert abs(est.alpha_hat - 0.5) <= 1e-12


def test_contraction_constant_constant_map_is_zero():
    sp = space_e23()
    est = contraction_constant(builtin_operator("constant", value=[1.0, 2.0, 3.0]), sp, budget=200, seed=2)
    assert est.alpha_hat == 0.0
    assert est.beta_hat == 0.0


def test_kannan_constant_scale_quarter_grid_oracle():
    # oracle: dense grid over scalar pairs of |x-y|/4 divided by
    # (3/4)(|x|+|y|); the supremum 1/3 is attained for opposite signs
    grid = np.linspace(-2.0, 2.0, 161)
    worst = 0.0
    for x in grid:
        for y in grid:
            den = 0.75 * (abs(x) + abs(y))
            if den < 1e-12:
                continue
            worst = max(worst, abs(x - y) / 4.0 / den)
    assert worst == pytest.approx(1.0 / 3.0, abs=1e-12)

    sp = space_e23()
    est = contraction_constant(builtin_operator("scale", factor=0.25), sp, budget=4000, seed=4)
    assert est.beta_hat <= 1.0 / 3.0 + 1e-12
    assert est.beta_hat >= 1.0 / 3.0 - 1e-9


def test_contraction_estimate_is_reproducible():
    sp = space_e23()
    op = affine_operator(np.diag([0.8, 0.3, 0.3]))
    a = contraction_constant(op, sp, budget=300, seed=6)
    b = contraction_constant(op, sp, budget=300, seed=6)
    assert a.alpha_hat == b.alpha_hat
    assert a.beta_hat == b.beta_hat
    x, y = a.witness_pair
    ratio = sp.seminorm_batch((apply(op, x) - apply(op, y)).reshape(1, -1))[0] / sp.seminorm_batch(
        (x - y).reshape(1, -1)
    )[0]
    assert ratio == pytest.approx(a.alpha_hat, rel=1e-12)


def test_contraction_budget_prefix_is_first_pairs_of_larger_budget():
    # pairs are drawn interleaved per chunk of 1024, so budget k sees exactly
    # the first k pairs that any larger budget draws
    sp = AnchoredSpace(dim=5, order=3, anchors=np.random.default_rng(8).standard_normal((2, 5)))
    op = affine_operator(np.random.default_rng(9).standard_normal((5, 5)))
    seed, big = 13, 1500
    chunks = []
    for chunk_idx, take in enumerate((1024, big - 1024)):
        rng = np.random.default_rng([seed, 11, chunk_idx])
        chunks.append(rng.standard_normal((take, 2, 5)) * 1.5)
    pairs = np.concatenate(chunks)
    xs, ys = pairs[:, 0], pairs[:, 1]
    ratios = sp.seminorm_batch(apply_batch(op, xs) - apply_batch(op, ys)) / sp.seminorm_batch(xs - ys)
    for k in (1, 7, 64, 1024, 1100, big):
        est = contraction_constant(op, sp, budget=k, seed=seed)
        assert est.alpha_hat == pytest.approx(float(np.max(ratios[:k])), rel=1e-12)
        x, y = est.witness_pair
        hits = np.flatnonzero(np.all(xs[:k] == x, axis=1) & np.all(ys[:k] == y, axis=1))
        assert hits.size == 1
        assert ratios[hits[0]] == pytest.approx(est.alpha_hat, rel=1e-12)


def test_composition_submultiplicative_scales():
    sp = space_e23()
    t = builtin_operator("scale", factor=0.6)
    s = builtin_operator("scale", factor=0.5)
    ts = builtin_operator("scale", factor=0.3)
    ha = contraction_constant(t, sp, 400, seed=1).alpha_hat
    hb = contraction_constant(s, sp, 400, seed=1).alpha_hat
    hc = contraction_constant(ts, sp, 400, seed=1).alpha_hat
    assert hc <= ha * hb + 1e-9


def test_composition_submultiplicative_affine_augmented_pairs():
    # evaluating the outer factor on the image pairs makes the chain
    # ratio_TS(x,y) = ratio_T(Sx,Sy) * ratio_S(x,y) bound exactly
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    rng = np.random.default_rng(40)
    t, _ = random_preserver(sp, rng, spread=0.7)
    s, _ = random_preserver(sp, rng, spread=0.7)
    ts = compose(t, s)
    pairs = rng.standard_normal((400, 2, 4))
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]

    def sup_ratio(op, a, b):
        num = sp.seminorm_batch(apply_batch(op, a) - apply_batch(op, b))
        den = sp.seminorm_batch(a - b)
        keep = den >= 1e-12
        return float(np.max(num[keep] / den[keep]))

    hat_s = sup_ratio(s, xs, ys)
    hat_t = sup_ratio(t, apply_batch(s, xs), apply_batch(s, ys))
    hat_ts = sup_ratio(ts, xs, ys)
    assert hat_ts <= hat_t * hat_s + 1e-9


# ---------------------------------------------------------------------------
# continuity probes
# ---------------------------------------------------------------------------

def test_probe_scale_half_with_delta_equal_epsilon():
    sp = space_e23()
    probe = continuity_probe(
        builtin_operator("scale", factor=0.5), sp, np.zeros(3), epsilon=0.1,
        candidate_delta=0.1, samples=200, seed=0,
    )
    assert probe.ok
    assert probe.witness is None
    assert probe.sequence_residuals[-1] < probe.sequence_residuals[0]


def test_probe_affine_with_norm_based_delta():
    sp = AnchoredSpace(dim=4, order=3, anchors=np.eye(4)[1:3])
    op, _ = random_preserver(sp, np.random.default_rng(50))
    m = operator_norm(op, sp, "III", budget=2000, seed=5).value
    eps = 0.75
    probe = continuity_probe(op, sp, np.zeros(4), epsilon=eps,
                             candidate_delta=eps / (m + 1.0), samples=400, seed=5)
    assert probe.ok


def test_probe_contraction_delta_epsilon_over_alpha():
    # any estimated contraction passes with delta = epsilon / alpha_hat
    sp = space_e23()
    op = builtin_operator("scale", factor=0.35)
    alpha = contraction_constant(op, sp, 500, seed=7).alpha_hat
    assert alpha < 1.0
    probe = continuity_probe(op, sp, np.array([0.4, -0.2, 0.9]), epsilon=0.2,
                             candidate_delta=0.2 / alpha, samples=300, seed=7)
    assert probe.ok


def test_probe_sequence_matches_point_by_point_loop():
    # reference: x_k = x0 + delta/(k vol) u + (c_k @ anchors)/k built one k
    # at a time from the same stream; equal bits at order 2, where each
    # kernel part is a single product, last-bit agreement above it
    rng = np.random.default_rng(21)
    for d, order, rel in ((4, 2, 0.0), (8, 3, 1e-13), (16, 5, 1e-13)):
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))
        op = affine_operator(rng.standard_normal((d, d)))
        x0 = rng.standard_normal(d)
        probe = continuity_probe(op, sp, x0, epsilon=0.5, candidate_delta=0.1, samples=64, seed=4)
        stream = np.random.default_rng([4, 17])
        u = stream.standard_normal(sp.complement_dim)
        direction = sp.complement_basis @ (u / np.linalg.norm(u))
        pts = []
        for k in range(1, 41):
            kernel = stream.standard_normal(order - 1) @ sp.anchors / k
            pts.append(x0 + (0.1 / (k * sp.anchor_volume)) * direction + kernel)
        expected = sp.seminorm_batch(apply_batch(op, np.vstack(pts)) - apply(op, x0)).tolist()
        assert probe.sequence_residuals == pytest.approx(expected, rel=rel, abs=0.0)


def test_probe_step_discontinuity_found_with_witness():
    sp = space_e23()
    op = builtin_operator("step", threshold=0.0, height=1.0)
    x0 = np.zeros(3)  # sits exactly at the jump
    # bisection oracle: points straddling the threshold stay far apart in image
    lo, hi = -1.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mid >= 0.0:
            hi = mid
        else:
            lo = mid
    below = np.array([lo, 0.0, 0.0])
    assert sp.seminorm(apply(op, below) - apply(op, x0)) >= 1.0 - 1e-9
    for delta in (1.0, 0.1, 1e-3):
        probe = continuity_probe(op, sp, x0, epsilon=0.5, candidate_delta=delta,
                                 samples=400, seed=11)
        assert not probe.ok
        assert probe.witness is not None
        assert probe.witness[0] < 0.0  # the violating side of the step


def test_probe_kernel_violator_sequence_residuals_do_not_vanish():
    sp = space_e23()
    swap = affine_operator(np.eye(3)[[1, 0, 2]])
    w = kernel_violation_witness(swap, sp)
    rng = np.random.default_rng(3)
    u = sp.complement_basis[:, 0]
    residuals = []
    for k in range(1, 33):
        xk = w + u / k
        residuals.append(sp.seminorm(apply(swap, xk) - apply(swap, np.zeros(3))))
    assert min(residuals[-8:]) > 0.5  # images stay far from the image of the limit


def test_is_linear_flag():
    assert is_linear(affine_operator(np.eye(2)))
    assert not is_linear(affine_operator(np.eye(2), offset=[0.0, 1.0]))
    assert not is_linear(builtin_operator("scale", factor=1.0))
