"""Operator analysis tests: catalog evaluation, norm estimates, ratio suprema."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfix import nnorm, operators
from nfix.harness import _kernel_preserving_matrices, canonical_space, random_kernel_preserving_operator
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
    kannan_constant,
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


@pytest.mark.parametrize("axis", [1.7, None, "1", True])
def test_rotation_axes_must_be_integers(axis):
    # int() used to truncate 1.7 to 1 and rotate the (0, 1) plane
    with pytest.raises(ValueError, match="'axis2' must be an integer"):
        builtin_operator("rotation-scale", axis1=0, axis2=axis, angle=1.0)


@pytest.mark.parametrize("name,params", [
    ("scale", {"factor": math.nan}),  # lipschitz_constant raised LinAlgError, kernel_preserved said True
    ("scale", {"factor": math.inf}),  # a RuntimeWarning
    ("scale", {"factor": "0.5"}),
    ("scale", {"factor": True}),
    ("scale", {"factor": 10 ** 400}),
    ("rotation-scale", {"axis1": 0, "axis2": 1, "angle": math.nan}),  # LinAlgError
    ("rotation-scale", {"axis1": 0, "axis2": 1, "angle": 1.0, "factor": -math.inf}),
    ("step", {"threshold": math.nan}),  # the identity
    ("step", {"height": None}),
])
def test_builtin_params_must_be_finite_numbers(name, params):
    # the CLI refuses these; the library took them, where affine_operator
    # refuses a non-finite matrix
    with pytest.raises(ValueError, match="must be a finite number"):
        builtin_operator(name, **params)


@pytest.mark.parametrize("d", [3, 16, 64])
def test_linear_builtins_map_rows_bit_for_bit(d):
    # scale, rotation-scale and constant run as x @ L^T + c from their
    # affine form; on finite rows that must give exactly the direct
    # formulas, for a batch and for the compiled one-row step alike
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
        step = operators._compile(op, canonical_space(d, 2)).step
        for x in pts:
            assert step(x).tobytes() == direct(x[None, :])[0].tobytes()


@pytest.mark.parametrize("d", [3, 16, 64])
def test_compiled_step_is_the_one_row_batch_bit_for_bit(d):
    # _compile's step is x @ L^T + c on the 1-D point for every affine form,
    # and the nonlinear builtins' row map on it; apply_batch runs the same
    # product on a (1, d) row, and both must give the same bits
    rng = np.random.default_rng([d, 67])
    ops = [affine_operator(rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4),
                           offset=rng.standard_normal(d)) for _ in range(30)]
    ops += [builtin_operator("saturating"), builtin_operator("step", threshold=0.1, height=0.5),
            builtin_operator("scale", factor=-0.7), builtin_operator("constant", value=rng.standard_normal(d)),
            builtin_operator("rotation-scale", axis1=0, axis2=d - 1, angle=0.3, factor=0.9)]
    for op in ops:
        step = operators._compile(op, canonical_space(d, 2)).step
        for x in rng.standard_normal((8, d)) * 10.0 ** rng.integers(-5, 6, size=(8, 1)):
            got = step(x)
            assert got.shape == (d,)
            assert got.tobytes() == apply_batch(op, x[None])[0].tobytes()


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
    # matrix: the witness is the first anchor it moves
    sp = space_e23(4)
    op = builtin_operator("rotation-scale", axis1=axes[0], axis2=axes[1], angle=0.8, factor=0.6)
    w = kernel_violation_witness(op, sp)
    if moved is None:
        assert w is None and kernel_preserved(op, sp)
    else:
        assert np.array_equal(w, sp.anchors[moved])
        assert not kernel_preserved(op, sp)


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


@pytest.mark.parametrize("s", [1e-250, 1e-170, 1e-160, 1.0, 1e155, 1e250])
def test_kernel_gate_verdicts_hold_at_extreme_scales(s):
    # the gate's verdict is homogeneous: the swap e1 <-> e2 and the constant
    # s e1 leave span(e2) at every scale, and kernel-preserving maps keep it.
    # Plain lengths of L b underflowed below ~1e-154 (the swap read as
    # preserving, with finite Lipschitz and Kannan constants) and overflowed
    # past ~1.3e154 (a RuntimeWarning, or the same wrong verdict)
    sp = canonical_space(3, 2)
    swap = affine_operator(s * np.eye(3)[[1, 0, 2]])
    constant = builtin_operator("constant", value=[s, 0.0, 0.0])
    preservers = s * _kernel_preserving_matrices(sp, np.random.default_rng(3), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(kernel_violation_witness(swap, sp), sp.anchors[0])
        assert lipschitz_constant(swap, sp) == kannan_constant(swap, sp) == math.inf
        assert operator_norm(swap, sp, "II", budget=16, seed=0).value == math.inf
        assert np.array_equal(kernel_violation_witness(constant, sp), np.zeros(3))
        assert not operators._kernel_gate(sp, preservers, np.zeros((20, 3)))[1].any()
        assert all(kernel_preserved(affine_operator(a), sp) for a in preservers)


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=80, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=12, max_size=12), keeps=st.booleans(), k=st.integers(-900, 900))
def test_kernel_gate_verdicts_do_not_change_under_power_of_two_scaling(entries, keeps, k):
    # 2^k L and 2^k c are exact, and T moves span(e2) exactly when 2^k T does
    sp = canonical_space(3, 2)
    lin, offset = np.array(entries[:9]).reshape(3, 3), np.array(entries[9:])
    if keeps:
        lin[[0, 2], 1] = 0.0
        offset[[0, 2]] = 0.0
    witness, violated = operators._kernel_gate(sp, lin, offset)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled_witness, scaled_violated = operators._kernel_gate(sp, np.ldexp(lin, k), np.ldexp(offset, k))
        assert scaled_violated == violated and np.array_equal(scaled_witness, witness)
        assert math.isinf(lipschitz_constant(affine_operator(np.ldexp(lin, k)), sp)) == \
            bool(operators._moved_anchors(sp, lin).any())
    if keeps:
        assert not violated


def _concatenated_gate(sp, lin, offset):
    """The gate's rule written out: the first of the rows [c, L b_1, ...,
    L b_{n-1}] whose part off the span exceeds 64 eps times |c|, or the
    length of |L| |b|, gives the witness (0, or that b)."""
    mt = lin.swapaxes(-1, -2)
    images = np.concatenate([offset[..., None, :], sp.anchors @ mt], axis=-2)
    scales = np.concatenate([np.linalg.norm(offset, axis=-1)[..., None],
                             np.linalg.norm(np.abs(sp.anchors) @ np.abs(mt), axis=-1)], axis=-1)
    off = np.linalg.norm(images @ sp.complement_basis, axis=-1) > 64 * np.finfo(float).eps * scales
    points = np.concatenate([np.zeros((1, sp.dim)), sp.anchors])
    return points[off.argmax(axis=-1)], off.any(axis=-1)


@pytest.mark.parametrize("dim,order", [(3, 2), (5, 3), (16, 4), (64, 2)])
def test_single_map_kernel_gate_matches_the_stacked_gate(dim, order, monkeypatch):
    # kernel_violation_witness decides one map as a stack of one, and the
    # exact constants decide its linear part with _moved_anchors; the suites
    # decide stacks with _kernel_gate.  All must give the verdicts and
    # witnesses of the rule written out: 0 where the offset leaves the span,
    # else b_1, which the added term moves, as it moves every anchor not
    # orthogonal to its b.  The stack ends with the complement projector
    # (anchor images of size 1e-16, which the |L| |b| scale keeps in the
    # span) and 1e12 times it.
    rng = np.random.default_rng([dim, order, 5])
    sp = AnchoredSpace(dim=dim, order=order, anchors=rng.standard_normal((order - 1, dim)))
    c = sp.complement_basis
    lin, offset = [], []
    for i in range(40):
        op, _ = random_preserver(sp, rng)
        a = op.matrix.copy()
        if i % 4 in (1, 3):
            a += 1e-3 * np.outer(c[:, 0], sp.anchors[i % (order - 1)])  # moves one anchor
        off = sp.anchors.T @ rng.standard_normal(order - 1)  # in the span
        if i % 4 in (2, 3):
            off = off + 1e-3 * c[:, -1]  # leaves it
        lin.append(a)
        offset.append(off)
    assert np.all(np.linalg.norm(sp.anchors @ c @ c.T, axis=1) < 1e-14)
    lin += [c @ c.T, 1e12 * c @ c.T]
    offset += [np.zeros(dim), sp.anchors.T @ rng.standard_normal(order - 1)]
    lin, offset = np.array(lin), np.array(offset)
    witness, violated = operators._kernel_gate(sp, lin, offset)
    assert violated.tolist() == [i % 4 != 0 for i in range(40)] + [False, False]
    ref_witness, ref_violated = _concatenated_gate(sp, lin, offset)
    assert np.array_equal(violated, ref_violated) and np.array_equal(witness, ref_witness)
    moves = [i % 4 in (1, 3) for i in range(40)] + [False, False]
    assert _concatenated_gate(sp, lin, np.zeros_like(offset))[1].tolist() == moves
    assert operators._moved_anchors(sp, lin).any(axis=-1).tolist() == moves
    for i in range(42):
        single = kernel_violation_witness(affine_operator(lin[i], offset[i]), sp)
        if violated[i]:
            assert single.tobytes() == witness[i].tobytes()
            assert np.array_equal(single, np.zeros(dim) if i % 4 in (2, 3) else sp.anchors[0])
        else:
            assert single is None
        assert math.isinf(lipschitz_constant(affine_operator(lin[i]), sp)) == moves[i]
    assert np.array_equal(np.where(moves, np.inf, operators._bound_constants(sp, lin)),
                          [lipschitz_constant(affine_operator(a), sp) for a in lin])
    # the gate takes one _leave_span pass, with the offset row stacked on
    # the anchor images, and gives the verdicts of a pass for each half;
    # the exact constants' anchor half is a pass of its own
    leave_span = operators._leave_span
    halves = np.concatenate([leave_span(sp, offset[:, None], np.abs(offset)[:, None]),
                             operators._moved_anchors(sp, lin)], axis=-1)
    assert np.array_equal(operators._moved_anchors(sp, lin, offset), halves)
    passes = []
    monkeypatch.setattr(operators, "_leave_span", lambda sp, rows, bounds: passes.append(rows.shape)
                        or leave_span(sp, rows, bounds))
    operators._kernel_gate(sp, lin, offset)
    kernel_violation_witness(affine_operator(lin[0], offset[0]), sp)
    lipschitz_constant(affine_operator(lin[0]), sp)
    assert passes == [(42, order, dim), (order, dim), (order - 1, dim)]


@pytest.mark.parametrize("dim,order", [(3, 2), (5, 3), (8, 4), (16, 3), (64, 4)])
def test_the_default_family_in_a_random_frame_is_never_gated(dim, order):
    # the gate counts an anchor image off the span above 64 eps of its bound
    # length; maps that keep the span in a random frame leave it by roundoff,
    # at most ~7 eps of that length at these sizes
    for seed in range(4):
        rng = np.random.default_rng([dim, order, seed])
        sp = AnchoredSpace(dim=dim, order=order, anchors=rng.standard_normal((order - 1, dim)))
        lin = _kernel_preserving_matrices(sp, rng, 100)
        assert not operators._kernel_gate(sp, lin, np.zeros((100, dim)))[1].any()
        op = random_kernel_preserving_operator(sp, rng)
        assert kernel_preserved(op, sp) and math.isfinite(lipschitz_constant(op, sp))


def test_e1_a_little_off_the_span_moves_the_kernel_of_the_nonlinear_builtins():
    # e1 is 1e-12 off span(e1 + 1e-12 e2): with a rank tolerance of 1e-9 the
    # split put e1 in the span, and saturating passed with constant 1
    sp = AnchoredSpace(dim=3, order=2, anchors=[[1.0, 1e-12, 0.0]])
    op = builtin_operator("saturating")
    w = kernel_violation_witness(op, sp)
    assert w is not None and not kernel_preserved(op, sp)
    assert lipschitz_constant(op, sp) == kannan_constant(op, sp) == math.inf
    assert sp.seminorm(apply(op, w)) > 100.0 * sp.roundoff_floor(np.linalg.norm(apply(op, w)))


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


E1_SPLITS = {
    # anchors putting e1 in the span, orthogonal to it, or neither
    "span": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    "orthogonal": [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    "oblique": [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
}


@pytest.mark.parametrize("split,op,moves", [
    ("span", builtin_operator("step", threshold=0.0, height=1.0), False),
    ("span", builtin_operator("saturating"), False),
    ("orthogonal", builtin_operator("step", threshold=0.0, height=1.0), True),  # T(0) = e1
    ("orthogonal", builtin_operator("step", threshold=0.5, height=1.0), False),
    ("orthogonal", builtin_operator("saturating"), False),
    ("oblique", builtin_operator("step", threshold=-3.0, height=-1.0), True),
    ("oblique", builtin_operator("step", threshold=7.0, height=0.0), False),  # the identity
    ("oblique", builtin_operator("saturating"), True),
])
def test_kernel_gate_of_the_nonlinear_builtins(split, op, moves):
    sp = AnchoredSpace(dim=3, order=3, anchors=E1_SPLITS[split])
    w = kernel_violation_witness(op, sp)
    assert kernel_preserved(op, sp) == (w is None) == (not moves)
    if moves:
        assert sp.seminorm(w) == 0.0
        assert sp.seminorm(apply(op, w)) > 0.1


def test_step_gate_reaches_a_far_threshold():
    # the kernel point (50 / a_1) a of an anchor a moves by e1 off the span;
    # a probe of 0, the anchors, their doubles and 32 random kernel points of
    # length ~2 passed this map as kernel-preserving on all 20 seeds
    op = builtin_operator("step", threshold=50.0, height=1.0)
    for seed in range(20):
        sp = AnchoredSpace(dim=4, order=3, anchors=np.random.default_rng([seed, 50]).standard_normal((2, 4)))
        w = kernel_violation_witness(op, sp)
        assert not kernel_preserved(op, sp)
        assert w[0] >= 50.0 and sp.seminorm(w) <= sp.roundoff_floor(np.linalg.norm(w))
        assert sp.seminorm(apply(op, w)) > 0.0


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
    for method in ("I", "II", "III"):
        values = [operator_norm(op, sp, method, b, seed=5).value for b in (10, 100, 1000, 5000)]
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
        lin = operators._compile(op, sp).lin
        assert np.allclose(apply_batch(op, xs) - apply_batch(op, ys), (xs - ys) @ lin.T, rtol=0, atol=1e-14)
        assert lipschitz_constant(op, sp) == pytest.approx(exact, rel=1e-15)
    # e1 is orthogonal to span(e2, e3) and e4 is a second complement
    # direction: saturating's slopes are at most 1, step's jump is unbounded
    for name, exact in (("saturating", 1.0), ("step", math.inf)):
        assert operators._compile(builtin_operator(name), sp).lin is None
        assert lipschitz_constant(builtin_operator(name), sp) == exact


def test_lipschitz_constant_of_the_nonlinear_builtins_on_balls():
    # anchors 2 e2, 3 e3: vol 6, e1 is orthogonal to the span and the only
    # complement direction, so the reach of x_1 is center_1 +- radius / 6
    sp = AnchoredSpace(dim=3, order=3, anchors=[[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    sat = builtin_operator("saturating")
    step = builtin_operator("step", threshold=1.0, height=2.0)
    for op, center_1, radius, exact in (
        (sat, 0.0, None, 1.0),
        (sat, 2.0, 3.0, 1.0 / 2.5 ** 2),    # reach [1.5, 2.5]
        (sat, -3.0, 6.0, 1.0 / 3.0 ** 2),   # reach [-4, -2]
        (sat, 0.2, 3.0, 1.0),               # reach holds 0
        (step, 0.0, None, math.inf),
        (step, 3.0, 6.0, 1.0),              # reach [2, 4]
        (step, 0.0, 6.0, math.inf),         # reach [-1, 1] holds both sides
        (step, 2.0, 6.0, 1.0),              # reach [1, 3]: every x_1 >= threshold
    ):
        assert lipschitz_constant(op, sp, np.array([center_1, 5.0, -5.0]), radius) == exact
    # a second complement direction keeps the constant at least 1
    assert lipschitz_constant(sat, space_e23(4), np.array([2.0, 0.0, 0.0, 0.0]), 0.5) == 1.0
    for split, sat_exact in (("span", 1.0), ("oblique", math.inf)):
        sp = AnchoredSpace(dim=3, order=3, anchors=E1_SPLITS[split])
        assert lipschitz_constant(sat, sp, np.array([5.0, 0.0, 0.0]), 0.1) == sat_exact
        assert lipschitz_constant(builtin_operator("step", height=0.0), sp) == 1.0


def test_kannan_constant_of_the_builtins():
    sp = space_e23(4)
    rotation = 0.6 / math.sqrt(1.36 - 1.2 * math.cos(0.8))  # |lambda / (1 - lambda)|, lambda = 0.6 e^{0.8i}
    for op, exact in (
        (builtin_operator("scale", factor=0.3), 0.3 / 0.7),
        (builtin_operator("scale", factor=-0.7), 0.7 / 1.7),
        (builtin_operator("scale", factor=2.0), 2.0),
        (builtin_operator("scale", factor=1.0), math.inf),    # I - Lbar is singular
        (builtin_operator("constant", value=[1.0, 2.0, 3.0, 4.0]), 0.0),
        (builtin_operator("rotation-scale", axis1=0, axis2=3, angle=0.8, factor=0.6), rotation),
        (builtin_operator("rotation-scale", axis1=0, axis2=1, angle=0.8, factor=0.6), math.inf),
        (builtin_operator("saturating"), math.inf),
        (builtin_operator("step"), math.inf),
    ):
        assert kannan_constant(op, sp) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("d,order", [(3, 2), (16, 3)])
def test_kannan_constant_is_reached_at_w_equal_minus_u(d, order):
    # x - Tx and y - Ty project to u and -u, u the top right singular
    # vector of Lbar (I - Lbar)^-1: the ratio is the constant itself
    rng = np.random.default_rng([d, 47])
    for _ in range(5):
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))
        op, _ = random_preserver(sp, rng, spread=0.3)
        op.offset = rng.standard_normal(d)
        c = sp.complement_basis
        bar = c.T @ op.matrix @ c
        u = np.linalg.svd(bar @ np.linalg.inv(np.eye(len(bar)) - bar))[2][0]
        x, y = (c @ np.linalg.solve(np.eye(len(bar)) - bar, s * u + c.T @ op.offset) for s in (1.0, -1.0))
        ratio = sp.seminorm_raw(apply(op, x) - apply(op, y)) / (sp.seminorm_raw(x - apply(op, x))
                                                                 + sp.seminorm_raw(y - apply(op, y)))
        assert ratio == pytest.approx(kannan_constant(op, sp), rel=1e-10)


def _catalog(sp, rng):
    """One operator of every kind the catalog has, drawn for ``sp``."""
    d = sp.dim
    i, j = (int(a) for a in rng.choice(d, 2, replace=False))
    return [random_preserver(sp, rng, spread=0.5)[0],
            affine_operator(0.5 * rng.standard_normal((d, d)), offset=rng.standard_normal(d)),
            builtin_operator("scale", factor=rng.uniform(-1.5, 1.5)),
            builtin_operator("constant", value=rng.standard_normal(d)),
            builtin_operator("rotation-scale", axis1=i, axis2=j, angle=rng.uniform(0.0, 6.0),
                             factor=rng.uniform(0.1, 1.5)),
            builtin_operator("saturating"),
            builtin_operator("step", threshold=rng.standard_normal(), height=rng.standard_normal())]


def test_exact_constants_bound_every_sampled_ratio():
    # contraction_constant's suprema are lower bounds of the exact forms,
    # for every catalog kind in spaces with e1 in the span, orthogonal to it
    # or neither (largest relative excess seen: 5e-12 over 1050 operators)
    for seed in range(10):
        for d, order in ((3, 2), (3, 3), (4, 2), (6, 3), (16, 4)):
            rng = np.random.default_rng([seed, d, order])
            anchors = rng.standard_normal((order - 1, d))
            orthogonal = anchors * (np.arange(d) > 0)
            inside = np.vstack([np.eye(d)[:1], anchors[1:]])
            for a in (anchors, orthogonal, inside):
                sp = AnchoredSpace(dim=d, order=order, anchors=a)
                for op in _catalog(sp, rng):
                    est = contraction_constant(op, sp, budget=256, seed=seed)
                    assert est.alpha_hat <= lipschitz_constant(op, sp) * (1 + 1e-9)
                    assert est.beta_hat <= kannan_constant(op, sp) * (1 + 1e-9)


def test_ball_constants_bound_every_sampled_ratio_in_the_ball():
    # e1 orthogonal to the span; ratios of pairs drawn in the ball stay
    # under the ball form, and reach a median 0.99999 of the 159 finite ones
    reached = []
    for seed in range(100):
        rng = np.random.default_rng([seed, 7])
        d = int(rng.integers(2, 6))
        order = int(rng.integers(2, d + 1))
        sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)) * (np.arange(d) > 0))
        for op in (builtin_operator("saturating"),
                   builtin_operator("step", threshold=rng.standard_normal(), height=rng.standard_normal())):
            center = 2.0 * rng.standard_normal(d)
            radius = rng.uniform(0.1, 2.0) * sp.anchor_volume
            exact = lipschitz_constant(op, sp, center, radius)
            xs, ys = (sp.sample_ball(rng, 256, radius, center=center) for _ in range(2))
            ratios = sp.seminorm_batch(apply_batch(op, xs) - apply_batch(op, ys)) / sp.seminorm_batch(xs - ys)
            assert ratios.max() <= exact * (1 + 1e-9)
            if math.isfinite(exact):
                reached.append(ratios.max() / exact)
    assert np.median(reached) > 0.9


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


def _pass_case(d):
    """A kernel-preserving map at d = 3 (anchor e2, diag(2, 1, 1)), or on a
    random frame at d = 4 (order 3) and d = 64 (order 2)."""
    if d == 3:
        return AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1.0, 0.0]]), affine_operator(np.diag([2.0, 1.0, 1.0]))
    rng = np.random.default_rng([d, 61])
    order = 3 if d == 4 else 2
    sp = AnchoredSpace(dim=d, order=order, anchors=rng.standard_normal((order - 1, d)))
    return sp, random_preserver(sp, rng)[0]


@pytest.mark.parametrize("d", [3, 4, 64])
@pytest.mark.parametrize("budget", [1, 1024, 2500])
def test_one_pass_gives_each_formula_the_value_of_its_own_call(d, budget):
    sp, op = _pass_case(d)
    methods = ("I", "II", "III")
    shared = operators._operator_norms(op, sp, methods, budget, seed=d)
    for method, est in zip(methods, shared):
        alone = operator_norm(op, sp, method, budget, seed=d)
        assert (est.method, est.samples, est.kernel_preserved) == (method, budget, True)
        assert est.value == alone.value
    # any subset, in any order, gives the same values
    assert [e.value for e in operators._operator_norms(op, sp, ("III", "I"), budget, seed=d)] == \
        [shared[2].value, shared[0].value]


@pytest.mark.parametrize("d", [3, 4, 64])
@pytest.mark.parametrize("budget", [1, 1024, 2500])
@pytest.mark.parametrize("method", ["I", "II", "III"])
def test_operator_norm_is_the_maximum_over_its_probe_points(d, budget, method):
    # the objective of each formula, evaluated through the public apply_batch
    # and seminorm_batch on draw_probe_points' rows, in chunks of
    # operators._CHUNK: a product of 2 to 10240 rows gives each row the bits
    # it gets in the estimator's blocks of whole chunks, and a one-row
    # product, which may not, is a block of its own there as here
    sp, op = _pass_case(d)
    pts = draw_probe_points(sp, budget, seed=d, method=method)
    assert pts.shape == (budget, d)
    best = 0.0
    for rows in np.split(pts, range(operators._CHUNK, budget, operators._CHUNK)):
        obj = sp.seminorm_batch(apply_batch(op, rows))
        if method == "III":
            den = sp.seminorm_batch(rows)
            keep = den > sp.roundoff_floor(np.sqrt(np.einsum("ij,ij->i", rows, rows)))
            obj = obj[keep] / den[keep]
        best = max(best, float(obj.max(initial=0.0)))
    assert operator_norm(op, sp, method, budget, seed=d).value == best


def _chunk_draws(space, budget, seed, stream):
    """The probes' draws chunk by chunk, each computed on its own: one
    draw_ball(rng, 1024, 1.0) on the generator keyed [seed, stream, i],
    cut to the chunk's rows."""
    for i, start in enumerate(range(0, budget, 1024)):
        dirs, radii, coeffs = space.draw_ball(np.random.default_rng([seed, stream, i]), 1024, 1.0)
        take = min(1024, budget - start)
        yield dirs[:take], radii[:take], coeffs[:take]


def _chunkwise_point_sets(space, budget, seed):
    """Formulas I, II and III's probe points, chunk by chunk."""
    for dirs, radii, coeffs in _chunk_draws(space, budget, seed, 7):
        one, two, three = space.ball_points(dirs, np.stack([radii, np.ones_like(radii), 0.5 + 2.5 * radii]), coeffs)
        yield one, two / space.seminorm_batch(two)[:, None], three


def _chunkwise_norms(op, space, budget, seed):
    """The three formulas' maxima, a chunk at a time."""
    best = [0.0, 0.0, 0.0]
    for sets in _chunkwise_point_sets(space, budget, seed):
        for j, pts in enumerate(sets):
            obj = space.seminorm_batch(pts @ op.matrix.T)
            if j == 2:
                den = space.seminorm_batch(pts)
                keep = den > space.roundoff_floor(nnorm._lengths(pts))
                obj = obj[keep] / den[keep]
            best[j] = max(best[j], float(obj.max(initial=0.0)))
    return best


def _chunkwise_continuity(op, space, x0, delta, samples, seed):
    """continuity_probe's largest image distance and its first witness, a
    chunk at a time."""
    tx0, worst, witness = apply(op, x0), 0.0, None
    for dirs, radii, coeffs in _chunk_draws(space, samples, seed, 13):
        pts = space.ball_points(dirs, radii * delta, coeffs, center=x0)
        imgs = space.seminorm_batch(apply_batch(op, pts) - tx0)
        i = int(np.argmax(imgs))
        if imgs[i] > worst:
            worst, witness = float(imgs[i]), pts[i]
    return worst, witness


_BLOCK_BUDGETS = (1, 2, 1023, 1024, 1025, 2049, 5000, 10_000)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 64])
def test_blocks_of_chunks_give_the_bits_of_a_chunk_by_chunk_pass(d, scale):
    # every estimate, probe point and continuity verdict of the blocked
    # probes, bit for bit what each chunk computed alone gives, in random
    # frames with anchors of length ``scale``.  Up to d = 8, where a block
    # joins chunks, order d leaves a complement of width 1 (products of one
    # output column); budgets of 1 mod 1024 end in a one-row chunk.  With
    # anchors of length 1e8 and order d, formula II's points can have a
    # semi-norm of exactly 0 in both passes alike, so the division may warn
    for order in sorted({2, 3, d} if d <= 8 else {2, 3}):
        rng = np.random.default_rng([26, d, order, 8 + int(math.log10(scale))])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sp = AnchoredSpace(dim=d, order=order, anchors=scale * q[:, : order - 1].T)
        op, _ = random_preserver(sp, rng)
        shifted = affine_operator(op.matrix, rng.standard_normal(d))
        x0 = rng.standard_normal(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            for budget in _BLOCK_BUDGETS:
                want = _chunkwise_norms(op, sp, budget, seed=d)
                assert [e.value for e in operators._operator_norms(op, sp, ("I", "II", "III"), budget, seed=d)] == want
                assert [operator_norm(op, sp, m, budget, seed=d).value for m in ("I", "II", "III")] == want
                sets = [np.vstack(s) for s in zip(*_chunkwise_point_sets(sp, budget, seed=d))]
                for method, pts in zip(("I", "II", "III"), sets):
                    assert np.array_equal(draw_probe_points(sp, budget, seed=d, method=method), pts)
                worst, witness = _chunkwise_continuity(shifted, sp, x0, 0.5, budget, seed=d)
                probe = continuity_probe(shifted, sp, x0, 1e-300, 0.5, budget, seed=d)
                assert probe.max_image_distance == worst and np.array_equal(probe.witness, witness)


@pytest.mark.parametrize("d, rows", [
    (3, [[1024], [1024, 1], [5120, 4880], [2048, 1]]),
    (4, [[1024], [1024, 1], [4096, 4096, 1808], [2048, 1]]),
    (5, [[1024], [1024, 1], [3072, 3072, 3072, 784], [2048, 1]]),
    (8, [[1024], [1024, 1], [2048] * 4 + [1808], [2048, 1]]),
    (16, [[1024], [1024, 1], [1024] * 9 + [784], [1024, 1024, 1]]),
])
def test_probe_blocks_join_whole_chunks_up_to_the_block_size(d, rows):
    # as many whole 1024-row chunks a block as fit in nnorm._BLOCK_ELEMENTS
    # coordinates, at least one; a last chunk of one row is a block of its own
    sp = AnchoredSpace(dim=d, order=2, anchors=np.eye(d)[1:2])
    for budget, want in zip((1024, 1025, 10_000, 2049), rows):
        assert [len(radii) for _, radii, _ in operators._probe_blocks(sp, budget, 0, 7)] == want


def test_one_pass_gates_a_violator_once_for_every_formula():
    sp = space_e23()
    swap = affine_operator(np.eye(3)[[1, 0, 2]])
    ests = operators._operator_norms(swap, sp, ("I", "II", "III"), 64, seed=0)
    assert [(e.method, e.value, e.kernel_preserved) for e in ests] == \
        [(m, math.inf, False) for m in ("I", "II", "III")]


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None, -1])
def test_a_seed_that_is_no_nonnegative_integer_is_refused(seed):
    # int(1.5) would silently give the samples of seed 1
    sp = space_e23()
    diag, swap = affine_operator(np.diag([2.0, 1.0, 1.0])), affine_operator(np.eye(3)[[1, 0, 2]])
    calls = [
        lambda: operator_norm(diag, sp, "I", 10, seed=seed),
        lambda: operator_norm(swap, sp, "I", 10, seed=seed),
        lambda: draw_probe_points(sp, 10, seed),
        lambda: contraction_constant(diag, sp, 10, seed=seed),
        lambda: continuity_probe(diag, sp, np.zeros(3), 1.0, 0.5, 10, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            call()


def test_a_numpy_integer_seed_draws_what_the_int_draws():
    sp = space_e23()
    op = affine_operator(np.diag([2.0, 1.0, 1.0]))
    for seed in (np.int64(3), np.uint8(3), np.int32(3)):
        assert operator_norm(op, sp, "I", 100, seed=seed).value == operator_norm(op, sp, "I", 100, seed=3).value
        assert np.array_equal(draw_probe_points(sp, 100, seed), draw_probe_points(sp, 100, 3))


def test_draw_probe_points_refuses_bad_arguments_before_drawing(monkeypatch):
    sp = space_e23()
    monkeypatch.setattr(operators, "_keyed_chunks", None)  # any draw would fail with a TypeError
    with pytest.raises(ValueError, match="budget must be >= 1"):
        draw_probe_points(sp, 0, 0)
    with pytest.raises(ValueError, match="method must be one of I, II, III, got 'IV'"):
        draw_probe_points(sp, 10, 0, method="IV")


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


@pytest.mark.parametrize("factor", [0.5, 1e13, 1e14, 1e20, 1e155, 1e160])
def test_contraction_constant_finds_alpha_at_any_lipschitz_scale(factor):
    # x - y is floored at |x| + |y|, the points that made it; at the four
    # lengths |x| + |y| + |Tx| + |Ty| no pair counted once the factor passed
    # ~1e14, and their squared lengths overflowed past ~1e154
    sp = canonical_space(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = contraction_constant(affine_operator(factor * np.eye(3)), sp, 1000, 1)
    assert est.alpha_hat == pytest.approx(factor, rel=1e-12)
    assert est.witness_pair is not None


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
    assert kannan_constant(builtin_operator("scale", factor=0.25), sp) == pytest.approx(1.0 / 3.0, rel=1e-15)
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


_HALF = builtin_operator("scale", factor=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: affine_operator(np.zeros((2, 3))), "affine matrix must be square, got shape (2, 3)"),
    (lambda: affine_operator([[math.nan]]), "affine matrix has non-finite entries"),
    (lambda: operators.OperatorSpec(kind="linear"), "operator kind must be 'affine' or 'builtin', got 'linear'"),
    (lambda: builtin_operator("scale"), "builtin 'scale' missing params ['factor']"),
    (lambda: builtin_operator("rotation-scale", axis1=1, axis2=1, angle=0.1),
     "rotation-scale needs two distinct nonnegative axes"),
    (lambda: builtin_operator("rotation-scale", axis1=-1, axis2=0, angle=0.1),
     "rotation-scale needs two distinct nonnegative axes"),
    (lambda: compose(_HALF, affine_operator(np.eye(2))), "compose supports affine operators only"),
    (lambda: compose(affine_operator(np.eye(2)), affine_operator(np.eye(3))), "dimension mismatch in composition"),
    (lambda: apply_batch(_HALF, np.zeros(3)), "apply_batch expects a 2-D array of row points"),
    (lambda: contraction_constant(_HALF, space_e23(), budget=0), "budget must be >= 1"),
    (lambda: continuity_probe(_HALF, space_e23(), np.zeros(3), 0.1, 0.1, samples=0), "samples must be >= 1"),
    (lambda: continuity_probe(_HALF, space_e23(), np.zeros(3), 0.0, 0.1, samples=8),
     "epsilon and candidate_delta must be positive"),
    (lambda: continuity_probe(_HALF, space_e23(), np.zeros(3), 0.1, -1.0, samples=8),
     "epsilon and candidate_delta must be positive"),
    # a TypeError, a short center taken, and a NaN constant before these were refused
    (lambda: lipschitz_constant(builtin_operator("saturating"), canonical_space(3, 2), radius=1.0),
     "a radius needs a center"),
    (lambda: lipschitz_constant(builtin_operator("saturating"), canonical_space(3, 2), [5.0], 1.0),
     "dimension mismatch: expected length 3, got 1"),
    (lambda: lipschitz_constant(builtin_operator("saturating"), canonical_space(3, 2), np.zeros(3), math.nan),
     "radius must be > 0, got nan"),
    (lambda: lipschitz_constant(_HALF, space_e23(), np.zeros(3), 0.0), "radius must be > 0, got 0.0"),
], ids=["non-square", "non-finite", "unknown-kind", "missing-params", "equal-axes", "negative-axis",
        "compose-builtin", "compose-dims", "batch-1d", "budget-0", "samples-0", "epsilon-0", "delta-negative",
        "radius-without-center", "center-short", "radius-nan", "radius-0"])
def test_operators_refuse_bad_input_with_their_own_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
