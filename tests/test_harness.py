"""Harness tests: suites pass on honest instances, fail on planted mutants,
and reproduce exactly under a fixed seed."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from nfix import harness, operators, solvers
from nfix.harness import (
    canonical_space,
    check_axiom_suite,
    check_banach_reduction,
    check_bounded_iff_continuous,
    check_bounded_sets,
    check_contractive_ratio,
    check_product_ball_lemma,
    random_kernel_preserving_operator,
    reduction_suite,
)
from nfix.nnorm import AnchoredSpace, ProductPoint, gram_nnorm, product_nnorm
from nfix.operators import (
    affine_operator,
    apply,
    apply_batch,
    builtin_operator,
    kernel_violation_witness,
    lipschitz_constant,
)
from nfix.solvers import SolverConfig, edelstein_solve


def test_axiom_suite_passes_on_gram_norm():
    reports = check_axiom_suite(4, 3, trials=300, seed=42)
    assert [r.property_id for r in reports] == ["axioms.N1", "axioms.N2", "axioms.N3", "axioms.N4"]
    for r in reports:
        assert r.trials == 300
        assert r.failures == 0
        assert r.counterexample is None


def test_axiom_suite_full_order_orthonormal_case():
    # order equal to dimension with orthonormal tuples: volume 1, all pass
    reports = check_axiom_suite(3, 3, trials=200, seed=7)
    assert all(r.failures == 0 for r in reports)
    assert gram_nnorm(np.eye(3)) == 1.0


def test_axiom_suite_catches_planted_square_bug():
    # dropping the square root turns homogeneity into |alpha|^2 scaling
    def broken(vectors):
        return gram_nnorm(vectors) ** 2

    reports = check_axiom_suite(3, 2, trials=200, seed=11, norm_fn=broken)
    by_id = {r.property_id: r for r in reports}
    n3 = by_id["axioms.N3"]
    assert n3.failures > 0
    assert n3.counterexample is not None
    alpha = n3.counterexample["alpha"]
    # witness exhibits the quadratic scaling
    assert n3.counterexample["scaled"] == pytest.approx(
        alpha ** 2 * gram_nnorm(n3.counterexample["tuple"]) ** 2, rel=1e-6
    )
    assert by_id["axioms.N4"].failures > 0  # squaring also breaks the triangle bound


def test_axiom_suite_is_reproducible():
    a = check_axiom_suite(4, 3, trials=100, seed=5)
    b = check_axiom_suite(4, 3, trials=100, seed=5)
    assert a == b
    c = check_axiom_suite(4, 3, trials=100, seed=6)
    assert any(x.worst_violation != y.worst_violation for x, y in zip(a, c))


def test_axiom_suite_catches_a_norm_that_keeps_dependent_tuples():
    # the product of the lengths: a dependent tuple does not collapse
    def lengths(vectors):
        return float(np.prod(np.linalg.norm(vectors, axis=1)))

    n1 = check_axiom_suite(4, 3, trials=200, seed=12, norm_fn=lengths)[0]
    assert n1.failures == 200
    ce = n1.counterexample
    assert ce["case"] == "dependent tuple not collapsed"
    assert gram_nnorm(ce["tuple"]) == 0.0
    assert ce["value"] == pytest.approx(lengths(np.array(ce["tuple"])), rel=1e-12)
    assert n1.worst_violation == pytest.approx(ce["value"] * (1.0 - 1e-9), rel=1e-12)


def test_axiom_suite_catches_a_norm_that_collapses_independent_tuples():
    # 0 for every full-rank tuple, the volume otherwise: no dependent tuple
    # fails, every independent one does, and its value 0 is never the worst
    def collapsing(vectors):
        return 0.0 if np.linalg.matrix_rank(vectors) == len(vectors) else gram_nnorm(vectors)

    n1 = check_axiom_suite(4, 3, trials=50, seed=15, norm_fn=collapsing)[0]
    assert (n1.failures, n1.worst_violation) == (50, 0.0)
    ce = n1.counterexample
    assert ce["case"] == "independent tuple collapsed" and ce["value"] == 0.0
    assert np.linalg.matrix_rank(ce["tuple"]) == 3 and gram_nnorm(ce["tuple"]) > 0.1


def test_axiom_suite_catches_an_order_dependent_norm():
    # the volume times 1 + 1e-10 * (the first row's index among the rows
    # sorted by first coordinate): unchanged unless a permutation moves the
    # first row, then off by at least 1e-10 relative
    def order_dependent(vectors):
        rows = np.asarray(vectors, dtype=float)
        index = int(np.flatnonzero(np.argsort(rows[:, 0]) == 0)[0])
        return gram_nnorm(rows) * (1.0 + 1e-10 * index)

    n2 = check_axiom_suite(3, 3, trials=300, seed=13, norm_fn=order_dependent)[1]
    assert n2.failures > 0
    ce = n2.counterexample
    assert ce["permutation"][0] != 0
    rows = np.array(ce["tuple"])
    assert ce["base"] == order_dependent(rows)
    assert ce["permuted"] == order_dependent(rows[ce["permutation"]])
    rel = abs(ce["permuted"] - ce["base"]) / max(ce["base"], ce["permuted"])
    assert n2.worst_violation == rel >= 0.9e-10


def test_axiom_suite_loses_no_trial_at_a_block_edge():
    trials = harness.SUITE_BLOCK + 1
    assert [rows for _, rows in harness._blocks(trials, 3 * 2 * 3)] == [harness.SUITE_BLOCK, 1]
    n1 = check_axiom_suite(3, 2, trials=trials, seed=14, norm_fn=lambda vectors: 1.0)[0]
    assert n1.trials == n1.failures == trials


def test_tally_keeps_the_first_trial_at_the_worst_value():
    tally = harness._Tally()
    tally.add(np.array([0.5, 2.0, np.nan, 2.0]), np.array([False, True, True, True]), lambda i: {"at": i})
    tally.add(np.array([2.0, 1.0]), np.array([True, True]), lambda i: {"at": 10 + i})
    assert (tally.failures, tally.worst, tally.ce) == (5, 2.0, {"at": 1})
    tally.add(np.array([3.0]), np.array([False]), lambda i: {"at": 20 + i})
    assert (tally.failures, tally.worst, tally.ce) == (5, 3.0, {"at": 1})


def test_tally_names_a_failure_below_the_worst_passing_value():
    tally = harness._Tally()
    tally.add(np.array([2.0, 1.0, 1.0]), np.array([False, True, True]), lambda i: {"at": i})
    assert (tally.failures, tally.worst, tally.ce) == (2, 2.0, {"at": 1})


def test_contractive_ratio_counterexample_names_its_draw():
    # the sampled pairs are one standard_normal((trials, 2, dim)) * 1.5 from
    # [seed, 50]; the counterexample's trial index points at its pair
    sp = canonical_space(4, 3)
    iso = builtin_operator("rotation-scale", axis1=0, axis2=3, angle=1.0, factor=1.0)
    report = check_contractive_ratio(iso, sp, np.eye(4)[0], trials=300, seed=15, max_iter=50)
    ce = report.counterexample
    pairs = np.random.default_rng([15, 50]).standard_normal((300, 2, 4)) * 1.5
    assert ce["p"] == pairs[ce["trial"], 0].tolist()
    assert ce["q"] == pairs[ce["trial"], 1].tolist()
    assert ce["ratio"] == report.worst_violation


def _sampled_ratios_by_loop(op, space, trials, seed):
    """The ratio suite's sampled half one pair at a time: the reference."""
    rng = np.random.default_rng([seed, 50])
    ratios = []
    for _ in range(trials):
        p = rng.standard_normal(space.dim) * 1.5
        q = rng.standard_normal(space.dim) * 1.5
        den = space.seminorm_raw(p - q)
        if den > space.roundoff_floor(np.linalg.norm(p) + np.linalg.norm(q)):
            ratios.append(space.seminorm_raw(apply(op, p) - apply(op, q)) / den)
    return np.array(ratios)


def test_contractive_ratio_sampled_half_matches_the_loop(monkeypatch):
    # without the terminal window, the report is the sampled half alone
    monkeypatch.setattr(harness, "edelstein_solve", lambda *args: SimpleNamespace(ratios=[]))
    sat = builtin_operator("saturating")
    for seed in range(5):
        sp = canonical_space(3, 3)
        report = check_contractive_ratio(sat, sp, np.eye(3)[0], trials=1000, seed=seed)
        assert report.worst_violation == _sampled_ratios_by_loop(sat, sp, 1000, seed).max()
        assert report.failures == 0
    # an isometry: every ratio is 1 up to roundoff, and every one is flagged
    iso = builtin_operator("rotation-scale", axis1=0, axis2=3, angle=1.0, factor=1.0)
    sp = canonical_space(4, 3)
    ratios = _sampled_ratios_by_loop(iso, sp, 1000, 3)
    report = check_contractive_ratio(iso, sp, np.eye(4)[0], trials=1000, seed=3)
    assert report.failures == np.count_nonzero(ratios >= 1.0 - 1e-9) == ratios.size
    assert report.worst_violation == pytest.approx(ratios.max(), rel=1e-14)


def test_bounded_iff_continuous_passes_on_preservers():
    sp = canonical_space(4, 3)
    report = check_bounded_iff_continuous(sp, trials=25, seed=3)
    assert report.failures == 0
    assert report.counterexample is None


def test_bounded_iff_continuous_flags_kernel_violator():
    sp = canonical_space(3, 3)
    swap = affine_operator(np.eye(3)[[1, 0, 2]])
    rng = np.random.default_rng(1)
    ops = [random_kernel_preserving_operator(sp, rng) for _ in range(4)] + [swap]
    report = check_bounded_iff_continuous(sp, seed=2, ops=ops)
    assert report.trials == 5
    assert report.failures == 1
    ce = report.counterexample
    assert ce["operator_index"] == 4
    assert "kernel" in ce["reason"]
    # the image residuals of the constructed vanishing sequence stay put
    assert min(ce["image_residuals"][8:]) > 0.5


def test_bounded_sets_passes_and_flags():
    sp = canonical_space(4, 3)
    report = check_bounded_sets(sp, trials=25, seed=4)
    assert report.failures == 0
    swap = affine_operator(np.eye(3)[[1, 0, 2]])
    report2 = check_bounded_sets(canonical_space(3, 3), seed=4, ops=[swap])
    assert report2.failures == 1
    assert "unbounded" in report2.counterexample["reason"]


def test_bounded_sets_zero_operator_trivial():
    sp = canonical_space(3, 3)
    report = check_bounded_sets(sp, seed=8, ops=[affine_operator(np.zeros((3, 3)))])
    assert report.failures == 0


def test_bounded_iff_continuous_zero_operator_trivial():
    # the zero map has bound constant 0 and is continuous everywhere
    sp = canonical_space(3, 3)
    report = check_bounded_iff_continuous(sp, seed=8, ops=[affine_operator(np.zeros((3, 3)))])
    assert report.failures == 0


def _loop_operator(space, rng):
    """One default-family operator, its three blocks drawn by three calls:
    the reference for the stacked draw."""
    m, k = space.complement_dim, space.order - 1
    b11 = rng.standard_normal((m, m))
    b21 = rng.standard_normal((k, m))
    b22 = rng.standard_normal((k, k))
    qc, qa = space.complement_basis, space.anchor_basis
    return affine_operator(qc @ b11 @ qc.T + qa @ b21 @ qc.T + qa @ b22 @ qa.T)


def _loop_bounded_iff_continuous(space, trials, seed, ops=None):
    """The bounded <-> continuous suite one operator at a time through the
    public calls: the reference for the stacked suite."""
    rng = np.random.default_rng([seed, 10])
    if ops is None:
        ops = [_loop_operator(space, rng) for _ in range(trials)]
    failures, worst, ce = 0, 0.0, None
    for i, op in enumerate(ops):
        witness = kernel_violation_witness(op, space)
        if witness is not None:
            failures += 1
            u = space.complement_basis[:, 0]
            t_limit = apply(op, np.zeros(space.dim))
            residuals = [space.seminorm_raw(apply(op, witness + u / k) - t_limit) for k in range(1, 17)]
            if min(residuals[8:]) > worst:
                worst = min(residuals[8:])
                ce = {"operator_index": i,
                      "reason": "kernel not preserved: images of a vanishing sequence stay away from the image of its limit",
                      "witness": [float(v) for v in witness], "image_residuals": residuals}
            continue
        m = lipschitz_constant(op, space)
        eps = float(rng.uniform(0.2, 2.0))
        delta = eps / (m + 1.0)
        base = (np.zeros(space.dim), rng.standard_normal(space.dim))
        draw = space.draw_ball(rng, 64, delta)  # both base points share the probe draw
        for x0 in base:
            pts = space.ball_points(*draw, center=x0)
            imgs = space.seminorm_batch(apply_batch(op, pts) - apply(op, x0))
            reach = float(imgs.max())
            if reach >= eps:
                failures += 1
                if reach - eps > worst:
                    worst = reach - eps
                    ce = {"operator_index": i, "reason": "continuity probe failed", "x0": x0.tolist(),
                          "witness": pts[int(np.argmax(imgs))].tolist(), "epsilon": eps, "delta": delta,
                          "image_distance": reach}
    return harness.PropertyReport("bounded_iff_continuous", len(ops), failures, worst, ce, seed)


def _loop_bounded_sets(space, trials, seed, ops=None):
    """The bounded-sets suite one operator at a time: the reference."""
    rng = np.random.default_rng([seed, 20])
    if ops is None:
        ops = [_loop_operator(space, rng) for _ in range(trials)]
    failures, worst, ce = 0, 0.0, None
    for i, op in enumerate(ops):
        witness = kernel_violation_witness(op, space)
        if witness is not None:
            failures += 1
            img = space.seminorm_raw(apply(op, witness))
            if img > worst:
                worst = img
                ce = {"operator_index": i,
                      "reason": "kernel violator: zero semi-norm point with nonzero image, ratio unbounded",
                      "witness": witness.tolist(), "image_seminorm": img}
            continue
        m = lipschitz_constant(op, space)
        radius = float(rng.uniform(0.5, 3.0))
        pts = space.sample_ball(rng, 32, radius)
        imgs = space.seminorm_batch(apply_batch(op, pts))
        excess = float(np.max(imgs)) - (m * radius + 1e-9)
        if excess > 0:
            failures += 1
            if excess > worst:
                worst = excess
                j = int(np.argmax(imgs))
                ce = {"operator_index": i, "reason": "image escaped the bounded set", "point": pts[j].tolist(),
                      "image_seminorm": float(imgs[j]), "bound": m * radius}
    return harness.PropertyReport("bounded_sets", len(ops), failures, worst, ce, seed)


def _recorded_seminorms(monkeypatch, space):
    """Record every array ``space.seminorm_batch`` returns."""
    seen = []
    batch = space.seminorm_batch
    monkeypatch.setattr(space, "seminorm_batch", lambda pts: seen.append(batch(pts)) or seen[-1])
    return seen


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("dim,order", [(3, 2), (5, 3), (8, 4)])
def test_stacked_bounded_suites_match_the_public_per_operator_calls(monkeypatch, dim, order, seed):
    trials = 200
    ref = canonical_space(dim, order)  # the per-operator calls run here, the suites in sp
    rng = np.random.default_rng([seed, 10])
    stacked = harness._kernel_preserving_matrices(ref, rng, trials)
    loop_rng, public_rng = np.random.default_rng([seed, 10]), np.random.default_rng([seed, 10])
    ops = [_loop_operator(ref, loop_rng) for _ in range(trials)]
    public = [random_kernel_preserving_operator(ref, public_rng) for _ in range(trials)]
    assert np.array_equal(stacked, [op.matrix for op in ops])
    assert np.array_equal(stacked, [op.matrix for op in public])
    assert np.array_equal(operators._bound_constants(ref, stacked), [lipschitz_constant(op, ref) for op in ops])

    # the probe maxima: the suite's one stacked semi-norm call per block
    sp = canonical_space(dim, order)
    seen = _recorded_seminorms(monkeypatch, sp)
    assert check_bounded_iff_continuous(sp, trials=trials, seed=seed).failures == 0
    [imgs] = seen
    for i, op in enumerate(ops):
        eps = rng.uniform(0.2, 2.0)
        delta = eps / (lipschitz_constant(op, ref) + 1.0)
        base = (np.zeros(dim), rng.standard_normal(dim))
        draw = ref.draw_ball(rng, 64, delta)
        for b, x0 in enumerate(base):
            want = ref.seminorm_batch(apply_batch(op, ref.ball_points(*draw, center=x0)) - apply(op, x0))
            assert imgs.reshape(trials, 2, 64)[i, b].max() == want.max()

    # the bounded-sets images: one stacked semi-norm call per block
    rng = np.random.default_rng([seed, 20])
    ops = [_loop_operator(ref, rng) for _ in range(trials)]
    seen.clear()
    assert check_bounded_sets(sp, trials=trials, seed=seed).failures == 0
    [imgs] = seen
    for i, op in enumerate(ops):
        radius = rng.uniform(0.5, 3.0)
        want = ref.seminorm_batch(apply_batch(op, ref.sample_ball(rng, 32, radius)))
        assert np.array_equal(imgs.reshape(trials, 32)[i], want)


_SUITES_AND_LOOPS = ((check_bounded_iff_continuous, _loop_bounded_iff_continuous),
                     (check_bounded_sets, _loop_bounded_sets))


def _with_violator_at(index, space, rng, count):
    """``count`` default-family operators from ``rng`` with a kernel violator
    at ``index``: a shear moving e2 by 1e-4 e1, whose failure is small."""
    ops = [random_kernel_preserving_operator(space, rng) for _ in range(count - 1)]
    shear = np.eye(space.dim)
    shear[0, 1] = 1e-4
    return ops[:index] + [affine_operator(shear)] + ops[index:]


def _understate_m(monkeypatch):
    """Plant a defect: every exact bound constant M is reported as M / 4."""
    exact = operators._bound_constants
    quarter = lambda space, lin: exact(space, lin) / 4.0  # noqa: E731
    monkeypatch.setattr(operators, "_bound_constants", quarter)
    monkeypatch.setattr(harness, "_bound_constants", quarter)


@pytest.mark.parametrize("planted", [False, True])
def test_bounded_suites_keep_the_rng_aligned_after_a_kernel_violator(monkeypatch, planted):
    sp = canonical_space(3, 2)
    ops = _with_violator_at(2, sp, np.random.default_rng(29), 6)
    if planted:
        _understate_m(monkeypatch)
    for stacked, loop in _SUITES_AND_LOOPS:
        report = stacked(sp, seed=22, ops=ops)
        assert report.to_dict() == loop(sp, 6, 22, ops).to_dict()
        # planted, the worst failure comes after the violator's skipped draws
        assert report.counterexample["operator_index"] == (4 if planted else 2)
        assert (report.failures > 1) == planted


def test_bounded_suites_catch_an_understated_bound_constant(monkeypatch):
    sp = canonical_space(5, 3)
    ops = [random_kernel_preserving_operator(sp, np.random.default_rng(23)) for _ in range(40)]
    _understate_m(monkeypatch)
    for stacked, loop in _SUITES_AND_LOOPS:
        report = stacked(sp, seed=24, ops=ops)
        assert report.to_dict() == loop(sp, 40, 24, ops).to_dict()
        assert report.failures > 0
        assert report.counterexample["reason"] in ("continuity probe failed", "image escaped the bounded set")


@pytest.mark.parametrize("planted", [False, True])
def test_bounded_suites_do_not_depend_on_the_block_size(monkeypatch, planted):
    sp = canonical_space(4, 3)
    if planted:
        _understate_m(monkeypatch)
    full = [json.dumps(suite(sp, trials=30, seed=25).to_dict()) for suite, _ in _SUITES_AND_LOOPS]
    monkeypatch.setattr(harness, "SUITE_BLOCK", 7)
    assert [rows for _, rows in harness._blocks(30, 1)] == [7, 7, 7, 7, 2]
    # the kernel gate decides each block's anchor half once: one _leave_span pass a block
    leave_span, passes = operators._leave_span, []
    monkeypatch.setattr(operators, "_leave_span", lambda sp, rows, bounds: passes.append(rows.shape[0])
                        or leave_span(sp, rows, bounds))
    assert [json.dumps(suite(sp, trials=30, seed=25).to_dict()) for suite, _ in _SUITES_AND_LOOPS] == full
    assert passes == [7, 7, 7, 7, 2] * 2
    assert [json.dumps(loop(sp, 30, 25).to_dict()) for _, loop in _SUITES_AND_LOOPS] == full
    assert (json.loads(full[1])["failures"] > 0) == planted


def test_bounded_suites_need_an_affine_form():
    sp = canonical_space(3, 2)
    for suite in (check_bounded_iff_continuous, check_bounded_sets):
        with pytest.raises(ValueError, match="affine form, not 'saturating'"):
            suite(sp, ops=[affine_operator(np.eye(3)), builtin_operator("saturating")])


def test_product_ball_margins():
    sp = canonical_space(3, 3)
    zero = np.zeros(3)
    report = check_product_ball_lemma(sp, zero, zero, r1=1.0, trials=500, seed=21)
    assert report.failures == 0
    assert report.worst_violation <= 1e-9  # sum bound held: margin >= r1 - (r + r')


def test_product_ball_centers_trivially_inside():
    sp = canonical_space(3, 3)
    x0 = np.array([0.5, 1.0, -2.0])
    y0 = np.array([-1.0, 0.0, 3.0])
    report = check_product_ball_lemma(sp, x0, y0, r1=2.0, r=1e-9, r_prime=1e-9,
                                      trials=10, seed=1)
    assert report.failures == 0


def test_product_ball_boundary_stress():
    sp = canonical_space(3, 3)
    zero = np.zeros(3)
    eps = 1e-3
    report = check_product_ball_lemma(sp, zero, zero, r1=1.0, r=0.5 - eps, r_prime=0.5 - eps,
                                      trials=500, seed=33)
    assert report.failures == 0
    assert report.worst_violation == 0.0  # strict sum bound holds by construction


def test_product_ball_counterexample_is_the_first_worst_pair(monkeypatch):
    # volumes inflated 3x push pairs out of the product ball; the reported
    # pair must give the reported distance through product_nnorm
    real = harness.gram_volumes
    monkeypatch.setattr(harness, "gram_volumes", lambda tuples: 3.0 * real(tuples))
    sp = canonical_space(4, 3)
    x0 = np.array([0.5, 1.0, -2.0, 0.25])
    y0 = np.array([-1.0, 0.0, 3.0, 2.0])
    report = check_product_ball_lemma(sp, x0, y0, r1=1.0, trials=300, seed=16)
    assert 0 < report.failures < 300
    ce = report.counterexample
    left = gram_nnorm(np.vstack([np.array(ce["x"]) - x0, sp.anchors]))
    right = gram_nnorm(np.vstack([np.array(ce["y"]) - y0, sp.anchors]))
    assert ce["product_distance"] == 3.0 * left + 3.0 * right
    pairs = [ProductPoint(np.array(ce["x"]) - x0, np.array(ce["y"]) - y0)] + [ProductPoint(b, b) for b in sp.anchors]
    assert product_nnorm(pairs) == left + right
    assert report.worst_violation == ce["product_distance"] - 0.8


def test_product_ball_rejects_weak_radii():
    sp = canonical_space(3, 3)
    zero = np.zeros(3)
    with pytest.raises(ValueError):
        check_product_ball_lemma(sp, zero, zero, r1=1.0, r=0.6, r_prime=0.6, trials=10, seed=0)


@pytest.mark.parametrize("center", [np.zeros(2), 0.0, np.zeros((1, 3))])
def test_product_ball_rejects_a_center_of_the_wrong_shape(center):
    # a length-2 x0 on dim 3 ended in numpy's broadcast error, and a scalar
    # was silently taken as the centre
    sp = canonical_space(3, 2)
    for x0, y0 in ((center, np.zeros(3)), (np.zeros(3), center)):
        with pytest.raises(ValueError, match="dimension mismatch|1-D vector"):
            check_product_ball_lemma(sp, x0, y0, r1=1.0, trials=10, seed=0)


def test_banach_reduction_single_problem():
    sp = canonical_space(3, 3)
    op = affine_operator(0.5 * np.eye(3), offset=np.eye(3)[0])
    report = check_banach_reduction(op, sp, np.zeros(3), alpha=0.5, seed=0)
    assert report.failures == 0
    assert report.worst_violation == 0.0


@pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
def test_banach_reduction_from_a_far_start(s, monkeypatch):
    # the reference's residuals and the exact-point slack were plain lengths:
    # at |x0| past ~1.3e154 res0 was inf, which left the reference no step
    # to take, and the slack was inf, so the exact-point check could not fail
    sp = canonical_space(3, 2)
    op = affine_operator(0.5 * np.eye(3), offset=np.eye(3)[0])
    report = check_banach_reduction(op, sp, [s, 0.0, 0.0], alpha=0.5, seed=0)
    assert report.failures == 0 and report.worst_violation == 0.0
    make_report = solvers._report

    def halved(*args):
        report = make_report(*args)
        report.certified_error *= 0.5
        return report

    monkeypatch.setattr(solvers, "_report", halved)
    report = check_banach_reduction(op, sp, [s, 0.0, 0.0], alpha=0.5, seed=0)
    assert report.failures == 1
    assert any("below the exact error" in p for p in report.counterexample["problems"])


def test_banach_reduction_constant_map():
    sp = canonical_space(3, 3)
    op = builtin_operator("constant", value=[1.0, 2.0, 0.0])
    report = check_banach_reduction(op, sp, np.zeros(3), alpha=0.5, seed=0)
    assert report.failures == 0


def test_banach_reduction_slow_contraction():
    sp = canonical_space(3, 3)
    op = affine_operator(0.99 * np.eye(3), offset=np.eye(3)[0])
    report = check_banach_reduction(op, sp, np.zeros(3), alpha=0.99, seed=0)
    assert report.failures == 0


def test_banach_reduction_fixed_point_modulo_the_anchor_span():
    # the rotation fixes the anchor e2, so I - L is singular; the fixed
    # point is unique only modulo the span, and the oracle must use that
    sp = canonical_space(3, 2)
    op = builtin_operator("rotation-scale", axis1=0, axis2=2, angle=0.7, factor=0.8)
    report = check_banach_reduction(op, sp, np.array([1.0, 2.0, 0.5]), alpha=0.8, seed=0)
    assert report.failures == 0
    assert report.worst_violation == 0.0


def test_reduction_suite_family():
    report = reduction_suite(3, 3, trials=20, seed=17)
    assert report.trials == 20
    assert report.failures == 0
    assert report.worst_violation == 0.0


def test_reduction_rows_name_iterates_that_leave_the_reference():
    # the reference steps 0.5 x + c with its first coordinate moved by 1e-6:
    # every reference iterate after x0 is 1e-6 to 2e-6 off the solver's
    sp = canonical_space(3, 2)
    alpha, offset, x0 = np.array([0.5]), np.array([[1.0, -2.0, 0.5]]), np.array([[0.3, -1.0, 2.0]])
    op = affine_operator(0.5 * np.eye(3), offset=offset[0])
    honest = harness._reduction_rows(sp, [op], lambda x: 0.5 * x + offset, alpha, x0, offset / 0.5)
    assert honest == [(0.0, [])]
    planted = lambda x: 0.5 * x + offset + [1e-6, 0.0, 0.0]  # noqa: E731
    [(worst, problems)] = harness._reduction_rows(sp, [op], planted, alpha, x0, offset / 0.5)
    [gap] = [float(p.split()[-1]) for p in problems if p.startswith("iterates diverge by ")]
    assert 1e-6 <= gap <= 2e-6 and worst >= gap


def test_banach_reference_of_many_rows_equals_its_sub_blocks():
    # the reduction suite iterates all of d = 3 in one lock-step block; each
    # row is iterated on its own, so the block gives every row the iterates,
    # bounds and stop step of any smaller block holding it, bit for bit
    space = canonical_space(3, 2)
    rng = np.random.default_rng([1, 40])
    alpha = rng.uniform(0.1, 0.9, 1000)
    offset, x0 = rng.standard_normal((1000, 3)), rng.standard_normal((1000, 3))

    def reference(rows):
        a, c = alpha[rows], offset[rows]
        return harness._banach_reference(space, lambda x: x * a[:, None] + c, a, x0[rows])

    whole = reference(slice(0, 1000))
    for start in range(0, 1000, 128):
        block = slice(start, start + 128)
        part = reference(block)
        steps = len(part.bounds)
        assert np.array_equal(part.stop, whole.stop[block]) and np.array_equal(part.cover, whole.cover[block])
        assert np.array_equal(part.iterates, whole.iterates[:steps + 1, block])
        assert np.array_equal(part.bounds, whole.bounds[:steps, block])
    assert len(whole.bounds) == whole.stop.max()


def test_reduction_suite_report_does_not_depend_on_the_block_size(monkeypatch):
    # with every engine bound halved each trial fails, so the reports hold
    # a worst value and a counterexample, found in one block or in five
    tail_sum = solvers.ASeq.tail_sum
    monkeypatch.setattr(solvers.ASeq, "tail_sum", lambda self, q: 0.5 * tail_sum(self, q))
    reports = [reduction_suite(3, 2, trials=300, seed=3)]
    monkeypatch.setattr(harness, "REFERENCE_BLOCK_ELEMENTS", 3 * 64)
    reports.append(reduction_suite(3, 2, trials=300, seed=3))
    assert reports[0].failures > 0 and reports[0].counterexample["trial"] >= 64
    assert reports[0] == reports[1]


def test_reduction_suite_rejects_an_empty_family():
    with pytest.raises(ValueError):
        reduction_suite(3, 2, trials=0)


_TRIAL_SUITES = {
    "axioms": lambda **kw: check_axiom_suite(3, 2, **kw),
    "bounded": lambda **kw: check_bounded_iff_continuous(canonical_space(3, 2), **kw),
    "bounded-sets": lambda **kw: check_bounded_sets(canonical_space(3, 2), **kw),
    "product-ball": lambda **kw: check_product_ball_lemma(canonical_space(3, 2), np.zeros(3), np.zeros(3), 1.0, **kw),
    "reduction": lambda **kw: reduction_suite(3, 2, **kw),
    "ratio": lambda **kw: check_contractive_ratio(builtin_operator("saturating"), canonical_space(3, 3),
                                                  np.eye(3)[0], **kw),
}


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("suite", sorted(_TRIAL_SUITES))
def test_every_suite_refuses_a_trial_count_below_1(suite, trials):
    # product-ball and ratio returned failures=0 for 0 and -5 trials, the
    # bounded suites passed at 0 and hit numpy's "negative dimensions" at -5
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        _TRIAL_SUITES[suite](trials=trials, seed=1)
    if suite.startswith("bounded"):
        with pytest.raises(ValueError, match="ops must not be empty"):
            _TRIAL_SUITES[suite](ops=[], trials=200)


_SEEDED_SUITES = {
    **_TRIAL_SUITES,
    "banach-reduction": lambda trials, seed: check_banach_reduction(
        affine_operator(0.5 * np.eye(3), offset=np.eye(3)[0]), canonical_space(3, 2), np.zeros(3), 0.5, seed=seed),
}


@pytest.mark.parametrize("suite", sorted(_SEEDED_SUITES))
def test_every_suite_takes_a_nonnegative_integer_seed(suite):
    # a bool ran seed 1 and a string ran as given, each reported as given;
    # a numpy integer ran, but its report did not serialize
    run = _SEEDED_SUITES[suite]
    for seed in (True, "3", 1.5, -1):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            run(trials=20, seed=seed)

    def dumped(seed):
        reports = run(trials=20, seed=seed)
        return json.dumps([r.to_dict() for r in (reports if isinstance(reports, list) else [reports])])
    assert dumped(np.int64(3)) == dumped(3)
    assert all(r["seed"] == 3 for r in json.loads(dumped(np.int64(3))))


def test_contractive_ratio_refuses_a_wrong_length_x0_before_it_draws(monkeypatch):
    sampled = []
    monkeypatch.setattr(harness, "apply_batch", lambda op, pts: sampled.append(pts) or apply_batch(op, pts))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_contractive_ratio(builtin_operator("saturating"), canonical_space(3, 3), np.zeros(2), trials=20)
    assert sampled == []


def test_reduction_suite_catches_a_halved_tail(monkeypatch):
    # every bound the engine reports is half the truth; picard and summable
    # share the engine, so comparing the two could not see it, but Banach's
    # closed-form bounds do
    tail_sum = solvers.ASeq.tail_sum
    monkeypatch.setattr(solvers.ASeq, "tail_sum", lambda self, q: 0.5 * tail_sum(self, q))
    report = reduction_suite(3, 2, trials=50, seed=7)
    assert report.failures > 0
    assert any("bounds differ" in p for p in report.counterexample["problems"])


def test_reduction_suite_checks_certificates_against_the_exact_fixed_point(monkeypatch):
    # the trace and the iterates stay honest and only the returned
    # certificate is halved: for alpha * I + c the a-posteriori bound is
    # the exact error, so the exact-fixed-point oracle flags every trial
    make_report = solvers._report

    def halved(*args):
        report = make_report(*args)
        report.certified_error *= 0.5
        return report

    monkeypatch.setattr(solvers, "_report", halved)
    report = reduction_suite(3, 2, trials=50, seed=7)
    assert report.failures == 50
    problems = report.counterexample["problems"]
    assert len(problems) == 1 and "below the exact error" in problems[0]


@pytest.mark.parametrize("shaved,perturbed", [(0, 1), (1, 0)])
def test_reduction_suite_names_a_tiny_undershoot_beside_a_larger_passing_gap(monkeypatch, shaved, perturbed):
    # one trial's certificate undershoots the exact error by ~1e-13, which
    # fails it with a discrepancy below the 5e-13 iterate gap that another
    # trial of its block passes with; in either order the failing trial is
    # the counterexample, although it never holds the worst value
    make_report = solvers._report
    calls = []

    def planted(*args):
        report = make_report(*args)
        if len(calls) == shaved:
            report.certified_error *= 1.0 - 1e-3
        if len(calls) == perturbed:
            report.iterates[0] = report.iterates[0] + 5e-13
        calls.append(report)
        return report

    monkeypatch.setattr(solvers, "_report", planted)
    report = reduction_suite(3, 2, trials=4, seed=7)
    assert report.failures == 1
    assert report.worst_violation == pytest.approx(5e-13, rel=1e-3)
    assert report.counterexample["trial"] == shaved
    problems = report.counterexample["problems"]
    assert len(problems) == 1 and "below the exact error" in problems[0]


def test_contractive_ratio_saturating_passes():
    sp = canonical_space(3, 3)
    report = check_contractive_ratio(builtin_operator("saturating"), sp,
                                     np.array([1.0, 0.0, 0.0]), trials=400, seed=9)
    assert report.failures == 0
    assert report.worst_violation < 1.0


def test_contractive_ratio_strict_contraction():
    sp = canonical_space(3, 3)
    report = check_contractive_ratio(builtin_operator("scale", factor=0.5), sp,
                                     np.array([1.0, 0.0, 0.0]), trials=200, seed=9)
    assert report.failures == 0
    assert report.worst_violation == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("s", [1.0, 1e-7])
def test_contractive_ratio_flags_isometry(s):
    # anchors s e2, s e3: every semi-norm scales by s^2, so tol does too,
    # and ratios of semi-norms must not notice the scale
    sp = AnchoredSpace(dim=4, order=3, anchors=s * np.eye(4)[1:3])
    iso = builtin_operator("rotation-scale", axis1=0, axis2=3, angle=1.0, factor=1.0)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    report = check_contractive_ratio(iso, sp, x0, trials=200, seed=9, tol=1e-8 * s ** 2, max_iter=150)
    assert report.failures > 0
    assert report.worst_violation >= 1.0 - 1e-9
    assert report.counterexample is not None
    cfg = SolverConfig(regime="edelstein", tol=1e-8 * s ** 2, max_iter=50)
    assert len(edelstein_solve(iso, sp, x0, cfg).ratios) == 49


def test_suite_reports_are_reproducible_across_suites():
    sp = canonical_space(4, 3)
    zero = np.zeros(4)
    for build in (
        lambda s: check_bounded_iff_continuous(sp, trials=10, seed=s),
        lambda s: check_bounded_sets(sp, trials=10, seed=s),
        lambda s: check_product_ball_lemma(sp, zero, zero, 1.0, trials=50, seed=s),
        lambda s: reduction_suite(3, 3, trials=5, seed=s),
        lambda s: check_contractive_ratio(builtin_operator("saturating"), sp,
                                          np.array([1.0, 0, 0, 0]), trials=50, seed=s,
                                          max_iter=100),
    ):
        assert build(7) == build(7)


def test_bounded_suites_flag_a_kernel_violator_with_a_small_image():
    # A b = b + 1e-7 e1 for the anchor b = 1e-3 e2: outside the anchor span,
    # with a semi-norm of only 1e-10; both suites must flag it and name b
    sp = AnchoredSpace(dim=3, order=2, anchors=[[0.0, 1e-3, 0.0]])
    a = np.eye(3)
    a[0, 1] = 1e-4
    op = affine_operator(a)
    for suite in (check_bounded_iff_continuous, check_bounded_sets):
        report = suite(sp, ops=[op])
        assert report.failures == 1
        assert report.worst_violation > 0.0
        assert report.counterexample["witness"] == [0.0, 1e-3, 0.0]


@pytest.mark.parametrize("call, message", [
    (lambda: check_axiom_suite(3, 1, trials=1), "need 2 <= order <= dim"),
    (lambda: check_axiom_suite(3, 4, trials=1), "need 2 <= order <= dim"),
    (lambda: check_product_ball_lemma(canonical_space(3, 2), np.zeros(3), np.zeros(3), r1=1.0, r=0.0, trials=1),
     "component radii must be positive"),
    (lambda: check_product_ball_lemma(canonical_space(3, 2), np.zeros(3), np.zeros(3), r1=1.0, r_prime=-0.1,
                                      trials=1),
     "component radii must be positive"),
], ids=["order-1", "order-above-dim", "radius-0", "radius-negative"])
def test_harness_refuses_bad_suite_arguments_with_its_own_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
