"""Attack engine: direction search, stepping, stopping rules, baseline."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semipoison.attack as attack_module
from semipoison.attack import (
    AttackConfig,
    _axis_rows,
    _feasible_mask,
    _ObjectiveDerivative,
    _random_rows,
    AttackTrace,
    RANDOM_DIRS,
    StepRecord,
    convergence_check,
    feasible_directions,
    objective,
    project_to_feasible,
    run_attack,
    run_gradient_baseline,
    write_summary_csv,
    write_trace_jsonl,
)
from semipoison.data import normalize, synth_lane_change
from semipoison.errors import (
    DimensionMismatch,
    EmptyDirectionSet,
    SemipoisonError,
)
from semipoison.qp import classify_active, solve_qp
from semipoison.sensitivity import semi_derivative
from semipoison.victims import (
    SvmModel,
    _AffineQpFamily,
    bound_tracking_model,
    generic_parametric_qp,
    kink_projection_model,
    solve_victim,
    svm_victim,
)

from _oracles import axis_directions, dense_feasible_mask, dense_kkt_gradient


def kink_config(**overrides):
    base = dict(target=np.array([1.0]), delta=2.0, curvature_bound=2.0, step_mode="fixed-L")
    base.update(overrides)
    return AttackConfig(**base)


def unconstrained_fixture(seed=5):
    """Strictly convex QP with no constraints; the solution map is linear."""
    model = generic_parametric_qp(seed, dim_var=3, dim_data=2, n_ineq=0, n_eq=0)
    H = model.assemble(np.zeros(2)).H
    cross = model.cross_hessian(np.zeros(2), np.zeros(3), np.zeros(0))
    return model, H, cross


def separable_svm(n=12, seed=3, C=10.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    lane = np.column_stack([rng.normal(-0.8, 0.15, half), rng.normal(18.0, 4.0, half)])
    keep = np.column_stack([rng.normal(0.0, 0.15, half), rng.normal(45.0, 4.0, half)])
    feats = np.vstack([lane, keep])
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    labels = np.concatenate([np.ones(half), -np.ones(half)])
    return svm_victim(SvmModel(feats, labels, C=C)), feats.ravel()


def svm_config(model, **overrides):
    selector = np.zeros((1, model.dim_var))
    selector[0, 0] = 1.0
    selector[0, 1] = -1.0
    base = dict(
        target=np.array([0.0]),
        delta=3.0,
        selector=selector,
        point_dim=2,
        curvature_bound=20.0,
        max_iters=120,
        tol_target=1e-10,
        tol_improve=1e-14,
        seed=0,
    )
    base.update(overrides)
    return AttackConfig(**base)


# ---------------------------------------------------------------------------
# objective and configuration
# ---------------------------------------------------------------------------


def test_objective_attained_target_is_zero():
    assert objective(np.array([2.0, -1.0]), np.array([2.0, -1.0])) == 0.0


def test_objective_weight_gap_example():
    # selected output w1 - w2 for weights (-7.64, -13.34), target gap zero
    assert objective(np.array([-7.64 + 13.34]), np.array([0.0])) == pytest.approx(32.49)


def test_objective_three_four_five():
    assert objective(np.array([3.0, 4.0]), np.zeros(2)) == 25.0


def test_objective_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        objective(np.ones(3), np.ones(2))


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(target=np.zeros(1), delta=-1.0)
    with pytest.raises(ValueError):
        AttackConfig(target=np.zeros(1), delta=1.0, curvature_bound=0.0)
    with pytest.raises(ValueError):
        AttackConfig(target=np.zeros(1), delta=1.0, step_mode="newton")
    with pytest.raises(ValueError):
        AttackConfig(target=np.zeros(1), delta=1.0, box_lo=np.array([0.0]))
    with pytest.raises(ValueError):
        AttackConfig(
            target=np.zeros(1), delta=1.0, box_lo=np.array([2.0]), box_hi=np.array([1.0])
        )
    with pytest.raises(DimensionMismatch):
        AttackConfig(target=np.zeros(2), delta=1.0, selector=np.eye(3))


def test_config_rejects_non_finite_target_and_nan_box():
    with pytest.raises(ValueError, match="finite"):
        AttackConfig(target=np.array([np.nan]), delta=1.0)
    with pytest.raises(ValueError, match="finite"):
        AttackConfig(target=np.zeros(1), delta=1.0, selector=np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="NaN"):
        AttackConfig(target=np.zeros(1), delta=1.0, box_lo=[np.nan], box_hi=[1.0])
    with pytest.raises(ValueError, match="tol_target and tol_improve must be finite"):
        AttackConfig(target=np.zeros(1), delta=1.0, tol_target=np.nan)
    with pytest.raises(ValueError, match="tol_target and tol_improve must be finite"):
        AttackConfig(target=np.zeros(1), delta=1.0, tol_improve=-np.inf)
    cfg = AttackConfig(target=np.zeros(1), delta=1.0, box_lo=[-np.inf], box_hi=[np.inf])
    assert np.isinf(cfg.box_lo).all() and np.isinf(cfg.box_hi).all()


def test_selector_defaults_to_identity():
    cfg = AttackConfig(target=np.zeros(3), delta=1.0)
    assert np.array_equal(cfg.resolve_selector(3), np.eye(3))
    with pytest.raises(DimensionMismatch):
        cfg.resolve_selector(4)


# ---------------------------------------------------------------------------
# feasibility: directions and projection
# ---------------------------------------------------------------------------


def test_interior_point_keeps_all_candidates():
    cfg = AttackConfig(target=np.zeros(1), delta=1.0, point_dim=2)
    dirs = feasible_directions(np.zeros(4), 0, cfg)
    assert dirs.shape == (2 * 2 + RANDOM_DIRS, 2)  # rows in point 0's own coordinates
    for d in dirs:
        assert np.linalg.norm(d) == pytest.approx(1.0)


def test_ball_boundary_removes_outward_radial():
    cfg = AttackConfig(target=np.zeros(1), delta=0.5, point_dim=1)
    x_base = np.zeros(2)
    x = np.array([0.5, 0.0])  # on the boundary along +e0
    dirs = feasible_directions(x, 0, cfg, x_base=x_base)
    # in 1-D every random unit row is +1 or -1, and only -1 points inward
    assert len(dirs) < 2 + RANDOM_DIRS
    assert np.array_equal(dirs, np.full((len(dirs), 1), -1.0))
    # the other point moves tangentially, so every candidate survives
    assert len(feasible_directions(x, 1, cfg, x_base=x_base)) == 2 + RANDOM_DIRS


def test_box_face_removes_outgoing_candidates():
    cfg = AttackConfig(
        target=np.zeros(1),
        delta=10.0,
        point_dim=2,
        box_lo=np.array([-1.0, -1.0]),
        box_hi=np.array([1.0, 1.0]),
    )
    x = np.array([1.0, 0.2])  # first coordinate at the upper face
    dirs = feasible_directions(x, 0, cfg, x_base=np.zeros(2))
    # the axes come first: all but +e0 survive, then the random rows that stay inside
    assert np.array_equal(dirs[:3], [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert 3 < len(dirs) < 3 + RANDOM_DIRS
    assert (dirs[:, 0] <= 1e-3).all()  # a 1e-9 probe step leaves the face by at most 1e-12


def test_zero_budget_empties_every_direction():
    cfg = AttackConfig(target=np.zeros(1), delta=0.0, point_dim=1)
    with pytest.raises(EmptyDirectionSet):
        feasible_directions(np.zeros(2), 0, cfg)


def test_degenerate_box_axis_empties_the_point():
    cfg = AttackConfig(
        target=np.zeros(1),
        delta=1.0,
        point_dim=1,
        box_lo=np.array([0.3]),
        box_hi=np.array([0.3]),
    )
    with pytest.raises(EmptyDirectionSet):
        feasible_directions(np.array([0.3, 0.3]), 0, cfg, x_base=np.array([0.3, 0.3]))


def test_feasible_directions_index_validation():
    cfg = AttackConfig(target=np.zeros(1), delta=1.0, point_dim=2)
    with pytest.raises(DimensionMismatch):
        feasible_directions(np.zeros(4), 2, cfg)
    with pytest.raises(DimensionMismatch):
        feasible_directions(np.zeros(3), 0, cfg)


def test_projection_respects_ball_and_box_exactly():
    rng = np.random.default_rng(0)
    lo = np.full(6, -0.8)
    hi = np.full(6, 1.1)
    x_base = rng.uniform(-0.5, 0.5, 6)
    for _ in range(200):
        z = project_to_feasible(rng.normal(0.0, 3.0, 6), x_base, 0.9, lo, hi)
        assert float(np.linalg.norm(z - x_base)) <= 0.9
        assert np.all(z >= lo) and np.all(z <= hi)


def test_projection_identity_inside():
    x = np.array([0.1, -0.2])
    out = project_to_feasible(x, np.zeros(2), 1.0)
    assert np.array_equal(out, x)


def test_projection_of_an_overflowing_distance_lands_on_the_ball():
    # the sum of squares overflows; the point goes onto the ball along the
    # same ray, not back to the base point
    x_base = np.array([1.0, 0.0, 2.0])
    z = project_to_feasible(x_base + [1e300, -1e300, 0.0], x_base, 2.0)
    assert float(np.linalg.norm(z - x_base)) <= 2.0
    np.testing.assert_allclose(z - x_base, [np.sqrt(2.0), -np.sqrt(2.0), 0.0], rtol=1e-12)


def test_point_local_mask_matches_dense_reference():
    """Random data in a box with coordinates on its faces, half of it on the ball."""
    rng = np.random.default_rng(0)
    kept = rejected = 0
    for case in range(300):
        pd, n_points = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        lo, hi = rng.uniform(-2.0, -0.5, pd), rng.uniform(0.5, 2.0, pd)
        lo_t, hi_t = np.tile(lo, n_points), np.tile(hi, n_points)
        x_base = rng.uniform(lo, hi, (n_points, pd)).ravel()
        x = rng.uniform(lo, hi, (n_points, pd)).ravel()
        faces = rng.random(x.size) < 0.3
        x[faces] = np.where(rng.random(x.size) < 0.5, lo_t, hi_t)[faces]
        dist = float(np.linalg.norm(x - x_base))
        delta = dist if case % 2 else dist * rng.uniform(0.5, 1.5)  # odd cases on the ball
        boxed = case % 3 != 0
        cfg = AttackConfig(
            target=np.zeros(1), delta=delta, point_dim=pd,
            box_lo=lo if boxed else None, box_hi=hi if boxed else None,
        )
        V = np.vstack([_axis_rows(pd), _random_rows(pd, 6, rng)])
        owner = np.repeat(np.arange(n_points), len(V))
        D = np.zeros((owner.size, x.size))
        for i, p in enumerate(owner):
            D[i, p * pd:(p + 1) * pd] = V[i % len(V)]
        want = dense_feasible_mask(
            x, D, x_base, delta, lo_t if boxed else None, hi_t if boxed else None
        )
        got = _feasible_mask(x, x_base, owner, np.tile(V, (n_points, 1)), cfg)
        assert np.array_equal(got, want)
        for p in range(n_points):  # one point at a time, as feasible_directions asks
            assert np.array_equal(_feasible_mask(x, x_base, p, V, cfg), want[owner == p])
        kept += int(want.sum())
        rejected += int((~want).sum())
    assert kept > 1000 and rejected > 1000


def test_projection_with_a_per_point_box_equals_the_tiled_box():
    rng = np.random.default_rng(1)
    for _ in range(300):
        pd, n_points = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        lo, hi = rng.uniform(-1.5, -0.2, pd), rng.uniform(0.2, 1.5, pd)
        x_base = rng.uniform(lo, hi, (n_points, pd)).ravel()
        z = rng.normal(0.0, 2.0, x_base.size)
        delta = rng.uniform(0.1, 2.0)
        local = project_to_feasible(z, x_base, delta, lo, hi)
        tiled = project_to_feasible(z, x_base, delta, np.tile(lo, n_points), np.tile(hi, n_points))
        assert local.tobytes() == tiled.tobytes()
        points = local.reshape(n_points, pd)
        assert np.all(points >= lo) and np.all(points <= hi)
        assert float(np.linalg.norm(local - x_base)) <= delta


# ---------------------------------------------------------------------------
# directional derivative of the objective
# ---------------------------------------------------------------------------


def kink_derivatives(x, target, V):
    """Objective derivatives of the 1-D kink fixture at x along the rows of V."""
    model = kink_projection_model()
    sol = solve_victim(model, x)
    value = objective(sol.y, target)
    vals, _ = _ObjectiveDerivative(model, x, sol, np.eye(1), target, value).dG(0, V)
    return vals


def test_kink_objective_derivatives():
    vals = kink_derivatives(np.zeros(1), np.array([1.0]), np.array([[1.0], [-1.0]]))
    assert vals[0] == pytest.approx(-2.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def test_attained_target_has_zero_derivative():
    vals = kink_derivatives(np.array([0.7]), np.array([0.7]), np.array([[1.0], [-1.0], [0.3]]))
    assert np.abs(vals).max() <= 1e-9


# ---------------------------------------------------------------------------
# first rounds
# ---------------------------------------------------------------------------


def first_record(run, x, model, cfg):
    """The record of the first round of run from x."""
    return run(x, model, replace(cfg, max_iters=1)).records[0]


def test_kink_first_step_is_curvature_scaled():
    model = kink_projection_model()
    cfg = kink_config(max_iters=1)  # curvature bound 2, so the step is -(-2)/2 = 1
    trace = run_attack(np.zeros(1), model, cfg)
    record = trace.records[0]
    assert record.direction[0] == 1.0
    assert record.step == pytest.approx(1.0)
    assert trace.x_final[0] == pytest.approx(1.0)
    assert record.objective_value == pytest.approx(0.0, abs=1e-12)


def test_step_at_optimum_stalls_with_zero_certificate():
    model = kink_projection_model()
    x = np.array([0.6])
    sol = solve_victim(model, x)
    # a negative tol_target lets a round run at G = 0
    cfg = kink_config(target=np.array([sol.y[0]]), tol_target=-1.0)
    trace = run_attack(x, model, cfg)
    assert trace.reason == "stalled" and trace.records == []
    assert trace.stall_certificate == 0.0


def test_gradient_baseline_step_matches_attack_direction_unconstrained():
    model, _, _ = unconstrained_fixture()
    x = np.array([0.3, -0.2])
    target = solve_victim(model, x + 0.4).y
    cfg = AttackConfig(
        target=target, delta=10.0, point_dim=2, curvature_bound=5.0, step_mode="fixed-L"
    )
    rec_semi = first_record(run_attack, x, model, cfg)
    rec_grad = first_record(run_gradient_baseline, x, model, cfg)
    assert np.abs(rec_semi.direction - rec_grad.direction).max() < 1e-8
    assert rec_semi.derivative == pytest.approx(rec_grad.derivative, rel=1e-8)


def test_gradient_baseline_stalls_when_data_only_enters_constraints():
    model = bound_tracking_model()
    cfg = AttackConfig(target=np.array([0.5]), delta=2.0, curvature_bound=2.0)
    trace = run_gradient_baseline(np.zeros(1), model, cfg)
    assert trace.reason == "stalled" and trace.records == []
    assert trace.stall_certificate == 0.0


def test_semi_derivative_attack_descends_where_baseline_stalls():
    model = bound_tracking_model()
    cfg = AttackConfig(target=np.array([0.5]), delta=2.0, curvature_bound=2.0, max_iters=50)
    trace = run_attack(np.zeros(1), model, cfg)
    baseline = run_gradient_baseline(np.zeros(1), model, cfg)
    assert trace.final_objective <= 1e-9
    assert baseline.reason == "stalled"
    assert baseline.final_objective == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_kink_attack_reaches_attainable_target():
    model = kink_projection_model()
    trace = run_attack(np.zeros(1), model, kink_config())
    assert trace.reason == "optimal"
    assert trace.final_objective <= 1e-6
    assert abs(solve_victim(model, trace.x_final).y[0] - 1.0) < 1e-3
    hist = trace.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_pristine_target_terminates_immediately():
    model = kink_projection_model()
    y0 = solve_victim(model, np.array([0.4])).y
    cfg = kink_config(target=y0)
    trace = run_attack(np.array([0.4]), model, cfg)
    assert trace.reason == "optimal"
    assert trace.records == []
    assert trace.initial_objective == 0.0


def test_zero_budget_terminates_as_budget():
    model = kink_projection_model()
    trace = run_attack(np.zeros(1), model, kink_config(delta=0.0))
    assert trace.reason == "budget"
    assert trace.records == []


def test_improvement_threshold_reports_stalled():
    model = kink_projection_model()
    cfg = kink_config(step_mode="backtracking", curvature_bound=50.0, tol_improve=1e9)
    trace = run_attack(np.zeros(1), model, cfg)
    assert trace.reason == "stalled"
    assert len(trace.records) == 1


def test_max_iters_is_reported():
    model = kink_projection_model()
    cfg = kink_config(
        step_mode="backtracking", curvature_bound=1e4, max_iters=3, tol_improve=0.0
    )
    trace = run_attack(np.zeros(1), model, cfg)
    assert trace.reason == "max_iters"
    assert len(trace.records) == 3


def test_run_attack_input_validation():
    model = kink_projection_model()
    with pytest.raises(DimensionMismatch):
        run_attack(np.zeros(1), model, kink_config(point_dim=2))
    cfg = kink_config(box_lo=np.array([1.0]), box_hi=np.array([2.0]))
    with pytest.raises(ValueError):
        run_attack(np.zeros(1), model, cfg)  # pristine data below the box


def test_budget_and_box_hold_along_constrained_run():
    model = generic_parametric_qp(11, dim_var=4, dim_data=3, n_ineq=3, n_eq=0)
    x0 = np.array([0.05, -0.1, 0.08])
    target = solve_victim(model, x0 + 0.3).y
    cfg = AttackConfig(
        target=target,
        delta=0.12,
        point_dim=1,
        curvature_bound=5.0,
        max_iters=60,
        box_lo=np.array([-0.15]),
        box_hi=np.array([0.2]),
        tol_improve=0.0,
        seed=2,
    )
    trace = run_attack(x0, model, cfg)
    assert trace.records, "expected at least one accepted step"
    for record in trace.records:
        assert record.distance <= 0.12 * (1 + 1e-12)
    assert float(np.linalg.norm(trace.x_final - x0)) <= 0.12 * (1 + 1e-12)
    assert np.all(trace.x_final >= -0.15) and np.all(trace.x_final <= 0.2)
    hist = trace.objective_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_run_attack_is_deterministic():
    model, x0 = separable_svm(n=8, seed=1)
    cfg = svm_config(model, max_iters=15)
    t1 = run_attack(x0, model, cfg)
    t2 = run_attack(x0, model, cfg)
    assert t1.reason == t2.reason
    assert np.array_equal(t1.x_final, t2.x_final)
    assert [r.point for r in t1.records] == [r.point for r in t2.records]
    assert [r.objective_value for r in t1.records] == [r.objective_value for r in t2.records]


def _attack_outcome(x_bar, model, cfg):
    """(trace, None), or (None, the type of the SemipoisonError raised); nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return run_attack(x_bar, model, cfg), None
        except SemipoisonError as exc:
            return None, type(exc)


# log10 of C and of ridge_eps: often moderate, sometimes anywhere up to 1e300
LOG_SCALE = st.one_of(st.floats(-8.0, 8.0), st.floats(-12.0, 300.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@example(  # |g|^2 overflowed in steepest_direction: a RuntimeWarning, then a zero row
    seed=1, n=3, kind="gauss", log_c=171.0, log_eps=0.25, delta=1.0,
    boxed=False, pinned=0.0, step_mode="backtracking",
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    kind=st.sampled_from(["gauss", "dup", "collinear", "one-class", "flipped"]),
    log_c=LOG_SCALE,
    log_eps=LOG_SCALE,
    delta=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 3.0)),
    boxed=st.booleans(),
    pinned=st.floats(0.0, 1.0),
    step_mode=st.sampled_from(["backtracking", "fixed-L"]),
)
def test_attack_stays_feasible_descends_and_reruns(
    seed, n, kind, log_c, log_eps, delta, boxed, pinned, step_mode
):
    """Degenerate small SVMs: a typed error, or a feasible, monotone, reproducible trace.

    The box is the data's bounding box, with a share of the points moved
    to its corners, where they can hardly move.  Iterates are rebuilt
    from the records as criterion 7 rebuilds them.
    """
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 2))
    labels = np.where(feats[:, 0] > feats[:, 1], 1, -1)
    if kind == "dup":
        feats = feats[rng.integers(n, size=n)]
        labels = rng.choice([-1, 1], n)  # copies of one point may disagree
    elif kind == "collinear":
        feats = np.outer(rng.standard_normal(n), rng.standard_normal(2))
    elif kind == "one-class":
        labels = np.ones(n, dtype=int)
    elif kind == "flipped":
        labels[rng.random(n) < 0.3] *= -1
    lo = hi = None
    if boxed:
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        corner = rng.random(n) < pinned
        feats[corner] = np.where(rng.random((n, 2)) < 0.5, lo, hi)[corner]
    model = svm_victim(SvmModel(feats, labels, C=10.0**log_c, ridge_eps=10.0**log_eps))
    cfg = svm_config(
        model, delta=delta, box_lo=lo, box_hi=hi, step_mode=step_mode,
        max_iters=8, tol_improve=0.0, seed=seed % 1000,
    )
    x_bar = feats.ravel()
    trace, err = _attack_outcome(x_bar, model, cfg)
    rerun, rerun_err = _attack_outcome(x_bar, model, cfg)
    assert err is rerun_err
    if trace is None:
        return
    assert [r.as_dict() for r in rerun.records] == [r.as_dict() for r in trace.records]
    assert rerun.reason == trace.reason
    x = x_bar
    for record in trace.records:
        x = project_to_feasible(x + record.step * record.direction, x_bar, delta, lo, hi)
        assert float(np.linalg.norm(x - x_bar)) <= delta
        if boxed:
            assert np.all((x.reshape(-1, 2) >= lo) & (x.reshape(-1, 2) <= hi))
    assert np.array_equal(x, trace.x_final)
    hist = trace.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_svm_scenario_reaches_target_weight_gap():
    model, x0 = separable_svm(n=12, seed=3)
    cfg = svm_config(model)
    trace = run_attack(x0, model, cfg)
    assert trace.initial_objective > 1e-4
    gap_reduction = 1.0 - np.sqrt(trace.final_objective / trace.initial_objective)
    assert gap_reduction >= 0.95
    hist = trace.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    baseline = run_gradient_baseline(x0, model, cfg)
    assert baseline.reason == "stalled"
    assert trace.final_objective < baseline.final_objective


@pytest.mark.parametrize("seed", [0, 1])
def test_linear_route_scores_match_semi_derivatives(seed):
    """At a strictly complementary SVM point one product scores every axis row."""
    data = normalize(synth_lane_change(20, seed=seed))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    x = data.features.ravel()
    sol = solve_victim(model, x)
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    target = np.zeros(1)
    value = objective(selector @ sol.y, target)
    ev = _ObjectiveDerivative(model, x, sol, selector, target, value)
    assert ev.aux.structure.weakly_active == [] and ev.gradient is not None
    V = np.tile(_axis_rows(2), (x.size // 2, 1))
    vals, routes = ev.dG(np.arange(2 * x.size) // 4, V)
    assert routes == ["linear"] * len(V)
    D = axis_directions(slice(None), x.size)  # the same rows at full length
    expected = np.array([ev.grad_y @ semi_derivative(ev.aux, d) for d in D])
    assert np.count_nonzero(expected) > 0
    assert np.abs(vals - expected).max() <= 1e-9


def kink_pair(route):
    """Two 2-D points with a kink at x = 0, scored on the given route there.

    aux: y = max(x_0 + x_2, 0), a weakly active bound.  fd: y = |x_0 + x_2|
    from y >= x_0 + x_2 and y >= -(x_0 + x_2), two dependent active rows
    at x = 0, so LICQ fails.
    """
    if route == "aux":
        Cx, beta = np.array([[-1.0, 0.0, -1.0, 0.0]]), np.zeros((1, 4))
    else:
        Cx, beta = np.zeros((1, 4)), np.array([[1.0, 0.0, 1.0, 0.0], [-1.0, 0.0, -1.0, 0.0]])
    m = len(beta)
    return _AffineQpFamily(
        H=np.eye(1), c0=np.zeros(1), Cx=Cx, rows_a=-np.ones((m, 1)),
        rows_M=np.zeros((m, 1, 4)), rows_b0=np.zeros(m), rows_beta=beta, n_ineq=m,
    ).as_victim()


def check_round_scores_each_point_row_once(monkeypatch, route):
    """At a kink the searched point's axis rows keep their probe scores."""
    model = kink_pair(route)
    cfg = AttackConfig(target=np.ones(1), delta=1.0, point_dim=2)
    calls, scored = [], []
    real_dG = _ObjectiveDerivative.dG

    def recording_dG(self, owner, V):
        scored.extend((int(p), v.tobytes()) for p, v in zip(np.broadcast_to(owner, len(V)), V))
        return real_dG(self, owner, V)

    if route == "aux":
        real_semi = attack_module.semi_derivative
        monkeypatch.setattr(
            attack_module, "semi_derivative",
            lambda aux, dx: calls.append(dx.copy()) or real_semi(aux, dx),
        )
    else:
        real_fd = _ObjectiveDerivative._finite_difference
        monkeypatch.setattr(
            _ObjectiveDerivative, "_finite_difference",
            lambda self, dx: calls.append(dx.copy()) or real_fd(self, dx),
        )
    monkeypatch.setattr(_ObjectiveDerivative, "dG", recording_dG)
    record = first_record(run_attack, np.zeros(4), model, cfg)
    assert record.route == route and record.point == 0
    # the 8 probe rows, then point 0's random rows; its axis rows are not rescored
    assert len(scored) == len(set(scored)) == 8 + RANDOM_DIRS == 16
    assert len(calls) == len({dx.tobytes() for dx in calls}) == 16
    assert all(dx.shape == (4,) and np.count_nonzero(dx) <= 2 for dx in calls)


def test_aux_round_scores_each_point_row_once(monkeypatch):
    check_round_scores_each_point_row_once(monkeypatch, "aux")


def test_fd_round_scores_each_point_row_once(monkeypatch):
    check_round_scores_each_point_row_once(monkeypatch, "fd")


def check_linear_route(model, x, sol, selector, target):
    """The linear-route gradient at a solved point against a dense KKT solve.

    Returns the null-space dimension n_var - len(working), or None when
    the point is off the linear route (LICQ fails or a row is weakly
    active).  On the route the working set must be the strict set.
    """
    ev = _ObjectiveDerivative(model, x, sol, selector, target, objective(selector @ sol.y, target))
    if ev.aux is None or ev.aux.structure.weakly_active:
        return None
    strict = ev.aux.structure.strict
    assert sorted(sol.factors.rows) == strict
    nv = ev.aux.dim_var
    W = np.vstack([ev.aux.B[:nv], -ev.aux.B[nv:][strict]])
    want = dense_kkt_gradient(ev.aux.H_aux, ev.aux.rows[strict], W, ev.grad_y)
    assert np.abs(want).max() > 0
    assert np.abs(ev.gradient - want).max() <= 1e-10 * np.abs(want).max()
    return nv - len(strict)


@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (80, 0)])
def test_linear_route_gradient_matches_dense_kkt_solve_on_svm(n, seed):
    """Cold and warm SVM solutions; the working rows leave 0 or 1 free directions."""
    data = normalize(synth_lane_change(n, seed=seed))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    x_bar = data.features.ravel()
    base = solve_victim(model, x_bar)
    rng = np.random.default_rng(seed)
    points = [(x_bar, base)]
    for _ in range(4):
        x = x_bar + 0.05 * rng.standard_normal(x_bar.size)
        points.append((x, solve_victim(model, x, warm=base)))
    null_dims = [check_linear_route(model, x, sol, selector, np.zeros(1)) for x, sol in points]
    assert set(null_dims) <= {0, 1}


def test_linear_route_gradient_matches_dense_kkt_solve_with_a_null_space():
    """Parametric QPs whose active rows leave free directions, cold and warm."""
    with_null_space = 0
    for seed in range(30):
        model = generic_parametric_qp(seed, dim_var=5, dim_data=3, n_ineq=4, n_eq=seed % 2)
        rng = np.random.default_rng(seed)
        x = 0.3 * rng.standard_normal(3)
        cold = solve_victim(model, x)
        x_near = x + 0.05 * rng.standard_normal(3)
        for point, sol in ((x, cold), (x_near, solve_victim(model, x_near, warm=cold))):
            dim = check_linear_route(model, point, sol, np.eye(5), sol.y + 1.0)
            if dim is not None and 0 < dim < 5:
                with_null_space += 1
    assert with_null_space >= 10


def test_gradient_baseline_matches_dense_kkt_solve():
    model, H, cross = unconstrained_fixture()
    x = np.array([0.3, -0.2])
    sol = solve_victim(model, x)
    assert list(sol.factors.rows) == []
    target = sol.y + np.array([0.5, -0.2, 0.1])
    cfg = AttackConfig(target=target, delta=10.0, point_dim=2, curvature_bound=5.0)
    record = first_record(run_gradient_baseline, x, model, cfg)
    want = dense_kkt_gradient(H, np.zeros((0, 3)), cross, 2.0 * (sol.y - target))
    # the step's direction is -grad / |grad| and its derivative -|grad|
    got = record.direction * record.derivative
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert check_linear_route(model, x, sol, np.eye(3), target) == 3


@pytest.mark.parametrize("run", [run_attack, run_gradient_baseline])
def test_drivers_reject_an_overflowing_objective(run):
    cfg = AttackConfig(target=[1e200, 0, 0], delta=1.0, point_dim=2)
    with pytest.raises(ValueError, match="out of range"):
        run(np.full(2, 0.3), generic_parametric_qp(0, 3, 2, 0, 0), cfg)


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_warm_and_cold_solves_agree_along_attack_trajectory(seed):
    """Replay an acceptance-style SVM attack and re-solve each iterate three ways.

    Warm from the previous iterate, cold from the model's least-squares
    start (2-3 iterations where phase 1 takes about n), and cold from
    phase 1.
    """
    data = normalize(synth_lane_change(20, seed=seed))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    cfg = AttackConfig(
        target=np.zeros(1), delta=3.0, selector=selector, point_dim=2,
        curvature_bound=20.0, tol_target=1e-10, tol_improve=1e-14, seed=seed,
    )
    x_bar = data.features.ravel()
    trace = run_attack(x_bar, model, cfg)
    assert len(trace.records) >= 39
    x = x_bar
    prev = solve_victim(model, x)
    for record in trace.records:
        x = project_to_feasible(x + record.step * record.direction, x_bar, cfg.delta)
        problem = model.assemble(x)
        warm = solve_victim(model, x, warm=prev)
        started = solve_victim(model, x)  # cold, from the least-squares start
        cold = solve_qp(problem)
        assert not warm.phase1 and warm.iterations <= 5
        assert not started.phase1 and started.iterations <= 3 and cold.phase1
        for sol in (warm, started):
            assert np.abs(sol.y - cold.y).max() <= 1e-10
            assert vars(classify_active(problem, sol)) == vars(classify_active(problem, cold))
        prev = warm
    assert np.array_equal(x, trace.x_final)


# ---------------------------------------------------------------------------
# step-size rule and geometric decay
# ---------------------------------------------------------------------------


def test_fixed_curvature_steps_decay_geometrically():
    model, H, cross = unconstrained_fixture()
    x0 = np.array([0.3, -0.2])
    x_star = x0 + np.array([0.4, -0.3])
    target = solve_victim(model, x_star).y
    # the solved parameters are linear in the data, so the composed
    # objective is a quadratic whose curvature comes from this matrix
    A = -np.linalg.solve(H, cross)
    evals = np.linalg.eigvalsh(2.0 * A.T @ A)
    sigma, L = float(evals[0]), float(evals[-1])
    assert sigma > 1e-6
    cfg = AttackConfig(
        target=target,
        delta=10.0,
        point_dim=2,
        curvature_bound=L,
        step_mode="fixed-L",
        max_iters=20,
        tol_improve=0.0,
        tol_target=0.0,
    )
    trace = run_attack(x0, model, cfg)
    assert len(trace.records) == 20
    report = convergence_check(trace, sigma, L)
    assert report.passed, f"violations at {report.violations}"
    assert report.empirical_factor <= report.bound_factor + 1e-9


def test_convergence_check_factor_examples():
    records = [StepRecord(k, g, 0, np.zeros(1), -1.0, 0.1, 0.0) for k, g in
               enumerate([0.4, 0.2, 0.1], start=1)]
    trace = AttackTrace(np.zeros(1), np.zeros(1), 1.0, records, "max_iters", None)
    report = convergence_check(trace, 1.0, 2.0)
    assert report.bound_factor == 0.5
    assert report.bound_factor**3 == pytest.approx(0.125)
    assert report.passed


def test_convergence_check_flags_violations():
    records = [StepRecord(1, 0.6, 0, np.zeros(1), -1.0, 0.1, 0.0)]
    trace = AttackTrace(np.zeros(1), np.zeros(1), 1.0, records, "max_iters", None)
    report = convergence_check(trace, 1.0, 2.0)
    assert not report.passed
    assert report.violations == [1]


def test_convergence_check_equal_constants_demand_one_step():
    slow = AttackTrace(
        np.zeros(1), np.zeros(1), 1.0,
        [StepRecord(1, 0.1, 0, np.zeros(1), -1.0, 0.1, 0.0)], "max_iters", None,
    )
    exact = AttackTrace(
        np.zeros(1), np.zeros(1), 1.0,
        [StepRecord(1, 0.0, 0, np.zeros(1), -1.0, 0.1, 0.0)], "max_iters", None,
    )
    assert not convergence_check(slow, 2.0, 2.0).passed
    assert convergence_check(exact, 2.0, 2.0).passed


def test_convergence_check_validates_constants():
    trace = AttackTrace(np.zeros(1), np.zeros(1), 1.0, [], "optimal", None)
    with pytest.raises(ValueError):
        convergence_check(trace, 0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_check(trace, 2.0, 1.0)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def test_trace_files_round_trip(tmp_path):
    model = kink_projection_model()
    trace = run_attack(np.zeros(1), model, kink_config())
    jsonl = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "trace.csv"
    write_trace_jsonl(trace, jsonl)
    write_summary_csv(trace, csv_path)

    lines = jsonl.read_text().splitlines()
    assert len(lines) == len(trace.records)
    first = json.loads(lines[0])
    assert first["k"] == 1
    assert first["objective"] == trace.records[0].objective_value
    assert first["route"] in ("linear", "aux", "fd")

    rows = csv_path.read_text().splitlines()
    assert rows[0] == "k,objective,distance"
    assert len(rows) == len(trace.records) + 2
    assert rows[1].startswith("0,")

    # byte-identical on rerun
    write_trace_jsonl(trace, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == jsonl.read_bytes()
