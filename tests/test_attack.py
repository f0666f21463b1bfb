"""Attack engine: direction search, stepping, stopping rules, baseline."""

import copy
import json
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import semipoison.attack as attack_module
import semipoison.cli as cli_module
import semipoison.qp as qp_module
import semipoison.sensitivity as sensitivity_module
import semipoison.victims as victims_module
from semipoison.attack import (
    AttackConfig,
    _attack_round,
    _axis_rows,
    _Feasibility,
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
    InputError,
    SemipoisonError,
    Stalled,
)
from semipoison.qp import QpProblem, classify_active, solve_qp
from semipoison.sensitivity import semi_derivative
from semipoison.victims import (
    SvmModel,
    VictimModel,
    _AffineQpFamily,
    generic_parametric_qp,
    solve_victim,
    svm_victim,
)

from _oracles import (
    EXAMPLES,
    axis_directions,
    bound_tracking_model,
    dense_feasible_mask,
    dense_kkt_gradient,
    kink_projection_model,
    reference_attack_round,
    soft_margin_svm,
)
from test_acceptance import SVM_SEEDS, svm_scenario


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


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: AttackConfig(target=np.zeros(1), delta=1.0, selector=np.ones(3)),
         DimensionMismatch, "selector must be a 2-D matrix"),
        (lambda: AttackConfig(target=np.zeros(1), delta=1.0, point_dim=0),
         ValueError, "point_dim must be at least 1"),
        (lambda: AttackConfig(target=np.zeros(1), delta=1.0, max_iters=-1),
         ValueError, "max_iters must be nonnegative"),
        (lambda: AttackConfig(
            target=np.zeros(1), delta=1.0, point_dim=2, box_lo=[0.0], box_hi=[1.0, 1.0]
        ), DimensionMismatch, "box bounds must have shape (2,) got (1,) and (2,)"),
        (lambda: AttackConfig(
            target=np.zeros(1), delta=1.0, selector=np.ones((1, 2))
        ).resolve_selector(3), DimensionMismatch, "selector must have 3 columns, got 2"),
    ],
    ids=["selector-ndim", "point-dim", "max-iters", "box-shape", "selector-columns"],
)
def test_config_typed_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert info.type is error and str(info.value) == message


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


def test_projection_from_a_base_point_outside_the_box_lands_in_both_or_raises():
    """Base point 5, radius 1, box [0, 1]: the ball and the box do not meet (it returned [5.])."""
    with pytest.raises(InputError, match="base point must lie in the box"):
        project_to_feasible([10.0], [5.0], 1.0, [0.0], [1.0])
    assert project_to_feasible([10.0], [1.5], 1.0, [0.0], [1.0]).tolist() == [1.0]  # they meet


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
        feasible = _Feasibility(x, x_base, cfg)
        assert np.array_equal(feasible(owner, np.tile(V, (n_points, 1))), want)
        # every point against the shared rows at once, as the round's probe asks
        assert np.array_equal(feasible(np.s_[:, None], V).ravel(), want)
        assert np.array_equal(feasible(np.arange(n_points)[:, None], V).ravel(), want)
        for p in range(n_points):  # one point at a time, as feasible_directions asks
            assert np.array_equal(feasible(p, V), want[owner == p])
            for i in np.flatnonzero(owner == p):  # one row, as a steepest row is tested
                assert feasible(p, V[i % len(V)]) == want[i]
        kept += int(want.sum())
        rejected += int((~want).sum())
    assert kept > 1000 and rejected > 1000


def test_random_rows_match_per_row_draws():
    """One batched draw gives the rows, and leaves the stream, as one draw per row does."""
    for seed in range(20):
        for pd in range(1, 6):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [v / np.sqrt(v @ v) for v in (ref.standard_normal(pd) for _ in range(RANDOM_DIRS))]
            assert np.array_equal(_random_rows(pd, RANDOM_DIRS, rng), want)
            assert rng.standard_normal() == ref.standard_normal()


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
    return _ObjectiveDerivative(model, x, sol, np.eye(1), target, value).dG(0, V)


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


def test_gradient_baseline_stalls_where_its_fixed_l_step_overshoots():
    """A rejected fixed-L step stalls the baseline with no certificate, and takes no step.

    An unconstrained family at x = (0.3, 0.3) with target 0: the
    objective is 0.917 and its gradient has norm 2.68.  The trial length
    2.68 / 1e-3 is cut to the ball's diameter, and the trial, projected
    onto the ball's boundary 3 away, has objective 13.9.  Fixed-L mode
    tries no shorter step, so the round rejects it.
    """
    model = generic_parametric_qp(1, dim_var=3, dim_data=2, n_ineq=0, n_eq=0)
    cfg = AttackConfig(
        target=np.zeros(3), delta=3.0, point_dim=2, curvature_bound=1e-3, step_mode="fixed-L"
    )
    trace = run_gradient_baseline(np.array([0.3, 0.3]), model, cfg)
    assert trace.reason == "stalled" and trace.records == []
    assert trace.stall_certificate is None
    assert trace.final_objective == pytest.approx(0.9168292224741639, rel=1e-12)


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


@settings(derandomize=True, deadline=None, max_examples=60 * EXAMPLES)
@example(  # |g|^2 once overflowed in steepest_direction: a RuntimeWarning, then a zero row
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
    assert ev.point.aux.structure.weakly_active == [] and ev.gradient is not None
    V = np.tile(_axis_rows(2), (x.size // 2, 1))
    assert ev.route == "linear"
    vals = ev.dG(np.arange(2 * x.size) // 4, V)
    D = axis_directions(slice(None), x.size)  # the same rows at full length
    expected = np.array([ev.grad_y @ semi_derivative(ev.point.aux, d) for d in D])
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


def test_each_round_scores_on_its_iterates_one_route(monkeypatch):
    """Each round of the n=20 seed-3 and seed-4 attacks takes one route, chosen once.

    Seed 3 has one round where LICQ fails and seed 4 two where a row is
    weakly active.  No fd round calls semi_derivative, no aux round
    calls _finite_difference, and a linear round calls neither.
    """
    rounds = []  # [route, semi_derivative calls, _finite_difference calls] per round
    real_init = _ObjectiveDerivative.__init__

    def init(self, *args):
        real_init(self, *args)
        rounds.append([self.route, 0, 0])

    def counting(slot, real):
        def call(*args):
            rounds[-1][slot] += 1
            return real(*args)
        return call

    monkeypatch.setattr(_ObjectiveDerivative, "__init__", init)
    monkeypatch.setattr(attack_module, "semi_derivative", counting(1, semi_derivative))
    monkeypatch.setattr(
        _ObjectiveDerivative, "_finite_difference",
        counting(2, _ObjectiveDerivative._finite_difference),
    )
    routes = {}
    for seed in (3, 4):
        rounds.clear()
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
        routes[seed] = Counter(route for route, _, _ in rounds)
        assert all((semi > 0, fd > 0) == (r == "aux", r == "fd") for r, semi, fd in rounds)
    assert routes == {3: {"linear": 38, "fd": 1}, 4: {"linear": 103, "aux": 2}}


def check_linear_route(model, x, sol, selector, target):
    """The linear-route gradient at a solved point against a dense KKT solve.

    Returns the null-space dimension n_var - len(working), or None when
    the point is off the linear route (LICQ fails or a row is weakly
    active).  On the route the working set must be the strict set.
    """
    ev = _ObjectiveDerivative(model, x, sol, selector, target, objective(selector @ sol.y, target))
    aux = ev.point.aux
    if aux is None or aux.structure.weakly_active:
        return None
    strict = aux.structure.strict
    assert sorted(sol.factors.rows) == strict
    nv = aux.H_aux.shape[0]
    W = np.vstack([aux.cross, aux.jac[strict]])
    want = dense_kkt_gradient(aux.H_aux, aux.rows[strict], W, ev.grad_y)
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


def test_acceptance_attacks_re_solve_in_one_iteration(monkeypatch):
    """Work counts over the 10 n=20 acceptance attacks, deterministic where timings are not.

    Each warm re-solve starts hot, on the solution it perturbs, so at
    least 850 of the 952 take one active-set iteration (225 did from the
    slack-reset start).  The 176 derivatives of the aux rounds each have
    one weakly active row, so they come from the two pieces on the
    training factors, and no auxiliary QP runs (176 did).
    """
    warm_iterations, aux_phase1 = [], []
    inner_victim, inner_aux = attack_module.solve_victim, sensitivity_module.solve_qp

    def victim(model, x, warm=None):
        sol = inner_victim(model, x, warm)
        if warm is not None:
            warm_iterations.append(sol.iterations)
        return sol

    def aux(problem, start=None):
        sol = inner_aux(problem, start=start)
        aux_phase1.append(sol.phase1)
        return sol

    monkeypatch.setattr(attack_module, "solve_victim", victim)
    monkeypatch.setattr(sensitivity_module, "solve_qp", aux)
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    assert len(warm_iterations) == 952 and warm_iterations.count(1) >= 850
    assert aux_phase1 == []


def test_acceptance_attacks_move_points_onto_rows_outside_the_loop(monkeypatch):
    """No WorkingFactors.onto call over the 10 n=20 acceptance attacks comes from the loop.

    A start's point moves onto its rows in qp._hot_start, once more
    where a near-active row joins, and the loop's own steps keep it
    there.  With the derivatives' working-set minimizers that is 1,196
    calls for the 962 solves; 2,249 when the loop's first working-set
    subproblem moved the start's point again.
    """
    in_loop, calls = [], []
    inner_loop, inner_onto = qp_module._active_set_loop, qp_module.WorkingFactors.onto

    def loop(*args):
        in_loop.append(True)
        try:
            return inner_loop(*args)
        finally:
            in_loop.pop()

    def onto(self, y, A, b):
        calls.append(bool(in_loop))
        return inner_onto(self, y, A, b)

    monkeypatch.setattr(qp_module, "_active_set_loop", loop)
    monkeypatch.setattr(qp_module.WorkingFactors, "onto", onto)
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    assert 0 < len(calls) <= 1250 and not any(calls)


def test_seed0_acceptance_attack_evaluates_each_solved_point_once(monkeypatch):
    """Work per accepted step of the seed-0 acceptance attack: upper bounds on three counts.

    Its 200 steps cost 202 victim solves.  A solve evaluates A y + b
    once at its start (qp._hot_start) and once in its KKT gate, which
    the solution keeps for classify_active: 413 constraint_values calls,
    613 when classify_active took them again.  The LICQ margin reads
    the working rows' norms from the factors, so row_norms runs only in
    the cold first solve: 2 calls, 202 when the margin normed the rows
    again.  A warm re-solve rejoins the general rows after the moved
    point's margin row (qp.working_start): 290 joins.
    """
    calls = Counter()

    def counted(owner, name):
        inner = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(qp_module.QpProblem, "constraint_values")
    counted(qp_module, "row_norms")
    counted(qp_module.WorkingFactors, "join")
    data, model, config = svm_scenario(0)
    steps = len(run_attack(data.features.ravel(), model, config).records)
    assert steps == 200
    assert calls["constraint_values"] <= 415 and calls["row_norms"] <= 2 and calls["join"] <= 290


def _old_svm_jacobian(svm, y):
    """svm_grad_x_constraint's blocks written by fancy index on an (n, n, 2) view: the reference."""
    n = svm.n_points
    out = np.zeros((2 * n, svm.dim_data))
    rows = np.arange(n)
    out[:n].reshape(n, n, 2)[rows, rows] = -svm.labels[:, None] * y[:2]
    return out


@pytest.mark.parametrize(
    "n, flips, ops",
    [(20, None, ()), (40, [0, 1, 25], ("drop", "_fix")), (20, [0, 11], ("drop", "_fix", "_free"))],
    ids=["n20", "soft-n40", "soft-n20"],
)
def test_values_a_solved_point_keeps_match_a_fresh_evaluation(monkeypatch, n, flips, ops):
    """Each value kept for a later reader equals its fresh evaluation, along three seed-0 attacks.

    The acceptance attack at n=20, the soft-margin n=40 attack (labels
    0, 1 and 25 flipped), where slack-sign bounds join the working rows
    (_fix) and leave them, and the soft-margin n=20 attack (labels 0 and
    11 flipped), where a bound also leaves inside the active-set loop
    (_free).  Each victim solution's g is A y + b bit for bit.  The
    factors' norms equal row_norms of their general rows to round-off
    after every join, drop, _fix and _free, and on every hot start
    qp.working_start makes: each snapshot is checked against the rows of
    the problem its factors were updated for, at the next solve or
    build_auxiliary, whose joins update a copy before a refused one
    raises.  A copy holds its source's norms and rows, checked with the
    source.  The SVM Jacobian equals the reference construction
    bit for bit.
    """
    snapshots, checked = [], Counter()

    def snapshot(name, factors):
        snapshots.append((name, factors.general, factors.norms))  # both replaced, never changed

    def check_snapshots(A):
        for name, general, norms in snapshots:
            assert len(norms) == general.size
            np.testing.assert_allclose(norms, qp_module.row_norms(A[general]), rtol=1e-15, atol=0.0)
            checked[name] += 1
        snapshots.clear()

    def recorded(name):
        inner = getattr(qp_module.WorkingFactors, name)

        def op(self, *args):
            out = inner(self, *args)
            if name == "copy":  # a copy holds its source's rows, checked with the source's problem
                assert out.norms == self.norms and np.array_equal(out.general, self.general)
                checked[name] += 1
            else:
                snapshot(name, self)
            return out

        monkeypatch.setattr(qp_module.WorkingFactors, name, op)

    for name in ("join", "drop", "_fix", "_free", "copy"):
        recorded(name)
    inner_start, inner_solve = victims_module.working_start, victims_module.solve_qp
    inner_aux = sensitivity_module.build_auxiliary

    def working_start(solution, problem):
        start = inner_start(solution, problem)
        if start is not None:
            snapshot("working_start", start.factors)
        return start

    def solve(problem, start=None):
        sol = inner_solve(problem, start=start)
        assert sol.g.tobytes() == (problem.A @ sol.y + problem.b).tobytes()
        check_snapshots(problem.A)
        checked["g"] += 1
        return sol

    def build_auxiliary(model, x, solution):
        try:
            return inner_aux(model, x, solution)
        finally:
            check_snapshots(solution.problem.A)

    monkeypatch.setattr(victims_module, "working_start", working_start)
    monkeypatch.setattr(victims_module, "solve_qp", solve)
    monkeypatch.setattr(sensitivity_module, "build_auxiliary", build_auxiliary)
    if flips is None:
        data, model, config = svm_scenario(0)
        x = data.features.ravel()
    else:
        model, x = soft_margin_svm(n, 0, flips)
        config = svm_config(model, max_iters=200)
    svm, inner_jac = model.grad_x_constraint.args[0], model.grad_x_constraint

    def jacobian(x, y):
        out = inner_jac(x, y)
        assert out.tobytes() == _old_svm_jacobian(svm, y).tobytes()
        checked["jacobian"] += 1
        return out

    model.grad_x_constraint = jacobian
    run_attack(x, model, config)
    assert checked["g"] > 150 and checked["jacobian"] > 150 and snapshots == []
    assert all(checked[name] > 0 for name in ("join", "copy", "working_start", *ops)), checked


def test_victim_solves_end_feasible_without_phase1(monkeypatch):
    """No victim solve leaves an inequality violated beyond round-off, and none runs phase 1.

    Over the 10 acceptance attacks and the soft-margin n=40 seed-0 attack
    (labels 0, 1 and 25 flipped), which stalls after 159 steps: 962 and
    1,000 solves.  Beyond round-off is g_i > 1e-12 (|a_i|'|y| + |b_i|).
    When a point start could drop a violated start row as dependent, 430
    of the latter's then 1,480 solves ended with a margin row violated by
    up to 1.3e-10.
    """
    solves, violated, phase1 = [], [], []
    inner = victims_module.solve_qp

    def checked(problem, start=None):
        sol = inner(problem, start=start)
        g = problem.A_ineq @ sol.y + problem.b_ineq
        noise = 1e-12 * (np.abs(problem.A_ineq) @ np.abs(sol.y) + np.abs(problem.b_ineq))
        solves.append(sol)
        violated.append(bool((g > noise).any()))
        phase1.append(sol.phase1)
        return sol

    monkeypatch.setattr(victims_module, "solve_qp", checked)
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    model, x = soft_margin_svm(40, 0, [0, 1, 25])
    trace = run_attack(x, model, svm_config(model, max_iters=200))
    assert trace.reason == "stalled" and len(trace.records) == 159
    assert len(solves) == 962 + 1000 and not any(violated) and not any(phase1)


def steepest_is_feasible(ev, x, p, config, x_base):
    v_st = ev.steepest_direction(p, config.point_dim)
    return v_st is not None and bool(_Feasibility(x, x_base, config)(p, v_st))


def test_linear_route_shortcut_picks_the_sampled_sets_best_row(monkeypatch):
    """Along the 10 acceptance attacks a shortcut point picks what its sampled set would.

    A linear-route point with a feasible probe row and a feasible
    steepest row is scored on those rows alone.  Its argmin (row and dG)
    is the argmin over the sampled set that feasible_directions draws
    from a copy of the RNG state, with the steepest row, and every point
    leaves the RNG state where the sampled path leaves it.
    """
    real, seen = attack_module._point_rows, Counter()

    def checking(ev, feasible, p, rng, n_probed):
        x, config, x_base = feasible.x, feasible.config, feasible.x_base
        replay = copy.deepcopy(rng)
        try:
            full = feasible_directions(x, p, config, x_base=x_base, rng=replay)
        except EmptyDirectionSet:
            full = None
        try:
            rows = real(ev, feasible, p, rng, n_probed)
        finally:
            assert rng.bit_generator.state == replay.bit_generator.state
        if not (n_probed and steepest_is_feasible(ev, x, p, config, x_base)):
            seen["sampled"] += 1
            return rows
        seen["shortcut"] += 1
        v_st = ev.steepest_direction(p, config.point_dim)
        assert_array_equal(rows, v_st[None])
        short, full = np.vstack([full[:n_probed], v_st]), np.vstack([full, v_st])
        short_vals, full_vals = ev.dG(p, short), ev.dG(p, full)
        got, want = int(np.argmin(short_vals)), int(np.argmin(full_vals))
        assert short[got].tobytes() == full[want].tobytes()
        assert short_vals[got] == full_vals[want]
        return rows

    monkeypatch.setattr(attack_module, "_point_rows", checking)
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    assert seen == {"shortcut": 859, "sampled": 3}  # one point per round: the linear, aux and fd rounds


def boundary_point(delta, outward):
    """The unconstrained fixture's one 2-D point on the ball's boundary, with its derivative.

    The point sits at distance delta from x_base along the gradient g
    (outward: its steepest row, -g / |g|, leaves the ball) or along -g.
    Returns (ev, x, x_base, config).
    """
    model, _, _ = unconstrained_fixture()
    x_base = np.array([0.3, -0.2])
    config = AttackConfig(target=np.array([1.0, -1.0, 0.5]), delta=delta, point_dim=2)
    selector = np.eye(3)
    sol = solve_victim(model, x_base)
    ev = _ObjectiveDerivative(model, x_base, sol, selector, config.target, 0.0)
    g = ev.gradient / np.linalg.norm(ev.gradient)
    x = x_base + (-delta if outward else delta) * g
    sol = solve_victim(model, x)
    value = objective(sol.y, config.target)
    return _ObjectiveDerivative(model, x, sol, selector, config.target, value), x, x_base, config


def test_linear_point_whose_steepest_row_leaves_the_ball_scores_the_sampled_set():
    """The steepest row points out of the ball: the point's rows are feasible_directions' random rows."""
    ev, x, x_base, config = boundary_point(1e-3, outward=True)
    assert ev.gradient is not None and not steepest_is_feasible(ev, x, 0, config, x_base)
    feasible = _Feasibility(x, x_base, config)
    n_probed = int(feasible(0, _axis_rows(2)).sum())
    assert 0 < n_probed < 4
    rng, replay = np.random.default_rng(0), np.random.default_rng(0)
    rows = attack_module._point_rows(ev, feasible, 0, rng, n_probed)
    assert_array_equal(rows, feasible_directions(x, 0, config, x_base=x_base, rng=replay)[n_probed:])
    assert 0 < len(rows) < RANDOM_DIRS
    assert rng.bit_generator.state == replay.bit_generator.state


def test_linear_point_with_no_feasible_axis_row_scores_its_steepest_row_alone():
    """A ball of radius 6e-10, the point on its boundary: no axis row is feasible, the steepest row is.

    A probe step of 1e-9 stays in the ball only within about 34 degrees
    of the inward normal, and the gradient is more than 34 degrees off
    every axis.  The point's one row is then its steepest row: over
    1,000 RNG seeds the point is never set aside, the RNG state moves as
    feasible_directions moves it, and that row scores below every
    feasible random row, where there is one.
    """
    ev, x, x_base, config = boundary_point(6e-10, outward=False)
    feasible = _Feasibility(x, x_base, config)
    assert not feasible(0, _axis_rows(2)).any()
    assert steepest_is_feasible(ev, x, 0, config, x_base)
    v_st = ev.steepest_direction(0, 2)
    best = ev.dG(0, v_st[None])[0]
    outcomes = Counter()
    for seed in range(1000):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = attack_module._point_rows(ev, feasible, 0, rng, 0)
        assert_array_equal(rows, v_st[None])
        try:
            sampled = feasible_directions(x, 0, config, x_base=x_base, rng=replay)
            assert (ev.dG(0, sampled) > best).all()
            outcomes["sampled set"] += 1
        except EmptyDirectionSet:
            outcomes["empty sampled set"] += 1
        assert rng.bit_generator.state == replay.bit_generator.state
    assert outcomes["empty sampled set"] and outcomes["sampled set"]


def round_tries(round_fn, state, accept=None):
    """Every step a round tries from state, how it ends and the RNG state it leaves.

    state is (model, x, value, solution, config, x_base, rng, selector),
    the round runs on a copy of rng, and a recording try_step stands in
    for attack._try_step: it accepts try number accept (None: none).
    Each try is (point, direction bytes, dG bits, route); the end is
    "accepted", "empty" or ("stalled", certificate bits or None).
    """
    model, x, value, solution, config, x_base, rng, selector = state
    tries, rng = [], copy.deepcopy(rng)

    def try_step(model, x, solution, d, dg, value, config, x_base, selector, *, k, point, route):
        tries.append((point, d.tobytes(), float(dg).hex(), route))
        return "accepted" if len(tries) - 1 == accept else None

    try:
        end = round_fn(
            try_step, model, x, value, solution, config, x_base=x_base, rng=rng, k=1,
            selector=selector,
        )
    except Stalled as exc:
        end = ("stalled", None if exc.certificate is None else exc.certificate.hex())
    except EmptyDirectionSet:
        end = "empty"
    return tries, end, rng.bit_generator.state


def array_round(try_step, *args, **kwargs):
    real, attack_module._try_step = attack_module._try_step, try_step
    try:
        return _attack_round(*args, **kwargs)
    finally:
        attack_module._try_step = real


def reference_round(try_step, *args, **kwargs):
    return reference_attack_round(*args, try_step=try_step, **kwargs)


def assert_round_matches_reference(state):
    """Rejecting every try, so every point is searched, and accepting the first."""
    ends = []
    for accept in (None, 0):
        got = round_tries(array_round, state, accept)
        assert got == round_tries(reference_round, state, accept)
        ends.append(got[1])
    return ends[0]


def test_round_matches_the_reference_along_the_acceptance_and_box_attacks(monkeypatch, tmp_path):
    """Each round of the 10 acceptance attacks and of the box reference attack, against the reference.

    The box reference attack is `attack --synth-n 20 --seed 1
    --bounds=-3,3,5,60 --tol-improve 1e-14`, run through the CLI.  At
    every round both rounds try the same points, rows, dG bits and
    routes, end alike and leave the same RNG state (round_tries).
    """
    ends, routes = Counter(), Counter()

    def checking(model, x, value, solution, config, *, x_base, rng, k, selector):
        end = assert_round_matches_reference((model, x, value, solution, config, x_base, rng, selector))
        ends[end if isinstance(end, str) else end[0]] += 1
        out = _attack_round(
            model, x, value, solution, config, x_base=x_base, rng=rng, k=k, selector=selector
        )
        routes[out[2].route] += 1
        return out

    monkeypatch.setattr(attack_module, "_attack_round", checking)
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    assert routes == {"linear": 859, "aux": 2, "fd": 1}
    routes.clear()
    argv = ["attack", "--synth-n", "20", "--seed", "1", "--bounds=-3,3,5,60", "--tol-improve", "1e-14"]
    assert cli_module.main([*argv, "--out", str(tmp_path / "box")]) == 0
    assert sum(routes.values()) == len((tmp_path / "box" / "trace.jsonl").read_text().splitlines())
    assert ends["stalled"] == sum(ends.values())  # rejecting every try searches every point


def random_round_state(kind, n, budget, boxed, faces, attained, seed):
    """A round's state (see round_tries) for the reference comparison, or None where the solve fails.

    kind "svm": n Gaussian 2-D points, some of them moved; "aux" and
    "fd": kink_pair(kind) at a point on its kink (x_0 + x_2 = 0), the
    pristine data at 0; "tiny": boundary_point's ball of radius 6e-10.
    budget puts the iterate on the ball's boundary ("ball"), inside it
    ("inside") or at the pristine data with a zero budget ("zero").
    boxed adds a box around the iterate and the pristine data, with a
    share faces of the coordinates moved onto its faces (both of a
    point's: a corner).  attained sets the target to the current output.
    """
    rng = np.random.default_rng(seed)
    if kind == "tiny":  # no axis row is feasible, the steepest row is
        ev, x, x_base, config = boundary_point(6e-10, outward=False)
        config = replace(config, seed=seed % 1000)
        state = (ev.model, x, ev.value, ev.solution, config, x_base, rng, np.eye(3))
        return state
    if kind == "svm":
        feats = rng.standard_normal((n, 2))
        model = svm_victim(SvmModel(feats, np.where(feats[:, 0] > feats[:, 1], 1, -1)))
        x_base = feats.ravel()
        x = x_base + (rng.normal(0.0, 0.3, (n, 2)) * (rng.random((n, 1)) < 0.6)).ravel()
        selector = np.zeros((1, model.dim_var))
        selector[0, :2] = [1.0, -1.0]
    else:
        a, b, c = rng.uniform(-0.5, 0.5, 3)
        model, x_base, x = kink_pair(kind), np.zeros(4), np.array([a, b, -a, c])
        selector = np.eye(1)
    if budget == "zero":
        x = x_base.copy()
    lo = hi = None
    if boxed:
        pts = np.vstack([x.reshape(-1, 2), x_base.reshape(-1, 2)])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        face = rng.random(x.size) < faces
        side = np.where(rng.random(x.size) < 0.5, np.tile(lo, x.size // 2), np.tile(hi, x.size // 2))
        x[face] = side[face]
    delta = float(np.linalg.norm(x - x_base)) * (rng.uniform(1.0, 2.0) if budget == "inside" else 1.0)
    try:
        solution = solve_victim(model, x)
    except SemipoisonError:
        return None
    target = selector @ solution.y if attained else np.full(len(selector), 0.5)
    config = AttackConfig(
        target=target, delta=delta, selector=selector, point_dim=2, box_lo=lo, box_hi=hi,
        curvature_bound=20.0, seed=seed % 1000,
    )
    value = objective(selector @ solution.y, target)
    return model, x, value, solution, config, x_base, rng, selector


@settings(derandomize=True, deadline=None, max_examples=100 * EXAMPLES)
@example(seed=0, kind="svm", n=4, budget="ball", boxed=True, faces=0.5, attained=True)
@example(seed=1, kind="aux", n=2, budget="ball", boxed=True, faces=1.0, attained=False)
@example(  # a point whose descending axis rows leave the ball: its infeasible rows must score inf
    seed=128, kind="svm", n=2, budget="ball", boxed=False, faces=0.0, attained=False
)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["svm", "svm", "aux", "fd", "tiny"]),
    n=st.integers(2, 6),
    budget=st.sampled_from(["ball", "ball", "inside", "zero"]),
    boxed=st.booleans(),
    faces=st.floats(0.0, 1.0),
    attained=st.booleans(),
)
def test_round_matches_the_reference_on_random_ball_and_box_states(
    seed, kind, n, budget, boxed, faces, attained
):
    """Random states (random_round_state) against the reference round, bit for bit (round_tries).

    SVM points off the margin have all-zero gradient slices, and an
    attained target zeroes every derivative, so zero probe values and a
    zero stall certificate are compared with their signs; the kink pairs
    take the aux and fd routes, and the tiny ball sets a point with no
    feasible probe row on its steepest row alone.
    """
    state = random_round_state(kind, n, budget, boxed, faces, attained, seed)
    if state is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_round_matches_reference(state)


def test_warm_and_cold_solves_agree_along_a_soft_margin_attack():
    """The same three-way re-solve along the soft-margin n=20 seed-0 attack (labels 0, 11 flipped).

    Points with a positive slack free their slack variables, so the
    solves' working sets lose and regain slack-sign bounds.
    """
    model, x_bar = soft_margin_svm(20, 0, [0, 11])
    cfg = svm_config(model, max_iters=200)
    trace = run_attack(x_bar, model, cfg)
    assert len(trace.records) == 200
    x = x_bar
    prev = solve_victim(model, x)
    positive_slack = 0
    for record in trace.records:
        x = project_to_feasible(x + record.step * record.direction, x_bar, cfg.delta)
        problem = model.assemble(x)
        warm = solve_victim(model, x, warm=prev)
        started = solve_victim(model, x)
        cold = solve_qp(problem)
        assert not warm.phase1 and not started.phase1 and cold.phase1
        for sol in (warm, started):
            assert np.abs(sol.y - cold.y).max() <= 1e-10
            assert vars(classify_active(problem, sol)) == vars(classify_active(problem, cold))
        positive_slack += bool(np.any(cold.y[3:] > 1e-6))
        prev = warm
    assert np.array_equal(x, trace.x_final)
    assert positive_slack == len(trace.records)


def test_steepest_direction_scales_a_gradient_whose_square_overflows():
    """|g|^2 overflows for a slice near 1e160: the row comes from a scaled copy, unwarned.

    steepest_direction runs inside the error state run_attack sets.
    """
    ev = object.__new__(_ObjectiveDerivative)
    ev.gradient, ev.route = np.array([1.0, 2.0, 3e160, -4e160]), "linear"
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):  # _drive's
        warnings.simplefilter("error")
        row = ev.steepest_direction(1, 2)
    np.testing.assert_allclose(row, [-0.6, 0.8], rtol=1e-15)


def test_gradient_whose_square_overflows_runs_through_run_attack_unwarned(monkeypatch):
    """y = -diag(1, 1e155) x on H = I: the data gradient at x = (1, 0) is (2, 2e155).

    Its steepest row comes from a scaled copy, and every trial step moves
    y by far more than the objective, 2.0, so the run stalls with no step
    and a finite objective; nothing warns.
    """
    Cx = np.diag([1.0, 1e155])
    model = VictimModel(
        dim_data=2,
        dim_var=2,
        assemble=lambda x: QpProblem(np.eye(2), Cx @ x),
        grad_x_constraint=lambda x, y: np.zeros((0, 2)),
        cross_hessian=lambda x, y, lam: Cx,
    )
    rows, real = [], _ObjectiveDerivative.steepest_direction

    def recording(ev, p, point_dim):
        rows.append(real(ev, p, point_dim))
        return rows[-1]

    monkeypatch.setattr(_ObjectiveDerivative, "steepest_direction", recording)
    config = AttackConfig(target=np.array([0.0, 1.0]), delta=1e-6, point_dim=2, max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_attack(np.array([1.0, 0.0]), model, config)
    assert trace.reason == "stalled" and not trace.records and trace.final_objective == 2.0
    assert len(rows) == 1
    np.testing.assert_allclose(rows[0], [-1e-155, -1.0], rtol=1e-15)


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


def test_backtracking_stops_at_the_round_off_floor():
    """Halving below MIN_STEP rejects the round once no trial step decreases the objective.

    The first trial step, at a tenth of the least curvature sigma of the
    composed quadratic, overshoots and is halved.  With no tolerance to
    stop it, the attack runs down to round-off, where every trial fails.
    """
    model, H, cross = unconstrained_fixture()
    x0 = np.array([0.3, -0.2])
    target = solve_victim(model, x0 + np.array([0.4, -0.3])).y
    A = -np.linalg.solve(H, cross)
    sigma = float(np.linalg.eigvalsh(2.0 * A.T @ A)[0])
    cfg = AttackConfig(
        target=target, delta=10.0, point_dim=2, curvature_bound=sigma / 10.0,
        max_iters=300, tol_improve=0.0, tol_target=0.0,
    )
    trace = run_attack(x0, model, cfg)
    assert trace.reason == "stalled" and 0 < len(trace.records) < 300
    assert trace.final_objective <= 1e-12 * trace.initial_objective
    hist = trace.objective_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_a_first_trial_step_that_overflows_is_rejected_without_a_solve(monkeypatch):
    """-dg / curvature_bound = 1e10 / 1e-300 is inf: _try_step rejects the step and solves nothing.

    Halving never brings an infinite trial step below MIN_STEP, so the
    line search would not end without this exit.
    """
    model, _, _ = unconstrained_fixture()
    x = np.array([0.3, -0.2])
    solution = solve_victim(model, x)
    config = AttackConfig(target=solution.y, delta=10.0, point_dim=2, curvature_bound=1e-300)
    solves = []
    monkeypatch.setattr(attack_module, "solve_victim", lambda *args, **kwargs: solves.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = attack_module._try_step(
            model, x, solution, np.array([1.0, 0.0]), -1e10, 1.0, config, x, np.eye(3),
            k=1, point=0, route="linear",
        )
    assert outcome is None and solves == []


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
