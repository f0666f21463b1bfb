"""Tests for directional derivatives of QP solution maps."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semipoison import errors, qp, sensitivity
from semipoison.attack import (
    AttackConfig,
    _ObjectiveDerivative,
    objective,
    run_gradient_baseline,
)
from semipoison.qp import KktSolution, QpProblem, classify_active, solve_qp
from semipoison.sensitivity import (
    build_auxiliary,
    fd_directional_derivative,
    run_oracle_trials,
    semi_derivative,
)
from semipoison.data import normalize, synth_lane_change
from semipoison.victims import (
    SvmModel,
    VictimModel,
    generic_parametric_qp,
    kink_projection_model,
    solve_victim,
    svm_victim,
    toy_bilevel_model,
)


def test_classify_active_threshold_cases():
    # three inequalities with g = (-0.5, 0, 0) and lam = (0, 1e-9, 2)
    prob = QpProblem(
        np.eye(2), np.zeros(2),
        A_ineq=np.zeros((3, 2)), b_ineq=np.array([-0.5, 0.0, 0.0]),
    )
    sol = KktSolution(y=np.zeros(2), lam=np.array([0.0, 1e-9, 2.0]), value=0.0)
    st = classify_active(prob, sol)
    assert st.active == [1, 2]
    assert st.weakly_active == [1]
    assert st.strict == [2]


def test_classify_active_includes_equalities():
    prob = QpProblem(np.eye(2), np.zeros(2), A_eq=np.array([[1.0, 0.0]]), b_eq=np.zeros(1))
    sol = KktSolution(y=np.zeros(2), lam=np.array([0.3]), value=0.0)
    st = classify_active(prob, sol)
    assert st.active == [0]
    assert st.strict == [0]
    assert st.weakly_active == []


def fixed_qp_model(H, c, **rows):
    """Victim whose training QP ignores the one data coordinate."""
    n = len(c)
    n_con = sum(len(rows.get(k, ())) for k in ("A_ineq", "A_eq"))
    return VictimModel(
        dim_data=1,
        dim_var=n,
        assemble=lambda x: QpProblem(H, c, **rows),
        grad_x_constraint=lambda x, y: np.zeros((n_con, 1)),
        cross_hessian=lambda x, y, lam: np.zeros((n, 1)),
    )


def test_licq_rejects_nearly_dependent_working_rows():
    # both equality rows are working rows; the second's R diagonal entry is
    # 1e-10, below TOL_INDEP of its norm
    A = np.array([[1.0, 0.0, 0.0], [1.0, 1e-10, 0.0]])
    model = fixed_qp_model(np.eye(3), np.ones(3), A_eq=A, b_eq=np.zeros(2))
    sol = solve_victim(model, np.zeros(1))
    assert sorted(sol.working) == [0, 1]
    with pytest.raises(errors.RegularityFailure):
        build_auxiliary(model, np.zeros(1), sol)


def test_licq_rejects_more_active_rows_than_the_null_space_holds():
    # a duplicated, strictly active inequality: one copy is the working row,
    # the other has no null-space direction left
    model = fixed_qp_model(
        np.eye(1), [-2.0], A_ineq=np.ones((2, 1)), b_ineq=-np.ones(2)
    )
    sol = solve_victim(model, np.zeros(1))
    assert sol.working.size == 1
    with pytest.raises(errors.RegularityFailure):
        build_auxiliary(model, np.zeros(1), sol)


@pytest.mark.parametrize("copies, margin", [(1, 1.0), (2, None)])
def test_licq_reads_active_rows_outside_the_working_set(copies, margin):
    # y = (1, 0) is the unconstrained minimizer, so y1 - 1 <= 0 is weakly
    # active and never joins the (empty) working set; a second copy of the
    # row is dependent on the first
    model = fixed_qp_model(
        np.eye(2), [-1.0, 0.0],
        A_ineq=np.tile([[1.0, 0.0]], (copies, 1)), b_ineq=-np.ones(copies),
    )
    sol = solve_victim(model, np.zeros(1))
    assert sol.working.size == 0
    if margin is None:
        with pytest.raises(errors.RegularityFailure):
            build_auxiliary(model, np.zeros(1), sol)
    else:
        aux = build_auxiliary(model, np.zeros(1), sol)
        assert aux.structure.weakly_active == [0]
        assert aux.licq_margin == pytest.approx(margin)


@pytest.mark.parametrize("labels, solves", [([1.0, -1.0, 1.0], False), ([1.0, 1.0, -1.0], True)])
def test_svm_rows_near_1e300_raise_no_overflow_warning(labels, solves):
    """Row norms that overflow a plain sum of squares are taken scaled.

    The solve ends in a typed SolverError, or returns a KKT point whose
    LICQ margin build_auxiliary reads without a warning.
    """
    X = np.array([[1e300, -1e300], [5e299, 1e300], [-1e300, 0.3]])
    model = svm_victim(SvmModel(X, np.array(labels)))
    if not solves:
        with pytest.raises(errors.SolverError):
            solve_victim(model, X.ravel())
        return
    sol = solve_victim(model, X.ravel())
    assert 0.0 < build_auxiliary(model, X.ravel(), sol).licq_margin <= 1.0


def test_kink_auxiliary_data():
    model = kink_projection_model()
    x = np.array([0.0])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    assert_allclose(aux.H_aux, [[1.0]])
    assert_allclose(aux.rows[aux.structure.active], [[-1.0]])
    assert_allclose(aux.B, [[-1.0], [0.0]])
    assert aux.structure.active == [0]
    assert aux.structure.weakly_active == [0]
    assert aux.licq_margin == pytest.approx(1.0)


@pytest.mark.parametrize("victim", ["svm", "generic"])
def test_build_auxiliary_does_not_assemble(victim):
    if victim == "svm":
        data = normalize(synth_lane_change(20, seed=0))
        base = svm_victim(SvmModel(data.features, data.labels, C=10.0))
        x = data.features.ravel()
    else:
        base = generic_parametric_qp(11, dim_var=4, dim_data=3, n_ineq=3)
        x = np.array([0.05, -0.1, 0.02])
    calls = []

    def counting_assemble(xv):
        calls.append(xv)
        return base.assemble(xv)

    model = dataclasses.replace(base, assemble=counting_assemble)
    sol = solve_victim(model, x)
    assert len(calls) == 1
    aux = build_auxiliary(model, x, sol)
    assert len(calls) == 1
    assert aux.H_aux is sol.problem.H


def test_kink_one_sided_derivatives():
    model = kink_projection_model()
    x = np.array([0.0])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    assert semi_derivative(aux, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert semi_derivative(aux, np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_strictly_active_solution_is_insensitive():
    model = kink_projection_model()
    x = np.array([-0.5])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    for dx in (1.0, -1.0):
        assert semi_derivative(aux, np.array([dx]))[0] == pytest.approx(0.0, abs=1e-12)


def test_unconstrained_reduction_to_implicit_function():
    model = generic_parametric_qp(3, dim_var=4, dim_data=3, n_ineq=0, n_eq=0)
    x = np.zeros(3)
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    prob = model.assemble(x)
    cross = model.cross_hessian(x, sol.y, np.zeros(0))
    rng = np.random.default_rng(0)
    for _ in range(4):
        dx = rng.standard_normal(3)
        dy = semi_derivative(aux, dx)
        assert_allclose(dy, -np.linalg.solve(prob.H, cross @ dx), atol=1e-10)


def test_positive_homogeneity():
    model = generic_parametric_qp(11, dim_var=4, dim_data=3, n_ineq=3)
    x = np.array([0.05, -0.1, 0.02])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    dx = np.array([0.3, -0.5, 0.8])
    base = semi_derivative(aux, dx)
    for alpha in (0.5, 2.0, 10.0):
        scaled = semi_derivative(aux, alpha * dx)
        assert_allclose(scaled, alpha * base, rtol=1e-8, atol=1e-12)
    # the kinked fixture is positively homogeneous too, one side at a time
    km = kink_projection_model()
    ks = solve_victim(km, np.array([0.0]))
    kaux = build_auxiliary(km, np.array([0.0]), ks)
    for alpha in (0.5, 2.0, 10.0):
        assert semi_derivative(kaux, np.array([alpha]))[0] == pytest.approx(alpha, rel=1e-12)


def test_oracle_agreement_randomized():
    trials = run_oracle_trials(60, seed=123)
    ok = [t for t in trials if t.status == "ok"]
    assert len(ok) == 60
    worst = max(t.deviation for t in ok)
    assert worst <= 5e-4, f"worst deviation {worst}"


def test_ill_conditioned_fixture_solves_to_kkt_point():
    # the two active rows have singular values 2.3 and 3.5e-4, so the
    # multipliers reach 7e5 and |lam * g| at g = 5e-14 is 3.6e-8: above an
    # absolute 1e-8 complementarity bound, within the multiplier-scaled one
    model = generic_parametric_qp(2136513100, 2, 1, 5, 1)
    x = np.array([-0.2112894533025275])
    sol = solve_victim(model, x)
    problem = model.assemble(x)
    res = qp.kkt_residuals(problem, sol.y, sol.lam)
    assert res.stationarity <= qp.TOL_STATIONARITY * (1.0 + np.abs(problem.c).max())
    assert res.primal <= qp.TOL_FEAS
    assert res.dual <= qp.TOL_DUAL
    assert res.complementarity <= qp.TOL_COMPLEMENTARITY * (1.0 + np.abs(sol.lam).max())


def test_oracle_trials_skip_base_solve_max_iterations(monkeypatch):
    def failing_solve(model, x):
        raise errors.MaxIterations("KKT tolerances violated")

    monkeypatch.setattr(sensitivity, "solve_victim", failing_solve)
    trials = run_oracle_trials(1, seed=0)
    assert [t.status for t in trials] == ["skipped (solve)"] * 50


def test_local_lipschitz_bound():
    # max semi-derivative norm over sampled directions bounds difference quotients
    h = 1e-4
    rng = np.random.default_rng(8)
    for seed in (0, 4, 9):
        model = generic_parametric_qp(seed, dim_var=4, dim_data=3, n_ineq=3)
        x = 0.1 * rng.standard_normal(3)
        sol = solve_victim(model, x)
        aux = build_auxiliary(model, x, sol)
        dirs = [rng.standard_normal(3) for _ in range(12)]
        dirs = [d / np.linalg.norm(d) for d in dirs]
        bound = max(np.linalg.norm(semi_derivative(aux, d)) for d in dirs)
        for d in dirs:
            quot = np.linalg.norm(solve_victim(model, x + h * d).y - sol.y) / h
            assert quot <= bound + 1e-3


def test_toy_kink_violates_licq():
    model = toy_bilevel_model()
    x = np.array([0.0])
    sol = solve_victim(model, x)
    with pytest.raises(errors.RegularityFailure):
        build_auxiliary(model, x, sol)


def test_near_kink_point_fails_licq_without_retry(monkeypatch):
    # just right of the toy kink both mirrored bounds lie within TOL_ACT of
    # zero, so two active rows meet one variable and LICQ fails; the
    # auxiliary problem is built once and the failure is not retried
    model = toy_bilevel_model()
    x = np.array([4e-8])
    sol = solve_victim(model, x)
    problem = model.assemble(x)
    assert np.all(np.abs(problem.constraint_values(sol.y)) <= qp.TOL_ACT)
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build_auxiliary(*args)

    monkeypatch.setattr(sensitivity, "build_auxiliary", counting_build)
    with pytest.raises(errors.RegularityFailure):
        semi_derivative(sensitivity.build_auxiliary(model, x, sol), np.array([-1.0]))
    assert len(calls) == 1


def flat_direction_model():
    """Victim with a flat objective direction exposed by the data coupling."""
    return VictimModel(
        dim_data=2,
        dim_var=2,
        assemble=lambda x: QpProblem(np.diag([1.0, 0.0]), np.array([-x[0], -x[1]])),
        grad_x_constraint=lambda x, y: np.zeros((0, 2)),
        cross_hessian=lambda x, y, lam: -np.eye(2),
    )


def test_aux_unbounded_when_second_order_condition_fails():
    model = flat_direction_model()
    x = np.array([0.3, 0.0])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(aux, np.array([0.0, 1.0]))


def test_singular_adjoint_scores_by_aux_then_fd():
    """A flat Z'HZ: no adjoint, so each direction goes to the aux QP, then to FD.

    At x = (0.3, 0) the objective |y - (0, 1)|^2 has grad_y = (0.6, -2).
    Along +-e1 the aux QP gives dy = +-e1; along e2 it is unbounded, and
    the FD re-solve then meets the same flat direction and raises.
    """
    model = flat_direction_model()
    x = np.array([0.3, 0.0])
    sol = solve_victim(model, x)
    selector, target = np.eye(2), np.array([0.0, 1.0])
    ev = _ObjectiveDerivative(model, x, sol, selector, target, objective(sol.y, target))
    assert qp.adjoint(sol, ev.grad_y) is None and ev.gradient is None
    values, routes = ev.dG(0, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert_allclose(values, [0.6, -0.6], rtol=1e-12)
    assert routes == ["aux", "aux"]
    e2 = np.array([0.0, 1.0])
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(ev.aux, e2)
    fd_calls = []
    fd = ev._finite_difference
    ev._finite_difference = lambda dx: fd_calls.append(dx) or fd(dx)
    with pytest.raises(errors.Unbounded):
        ev.dG(0, e2[None])
    assert len(fd_calls) == 1


def test_gradient_baseline_raises_singular_hessian_on_flat_direction():
    config = AttackConfig(target=np.zeros(2), delta=1.0, point_dim=2)
    with pytest.raises(errors.SingularHessian):
        run_gradient_baseline(np.array([0.3, 0.0]), flat_direction_model(), config)


def test_fd_directional_derivative_validation():
    model = kink_projection_model()
    x = np.array([0.2])
    sol = solve_victim(model, x)
    with pytest.raises(errors.DimensionMismatch):
        fd_directional_derivative(model, x, np.zeros(1), base_solution=sol)
    with pytest.raises(errors.DimensionMismatch):
        fd_directional_derivative(model, x, np.ones(2), base_solution=sol)


def test_semi_derivative_direction_validation():
    model = kink_projection_model()
    sol = solve_victim(model, np.array([0.5]))
    aux = build_auxiliary(model, np.array([0.5]), sol)
    with pytest.raises(errors.DimensionMismatch):
        semi_derivative(aux, np.zeros(1))
    with pytest.raises(errors.DimensionMismatch):
        semi_derivative(aux, np.ones(2))
