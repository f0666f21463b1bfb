"""Tests for the dense active-set QP solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from semipoison import errors
from semipoison.qp import QpProblem, classify_active, kkt_residuals, solve_qp

from _oracles import enumerate_qp


def random_feasible_qp(rng, n_var, n_ineq, n_eq=0, strictly_convex=True):
    """Random QP with a known strictly feasible interior point."""
    M = rng.standard_normal((n_var, n_var))
    H = M.T @ M + (0.1 if strictly_convex else 0.0) * np.eye(n_var)
    c = rng.standard_normal(n_var)
    y_int = rng.standard_normal(n_var)
    A_ineq = rng.standard_normal((n_ineq, n_var)) if n_ineq else None
    b_ineq = None
    if n_ineq:
        slack = rng.uniform(0.05, 1.0, size=n_ineq)
        b_ineq = -(A_ineq @ y_int) - slack
    A_eq = rng.standard_normal((n_eq, n_var)) if n_eq else None
    b_eq = -(A_eq @ y_int) if n_eq else None
    return QpProblem(H, c, A_ineq, b_ineq, A_eq, b_eq)


def test_equality_projection():
    # min 0.5*||y||^2  s.t.  y1 + y2 = 1
    prob = QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-1.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y, [0.5, 0.5], atol=1e-10)
    assert_allclose(sol.lam, [-0.5], atol=1e-10)
    assert_allclose(sol.value, 0.25, atol=1e-12)


def test_single_active_bound():
    # min 0.5*y^2  s.t.  y >= 1
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y, [1.0], atol=1e-10)
    assert_allclose(sol.lam, [1.0], atol=1e-10)
    st = classify_active(prob, sol)
    assert st.active == [0]
    assert st.weakly_active == []


def test_unconstrained():
    prob = QpProblem(np.diag([2.0, 4.0]), [-2.0, -4.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y, [1.0, 1.0], atol=1e-12)
    assert sol.lam.shape == (0,)


@pytest.mark.parametrize("seed", range(12))
def test_matches_enumeration_oracle_small(seed):
    rng = np.random.default_rng(seed)
    n_var = int(rng.integers(2, 6))
    n_ineq = int(rng.integers(1, 5))
    n_eq = int(rng.integers(0, 2))
    prob = random_feasible_qp(rng, n_var, n_ineq, n_eq)
    sol = solve_qp(prob)
    ref = enumerate_qp(prob.H, prob.c, prob.A_ineq, prob.b_ineq, prob.A_eq, prob.b_eq)
    assert ref is not None
    assert_allclose(sol.value, ref[2], atol=1e-7)
    assert_allclose(sol.y, ref[0], atol=1e-6)


def test_solution_satisfies_kkt_tolerances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_var = int(rng.integers(2, 9))
        prob = random_feasible_qp(rng, n_var, int(rng.integers(0, 7)), int(rng.integers(0, 2)))
        sol = solve_qp(prob)
        res = kkt_residuals(prob, sol.y, sol.lam)
        c_inf = float(np.abs(prob.c).max())
        assert res.stationarity <= 1e-7 * (1.0 + c_inf)
        assert res.primal <= 1e-8
        assert res.dual <= 1e-10
        assert res.complementarity <= 1e-8


def test_scaling_invariance():
    rng = np.random.default_rng(3)
    prob = random_feasible_qp(rng, 4, 3, 1)
    sol = solve_qp(prob)
    alpha = 7.5
    scaled = QpProblem(alpha * prob.H, alpha * prob.c, prob.A_ineq, prob.b_ineq, prob.A_eq, prob.b_eq)
    sol2 = solve_qp(scaled)
    assert_allclose(sol2.y, sol.y, atol=1e-8)
    assert_allclose(sol2.lam, alpha * sol.lam, rtol=1e-6, atol=1e-8)
    assert_allclose(sol2.value, alpha * sol.value, rtol=1e-9)


def test_redundant_constraint_copy_leaves_y_unchanged():
    rng = np.random.default_rng(11)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        prob = random_feasible_qp(rng, 3, 3)
        sol = solve_qp(prob)
        A2 = np.vstack([prob.A_ineq, prob.A_ineq[1:2]])
        b2 = np.concatenate([prob.b_ineq, prob.b_ineq[1:2]])
        sol2 = solve_qp(QpProblem(prob.H, prob.c, A2, b2))
        assert_allclose(sol2.y, sol.y, atol=1e-7)


def test_positive_semidefinite_hessian():
    # flat direction with no incentive to move: minimizer exists
    H = np.diag([1.0, 0.0])
    prob = QpProblem(H, [-1.0, 0.0], A_ineq=[[0.0, -1.0]], b_ineq=[0.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y[0], 1.0, atol=1e-9)
    # flat direction with linear descent and a blocking bound
    prob2 = QpProblem(H, [-1.0, -1.0], A_ineq=[[0.0, 1.0]], b_ineq=[-2.0])
    sol2 = solve_qp(prob2)
    assert_allclose(sol2.y, [1.0, 2.0], atol=1e-9)


def test_unbounded_detected():
    prob = QpProblem(np.diag([1.0, 0.0]), [0.0, -1.0])
    with pytest.raises(errors.Unbounded):
        solve_qp(prob)
    prob2 = QpProblem(np.diag([1.0, 0.0]), [0.0, -1.0], A_ineq=[[-1.0, 0.0]], b_ineq=[0.0])
    with pytest.raises(errors.Unbounded):
        solve_qp(prob2)


def test_infeasible_detected():
    # y <= 0 and y >= 1
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[1.0], [-1.0]], b_ineq=[0.0, 1.0])
    with pytest.raises(errors.Infeasible):
        solve_qp(prob)
    # inconsistent equalities
    prob2 = QpProblem([[1.0]], [0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, -1.0])
    with pytest.raises(errors.Infeasible):
        solve_qp(prob2)


def test_max_iterations():
    prob = QpProblem(np.eye(2), [-10.0, 0.0], A_ineq=[[1.0, 0.0]], b_ineq=[-1.0])
    with pytest.raises(errors.MaxIterations):
        solve_qp(prob, max_iter=1)


def test_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        QpProblem(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(errors.DimensionMismatch):
        QpProblem(np.eye(2), np.zeros(2), A_ineq=np.zeros((1, 3)), b_ineq=np.zeros(1))
    with pytest.raises(errors.DimensionMismatch):
        QpProblem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2))  # asymmetric H
    prob = QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        kkt_residuals(prob, np.zeros(3), np.zeros(0))


def test_kkt_residuals_exact_and_perturbed():
    prob = QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-1.0])
    res = kkt_residuals(prob, np.array([0.5, 0.5]), np.array([-0.5]))
    assert max(res.stationarity, res.primal, res.dual, res.complementarity) <= 1e-12

    bound = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    res2 = kkt_residuals(bound, np.array([1.1]), np.array([1.0]))
    assert res2.stationarity >= 0.09

    res3 = kkt_residuals(bound, np.array([2.0]), np.array([-1.0]))
    assert res3.dual == pytest.approx(1.0)


def test_active_and_weakly_active_classification():
    # bound inactive at the optimum but multiplier-free: not listed
    prob = QpProblem([[1.0]], [-1.0], A_ineq=[[-1.0]], b_ineq=[0.0])
    assert classify_active(prob, solve_qp(prob)).active == []
    # bound active with zero multiplier: weakly active
    prob2 = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[0.0])
    st2 = classify_active(prob2, solve_qp(prob2))
    assert st2.active == [0]
    assert st2.weakly_active == [0]
