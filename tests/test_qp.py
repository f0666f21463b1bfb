"""Tests for the dense active-set QP solver."""

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semipoison import errors, qp, sensitivity
from semipoison.data import Dataset, normalize, synth_lane_change
from semipoison.qp import (
    QpProblem,
    _independent_factors,
    classify_active,
    kkt_residuals,
    solve_qp,
)
from semipoison.victims import SvmModel, svm_assemble, svm_feasible_start, svm_victim

from _oracles import enumerate_qp, independent_subset_mgs, lstsq_multipliers


def random_feasible_qp(rng, n_var, n_ineq, n_eq=0, strictly_convex=True):
    """Random QP with a known strictly feasible interior point."""
    return random_feasible_qp_and_point(rng, n_var, n_ineq, n_eq, strictly_convex)[0]


def random_feasible_qp_and_point(rng, n_var, n_ineq, n_eq=0, strictly_convex=True):
    """random_feasible_qp plus its interior point, from the same draws."""
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
    return QpProblem(H, c, A_ineq, b_ineq, A_eq, b_eq), y_int


def test_equality_projection():
    # min 0.5*||y||^2  s.t.  y1 + y2 = 1
    prob = QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-1.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y, [0.5, 0.5], atol=1e-10)
    assert_allclose(sol.lam, [-0.5], atol=1e-10)
    assert_allclose(sol.value, 0.25, atol=1e-12)


def test_consistent_redundant_equalities():
    # the second row is twice the first: it stays out of the working set
    prob = QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[-1.0, -2.0])
    sol = solve_qp(prob)
    assert_allclose(sol.y, [0.5, 0.5], atol=1e-10)
    res = kkt_residuals(prob, sol.y, sol.lam)
    assert res.within_default_tolerances(0.0, float(np.abs(sol.lam).max()))
    assert sol.lam[1] == 0.0
    assert_allclose(sol.lam[0], -0.5, atol=1e-12)
    # the same with a warm start, which skips phase 1
    warm = solve_qp(prob, start=sol.y)
    assert warm.lam[1] == 0.0
    assert kkt_residuals(prob, warm.y, warm.lam).within_default_tolerances(0.0, 0.5)


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
    with pytest.raises(errors.DimensionMismatch, match=r"b_ineq must have shape \(1,\)"):
        QpProblem(np.eye(2), np.zeros(2), A_ineq=np.zeros((1, 2)), b_ineq=np.zeros(2))
    with pytest.raises(errors.DimensionMismatch, match=r"b_eq must have shape \(2,\)"):
        QpProblem(np.eye(2), np.zeros(2), A_eq=np.eye(2), b_eq=np.zeros(1))
    prob = QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        kkt_residuals(prob, np.zeros(3), np.zeros(0))
    with pytest.raises(errors.DimensionMismatch, match=r"lam must have shape \(1,\)"):
        kkt_residuals(QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]]), np.zeros(2), np.zeros(2))


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


def test_constraint_rows_stacked_once_inequalities_first():
    A_ineq, b_ineq = np.arange(6.0).reshape(3, 2), np.arange(3.0)
    A_eq, b_eq = np.array([[1.0, -1.0]]), np.array([5.0])
    prob = QpProblem(np.eye(2), np.zeros(2), A_ineq, b_ineq, A_eq, b_eq)
    assert np.array_equal(prob.A, np.vstack([A_ineq, A_eq]))
    assert np.array_equal(prob.b, [0.0, 1.0, 2.0, 5.0])
    for part, whole in [(prob.A_ineq, prob.A), (prob.A_eq, prob.A), (prob.b_ineq, prob.b),
                        (prob.b_eq, prob.b)]:
        assert np.shares_memory(part, whole)
    assert np.array_equal(prob.A_eq, A_eq) and np.array_equal(prob.b_ineq, b_ineq)
    free = QpProblem(np.eye(2), np.zeros(2))
    assert free.A.shape == (0, 2) and free.b.shape == (0,)


@pytest.mark.parametrize("name", ["H", "c", "A_ineq", "b_ineq", "A_eq", "b_eq"])
def test_non_finite_problem_data_rejected(name):
    data = {
        "H": np.eye(2), "c": np.ones(2),
        "A_ineq": np.ones((1, 2)), "b_ineq": -np.ones(1),
        "A_eq": np.array([[1.0, -1.0]]), "b_eq": np.zeros(1),
    }
    QpProblem(**data)
    for bad in (np.nan, np.inf, -np.inf):
        broken = dict(data)
        broken[name] = data[name].copy()
        broken[name].flat[0] = bad
        with pytest.raises(ValueError, match=name):
            QpProblem(**broken)


def test_multipliers_match_least_squares_reference():
    """On criterion 8's problems, lam solves A_S' lam = -(H y + c) on its support S."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        prob = random_feasible_qp(rng, n_var, n_ineq, n_eq)
        sol = solve_qp(prob)
        support = [i for i in range(prob.n_con) if i >= prob.n_ineq or sol.lam[i] > 0.0]
        ref = lstsq_multipliers(prob.A[support], prob.H @ sol.y + prob.c)
        gap = np.abs(sol.lam[support] - ref).max(initial=0.0)
        assert gap <= 1e-10 * (1.0 + np.abs(ref).max(initial=0.0))


def test_factors_stay_exact_through_updates(monkeypatch):
    """On criterion 8's problems the updated factors still factor A_w.

    At every iteration, so after each row added and each row dropped, Q
    stays orthogonal and Q[:, :m] R reproduces A_w' (R^-1 is T's leading
    block, and T is zero outside it), both within 1e-12 of the largest
    entry.
    """
    inner = qp._working_subproblem
    seen = []

    def checked(H, c, A, b, y, factors):
        check_factors(factors, A)
        seen.append((A.shape[1], factors.rows.size))
        return inner(H, c, A, b, y, factors)

    monkeypatch.setattr(qp, "_working_subproblem", checked)
    rng = np.random.default_rng(2024)
    adds = drops = 0
    for _ in range(500):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        seen.clear()
        solve_qp(random_feasible_qp(rng, n_var, n_ineq, n_eq))
        # consecutive iterations of one loop (phase 1 has one more variable)
        for (n0, m0), (n1, m1) in zip(seen, seen[1:]):
            adds += n0 == n1 and m1 == m0 + 1
            drops += n0 == n1 and m1 == m0 - 1
    assert adds > 100 and drops > 10


@pytest.mark.parametrize("scales", [(1.0, 2.0), (2.0, 1.0)])
def test_ratio_test_tie_goes_to_the_lower_index(scales):
    """Two rows block at the same step length; the lower index joins (Bland).

    Both rows bound y_0 <= 1, one scaled by 2, so lam tells which row
    joined the working set: the row with scale s carries 1 / s.
    """
    s0, s1 = scales
    prob = QpProblem(np.eye(2), [-2.0, 0.0], A_ineq=[[s0, 0.0], [s1, 0.0]], b_ineq=[-s0, -s1])
    sol = solve_qp(prob)
    assert sol.iterations == 2
    assert_allclose(sol.y, [1.0, 0.0], atol=1e-12)
    assert sol.lam[1] == 0.0
    assert_allclose(sol.lam[0], 1.0 / s0, atol=1e-12)


def check_factors(factors, A):
    """Q is orthogonal, T is zero outside its leading m x m block R^-1, and Q[:, :m] R = A[w]'."""
    Q, T, n, m = factors.Q, factors.T, A.shape[1], factors.rows.size
    assert Q.shape == T.shape == (n, n)
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-12
    assert not T[m:].any() and not T[:, m:].any()
    rows = A[factors.rows]
    rebuilt = Q[:, :m] @ np.linalg.inv(T[:m, :m]) if m else np.zeros((n, 0))
    assert np.abs(rebuilt - rows.T).max(initial=0.0) <= 1e-12 * np.abs(rows).max(initial=0.0)


def test_solution_carries_its_problem():
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    for sol in (solve_qp(prob), solve_qp(prob, start=np.array([2.0]))):
        assert sol.problem is prob
        assert list(sol.factors.rows) == [0]
        check_factors(sol.factors, sol.problem.A)
    rng = np.random.default_rng(11)
    sizes = set()
    for _ in range(40):
        prob, y_int = random_feasible_qp_and_point(rng, 5, 8, int(rng.integers(0, 3)))
        cold = solve_qp(prob)
        for sol in (cold, solve_qp(prob, start=y_int)):
            assert sol.problem is prob
            check_factors(sol.factors, sol.problem.A)
            sizes.add(len(sol.factors.rows))
    assert sizes >= {1, 2, 3, 4, 5}  # from one working row to a full set


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def _same_bytes(a, b):
    return a.y.tobytes() == b.y.tobytes() and a.lam.tobytes() == b.lam.tobytes() and (
        a.value == b.value and a.iterations == b.iterations
    )


def test_warm_starts_on_criterion_8_problems():
    """Feasible starts reach the cold optimum; any other start is phase 1 exactly."""
    rng = np.random.default_rng(2024)
    warm_used = fallbacks = 0
    for _ in range(500):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        prob, y_int = random_feasible_qp_and_point(rng, n_var, n_ineq, n_eq)
        cold = solve_qp(prob)
        assert cold.phase1 and cold.iterations >= 1
        for start in (y_int, cold.y):
            warm = solve_qp(prob, start=start)
            assert not warm.phase1
            assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            warm_used += 1
        starts = [np.full(n_var, np.nan), np.where(np.arange(n_var) == 0, np.inf, y_int)]
        if prob.n_con:
            # push the interior point onto g_0 = 1, past every feasibility tolerance
            a = prob.A[0]
            starts.append(y_int + (1.0 - (a @ y_int + prob.b[0])) * a / (a @ a))
            assert prob.constraint_values(starts[-1])[0] > 0.5
        for start in starts:
            fallback = solve_qp(prob, start=start)
            assert fallback.phase1
            assert _same_bytes(fallback, cold)
            fallbacks += 1
    assert warm_used == 1000 and fallbacks > 1000


def test_warm_start_shape_is_checked():
    prob = QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        solve_qp(prob, start=np.zeros(3))


def test_warm_start_from_optimum_needs_one_iteration():
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    sol = solve_qp(prob, start=np.array([1.0]))
    assert not sol.phase1 and sol.iterations == 1
    assert_allclose(sol.lam, [1.0], atol=1e-10)


def test_reachable_working_set_minimizer_takes_one_iteration():
    """A full step to the working-set minimizer ends the solve in that iteration."""
    free = QpProblem(np.eye(2), [-1.0, 2.0])
    inactive = QpProblem(np.eye(2), [-1.0, 2.0], A_ineq=[[1.0, 0.0]], b_ineq=[-5.0])
    for prob in (free, inactive):
        sol = solve_qp(prob)
        assert sol.iterations == 1
        assert_allclose(sol.y, [1.0, -2.0], atol=1e-12)
    assert_allclose(solve_qp(inactive).lam, [0.0])


@pytest.mark.parametrize("tilt", [0.0, 1e-13])
@pytest.mark.parametrize("n_var", [2, 3])
def test_row_in_working_span_does_not_join(n_var, tilt):
    """A warm start at a degenerate vertex reaches the cold solution.

    Row 2 is row 0 plus row 1 (its second entry off by `tilt`), offset by
    1e-9, and the start is within 1e-9 of all three rows.  The start set
    keeps rows 0 and 1, so the first step is a correction of length
    about 1e-9 that row 2 blocks at t = 0.  Lying in the working rows'
    span, row 2 must not join.  With n_var = 3 the last variable is free
    and pulled to 1, so the working rows leave a null space.
    """
    A = np.zeros((3, n_var))
    A[0, 0] = A[1, 1] = A[2, 0] = 1.0
    A[2, 1] = 1.0 + tilt
    c = np.where(np.arange(n_var) == 2, -1.0, 0.0)
    prob = QpProblem(np.eye(n_var), c, A_ineq=A, b_ineq=[0.0, 0.0, 1e-9])
    start = np.where(np.arange(n_var) < 2, -5e-10, 0.0)
    assert np.abs(prob.constraint_values(start)).max() <= 1e-9
    cold = solve_qp(prob)
    warm = solve_qp(prob, start=start)
    assert not warm.phase1
    assert_allclose(warm.y, cold.y, rtol=0.0, atol=1e-12)
    assert_allclose(warm.lam, cold.lam, rtol=0.0, atol=1e-12)


def test_nearly_dependent_blocking_row_joins():
    """A row 1e-6 of its norm off the working rows' span still blocks and joins.

    From (0, -2) with row 0 working, the step toward (0, 0) meets row 1 at
    (0, -1); skipping row 1 there would end 1e-6 outside it.
    """
    H, c = np.eye(2), [-1.0, 0.0]
    A, b = [[1.0, 0.0], [1.0, 1e-6]], [0.0, 1e-6]
    sol = solve_qp(QpProblem(H, c, A_ineq=A, b_ineq=b), start=[0.0, -2.0])
    ref = enumerate_qp(H, c, A, b)
    assert_allclose(sol.y, ref[0], rtol=0.0, atol=1e-12)
    assert_allclose(sol.lam, ref[1], rtol=1e-9)


def test_start_rows_are_in_decreasing_index():
    """Working order: the equality rows, then the start's active rows, highest first.

    Bland's rule drops the lowest index, so the rows it drops first sit at
    the tail of the factors.  The start is the optimum, with rows 0, 2
    and 3 active and row 1 slack, so no row joins or leaves.
    """
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 6))
    b = np.array([0.0, -1.0, 0.0, 0.0, 0.0])
    lam = np.array([1.0, 0.0, 2.0, 0.5, -0.7])  # rows 0-3 inequalities, row 4 an equality
    prob = QpProblem(np.eye(6), -(A.T @ lam), A[:4], b[:4], A[4:], b[4:])
    sol = solve_qp(prob, start=np.zeros(6))
    assert not sol.phase1 and sol.iterations == 1
    assert sol.factors.rows.tolist() == [4, 3, 2, 0]
    assert_allclose(sol.lam, lam, atol=1e-12)
    check_factors(sol.factors, sol.problem.A)


ROW_KINDS = ["fresh", "dup", "scaled", "zero"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_var=st.integers(1, 4),
    eq_kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=3),
    ineq_kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=6),
    rank_h=st.integers(0, 4),
    near_singular=st.booleans(),
)
def test_degenerate_rows_give_kkt_point_or_typed_error(
    seed, n_var, eq_kinds, ineq_kinds, rank_h, near_singular
):
    """Duplicated, scaled and zero rows, and PSD H of any rank or near-singular.

    Each row is fresh, a copy or a scaled copy of an earlier row of
    either block, or zero.  The rows hold at a known point, half of the
    inequalities with zero slack, so copies are active there together.
    A near-singular H has largest eigenvalue 1 and the others log-uniform
    down to 1e-13.  Cold and warm from that point, solve_qp returns a
    point within the KKT tolerances or raises a SemipoisonError.
    """
    rng = np.random.default_rng(seed)
    if near_singular:
        U = np.linalg.qr(rng.standard_normal((n_var, n_var)))[0]
        eigs = 10.0 ** rng.uniform(-13.0, 0.0, n_var)
        eigs[0] = 1.0
        H = (U * eigs) @ U.T
    else:
        M = rng.standard_normal((min(rank_h, n_var), n_var))
        H = M.T @ M
    c = rng.standard_normal(n_var)
    rows = []
    for kind in eq_kinds + ineq_kinds:
        if kind == "zero":
            rows.append(np.zeros(n_var))
        elif kind == "fresh" or not rows:
            rows.append(rng.standard_normal(n_var))
        else:
            scale = 1.0 if kind == "dup" else rng.uniform(-5.0, 5.0)
            rows.append(scale * rows[rng.integers(len(rows))])
    A = np.array(rows).reshape(-1, n_var)
    y_feas = rng.standard_normal(n_var)
    slack = np.where(rng.random(len(rows)) < 0.5, 0.0, rng.uniform(0.1, 1.0, len(rows)))
    slack[: len(eq_kinds)] = 0.0
    b = -(A @ y_feas) - slack
    m = len(eq_kinds)
    prob = QpProblem(H, c, A[m:], b[m:], A[:m], b[:m])
    for start in (None, y_feas):
        try:
            sol = solve_qp(prob, start=start)
        except errors.SemipoisonError:
            continue
        res = kkt_residuals(prob, sol.y, sol.lam)
        lam_inf = float(np.abs(sol.lam).max(initial=0.0))
        assert res.within_default_tolerances(float(np.abs(c).max()), lam_inf)


# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, *names):
    """Wrap each named qp function to count its calls; returns the counts."""
    calls = collections.Counter()
    for name in names:
        inner = getattr(qp, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(qp, name, counted)
    return calls


def test_one_projection_starts_the_loop(monkeypatch):
    """The origin violates rows 0 and 1, and its projection onto them is feasible.

    Phase 1 factors rows 1 and 0 once, for the projection, and the loop
    starts from those factors: no auxiliary t-loop, no second factorization.
    """
    H, c = np.eye(2), [-3.0, 0.0]
    A, b = [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [1.0, 1.0, -10.0]
    calls = _count_calls(monkeypatch, "_active_set_loop", "_independent_factors")
    sol = solve_qp(QpProblem(H, c, A_ineq=A, b_ineq=b))
    assert sol.phase1
    assert calls == {"_active_set_loop": 1, "_independent_factors": 1}
    ref = enumerate_qp(H, c, A, b)
    assert_allclose(sol.y, ref[0], rtol=0.0, atol=1e-12)
    assert_allclose(sol.lam, ref[1], rtol=0.0, atol=1e-12)


def test_projection_outside_another_row_runs_the_t_loop(monkeypatch):
    """Projected onto row 0, the origin lands at (1, 0), outside row 1.

    The auxiliary t-loop then runs from the origin, and the main loop
    from its point reaches the enumerated optimum.
    """
    H, c = np.eye(2), np.zeros(2)
    A, b = [[-1.0, 0.0], [1.0, -1.0]], [1.0, -0.5]
    prob = QpProblem(H, c, A_ineq=A, b_ineq=b)
    assert prob.constraint_values(np.array([1.0, 0.0]))[1] > qp.TOL_FEAS
    calls = _count_calls(monkeypatch, "_active_set_loop")
    sol = solve_qp(prob)
    assert sol.phase1 and calls["_active_set_loop"] == 2  # the t-loop, then the main loop
    ref = enumerate_qp(H, c, A, b)
    assert_allclose(sol.y, ref[0], rtol=0.0, atol=1e-12)
    assert_allclose(sol.lam, ref[1], rtol=0.0, atol=1e-12)


def test_violated_row_in_the_equalities_span_goes_to_the_t_loop(monkeypatch):
    """Row 0, y_0 >= 1, is a multiple of the equality row y_0 = 0 and fails all along it.

    The projection's factorization drops row 0, so the projection cannot
    satisfy it, and the t-loop decides: no feasible point.  Inconsistent
    equalities raise before any projection.
    """
    H, c = np.eye(2), np.zeros(2)
    prob = QpProblem(H, c, A_ineq=[[-2.0, 0.0]], b_ineq=[2.0], A_eq=[[1.0, 0.0]], b_eq=[0.0])
    calls = _count_calls(monkeypatch, "_active_set_loop", "_independent_factors")
    with pytest.raises(errors.Infeasible, match="no feasible point"):
        solve_qp(prob)
    # equality rows, then equality and violated rows; the t-loop starts on the
    # equality rows' factors
    assert calls == {"_independent_factors": 2, "_active_set_loop": 1}
    inconsistent = QpProblem(
        H, c, A_ineq=[[-1.0, 0.0]], b_ineq=[1.0], A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, -1.0]
    )
    with pytest.raises(errors.Infeasible, match="equality constraints are inconsistent"):
        solve_qp(inconsistent)
    assert calls == {"_independent_factors": 3, "_active_set_loop": 1}


def test_phase1_factors_match_a_recomputation(monkeypatch):
    """The factors phase 1 hands to the loop are _independent_factors' on its rows, bit for bit.

    The random QPs of criterion 8, with and without equality rows, reach
    all three of phase 1's hand-overs: a feasible equality point, a
    feasible projection, and the t-loop's start on the equality rows.
    The t-loop's factors border the equality factors by a unit vector,
    where LAPACK writes some zeros as -0.0, so they match by value.
    """
    inner_loop, inner_phase1 = qp._active_set_loop, qp._phase1
    handed = collections.Counter()
    in_phase1 = []

    def checked(problem, y, max_iter=None, factored=None):
        if factored is not None:
            rows, factors = factored
            again = _independent_factors(problem.A, rows, problem.n_eq)
            pairs = [(again.rows, factors.rows), (again.Q, factors.Q), (again.T, factors.T)]
            if in_phase1:
                assert all(np.array_equal(a, b) for a, b in pairs)
                handed["t-loop"] += 1
            else:
                assert all(a.tobytes() == b.tobytes() for a, b in pairs)
                handed[rows.size > problem.n_eq] += 1
        return inner_loop(problem, y, max_iter, factored)

    def phase1(problem):
        in_phase1.append(problem)
        try:
            return inner_phase1(problem)
        finally:
            in_phase1.pop()

    monkeypatch.setattr(qp, "_active_set_loop", checked)
    monkeypatch.setattr(qp, "_phase1", phase1)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        solve_qp(random_feasible_qp(rng, n_var, n_ineq, n_eq))
    assert handed[False] > 10 and handed[True] > 10 and handed["t-loop"] > 10


def test_oracle_trials_factor_each_start_once(monkeypatch):
    """run_oracle_trials(500, seed=0) makes at most 1,092 factorizations.

    Phase 1 hands the rows it factored to the loop, and its t-loop starts
    on phase 1's equality factors.  The FD re-solve starts warm on the
    base solution's working rows, and the derivative is solved on the
    training factors.  Factoring the equality rows in phase 1 and again
    at the start of both loops took 3,359; with a cold auxiliary QP per
    trial and phase 1 in 331 of the 500 FD re-solves, 1,689.
    """
    calls = _count_calls(monkeypatch, "_independent_factors")
    sensitivity.run_oracle_trials(500, seed=0)
    assert calls["_independent_factors"] <= 1092


# ---------------------------------------------------------------------------
# reduced Hessian
# ---------------------------------------------------------------------------


def _cold_svm_problem(n):
    data = normalize(synth_lane_change(n, seed=0))
    return svm_victim(SvmModel(data.features, data.labels, C=10.0)).assemble(data.features.ravel())


def _flat_qp(rng):
    """A QP in 20-30 variables of which 0-4 are curved, boxed in [-1, 1]^n.

    With none curved it is an LP.  Up to five general rows are offset
    from an interior point, so some fail at 0 and phase 1 must move off it.
    """
    n_var = int(rng.integers(20, 31))
    curved = rng.choice(n_var, size=int(rng.integers(0, 5)), replace=False)
    H = np.zeros((n_var, n_var))
    if curved.size:
        M = rng.standard_normal((int(rng.integers(1, curved.size + 1)), curved.size))
        H[np.ix_(curved, curved)] = M.T @ M
    G = rng.standard_normal((int(rng.integers(0, 6)), n_var))
    y_int = rng.uniform(-0.5, 0.5, n_var)
    A = np.vstack([np.eye(n_var), -np.eye(n_var), G])
    b = np.concatenate([-np.ones(2 * n_var), -(G @ y_int) - rng.uniform(0.05, 1.0, G.shape[0])])
    return QpProblem(H, rng.standard_normal(n_var), A, b)


def test_cold_svm_and_flat_qps_reach_kkt_points():
    """Phase 1 (a rank-1 Hessian) and QPs with few curved variables.

    Both leave most null-space directions flat, so the working-set
    subproblem often returns a flat ray or a minimizer with zero curvature
    along part of the null space.
    """
    rng = np.random.default_rng(13)
    problems = [_cold_svm_problem(n) for n in (20, 40, 80)]
    problems += [_flat_qp(rng) for _ in range(50)]
    for i, prob in enumerate(problems):
        sol = solve_qp(prob)
        assert sol.phase1 or i >= 3
        res = kkt_residuals(prob, sol.y, sol.lam)
        lam_inf = float(np.abs(sol.lam).max(initial=0.0))
        assert res.within_default_tolerances(float(np.abs(prob.c).max()), lam_inf)


def test_overflowing_objective_value_is_max_iterations():
    """An objective value that overflows is a typed error, not a RuntimeWarning.

    At C = 1e308 the KKT gate's tolerances are about 1e301, and this
    solve passes the gate at a point where c @ y overflows.
    """
    data = synth_lane_change(20, seed=1)
    labels = data.labels.copy()
    labels[2] = -labels[2]
    data = normalize(Dataset(data.features, labels, seed=1))
    svm = SvmModel(data.features, data.labels, C=1e308)
    x = data.features.ravel()
    start = svm_feasible_start(svm, x, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.MaxIterations, match="objective value at the KKT point"):
            solve_qp(svm_assemble(svm, x), start=start)


def test_row_norms_keep_every_bit_and_do_not_overflow():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 5)) * 10.0 ** np.arange(-100, 150, 32)[:, None]
    A[3] = 0.0
    assert np.abs(A).max() > 1e100  # the scaled route, whose squares all fit here
    assert np.array_equal(qp.row_norms(A), np.linalg.norm(A, axis=1))
    huge = np.array([[1e300, -1e300], [3e300, 4e300]])
    assert_allclose(qp.row_norms(huge), [np.sqrt(2.0) * 1e300, 5e300], rtol=1e-15)


# ---------------------------------------------------------------------------
# working-set row selection
# ---------------------------------------------------------------------------


def _independent_subset(rows, base):
    """Indices into rows of those _independent_factors keeps after the base rows."""
    stack = np.vstack([base, rows])
    live = _independent_factors(stack, np.arange(len(stack)), len(base)).rows
    return [int(i) - len(base) for i in live if i >= len(base)]


def _planted_rows(rng, n_var, n_rows, base):
    """Random rows with planted dependencies on the base and earlier rows.

    Kinds: fresh random rows, exact duplicates, scaled copies, zero rows,
    and combinations of earlier rows plus a residual orthogonal to all of
    them of 1e-9 or 1e-7 relative size (below and above the 1e-8 cut).
    """
    rows = []
    for _ in range(n_rows):
        prev = np.vstack([base] + rows) if (base.shape[0] or rows) else np.zeros((0, n_var))
        kind = rng.choice(["fresh", "dup", "scaled", "zero", "resid9", "resid7"])
        if kind == "zero" or (kind != "fresh" and prev.shape[0] == 0):
            row = np.zeros(n_var) if kind == "zero" else rng.standard_normal(n_var)
        elif kind == "fresh":
            row = rng.standard_normal(n_var)
        elif kind == "dup":
            row = prev[rng.integers(prev.shape[0])].copy()
        elif kind == "scaled":
            row = rng.uniform(-5.0, 5.0) * prev[rng.integers(prev.shape[0])]
        else:
            combo = rng.standard_normal(prev.shape[0]) @ prev
            _, s, Vt = np.linalg.svd(prev)
            rank = int(np.sum(s > 1e-10 * s[0]))
            if rank == n_var or np.linalg.norm(combo) == 0.0:
                row = combo
            else:
                eps = 1e-9 if kind == "resid9" else 1e-7
                row = combo + eps * np.linalg.norm(combo) * Vt[rank]
        rows.append(row[None])
    return np.vstack(rows)


def _relative_residuals(rows, base, keep):
    """Each row's residual off base plus the kept rows before it, over its norm.

    An SVD basis, projected twice: a reference independent of both
    Gram-Schmidt loops.
    """
    out = np.zeros(rows.shape[0])
    for i, row in enumerate(rows):
        scale = np.linalg.norm(row)
        if scale <= 1e-14:
            continue
        prior = np.vstack([base, rows[[j for j in keep if j < i]]])
        v = row
        if prior.shape[0]:
            U, sv, _ = np.linalg.svd(prior.T, full_matrices=False)
            Q = U[:, sv > 1e-12 * sv[0]]
            v = v - Q @ (Q.T @ v)
            v = v - Q @ (Q.T @ v)
        out[i] = np.linalg.norm(v) / scale
    return out


@pytest.mark.parametrize("eps, kept", [(1e-14, [0]), (1e-9, [0, 1])])
def test_base_row_threshold_is_absolute(eps, kept):
    """A base row counts when its residual off the base rows before it exceeds 1e-12.

    The second base row is the first plus eps times an orthogonal
    direction of norm sqrt(2).  As a non-base row the 1e-9 copy would be
    dropped, since its residual is below 1e-8 of its norm.
    """
    a = np.array([[1.0, 2.0, 2.0]])
    base = np.vstack([a, a + eps * np.array([[0.0, 1.0, -1.0]])])
    factors = _independent_factors(base, np.arange(2), 2)
    k = len(kept)
    assert factors.rows.tolist() == kept
    assert_allclose(factors.Q[:, :k] @ np.linalg.inv(factors.T[:k, :k]), base[kept].T, atol=1e-12)
    assert _independent_subset(base[1:], base[:1]) == []


@pytest.mark.parametrize("with_base", [False, True])
def test_independent_subset_matches_gram_schmidt_oracle(with_base):
    """Same rows as the one-pass modified Gram-Schmidt loop it replaced.

    The loop loses orthogonality after keeping a row with a 1e-7 relative
    residual and can then keep a later row that lies in the span, ending
    with more rows than the dimension.  Where it does, the selections may
    differ, and only the vectorized one is a valid independent set.
    """
    rng = np.random.default_rng(99 + with_base)
    kept_total = 0
    for _ in range(400):
        n_var = int(rng.integers(1, 9))
        base = np.zeros((0, n_var))
        if with_base:
            base = rng.standard_normal((int(rng.integers(0, min(3, n_var) + 1)), n_var))
            if base.shape[0] and rng.random() < 0.3:
                base = np.vstack([base, 2.0 * base[:1]])  # a dependent base row
        rows = _planted_rows(rng, n_var, int(rng.integers(1, 14)), base)
        got = _independent_subset(rows, base)
        ref = independent_subset_mgs(rows, base)
        resid = _relative_residuals(rows, base, got)
        assert all(resid[i] > 1e-8 for i in got)
        assert all(resid[i] <= 1e-8 for i in range(rows.shape[0]) if i not in got)
        if got != ref:
            base_rank = np.linalg.matrix_rank(base) if base.shape[0] else 0
            assert set(got) < set(ref) and base_rank + len(ref) > n_var
        kept_total += len(got)
    assert kept_total > 0
