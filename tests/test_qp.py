"""Tests for the dense active-set QP solver."""

import collections
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semipoison import errors, qp, sensitivity, victims
from semipoison.attack import AttackConfig, run_attack
from semipoison.data import Dataset, normalize, synth_lane_change
from semipoison.qp import (
    QpProblem,
    _independent_factors,
    classify_active,
    kkt_residuals,
    point_start,
    solve_qp,
)
from semipoison.victims import (
    SvmModel,
    generic_parametric_qp,
    solve_victim,
    svm_assemble,
    svm_feasible_start,
    svm_victim,
)

from _oracles import (
    EXAMPLES,
    enumerate_qp,
    fresh_working_minimizer,
    independent_subset_mgs,
    lstsq_multipliers,
    soft_margin_svm,
)


def solve_from(prob, y):
    """solve_qp started at the point y through point_start; the cold solve when y is None."""
    return solve_qp(prob, start=None if y is None else point_start(prob, y))


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
    warm = solve_from(prob, sol.y)
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
    start = qp._phase1(prob)  # y = 0; the row y_1 <= 1 blocks the first step, so one is too few
    with pytest.raises(errors.MaxIterations):
        qp._active_set_loop(prob, start.y, start.factors, max_iter=1)


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


def test_classification_matches_the_per_row_definitions():
    """classify_active's lists are the per-row definitions', in order and as Python ints.

    On criterion 8's problems, with every third multiplier set to 0 so
    that active inequalities turn weakly active.
    """
    rng = np.random.default_rng(8)
    weak = 0
    for _ in range(300):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        prob = random_feasible_qp(rng, n_var, int(rng.integers(0, 9 - n_eq)), n_eq)
        sol = solve_qp(prob)
        sol.lam[::3] = 0.0
        g, r = prob.constraint_values(sol.y), prob.n_ineq
        active = [i for i in range(prob.n_con) if i >= r or abs(g[i]) <= qp.TOL_ACT]
        weakly = [i for i in active if i < r and abs(sol.lam[i]) <= qp.TOL_MULT]
        strict = [i for i in active if i not in weakly]
        got = classify_active(prob, sol)
        assert (got.active, got.weakly_active, got.strict) == (active, weakly, strict)
        assert all(type(i) is int for i in got.active)
        weak += len(weakly)
    assert weak > 50


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


def _check_factors_per_iteration(monkeypatch):
    """check_factors at every working-set subproblem of every active-set loop and on every hot start.

    Returns the list that collects one list per loop: (m, opens) for each
    iteration, m being the working-row count and opens whether the first
    working row is a bound row (one nonzero).  A hot start's rows join
    before its loop, so each hot start (qp.working_start, as solve_victim
    calls it) adds a list too, with an entry before and after each row
    that joins its factors.
    """
    inner_loop, inner_sub = qp._active_set_loop, qp._working_subproblem
    inner_start, inner_join = victims.working_start, qp.WorkingFactors.join
    inner_min = qp.working_minimizer
    loops, current, hot = [], [], []

    def loop(problem, y, factors, max_iter=None):
        current.append((problem.A, []))
        try:
            return inner_loop(problem, y, factors, max_iter)
        finally:
            loops.append(current.pop()[1])

    def opens(A, factors):
        return factors.rows.size > 0 and np.count_nonzero(A[factors.rows[0]]) == 1

    def joined(self, i, a, cut=None):
        m = self.rows.size
        ok = inner_join(self, i, a, cut)
        if hot and ok:
            A = hot[-1][0]
            hot[-1][1].extend([(m, opens(A, self)), (self.rows.size, opens(A, self))])
        return ok

    def working_start(solution, problem):
        hot.append((problem.A, []))
        try:
            start = inner_start(solution, problem)
        finally:
            joins = hot.pop()[1]
            if joins:
                loops.append(joins)
        if start is not None:
            check_factors(start.factors, problem.A)
        return start

    def minimizer(solution, factors, c, b):
        current.append((solution.problem.A, None))  # a solve outside any loop
        try:
            return inner_min(solution, factors, c, b)
        finally:
            current.pop()

    def checked(H, c, y, factors):
        A, its = current[-1]
        check_factors(factors, A)
        if its is not None:
            its.append((factors.rows.size, opens(A, factors)))
        return inner_sub(H, c, y, factors)

    monkeypatch.setattr(qp, "_active_set_loop", loop)
    monkeypatch.setattr(qp, "_working_subproblem", checked)
    monkeypatch.setattr(qp, "working_minimizer", minimizer)
    monkeypatch.setattr(qp.WorkingFactors, "join", joined)
    monkeypatch.setattr(victims, "working_start", working_start)
    return loops


def _joins_and_drops(loops):
    """Rows added and dropped between consecutive iterations of one loop."""
    steps = [m1 - m0 for its in loops for (m0, _), (m1, _) in zip(its, its[1:])]
    return steps.count(1), steps.count(-1)


def test_factors_stay_exact_through_updates(monkeypatch):
    """On criterion 8's problems the updated factors still factor A_w.

    At every iteration, so after each row added and each row dropped, Q
    stays orthogonal and Q[:, :m] R reproduces A_w' (R^-1 is T's leading
    block, and T is zero outside it), both within 1e-12 of the largest
    entry.
    """
    loops = _check_factors_per_iteration(monkeypatch)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        solve_qp(random_feasible_qp(rng, n_var, n_ineq, n_eq))
    adds, drops = _joins_and_drops(loops)
    assert adds > 100 and drops > 10


def test_factors_stay_exact_along_an_svm_attack_chain(monkeypatch):
    """The same check along an n=40 SVM attack, whose solves start on bound rows.

    Each re-solve starts hot, on the previous solution's working rows
    with the slack-sign bounds first, or, where there is no hot start, on
    the bounds active at the slack-reset start, a leading run of bound
    rows factored in closed form; margin and slack rows then join (in
    the hot start or the loop) and leave those factors.  At curvature
    bound 1 the first trial steps are long, so some start rows leave
    again.
    """
    loops = _check_factors_per_iteration(monkeypatch)
    data = normalize(synth_lane_change(40, seed=3))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    config = AttackConfig(np.zeros(1), 3.0, selector, point_dim=2, tol_improve=1e-14, seed=3)
    run_attack(data.features.ravel(), model, config)
    adds, drops = _joins_and_drops(loops)
    assert len(loops) > 30 and all(its[0][1] for its in loops)
    assert adds > 50 and drops > 10


def _count_bound_updates(monkeypatch):
    """Count the bounds that join (fixing a variable) and that leave (freeing one)."""
    counts = collections.Counter()
    fix, free = qp.WorkingFactors._fix, qp.WorkingFactors._free

    def counted_fix(self, *args):
        joined = fix(self, *args)
        counts["joins"] += joined
        return joined

    def counted_free(self, *args):
        counts["drops"] += 1
        return free(self, *args)

    monkeypatch.setattr(qp.WorkingFactors, "_fix", counted_fix)
    monkeypatch.setattr(qp.WorkingFactors, "_free", counted_free)
    return counts


def test_factors_stay_exact_along_a_soft_margin_attack(monkeypatch):
    """The same check along a soft-margin n=20 attack, where bound rows leave and rejoin.

    With labels 0 and 11 flipped some points carry a positive slack:
    inside the active-set loop a slack-sign bound joins, fixing its
    slack, or leaves, freeing it.
    """
    loops = _check_factors_per_iteration(monkeypatch)
    counts = _count_bound_updates(monkeypatch)
    model, x = soft_margin_svm(20, 0, [0, 11])
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    config = AttackConfig(
        np.zeros(1), 3.0, selector, point_dim=2, curvature_bound=20.0, tol_target=1e-10,
        tol_improve=1e-14, seed=0,
    )
    assert len(run_attack(x, model, config).records) == 200
    assert counts["joins"] >= 1 and counts["drops"] >= 1
    adds, drops = _joins_and_drops(loops)
    assert adds > 50 and drops > 0


def test_hot_start_factors_are_exact_where_every_row_moves():
    """On generic_parametric_qp fixtures every row's entries depend on x.

    So at x + dx every general working row joins the copied factors
    again.  The hot start's factors pass check_factors, the start meets
    the base solution's working rows to round-off, the base factors are
    left alone, and the solve from the start ends at the cold solve's
    point.  Most such re-solves take one iteration.
    """
    rng = np.random.default_rng(34)
    iterations = collections.Counter()
    for _ in range(300):
        dim_var, dim_data = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        n_eq, n_ineq = int(rng.integers(0, 2)), int(rng.integers(1, 6))
        model = generic_parametric_qp(int(rng.integers(0, 2**31 - 1)), dim_var, dim_data, n_ineq, n_eq)
        x, dx = 0.2 * rng.standard_normal(dim_data), 1e-3 * rng.standard_normal(dim_data)
        try:
            base = solve_victim(model, x)
        except errors.SolverError:
            continue
        kept = [(k, getattr(base.factors, k).copy()) for k in FACTOR_FIELDS]
        problem = model.assemble(x + dx)
        start = qp.working_start(base, problem)
        assert all(np.array_equal(getattr(base.factors, k), v) for k, v in kept)
        if start is None:
            iterations["none"] += 1
            continue
        check_factors(start.factors, problem.A)
        g = problem.constraint_values(start.y)[base.factors.rows]
        assert np.abs(g).max(initial=0.0) <= 1e-13 * (1.0 + np.abs(start.y).max())
        sol, cold = solve_qp(problem, start=start), solve_qp(problem)
        assert np.abs(sol.y - cold.y).max() <= 1e-10 * (1.0 + np.abs(cold.y).max())
        iterations[sol.iterations] += 1
    assert iterations[1] > 200 and iterations["none"] < 10


def test_hot_starts_are_exact_along_an_n20_svm_attack(monkeypatch):
    """The seed-0 n=20 acceptance attack's warm re-solves start hot, all but one.

    check_factors passes on each hot start's factors, and on every
    iteration after it; all but a few re-solves take one iteration.  The
    one without a hot start is a long line-search trial, after which a
    margin row is violated at a vertex where the working rows fix every
    variable.
    """
    loops = _check_factors_per_iteration(monkeypatch)
    starts, inner = [], victims.working_start

    def counted(solution, problem):
        start = inner(solution, problem)
        starts.append(start)
        return start

    monkeypatch.setattr(victims, "working_start", counted)
    data = normalize(synth_lane_change(20, seed=0))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    selector = np.zeros((1, model.dim_var))
    selector[0, :2] = [1.0, -1.0]
    config = AttackConfig(
        np.zeros(1), 3.0, selector, point_dim=2, curvature_bound=20.0, tol_target=1e-10,
        tol_improve=1e-14, seed=0,
    )
    assert len(run_attack(data.features.ravel(), model, config).records) == 200
    assert len(starts) == 202 and sum(s is None for s in starts) <= 2
    assert sum(len(its) == 1 for its in loops) >= 200  # one iteration: hot starts and the cold one


def test_bound_on_a_fixed_or_determined_variable_is_refused():
    """A bound joins only when its variable is free and not determined by the general rows.

    Row 1 bounds y_0 again.  Once y_0's bound and the general row
    y_0 + y_1 hold, y_1 is determined, so row 3's residual is 0 although
    y_1 is free.  Row 4 fixes y_2, and y_1 is the one free variable left.
    """
    A = np.array([[2.0, 0, 0], [-3.0, 0, 0], [1.0, 1.0, 0], [0, 5.0, 0], [0, 0, 1e-3]])
    factors = _independent_factors(A, np.array([0, 2]), 0)
    assert factors.fixed.tolist() == [0] and factors.general.tolist() == [2]
    assert not factors.join(1, A[1], 0.0)
    assert not factors.join(3, A[3], 1e-12)
    assert factors.join(4, A[4], qp.TOL_INDEP * 1e-3)
    check_factors(factors, A)
    assert factors.rows.tolist() == [0, 4, 2] and factors.Q.shape == (3, 1)


def test_bound_drop_frees_its_variable():
    """A bound that leaves frees its variable, and the general rows are factored on it too.

    Bounds on y_0 and y_2 lead two general rows.  After each drop the
    factors still factor the rows left, the step onto them is the
    least-norm one, and the multipliers reproduce a known combination;
    with no bound left, Q is 4 x 4 again.
    """
    rng = np.random.default_rng(7)
    A = np.vstack([_unit(0, -2.0, 4), _unit(2, 0.5, 4), rng.standard_normal((2, 4))])
    b = rng.standard_normal(4)
    factors = _independent_factors(A, np.arange(4), 0)
    for i, fixed in ((0, [2]), (1, [])):
        factors.drop(i, A)
        check_factors(factors, A)
        assert factors.fixed.tolist() == fixed and factors.general.tolist() == [2, 3]
        rows = factors.rows
        lam = rng.standard_normal(rows.size)
        assert_allclose(factors.multipliers(A[rows].T @ lam, A), lam, rtol=0.0, atol=1e-12)
        y = rng.standard_normal(4)
        ref = y - np.linalg.pinv(A[rows]) @ (A[rows] @ y + b[rows])
        assert_allclose(factors.onto(y, A, b), ref, rtol=0.0, atol=1e-12)
    assert factors.Q.shape == (4, 4)


def test_with_rows_checks_the_rewritten_rows_and_the_shape_alone():
    """A problem from with_rows keeps A as given, shares H, c and b, and checks A[rows] only.

    Its A_ineq and A_eq are views of the new A.  A non-finite entry in
    the rewritten rows raises construction's ValueError; outside them it
    is not looked for.  A of another shape raises DimensionMismatch.
    """
    problem = QpProblem(np.eye(2), np.ones(2), [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [[1.0, 1.0]], [1.0])
    A = problem.A.copy()
    A[0, 0] = 3.0
    moved = problem.with_rows(A, np.s_[:1])
    assert moved.A is A and moved.A_ineq.base is A and moved.A_eq.base is A
    assert moved.H is problem.H and moved.c is problem.c and moved.b is problem.b
    assert (moved.n_ineq, moved.n_eq) == (2, 1) and problem.A[0, 0] == 1.0
    A[1, 1] = np.nan
    problem.with_rows(A, np.s_[:1])
    with pytest.raises(ValueError, match="^A_ineq contains NaN or infinite entries$"):
        problem.with_rows(A, np.s_[:2])
    with pytest.raises(errors.DimensionMismatch, match="A must have shape"):
        problem.with_rows(A[:2], np.s_[:1])


def kept_decomposition_fixture():
    """Six variables, factors on a bound (y_0) and a general row, rows 1 and 3 free to join.

    Row 1 bounds y_1 and rows 2-4 are general.  With one bound and one
    general row working, the null space has dimension 4, so the reduced
    solve runs eigh; H's diagonal entries are distinct.
    """
    rng = np.random.default_rng(11)
    A = np.vstack([_unit(0, -1.0, 6), _unit(1, 2.0, 6), rng.standard_normal((3, 6))])
    problem = QpProblem(np.diag(np.arange(1.0, 7.0)), rng.standard_normal(6), A, rng.standard_normal(5))
    factors = _independent_factors(problem.A, np.array([0, 2]), 0)
    solution = qp.KktSolution(np.zeros(6), np.zeros(5), 0.0, problem=problem, factors=factors)
    return problem, solution, rng.standard_normal(6), rng.standard_normal(5)


def assert_fresh(solution, factors, c, b):
    """working_minimizer on factors equals the computation that keeps nothing, bit for bit."""
    got = qp.working_minimizer(solution, factors, c, b)
    assert got.tobytes() == fresh_working_minimizer(solution.problem, factors, c, b).tobytes()


def test_every_update_or_copy_of_the_factors_drops_the_kept_decomposition():
    """Each way the factors change, and copy, leaves reduced at None; the next solve is fresh.

    Every update starts from factors that keep the decomposition of
    their own Z'HZ, so an update that kept it would read it on another
    null space.  The factors copied from keep theirs.  The fresh solve
    moves the zero point onto the rows; working_minimizer, given zero
    offsets, does not, and agrees bit for bit (a bound with a positive
    entry, row 1, included).
    """
    problem, solution, c, b = kept_decomposition_fixture()
    A = problem.A
    updates = {
        "join a general row": lambda f: f.join(3, A[3], 1e-12) and f,
        "join a bound": lambda f: f.join(1, A[1], 1e-12) and f,
        "drop a general row": lambda f: f.drop(2, A) or f,
        "drop a bound": lambda f: f.drop(0, A) or f,
        "copy": lambda f: f.copy(),
    }
    for name, update in updates.items():
        factors = solution.factors.copy()
        assert factors.reduced is None
        assert_fresh(solution, factors, c, b)
        assert factors.reduced[0] is problem.H
        kept = factors.reduced
        changed = update(factors)
        assert changed.reduced is None, name
        assert_fresh(solution, changed, c, b)
        assert_fresh(solution, changed, c, np.zeros(5))  # zero offsets: the zero point is not moved
        if name == "copy":
            assert factors.reduced is kept


def test_working_start_truncation_drops_the_kept_decomposition(monkeypatch):
    """The hot start's truncated factors keep no decomposition, even from a copy that kept one.

    copy drops it already; here a copy that keeps it stands in, so that
    the truncation is tested alone.  At the solution's own data no
    general row changed and none joins, so the rows are the solution's.
    """
    data = normalize(synth_lane_change(8, seed=0))
    svm = SvmModel(data.features, data.labels, C=10.0)
    x = data.features.ravel()
    solution = solve_from(svm_assemble(svm, x), svm_feasible_start(svm, x, None))
    assert solution.factors.reduced[0] is solution.problem.H
    copy_dropping = qp.WorkingFactors.copy

    def copy_keeping(self):
        other = copy_dropping(self)
        other.reduced = self.reduced
        return other

    monkeypatch.setattr(qp.WorkingFactors, "copy", copy_keeping)
    start = qp.working_start(solution, svm_assemble(svm, x))
    assert np.array_equal(start.factors.rows, solution.factors.rows)
    assert start.factors.reduced is None
    assert solution.factors.reduced[0] is solution.problem.H


def test_a_decomposition_kept_under_one_H_is_never_read_under_another(monkeypatch):
    """The same factors under another H, of other values or of equal ones, are decomposed again.

    Under the H it was kept with, the decomposition is read: the second
    solve on the same factors runs no eigh.
    """
    problem, solution, c, b = kept_decomposition_fixture()
    factors, eigh, eighs = solution.factors, np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    qp.working_minimizer(solution, factors, c, b)
    qp.working_minimizer(solution, factors, -c, b)
    assert eighs == [(4, 4)]
    monkeypatch.undo()  # fresh_working_minimizer runs eigh too
    for H in (2.0 * problem.H, problem.H.copy()):
        other = QpProblem(H, problem.c, problem.A, problem.b)
        at_other = qp.KktSolution(solution.y, solution.lam, 0.0, problem=other, factors=factors)
        assert_fresh(at_other, factors, c, b)
        assert factors.reduced[0] is other.H
    assert_fresh(solution, factors, c, b)
    assert factors.reduced[0] is problem.H


def test_every_variable_fixed_leaves_an_empty_free_block():
    """At a vertex of the box every variable is fixed, and the free block is empty.

    min 0.5 |y - (2, -2, 3)|^2 over [-1, 1]^3 ends at (1, -1, 1), with
    the bounds' multipliers (1, 1, 2) read off the gradient.  The null
    space is empty, the LICQ margin of the three bounds is 1, and a
    general row cannot join.
    """
    prob = QpProblem(
        np.eye(3), [-2.0, 2.0, -3.0], A_ineq=np.vstack([np.eye(3), -np.eye(3)]),
        b_ineq=-np.ones(6),
    )
    for start in (None, np.zeros(3)):
        sol = solve_from(prob, start)
        factors = sol.factors
        check_factors(factors, prob.A)
        assert factors.Q.shape == factors.null_space.shape == (3, 0)
        assert_allclose(sol.y, [1.0, -1.0, 1.0], rtol=0.0, atol=1e-12)
        assert_allclose(sol.lam, [1.0, 0.0, 2.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)
        assert factors.licq_margin == 1.0
        assert not factors.join(6, np.ones(3), 0.0)


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
    """The bounds fix distinct variables, and the general rows are factored on the free ones.

    Bound row rows[k] has one nonzero, on variable fixed[k].
    Q is zero in the fixed variables' rows, and on the free ones
    (Q_f = Q[free]) it is orthogonal; T is zero outside its leading
    m x m block R^-1, and Q_f[:, :m] R = A[general][:, free]'.
    """
    n, fixed, m = A.shape[1], factors.fixed, factors.general.size
    bounds = A[factors.rows[: fixed.size]]
    assert np.array_equal(np.count_nonzero(bounds, axis=1), np.ones(fixed.size))
    assert bounds[np.arange(fixed.size), fixed].all()
    assert np.unique(fixed).size == fixed.size
    free = np.setdiff1d(np.arange(n), fixed)
    Q, T, nf = factors.Q, factors.T, free.size
    assert Q.shape == (n, nf) and T.shape == (nf, nf)
    assert not Q[fixed].any()
    Q = Q[free]
    assert np.abs(Q.T @ Q - np.eye(nf)).max(initial=0.0) <= 1e-12
    assert not T[m:].any() and not T[:, m:].any()
    rows = A[factors.general][:, free]
    rebuilt = Q[:, :m] @ np.linalg.inv(T[:m, :m]) if m else np.zeros((nf, 0))
    assert np.abs(rebuilt - rows.T).max(initial=0.0) <= 1e-12 * np.abs(rows).max(initial=0.0)


@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e160, 1e200, 1e300])
def test_rows_of_any_finite_scale_join(scale):
    """join's span test and reflection square no entry of the row.

    Squared, a row above about 1e154 overflows: inf <= 1e-16 * inf held,
    so such a row was refused as dependent, with an overflow warning.
    """
    A = np.random.default_rng(30).standard_normal((4, 6)) * scale
    factors = _independent_factors(A, np.zeros(0, dtype=int), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(4):
            assert factors.join(i, A[i], qp.TOL_INDEP * qp.row_norms(A[i, None])[0])
        assert not factors.join(4, A[:2].sum(axis=0), qp.TOL_INDEP * scale)
        check_factors(factors, A)


def test_negative_curvature_gives_a_ray_to_the_box():
    """H = diag(1, -1) curves down along y_1: the working-set subproblem returns a ray.

    Cold, from 0 and from (0.5, 0), the ray ends on the box face y_1 = 1,
    and y_0 = -0.1 minimizes the convex part: value 0.005 - 0.5 - 0.01.
    """
    H, c = np.diag([1.0, -1.0]), np.array([0.1, 0.0])
    prob = QpProblem(H, c, A_ineq=np.vstack([np.eye(2), -np.eye(2)]), b_ineq=-np.ones(4))
    inner, curved_rays = qp._working_subproblem, []

    def spied(H, c, y, factors):
        y_hat, ray = inner(H, c, y, factors)
        curved_rays.append(ray is not None and ray @ H @ ray < 0.0)
        return y_hat, ray

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "_working_subproblem", spied)
        for start in (None, np.zeros(2), np.array([0.5, 0.0])):
            curved_rays.clear()
            sol = solve_from(prob, start)
            assert any(curved_rays)
            assert_allclose(sol.y, [-0.1, 1.0], rtol=0.0, atol=1e-12)
            assert_allclose(sol.value, -0.505, rtol=1e-12)


def test_negative_curvature_ray_points_downhill():
    """H = diag(1, -1), c = (0, 1), -1 <= y_1 <= 1: from 0 the curved direction e_1 climbs.

    The ray turns to -e_1 and ends at y_1 = -1, value -1.5; the other end,
    y_1 = 1, is a KKT point too, at value 0.5.
    """
    prob = QpProblem(np.diag([1.0, -1.0]), [0.0, 1.0], A_ineq=[[0.0, 1.0], [0.0, -1.0]],
                     b_ineq=[-1.0, -1.0])
    sol = solve_qp(prob)
    assert sol.y.tolist() == [0.0, -1.0] and sol.value == -1.5


def test_solution_carries_its_problem():
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    for sol in (solve_qp(prob), solve_from(prob, np.array([2.0]))):
        assert sol.problem is prob
        assert list(sol.factors.rows) == [0]
        check_factors(sol.factors, sol.problem.A)
    rng = np.random.default_rng(11)
    sizes = set()
    for _ in range(40):
        prob, y_int = random_feasible_qp_and_point(rng, 5, 8, int(rng.integers(0, 3)))
        cold = solve_qp(prob)
        for sol in (cold, solve_from(prob, y_int)):
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
            warm = solve_from(prob, start)
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
            fallback = solve_from(prob, start)
            assert fallback.phase1
            assert _same_bytes(fallback, cold)
            fallbacks += 1
    assert warm_used == 1000 and fallbacks > 1000


def test_warm_start_shape_is_checked():
    prob = QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        point_start(prob, np.zeros(3))


def test_a_point_is_no_start():
    """solve_qp starts from a HotStart or phase 1; a point goes through point_start first."""
    prob = QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(errors.InputError, match="point_start"):
        solve_qp(prob, start=np.zeros(2))
    assert not solve_qp(prob, start=point_start(prob, np.zeros(2))).phase1


def test_warm_start_from_optimum_needs_one_iteration():
    prob = QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0])
    sol = solve_from(prob, np.array([1.0]))
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
    1e-9, and the start is within 1e-9 of all three rows: on row 2, to
    round-off, and 5e-10 inside rows 0 and 1.  Row 2 is the start row,
    row 1 joins from the 1e-9 band, and row 0, lying in their span, must
    not join; it holds at the start, so the start stands.  With n_var = 3
    the last variable is free and pulled to 1, so the working rows leave
    a null space.
    """
    A = np.zeros((3, n_var))
    A[0, 0] = A[1, 1] = A[2, 0] = 1.0
    A[2, 1] = 1.0 + tilt
    c = np.where(np.arange(n_var) == 2, -1.0, 0.0)
    prob = QpProblem(np.eye(n_var), c, A_ineq=A, b_ineq=[0.0, 0.0, 1e-9])
    start = np.where(np.arange(n_var) < 2, -5e-10, 0.0)
    assert np.abs(prob.constraint_values(start)).max() <= 1e-9
    cold = solve_qp(prob)
    warm = solve_from(prob, start)
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
    sol = solve_from(QpProblem(H, c, A_ineq=A, b_ineq=b), [0.0, -2.0])
    ref = enumerate_qp(H, c, A, b)
    assert_allclose(sol.y, ref[0], rtol=0.0, atol=1e-12)
    assert_allclose(sol.lam, ref[1], rtol=1e-9)


def test_point_start_moves_onto_a_violated_start_row():
    """A start row violated within TOL_FEAS is moved onto, not left violated.

    min 0.5 |y - (5, 5)|^2 subject to y0 <= 1, y1 <= 1 and
    y0 + y1 <= 2 + 9e-9, from (1 + 8.5e-9, 1).  Rows 1 and 0 are active
    there to round-off, row 2 is 5e-10 inside: the start rows are rows 1
    and 0, and the solve ends at the cold solution.  When the rows within
    1e-9 of active were the start rows, row 0 was dropped as dependent on
    rows 2 and 1, and the solve ended at (1 + 9e-9, 1), row 0 violated.
    """
    prob = QpProblem(
        np.eye(2), [-5.0, -5.0], A_ineq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        b_ineq=[-1.0, -1.0, -(2.0 + 9e-9)],
    )
    start = point_start(prob, [1.0 + 8.5e-9, 1.0])
    assert sorted(start.factors.rows.tolist()) == [0, 1]
    sol = solve_qp(prob, start=start)
    assert not sol.phase1 and sol.iterations == 1
    assert sol.y.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("eps, refused", [(4.4e-16, False), (2e-10, True)])
def test_dependent_row_violated_beyond_round_off_refuses_the_start(eps, refused):
    """A row that cannot join refuses the start only where g_i > 1e-12 (|a_i|'|y| + |b_i|).

    Rows y0 <= 1, y1 <= 1 and y0 + y1 <= 2 + eps from (1 + eps, 1): all
    three are active to round-off, so the start rows are rows 2, 1 and 0,
    and row 0, dependent on the other two, is left out.  The point is on
    rows 2 and 1 and violates row 0 by eps: 2 ulps, round-off of the
    row's terms (|a_0|'|y| + |b_0| = 2), give a start that keeps it;
    1e-10 of those terms give none, and the solve runs phase 1.
    """
    prob = QpProblem(
        np.eye(2), [-5.0, -5.0], A_ineq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        b_ineq=[-1.0, -1.0, -(2.0 + eps)],
    )
    y = np.array([1.0 + eps, 1.0])
    assert 0.0 < prob.constraint_values(y)[0] <= 1.01 * eps
    start = point_start(prob, y)
    assert (start is None) == refused
    if not refused:
        assert start.factors.rows.tolist() == [1, 2] and start.y.tolist() == y.tolist()
    sol = solve_from(prob, y)
    assert sol.phase1 == refused
    assert_allclose(sol.y, [1.0, 1.0], rtol=0.0, atol=1e-15)


def test_violation_the_t_loop_leaves_beyond_round_off_is_infeasible():
    """y0 >= 1 and y0 <= 1 - 2e-10: empty, by less than TOL_FEAS and the t-loop's 1e-9.

    The origin's projection onto y0 >= 1 violates the other row by 2e-10,
    and that row cannot join, so the t-loop runs.  Its point, y0 = 1 - 1e-10
    at t = 1e-10, has both rows active; moved onto the later one it
    violates the first by 2e-10, so point_start gives no start, and the
    problem is infeasible.  The solve used to end at y0 = 1 - 2e-10, with
    y0 >= 1 violated within TOL_FEAS.
    """
    prob = QpProblem(np.eye(2), np.zeros(2), A_ineq=[[-1.0, 0.0], [1.0, 0.0]], b_ineq=[1.0, -(1.0 - 2e-10)])
    with pytest.raises(errors.Infeasible, match="minimal constraint violation 1.000e-10"):
        solve_qp(prob)


def test_row_joined_from_the_band_cannot_push_a_refused_row_past_round_off():
    """y <= 0 and y >= 2e-10: empty, by 2e-10, inside a start's 1e-9 band.

    The origin violates neither row beyond TOL_FEAS, so phase 1's start
    is the origin, where both rows are near active.  Row 1 joins and
    fixes y = 2e-10; row 0 cannot join, and the moved point violates it
    by 2e-10, so row 1 leaves again, and the origin, which violates row
    1 by 2e-10, is refused.  So is the t-loop's point, y = 1e-10, and
    the problem is infeasible.  The start used to be checked before row
    1 moved it, and the solve ended at y = 2e-10, row 0 violated.
    """
    prob = QpProblem(np.eye(1), [0.0], A_ineq=[[1.0], [-1.0]], b_ineq=[0.0, 2e-10])
    with pytest.raises(errors.Infeasible, match="minimal constraint violation 1.000e-10"):
        solve_qp(prob)


def test_row_joined_from_the_band_that_breaks_another_leaves_a_feasible_start():
    """y <= 1e-10 and y <= 5e-10 at c = 1: feasible, with the optimum y = -1.

    Phase 1's start is the origin, which meets both rows, each inside
    the 1e-9 band.  Row 1 joins and fixes y = 5e-10, past row 0 by
    4e-10, and row 0 cannot join.  Row 1 then leaves again, and the
    origin, on no row, is the start: one loop iteration reaches y = -1.
    Refusing the origin instead sent phase 1 to its t-loop, whose point
    was refused for the same reason, and the solve raised Infeasible.
    """
    prob = QpProblem(np.eye(1), [1.0], A_ineq=[[1.0], [1.0]], b_ineq=[-1e-10, -5e-10])
    sol = solve_qp(prob)
    np.testing.assert_array_equal(sol.y, [-1.0])
    np.testing.assert_array_equal(sol.lam, [0.0, 0.0])
    assert sol.phase1 and sol.iterations == 1 and sol.factors.rows.size == 0


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
    sol = solve_from(prob, np.zeros(6))
    assert not sol.phase1 and sol.iterations == 1
    assert sol.factors.rows.tolist() == [4, 3, 2, 0]
    assert_allclose(sol.lam, lam, atol=1e-12)
    check_factors(sol.factors, sol.problem.A)


ROW_KINDS = ["fresh", "dup", "scaled", "zero"]


@settings(derandomize=True, deadline=None, max_examples=300 * EXAMPLES)
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
    point within the KKT tolerances that violates no row beyond the
    round-off of its own terms, g_i > 1e-12 (|a_i|'|y| + |b_i|) (|g_i|
    for an equality), or raises a SemipoisonError.
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
            sol = solve_from(prob, start)
        except errors.SemipoisonError:
            continue
        res = kkt_residuals(prob, sol.y, sol.lam)
        lam_inf = float(np.abs(sol.lam).max(initial=0.0))
        assert res.within_default_tolerances(float(np.abs(c).max()), lam_inf)
        g = prob.constraint_values(sol.y)
        g[prob.n_ineq :] = np.abs(g[prob.n_ineq :])
        assert (g <= 1e-12 * (np.abs(prob.A) @ np.abs(sol.y) + np.abs(prob.b))).all()


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


def test_projection_outside_another_row_joins_it_and_starts_the_loop(monkeypatch):
    """Projected onto row 0, the origin lands at (1, 0), outside row 1.

    Row 1 then joins the start, and the point moves onto both rows, to
    the feasible (1, 0.5): phase 1's projection starts the main loop, no
    auxiliary t-loop runs, and the loop reaches the enumerated optimum.
    """
    H, c = np.eye(2), np.zeros(2)
    A, b = [[-1.0, 0.0], [1.0, -1.0]], [1.0, -0.5]
    prob = QpProblem(H, c, A_ineq=A, b_ineq=b)
    assert prob.constraint_values(np.array([1.0, 0.0]))[1] > qp.TOL_FEAS
    calls = _count_calls(monkeypatch, "_active_set_loop")
    sol = solve_qp(prob)
    assert sol.phase1 and calls["_active_set_loop"] == 1  # the main loop alone
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
    # equality rows, then equality and violated rows, then the equality rows
    # again in the t-loop's variables
    assert calls == {"_independent_factors": 3, "_active_set_loop": 1}
    inconsistent = QpProblem(
        H, c, A_ineq=[[-1.0, 0.0]], b_ineq=[1.0], A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, -1.0]
    )
    with pytest.raises(errors.Infeasible, match="equality constraints are inconsistent"):
        solve_qp(inconsistent)
    assert calls == {"_independent_factors": 4, "_active_set_loop": 1}


def test_phase1_factors_match_a_recomputation(monkeypatch):
    """Phase 1's start holds the factors of the rows it factored, bit for bit.

    The random QPs of criterion 8, with and without equality rows, reach
    all three of phase 1's starts: the equality rows' min-norm point, its
    projection onto them and the rows it violates, and the t-loop's point
    (through point_start).  Each is _hot_start's on the factors phase 1
    made last of the problem's rows; _hot_start on those rows factored
    afresh gives the same point and factors.  The t-loop starts on the
    equality rows, factored again in its own variables; they are
    compared by value.
    """
    inner_loop, inner_factors = qp._active_set_loop, qp._independent_factors
    inner_hot, inner_phase1 = qp._hot_start, qp._phase1
    handed, last, in_phase1 = collections.Counter(), {}, []

    def factored(A, rows, n_base):
        last[id(A)] = rows
        return inner_factors(A, rows, n_base)

    def checked(problem, y, factors, max_iter=None):
        if in_phase1:  # the t-loop, on the equality rows of the auxiliary QP
            eq_rows = np.arange(problem.n_ineq, problem.n_con)
            again = inner_factors(problem.A, eq_rows, problem.n_eq)
            assert all(np.array_equal(getattr(again, k), getattr(factors, k)) for k in FACTOR_FIELDS)
            in_phase1[-1] = "t-loop"
        return inner_loop(problem, y, factors, max_iter)

    def hot_start(problem, y, factors):
        rows = last.get(id(problem.A), np.zeros(0, dtype=int))  # none: no rows, no call
        start = inner_hot(problem, y, factors)
        if start is not None:
            again = inner_hot(problem, y, inner_factors(problem.A, rows, problem.n_eq))
            assert again.y.tobytes() == start.y.tobytes()
            assert all(
                getattr(again.factors, k).tobytes() == getattr(start.factors, k).tobytes()
                for k in FACTOR_FIELDS
            )
            if in_phase1[-1] != "t-loop":
                in_phase1[-1] = "projection" if rows.size > problem.n_eq else "equality point"
        return start

    def phase1(problem):
        last.clear()
        in_phase1.append(None)
        try:
            start = inner_phase1(problem)
        finally:
            handed[in_phase1.pop()] += 1
        return start

    monkeypatch.setattr(qp, "_active_set_loop", checked)
    monkeypatch.setattr(qp, "_independent_factors", factored)
    monkeypatch.setattr(qp, "_hot_start", hot_start)
    monkeypatch.setattr(qp, "_phase1", phase1)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        assert solve_qp(random_feasible_qp(rng, n_var, n_ineq, n_eq)).phase1
    assert handed["equality point"] > 10 and handed["projection"] > 10 and handed["t-loop"] > 10
    assert sum(handed.values()) == 300


FACTOR_FIELDS = ["rows", "fixed", "Q", "T"]


def _count_t_loops(monkeypatch):
    """Wrap phase 1 and the loop to record each loop phase 1 runs (its t-loop); returns the list."""
    inner_loop, inner_phase1 = qp._active_set_loop, qp._phase1
    t_loops, in_phase1 = [], []

    def loop(problem, *args):
        if in_phase1:
            t_loops.append(problem)
        return inner_loop(problem, *args)

    def phase1(problem):
        in_phase1.append(problem)
        try:
            return inner_phase1(problem)
        finally:
            in_phase1.pop()

    monkeypatch.setattr(qp, "_active_set_loop", loop)
    monkeypatch.setattr(qp, "_phase1", phase1)
    return t_loops


def test_oracle_trials_factor_each_start_once(monkeypatch):
    """run_oracle_trials(500, seed=0) makes at most 500 factorizations and runs 3 t-loops.

    Phase 1 hands the rows it factored to the loop; its t-loop factors
    the equality rows in its own variables.  The FD re-solve starts hot,
    on a copy of the base solution's factors, so it factors nothing, and
    the derivative is solved on the training factors: 433 in all (941
    when the FD re-solve factored its start rows, 934 when the t-loop
    bordered phase 1's equality factors instead).  Factoring the
    equality rows in phase 1 and again at the start of both loops took
    3,359; with a cold auxiliary QP per trial and phase 1 in 331 of the
    500 FD re-solves, 1,689.  A projection whose violated rows join its
    start from the band is moved onto them and starts the solve; checked
    before that move, 4 more went to the t-loop (7, and 441 factorizations).
    """
    calls = _count_calls(monkeypatch, "_independent_factors")
    t_loops = _count_t_loops(monkeypatch)
    sensitivity.run_oracle_trials(500, seed=0)
    assert calls["_independent_factors"] <= 500
    assert len(t_loops) == 3


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


def test_n160_svm_assembly_and_solve_copy_no_dense_arrays():
    """tracemalloc byte counts on the n=160 seed-0 SVM, not timings.

    svm_assemble peaks less than 25 % above the arrays it returns: no
    identity temporaries, and QpProblem keeps A as assembled.  A solve
    from the model's start peaks below 25 % of A's and H's bytes: its
    factors cover the free variables only, and no n x n buffer or copy
    of A's rows is made.
    """
    data = normalize(synth_lane_change(160, seed=0))
    svm = SvmModel(data.features, data.labels, C=10.0)
    x = data.features.ravel()
    start = svm_feasible_start(svm, x, None)
    solve_from(svm_assemble(svm, x), start)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        prob = svm_assemble(svm, x)
        assembled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve_from(prob, start)
        solved = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (prob.H, prob.c, prob.A, prob.b))
    assert assembled < 1.25 * kept
    assert solved < 0.25 * (prob.A.nbytes + prob.H.nbytes)


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
            solve_from(svm_assemble(svm, x), start)


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
    return sorted(int(i) - len(base) for i in live if i >= len(base))  # bounds lead rows


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


# ---------------------------------------------------------------------------
# leading bound rows, factored in closed form
# ---------------------------------------------------------------------------


def _unit(j, s, n_var=5):
    row = np.zeros(n_var)
    row[j] = s
    return row


_G = np.random.default_rng(5).standard_normal((3, 5))


def _near_span(rows, rel):
    """The sum of rows plus rel of its norm along a direction orthogonal to all of them."""
    combo = rows.sum(axis=0)
    return combo + rel * np.linalg.norm(combo) * np.linalg.svd(rows)[2][-1]


# (base rows, candidate rows, the leading run's length, kept candidates)
BOUND_RUNS = {
    "repeated-variable": (
        [], [_unit(1, 2.0), _unit(3, -0.5), _unit(1, -7.0), _unit(0, 3.0), _G[0]], 2, [0, 1, 3, 4]
    ),
    "tiny-bound": ([], [_unit(2, -4.0), _unit(0, 1e-14), _unit(0, 2.0), _G[0]], 1, [0, 2, 3]),
    "base-below-cut": ([_unit(1, 3.0), _unit(4, -1e-13)], [_unit(4, -2.0), _G[1]], 1, [0, 1]),
    "general-on-fixed": (
        [], [_unit(0, 2.0), _unit(1, -1.0), [1.5, -2.0, 0, 0, 0], _G[0], _G[2]], 2, [0, 1, 3, 4]
    ),
    "duplicate-bound-later": (
        [], [_unit(3, -1.0), _unit(0, 5.0), _G[2], _unit(3, 2.0), _unit(2, 1.0)], 2, [0, 1, 2, 4]
    ),
    # the base's cut ends with the base: a later row 1e-9 off it is dependent
    "base-then-near-dependent": (
        [_unit(2, -1.5), _G[0]],
        [_near_span(np.vstack([_unit(2, 1.0), _G[0]]), 1e-9), _G[1]],
        1,
        [1],
    ),
    "all-fixed": (
        [],
        [_unit(j, s) for j, s in zip([3, 0, 4, 1, 2], [-2.0, 0.5, 1.0, -3.0, 1e-3])] + list(_G),
        5,
        [0, 1, 2, 3, 4],
    ),
}


def check_bound_run(base, rows, run):
    """Factor base + rows; check them, the closed-form run, and the Gram-Schmidt oracle's rows."""
    base = np.reshape(base, (-1, rows.shape[1]))
    stack = np.vstack([base, rows])
    factors = _independent_factors(stack, np.arange(len(stack)), len(base))
    check_factors(factors, stack)
    assert factors.rows[:run].tolist() == list(range(run))
    cols = np.argmax(stack[:run] != 0.0, axis=1)
    assert np.array_equal(factors.fixed[:run], cols)
    alone = _independent_factors(stack, np.arange(run), len(base))  # the run, in closed form
    free = np.setdiff1d(np.arange(stack.shape[1]), cols)
    assert np.array_equal(alone.Q[free], np.eye(free.size)) and not alone.Q[cols].any()
    assert not alone.T.any()
    kept = sorted(int(i) - len(base) for i in factors.rows if i >= len(base))  # bounds lead rows
    assert kept == independent_subset_mgs(rows, base)
    return kept


@pytest.mark.parametrize("case", BOUND_RUNS)
def test_leading_bound_rows_are_factored_in_closed_form(case):
    """Signed, scaled unit rows open the set; the run ends where a row is not one.

    A row repeating a run row's variable, a bound of norm at most 1e-14
    and a base bound of at most 1e-12 each end the run.  A later row
    touching only fixed variables, or a later copy of a bound, is
    dropped; once every variable is fixed, every general row is.
    """
    base, rows, run, kept = BOUND_RUNS[case]
    assert check_bound_run(base, np.array(rows, dtype=float), run) == kept


def test_random_bound_runs_match_the_gram_schmidt_oracle():
    """Random row sets opening with a run of signed, scaled bounds, some fixing every variable."""
    rng = np.random.default_rng(28)
    runs = collections.Counter()
    for _ in range(300):
        n_var = int(rng.integers(1, 8))
        n_base = int(rng.integers(0, 3))
        cols = rng.permutation(n_var)[: int(rng.integers(1, n_var + 1))]
        scales = rng.choice([-1.0, 1.0], cols.size) * 10.0 ** rng.uniform(-3, 3, cols.size)
        lead = np.zeros((cols.size, n_var))
        lead[np.arange(cols.size), cols] = scales
        run = cols.size
        tail = [rng.standard_normal(n_var) for _ in range(int(rng.integers(0, 5)))]
        if rng.random() < 0.5:  # a general row on the fixed variables only
            tail.append(np.where(np.isin(np.arange(n_var), cols), rng.standard_normal(n_var), 0.0))
        if rng.random() < 0.5:  # a later copy of a run bound
            tail.append(-3.0 * lead[rng.integers(run)])
        rng.shuffle(tail)
        stack = np.vstack([lead, *tail])
        base = stack[:n_base]
        runs[run == n_var] += 1
        check_bound_run(base, stack[n_base:], run)
    assert runs[True] > 50 and runs[False] > 50


def _box_qp(rng):
    """A strictly convex QP in 2-4 variables, 1-3 general rows and scaled bounds; a feasible point.

    Each variable gets a lower bound -s y_j + s l_j <= 0 and an upper
    bound s y_j - s u_j <= 0 with probability 0.7 each, s spanning four
    decades; the point w is on about a third of them, and on some general
    rows.  The general rows come first, so the bounds active at a start
    lead the working rows.
    """
    n_var = int(rng.integers(2, 5))
    M = rng.standard_normal((n_var, n_var))
    w = rng.uniform(-1.0, 1.0, n_var)
    G = rng.standard_normal((int(rng.integers(1, 4)), n_var))
    slack = np.where(rng.random(G.shape[0]) < 0.3, 0.0, rng.uniform(0.05, 1.0, G.shape[0]))
    rows, offsets = list(G), list(-(G @ w) - slack)
    for j in range(n_var):
        for side in (-1.0, 1.0):
            if rng.random() < 0.7:
                s = side * 10.0 ** rng.uniform(-2, 2)
                edge = w[j] + side * (0.0 if rng.random() < 0.35 else rng.uniform(0.1, 1.0))
                rows.append(_unit(j, s, n_var))
                offsets.append(-s * edge)
    k = G.shape[0]
    order = np.concatenate([np.arange(k), k + rng.permutation(len(rows) - k)])
    H = M.T @ M + 0.1 * np.eye(n_var)
    prob = QpProblem(H, rng.standard_normal(n_var), np.array(rows)[order], np.array(offsets)[order])
    return prob, w


def test_box_qps_match_enumeration_cold_and_warm(monkeypatch):
    """Bound-heavy QPs: cold and from a feasible point, the solve reaches the enumerated optimum.

    Most of the starts open with a run of bound rows.
    """
    inner = qp._independent_factors
    opened = collections.Counter()

    def spied(A, rows, n_base):
        opened[bool(rows.size) and np.count_nonzero(A[rows[0]]) == 1] += 1
        return inner(A, rows, n_base)

    monkeypatch.setattr(qp, "_independent_factors", spied)
    rng = np.random.default_rng(160)
    for _ in range(100):
        prob, w = _box_qp(rng)
        ref = enumerate_qp(prob.H, prob.c, prob.A_ineq, prob.b_ineq)
        assert ref is not None
        for sol in (solve_qp(prob), solve_from(prob, w)):
            res = kkt_residuals(prob, sol.y, sol.lam)
            lam_inf = float(np.abs(sol.lam).max(initial=0.0))
            assert res.within_default_tolerances(float(np.abs(prob.c).max()), lam_inf)
            assert_allclose(sol.value, ref[2], atol=1e-7)
            assert_allclose(sol.y, ref[0], atol=1e-6)
    assert opened[True] > 60
