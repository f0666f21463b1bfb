"""Tests for directional derivatives of QP solution maps."""

import dataclasses
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from semipoison import attack, cli, errors, qp, sensitivity, victims
from semipoison.attack import (
    AttackConfig,
    _ObjectiveDerivative,
    objective,
    run_attack,
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
    solve_victim,
    svm_victim,
    toy_bilevel_model,
)

from _oracles import (
    EXAMPLES,
    bound_tracking_model,
    enumerate_qp,
    fresh_working_minimizer,
    kink_projection_model,
    planted_kink_model,
    qr_licq_margin,
    reference_licq_margin,
    with_copied_row,
)
from test_acceptance import svm_scenario


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
    assert sorted(sol.factors.rows) == [0, 1]
    with pytest.raises(errors.RegularityFailure):
        build_auxiliary(model, np.zeros(1), sol)


def test_licq_rejects_more_active_rows_than_the_null_space_holds():
    # a duplicated, strictly active inequality: one copy is the working row,
    # the other has no null-space direction left
    model = fixed_qp_model(
        np.eye(1), [-2.0], A_ineq=np.ones((2, 1)), b_ineq=-np.ones(2)
    )
    sol = solve_victim(model, np.zeros(1))
    assert sol.factors.rows.size == 1
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
    assert sol.factors.rows.size == 0
    if margin is None:
        with pytest.raises(errors.RegularityFailure):
            build_auxiliary(model, np.zeros(1), sol)
    else:
        aux = build_auxiliary(model, np.zeros(1), sol)
        assert aux.structure.weakly_active == [0]
        assert aux.licq_margin == pytest.approx(margin)


@settings(derandomize=True, deadline=None, max_examples=200 * EXAMPLES)
@given(
    seed=st.integers(0, 2**32 - 1),
    copied=st.sampled_from([None, "bound", "general"]),
    pick=st.integers(0, 4),
)
def test_licq_on_a_copy_of_the_factors_matches_the_qr_reference(seed, copied, pick):
    """build_auxiliary's LICQ test agrees with the QR it replaced, on planted kinks and copied rows.

    Each fixture is a planted kink, or one with a copy of one of its
    active rows, a bound or a general one, added as an inequality: one
    of the two copies is left outside the working rows.  Where
    reference_licq_margin lies outside [0.5, 2] TOL_INDEP, both accept
    the same row sets.  Where they accept, the margins agree to 1e-12
    relative if the rows that joined are general.  A bound that joins
    fixes its variable first, and the general rows' residuals are then
    taken off it too, so there the margin is the dense QR's of the
    active rows in the copy's order: the bounds, then the general rows.
    """
    model, x, _ = planted_kink_model(seed)
    if copied is not None:
        sol = solve_victim(model, x)
        active = classify_active(sol.problem, sol).active
        kind = [i for i in active if (np.count_nonzero(sol.problem.A[i]) == 1) == (copied == "bound")]
        kind = kind or active
        model = with_copied_row(model, kind[pick % len(kind)])
    sol = solve_victim(model, x)
    A, factors = sol.problem.A, sol.factors
    active = classify_active(sol.problem, sol).active
    reference = reference_licq_margin(sol, active)
    try:
        margin = build_auxiliary(model, x, sol).licq_margin
    except errors.RegularityFailure:
        margin = None
    if not 0.5 * qp.TOL_INDEP <= reference <= 2.0 * qp.TOL_INDEP:
        assert (margin is not None) == (reference > qp.TOL_INDEP)
    if margin is None:
        return
    extra = [i for i in active if i not in factors.rows]
    bound = [i for i in extra if np.count_nonzero(A[i]) == 1]
    if not bound:
        assert margin == pytest.approx(reference, rel=1e-12)
        return
    general = [i for i in extra if i not in bound]
    order = [*factors.rows[: factors.fixed.size], *bound, *factors.general, *general]
    assert margin == pytest.approx(qr_licq_margin(A[order]), rel=1e-12)


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
    assert_allclose(aux.cross, [[-1.0]])
    assert_allclose(aux.jac, [[0.0]])
    assert aux.structure.active == [0]
    assert aux.structure.weakly_active == [0]
    assert aux.licq_margin == pytest.approx(1.0)


@pytest.mark.parametrize(
    "name, reshape",
    [
        ("cross_hessian", lambda M: np.vstack([M, np.ones(3)])),
        ("grad_x_constraint", lambda M: M[:-1]),
        ("cross_hessian", lambda M: M[:, :2]),
        ("grad_x_constraint", lambda M: np.vstack([M, np.ones(3)])),
    ],
    ids=["cross-extra-row", "jac-row-short", "cross-two-columns", "jac-extra-row"],
)
def test_mis_shaped_derivative_callbacks_raise_dimension_mismatch(name, reshape):
    """A cross Hessian or Jacobian of any other shape is refused, not sliced.

    With the two blocks stacked, the extra cross-Hessian row shifted every
    constraint offset: dy read (0.766, 0.133, -1.182, -0.079) where it is
    (1.181, 0.951, 0.610, -0.218), with no error.
    """
    model = generic_parametric_qp(11, dim_var=4, dim_data=3, n_ineq=3)
    x = np.array([0.05, -0.1, 0.02])
    sol = solve_victim(model, x)
    assert_allclose(
        semi_derivative(build_auxiliary(model, x, sol), np.eye(3)[0]),
        [1.18057876, 0.95100113, 0.60997759, -0.21805456],
    )
    real = getattr(model, name)
    bad = dataclasses.replace(model, **{name: lambda *args: reshape(real(*args))})
    with pytest.raises(errors.DimensionMismatch):
        build_auxiliary(bad, x, sol)


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


def _count_aux_solves(monkeypatch):
    """Calls of sensitivity.solve_qp, the auxiliary QP's solver; returns their list."""
    calls, inner = [], sensitivity.solve_qp

    def counted(problem, start=None):
        calls.append(problem)
        return inner(problem, start=start)

    monkeypatch.setattr(sensitivity, "solve_qp", counted)
    return calls


def test_aux_unbounded_when_second_order_condition_fails(monkeypatch):
    """No row is weakly active, so the ray is found on the training factors, with no QP."""
    model = flat_direction_model()
    x = np.array([0.3, 0.0])
    sol = solve_victim(model, x)
    aux = build_auxiliary(model, x, sol)
    calls = _count_aux_solves(monkeypatch)
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(aux, np.array([0.0, 1.0]))
    assert calls == []


def test_overflowing_derivative_raises_a_solver_error():
    """A non-finite dy or C dx is a typed error on both routes, with no numpy warning.

    C = 1e308.  Without constraints, dy = C dx / 1e-10 overflows on the
    factor route.  With the weakly active row -y <= 0, C dx = 2e308
    overflows before the auxiliary QP is assembled.
    """
    cases = [
        (QpProblem([[1e-10]], [0.0]), 1.0),
        (QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[0.0]), 2.0),
    ]
    for problem, dx in cases:
        model = VictimModel(
            dim_data=1,
            dim_var=1,
            assemble=lambda x, problem=problem: problem,
            grad_x_constraint=lambda x, y, problem=problem: np.zeros((problem.n_con, 1)),
            cross_hessian=lambda x, y, lam: np.array([[1e308]]),
        )
        x = np.zeros(1)
        aux = build_auxiliary(model, x, solve_victim(model, x))
        assert len(aux.structure.weakly_active) == problem.n_con
        with pytest.raises(errors.MaxIterations, match="not finite"):
            semi_derivative(aux, np.array([dx]))


def auxiliary_qp(aux, dx):
    """The auxiliary QP along dx as one QpProblem: weakly active rows as inequalities."""
    c, mu = aux.cross @ dx, aux.jac @ dx
    weak, strict = aux.structure.weakly_active, aux.structure.strict
    return QpProblem(aux.H_aux, c, aux.rows[weak], mu[weak], aux.rows[strict], mu[strict])


def check_against_the_auxiliary_qp(aux, dx):
    """semi_derivative(aux, dx) against solve_qp and enumerate_qp on the auxiliary QP, 1e-10 relative.

    Returns dy.  The references call qp.solve_qp, which _count_aux_solves
    does not count.
    """
    dy = semi_derivative(aux, dx)
    problem = auxiliary_qp(aux, dx)
    ref = solve_qp(problem).y
    enum = enumerate_qp(problem.H, problem.c, problem.A_ineq, problem.b_ineq, problem.A_eq, problem.b_eq)[0]
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(dy - ref).max() <= 1e-10 * scale
    assert np.abs(dy - enum).max() <= 1e-10 * scale
    return dy


def test_weakly_active_row_takes_a_piece_not_the_auxiliary_qp(monkeypatch):
    """At the kink the bound is weakly active: dy comes from a piece, equal to the QP's, with no QP."""
    model = kink_projection_model()
    x = np.array([0.0])
    aux = build_auxiliary(model, x, solve_victim(model, x))
    calls = _count_aux_solves(monkeypatch)
    for dx in (1.0, -1.0, 2.0):
        dy = semi_derivative(aux, np.array([dx]))
        assert_array_equal(dy, solve_qp(auxiliary_qp(aux, np.array([dx]))).y)
    assert calls == []


@pytest.mark.parametrize("name, x, rate", [("kink", 0.0, lambda d: max(d, 0.0)),
                                            ("tracking", 1.0, lambda d: min(d, 0.0))])
def test_kink_pieces_match_the_auxiliary_qp_on_the_1d_fixtures(monkeypatch, name, x, rate):
    """y = max(x, 0) at x = 0 and y = min(x, 1) at x = 1: both pieces, dx = +-1 and 2."""
    model = kink_projection_model() if name == "kink" else bound_tracking_model()
    x = np.array([x])
    aux = build_auxiliary(model, x, solve_victim(model, x))
    assert len(aux.structure.weakly_active) == 1
    calls = _count_aux_solves(monkeypatch)
    for dx in (1.0, -1.0, 2.0):
        dy = check_against_the_auxiliary_qp(aux, np.array([dx]))
        assert dy[0] == pytest.approx(rate(dx), abs=1e-12)
    assert calls == []


def test_kink_pieces_match_the_auxiliary_qp_on_planted_kinks(monkeypatch):
    """300 random fixtures with one weakly active row w planted exactly at x.

    Each is solved and checked along 4 random directions.  Both ways to
    build the pieces are reached, with w a general row and a bound: w in
    the working rows (piece 0 drops it) and w outside them (piece 1 joins
    it), and so are both pieces.  No auxiliary QP is solved.
    """
    calls = _count_aux_solves(monkeypatch)
    built, pieces = Counter(), Counter()
    for seed in range(300):
        model, x, w = planted_kink_model(seed)
        sol = solve_victim(model, x)
        aux = build_auxiliary(model, x, sol)
        assert aux.structure.weakly_active == [w]
        kind = "bound" if np.count_nonzero(aux.rows[w]) == 1 else "general"
        built["drop" if w in sol.factors.rows else "join", kind] += 1
        for dx in np.random.default_rng(seed).standard_normal((4, model.dim_data)):
            dy = check_against_the_auxiliary_qp(aux, dx)
            pieces[bool(aux.rows[w] @ dy + aux.jac[w] @ dx > -1e-12)] += 1
    assert calls == []
    assert min(built[k] for k in itertools.product(("drop", "join"), ("bound", "general"))) >= 10
    assert min(pieces[False], pieces[True]) >= 400


def test_kink_pieces_match_the_auxiliary_qp_along_the_seed4_attack(monkeypatch):
    """All 176 derivatives of the seed-4 acceptance attack's aux rounds, with no auxiliary QP."""
    calls = _count_aux_solves(monkeypatch)
    checked, real_semi = [], attack.semi_derivative

    def checking_semi(aux, dx):
        checked.append(len(aux.structure.weakly_active))
        check_against_the_auxiliary_qp(aux, dx)
        return real_semi(aux, dx)

    monkeypatch.setattr(attack, "semi_derivative", checking_semi)
    data, model, config = svm_scenario(4)
    run_attack(data.features.ravel(), model, config)
    assert checked == [1] * 176
    assert calls == []


def test_kept_reduced_solve_is_the_fresh_one_along_the_reference_attacks(monkeypatch, tmp_path):
    """Each adjoint and kink piece of the 10 acceptance attacks and the box attack, bit for bit.

    Every qp.working_minimizer call, the gradient's adjoint on the
    training solution's own factors and each semi-derivative piece,
    returns fresh_working_minimizer's d on the same factors, which
    decomposes Z'HZ anew and moves the zero point onto the rows; each
    PointDerivative.gradient equals the gradient built from that d.
    Every adjoint reads the decomposition the training solve kept (none
    where the working rows fix every variable), and each point's piece 0
    is decomposed once (here always a copy, the weakly active row being
    a working row) and then read.  The box
    attack is `attack --synth-n 20 --seed 1 --bounds=-3,3,5,60
    --tol-improve 1e-14`, run through the CLI.
    """
    calls, auxes = Counter(), []
    real_minimizer, real_gradient = qp.working_minimizer, sensitivity.PointDerivative.gradient
    real_semi = attack.semi_derivative

    def checking_minimizer(solution, factors, c, b):
        fresh = fresh_working_minimizer(solution.problem, factors, c, b)
        kept = factors.reduced is not None and factors.reduced[0] is solution.problem.H
        d = real_minimizer(solution, factors, c, b)
        assert (d is None and fresh is None) or d.tobytes() == fresh.tobytes()
        role = "adjoint" if b is None else f"piece {auxes[-1].pieces.index(factors)}"
        calls[role, factors is solution.factors, kept, factors.null_space.shape[1]] += 1
        return d

    def checking_gradient(self, grad_y):
        g = real_gradient(self, grad_y)
        if g is not None:
            aux, factors = self.aux, self.aux.solution.factors
            u = fresh_working_minimizer(aux.solution.problem, factors, -grad_y, None)
            nu = np.zeros(aux.rows.shape[0])
            nu[factors.rows] = factors.multipliers(grad_y - aux.H_aux @ u, aux.rows)
            assert g.tobytes() == (-(aux.cross.T @ u + aux.jac.T @ nu)).tobytes()
            calls["gradient"] += 1
        return g

    def recording_semi(aux, dx):
        auxes.append(aux)
        return real_semi(aux, dx)

    monkeypatch.setattr(qp, "working_minimizer", checking_minimizer)
    monkeypatch.setattr(sensitivity.PointDerivative, "gradient", checking_gradient)
    monkeypatch.setattr(attack, "semi_derivative", recording_semi)
    for seed in range(10):
        data, model, config = svm_scenario(seed)
        run_attack(data.features.ravel(), model, config)
    argv = ["attack", "--synth-n", "20", "--seed", "1", "--bounds=-3,3,5,60", "--tol-improve", "1e-14"]
    assert cli.main([*argv, "--out", str(tmp_path / "box")]) == 0
    gradients = calls.pop("gradient")
    assert gradients == sum(v for k, v in calls.items() if k[0] == "adjoint") > 900
    for (role, own, kept, dim), count in calls.items():
        if role == "adjoint":  # on the solve's own decomposition, where the null space has one
            assert own and kept == (dim > 0)
        elif dim and not kept:  # a piece decomposes its factors once per point
            assert role == "piece 0" and not own and count == len({id(aux) for aux in auxes})
    assert sum(v for k, v in calls.items() if k[0] == "piece 0") == len(auxes) == 176


@pytest.mark.parametrize("k", [1, 2])
def test_flat_strict_null_space_raises_aux_unbounded(k):
    """Where piece 0 has no minimizer the second-order condition fails: AuxUnbounded.

    y_j = max(x_j, 0) for j < k has its kink at x = 0, and the last
    variable is free: the objective is flat in it, and along that
    coordinate it decreases without bound on the strict rows' null
    space, as on the auxiliary QP's whole feasible set.  With k = 1 the
    pieces find it, with k = 2 the auxiliary QP.
    """
    n = k + 1
    rows = -np.eye(n)[:k]
    model = VictimModel(
        dim_data=n,
        dim_var=n,
        assemble=lambda x: QpProblem(np.diag([1.0] * k + [0.0]), -x, A_ineq=rows, b_ineq=np.zeros(k)),
        grad_x_constraint=lambda x, y: np.zeros((k, n)),
        cross_hessian=lambda x, y, lam: -np.eye(n),
    )
    x = np.zeros(n)
    point = sensitivity.PointDerivative(model, x, solve_victim(model, x))
    assert point.aux.structure.weakly_active == list(range(k))
    free = np.eye(n)[k]
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(point.aux, free)
    with pytest.raises(errors.Unbounded):
        solve_qp(auxiliary_qp(point.aux, free))
    assert_array_equal(semi_derivative(point.aux, -np.eye(n)[0]), np.zeros(n))


@pytest.mark.parametrize("row", [[-1.0, 0.0], [1.0, 1.0]], ids=["bound", "general"])
def test_kink_piece_refuses_a_weakly_active_row_in_the_working_span(row):
    """A weakly active copy of a working row does not join: RegularityFailure, as LICQ fails.

    build_auxiliary joins the row to a copy of the working rows' factors,
    which would be piece 1, and the refused join raises, naming the row.
    """
    a = np.array(row)
    model = VictimModel(
        dim_data=2,
        dim_var=2,
        assemble=lambda x: QpProblem(np.eye(2), -x, A_ineq=[a, a], b_ineq=[0.0, 0.0]),
        grad_x_constraint=lambda x, y: np.zeros((2, 2)),
        cross_hessian=lambda x, y, lam: -np.eye(2),
    )
    x = 2.0 * a
    sol = solve_victim(model, x)
    (w,) = classify_active(sol.problem, sol).weakly_active
    assert w not in sol.factors.rows
    with pytest.raises(errors.RegularityFailure, match=rf"active row {w} depends .* \(LICQ fails\)"):
        build_auxiliary(model, x, sol)


def orthant_corner_model():
    """Projection of x onto {sum(y) <= 0, y0 >= 0, y1 >= 0, y3 <= 0, y4 <= 0, y5 <= 0} in R^6.

    At ORTHANT_X the solution is y = 0 with multipliers (1, 0, 0, 1, 1,
    1): rows 1 and 2 are weakly active, and the general row 0 and the
    bounds 3-5 are strict.  The six rows are independent, so LICQ holds.
    """
    rows = np.zeros((6, 6))
    rows[0] = 1.0
    rows[[1, 2, 3, 4, 5], [0, 1, 3, 4, 5]] = [-1.0, -1.0, 1.0, 1.0, 1.0]
    return VictimModel(
        dim_data=6,
        dim_var=6,
        assemble=lambda x: QpProblem(np.eye(6), -x, A_ineq=rows, b_ineq=np.zeros(6)),
        grad_x_constraint=lambda x, y: np.zeros((6, 6)),
        cross_hessian=lambda x, y, lam: -np.eye(6),
    )


ORTHANT_X = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def orthant_directions():
    """Directions that leave rows 1 and 2 each off or on, and random ones."""
    signs = [np.array([s0, s1, 0.5, 1.0, -1.0, 0.0]) for s0 in (-1.0, 1.0) for s1 in (-1.0, 1.0)]
    return signs + list(np.random.default_rng(2).standard_normal((8, 6)))


def test_two_weakly_active_rows_solve_the_auxiliary_qp(monkeypatch):
    """With k = 2 weakly active rows each direction solves the auxiliary QP, as enumeration does."""
    model = orthant_corner_model()
    aux = build_auxiliary(model, ORTHANT_X, solve_victim(model, ORTHANT_X))
    assert aux.structure.weakly_active == [1, 2] and aux.structure.strict == [0, 3, 4, 5]
    assert aux.pieces == ()
    calls = _count_aux_solves(monkeypatch)
    on = Counter()
    for k, dx in enumerate(orthant_directions(), start=1):
        dy = check_against_the_auxiliary_qp(aux, dx)
        assert len(calls) == k
        on[tuple(np.abs(dy[:2]) <= 1e-12)] += 1
    assert len(on) == 4  # each of rows 1 and 2 is both off and on


def test_auxiliary_qp_factors_its_bound_rows_in_closed_form(monkeypatch):
    """The auxiliary QP's strict rows go in decreasing index, so its bounds lead phase 1's start.

    At the orthant corner the strict rows are the general row 0 and the
    bounds 3-5.  Taken as 5, 4, 3, 0, they are the auxiliary QP's
    equality rows 2-5, and phase 1 fixes the bounds in closed form: only
    row 0 and the weakly active bounds 2 and 1 join its start, as the
    auxiliary QP's rows 5, 1, 0 (6 joins with the strict rows
    ascending).  That start holds every row, so no t-loop runs: one loop
    per derivative.
    """
    model = orthant_corner_model()
    aux = build_auxiliary(model, ORTHANT_X, solve_victim(model, ORTHANT_X))
    joins, at_start, loops = [], [], []
    real_join, real_phase1, real_loop = qp.WorkingFactors.join, qp._phase1, qp._active_set_loop

    def counting_join(self, i, *args):
        joins.append(int(i))
        return real_join(self, i, *args)

    def phase1(problem):
        start = real_phase1(problem)
        at_start.append((list(joins), start.factors.rows[:3].tolist()))
        return start

    def counting_loop(*args):
        loops.append(1)
        return real_loop(*args)

    monkeypatch.setattr(qp.WorkingFactors, "join", counting_join)
    monkeypatch.setattr(qp, "_phase1", phase1)
    monkeypatch.setattr(qp, "_active_set_loop", counting_loop)
    for dx in orthant_directions():
        del joins[:]
        semi_derivative(aux, dx)
    assert at_start == [([5, 1, 0], [2, 3, 4])] * len(orthant_directions())
    assert len(loops) == len(orthant_directions())


def test_factor_route_matches_the_assembled_auxiliary_qp(monkeypatch):
    """Without weakly active rows the derivative is the equality-constrained auxiliary QP's.

    Over 300 random fixtures, with and without equality rows, dy from the
    training factors agrees within 1e-10 with solve_qp on the auxiliary
    QP assembled from the strictly active rows and with brute-force
    enumeration, and no auxiliary QP is solved for it.
    """
    rng = np.random.default_rng(314)
    reached = {False: 0, True: 0}
    calls = _count_aux_solves(monkeypatch)  # the references below call qp.solve_qp
    for _ in range(300):
        dim_var, dim_data = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        n_eq, n_ineq = int(rng.integers(0, 3)), int(rng.integers(1, 6))
        model = generic_parametric_qp(int(rng.integers(0, 2**31 - 1)), dim_var, dim_data, n_ineq, n_eq)
        x, dx = 0.2 * rng.standard_normal(dim_data), rng.standard_normal(dim_data)
        try:
            aux = build_auxiliary(model, x, solve_victim(model, x))
        except errors.SolverError:
            continue
        if aux.structure.weakly_active:
            continue
        dy = semi_derivative(aux, dx)
        c = aux.cross @ dx
        strict = aux.structure.strict
        rows, offsets = aux.rows[strict], (aux.jac @ dx)[strict]
        ref = solve_qp(QpProblem(aux.H_aux, c, A_eq=rows, b_eq=offsets)).y
        enum = enumerate_qp(aux.H_aux, c, A_eq=rows, b_eq=offsets)[0]
        scale = 1.0 + np.abs(ref).max()
        assert np.abs(dy - ref).max() <= 1e-10 * scale
        assert np.abs(dy - enum).max() <= 1e-10 * scale
        reached[n_eq > 0] += 1
    assert calls == []
    assert reached[False] > 50 and reached[True] > 150


def test_singular_adjoint_scores_on_the_aux_route_and_raises_where_it_is_unbounded():
    """A flat Z'HZ: no adjoint, so the point's one route is aux, and no direction goes to FD.

    The adjoint u minimizes 0.5 u'Hu - grad_y'u on the working rows' null
    space, and grad_y has a component along the flat direction, so it
    does not exist.  At x = (0.3, 0) the objective |y - (0, 1)|^2 has
    grad_y = (0.6, -2).
    Along +-e1 the auxiliary problem gives dy = +-e1; along e2 it is
    unbounded, the second-order condition fails, and AuxUnbounded
    propagates: a finite-difference quotient has no limit there.
    """
    model = flat_direction_model()
    x = np.array([0.3, 0.0])
    sol = solve_victim(model, x)
    selector, target = np.eye(2), np.array([0.0, 1.0])
    ev = _ObjectiveDerivative(model, x, sol, selector, target, objective(sol.y, target))
    assert qp.working_minimizer(sol, sol.factors, -ev.grad_y, np.zeros(sol.problem.n_con)) is None
    assert ev.gradient is None
    assert ev.route == "aux"
    assert_allclose(ev.dG(0, np.array([[1.0, 0.0], [-1.0, 0.0]])), [0.6, -0.6], rtol=1e-12)
    e2 = np.array([0.0, 1.0])
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(ev.point.aux, e2)
    fd_calls = []
    fd = ev._finite_difference
    ev._finite_difference = lambda dx: fd_calls.append(dx) or fd(dx)
    with pytest.raises(errors.AuxUnbounded):
        ev.dG(0, e2[None])
    assert fd_calls == []


def test_attack_at_a_flat_adjoint_raises_aux_unbounded_with_no_fd_re_solve(monkeypatch):
    """run_attack from the flat-Z'HZ point: the probe's e2 row raises AuxUnbounded, unwarned.

    No direction is re-solved by finite differences.  AuxUnbounded is a
    SolverError, which the CLI maps to exit code 3.
    """
    fd_calls = []
    monkeypatch.setattr(
        _ObjectiveDerivative, "_finite_difference", lambda self, dx: fd_calls.append(dx)
    )
    config = AttackConfig(target=np.array([0.0, 1.0]), delta=1.0, point_dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.AuxUnbounded) as info:
            run_attack(np.array([0.3, 0.0]), flat_direction_model(), config)
    assert isinstance(info.value, errors.SolverError) and cli.EXIT_SOLVER == 3
    assert fd_calls == []


def test_point_derivative_picks_one_route_per_point():
    """gradient, aux or no aux at four points: smooth, kinked, non-regular, flat."""
    # strictly complementary SVM point: the gradient gives every product grad_y' dy
    data = normalize(synth_lane_change(20, seed=0))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    x = data.features.ravel()
    point = sensitivity.PointDerivative(model, x, solve_victim(model, x))
    assert point.aux.structure.weakly_active == []
    grad_y = np.zeros(model.dim_var)
    grad_y[:2] = [1.0, -1.0]
    want = np.array([grad_y @ semi_derivative(point.aux, d) for d in np.eye(x.size)])
    assert np.count_nonzero(want) > 0
    assert np.abs(point.gradient(grad_y) - want).max() <= 1e-9
    # the kink of max(x, 0): a weakly active bound, no gradient, one-sided rates
    x0 = np.zeros(1)
    kink = kink_projection_model()
    point = sensitivity.PointDerivative(kink, x0, solve_victim(kink, x0))
    assert point.gradient(np.ones(1)) is None
    assert_array_equal(semi_derivative(point.aux, np.ones(1)), np.ones(1))
    assert_array_equal(semi_derivative(point.aux, -np.ones(1)), np.zeros(1))
    # the toy's two bounds at x = 0 are dependent: LICQ fails
    toy = toy_bilevel_model()
    point = sensitivity.PointDerivative(toy, x0, solve_victim(toy, x0))
    assert point.aux is None
    assert point.gradient(np.ones(1)) is None
    # flat Z'HZ: the auxiliary objective is unbounded along e2
    flat, x = flat_direction_model(), np.array([0.3, 0.0])
    point = sensitivity.PointDerivative(flat, x, solve_victim(flat, x))
    assert point.gradient(np.ones(2)) is None
    with pytest.raises(errors.AuxUnbounded):
        semi_derivative(point.aux, np.array([0.0, 1.0]))
    assert_allclose(semi_derivative(point.aux, np.array([1.0, 0.0])), [1.0, 0.0], rtol=1e-12)


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


def test_fd_re_solve_starts_warm_from_the_base_point(monkeypatch):
    """The FD re-solve at x + h dx starts from the base point, with no phase 1.

    Row 1 is active at the base point.  dx = e3 moves it inward, so the
    base point itself is feasible; dx = -e3 moves it outward, so the base
    point is not, and the start is its least-norm step back onto the row.
    Either quotient matches the one from a cold re-solve up to round-off.
    """
    model = generic_parametric_qp(5)
    x = np.full(3, 0.1)
    base = solve_victim(model, x)
    assert abs(base.problem.constraint_values(base.y)[1]) <= qp.TOL_ACT
    phase1, inner = [], qp._phase1
    monkeypatch.setattr(qp, "_phase1", lambda problem: phase1.append(problem) or inner(problem))
    for outward in (False, True):
        dx = np.array([0.0, 0.0, -1.0 if outward else 1.0])
        x_h = x + sensitivity.FD_STEP * dx
        assert (qp.point_start(model.assemble(x_h), base.y) is None) == outward
        cold = (solve_victim(model, x_h).y - base.y) / sensitivity.FD_STEP
        assert len(phase1) == 1  # the patch sees a cold solve
        phase1.clear()
        warm = fd_directional_derivative(model, x, dx, base_solution=base)
        assert phase1 == []
        assert np.abs(warm - cold).max() <= 1e-9


def test_oracle_trials_run_phase1_once_per_fixture(monkeypatch):
    """run_oracle_trials(500, seed=0) solves no auxiliary QP and runs phase 1 once per fixture.

    Every trial's fixture is solved cold, once; every FD re-solve starts
    warm, and no gated trial has a weakly active row.
    """
    aux_calls = _count_aux_solves(monkeypatch)
    phase1, inner = [], qp._phase1
    monkeypatch.setattr(qp, "_phase1", lambda problem: phase1.append(problem) or inner(problem))
    trials = run_oracle_trials(500, seed=0)
    assert aux_calls == []
    assert len(phase1) == len(trials) == 503


def test_hook_less_warm_without_usable_factors_runs_phase1(monkeypatch):
    """A warm solution with no factors, or factors of other rows, gives no hot start: phase 1 runs.

    The first is built by hand; the second solves a fixture with one
    more inequality row.  Either solve is the cold one.
    """
    model = generic_parametric_qp(5)
    x = np.full(3, 0.1)
    sol = solve_victim(model, x)
    bare = KktSolution(sol.y, sol.lam, sol.value)
    other = solve_victim(generic_parametric_qp(5, n_ineq=4), x)
    assert qp.working_start(bare, sol.problem) is None
    assert qp.working_start(other, sol.problem) is None
    starts, inner = [], victims.solve_qp
    monkeypatch.setattr(victims, "solve_qp", lambda p, start: starts.append(start) or inner(p, start=start))
    for warm in (bare, other):
        again = solve_victim(model, x, warm=warm)
        assert again.phase1 and np.array_equal(again.y, sol.y)
    assert starts == [None, None]


@pytest.mark.parametrize("keep_problem", [False, True])
@pytest.mark.parametrize(
    "entry",
    [
        lambda model, x, sol: build_auxiliary(model, x, sol),
        lambda model, x, sol: qp.working_minimizer(sol, sol.factors, np.ones(model.dim_var), np.zeros(3)),
    ],
    ids=["build_auxiliary", "working_minimizer"],
)
def test_hand_built_solution_raises_input_error(entry, keep_problem):
    """A KktSolution without solve_qp's problem or factors is named as the caller's error."""
    model = generic_parametric_qp(5)
    x = np.full(3, 0.1)
    sol = solve_victim(model, x)
    bare = KktSolution(sol.y, sol.lam, sol.value, problem=sol.problem if keep_problem else None)
    with pytest.raises(errors.InputError, match="solution must come from solve_qp"):
        entry(model, x, bare)


def test_semi_derivative_direction_validation():
    model = kink_projection_model()
    sol = solve_victim(model, np.array([0.5]))
    aux = build_auxiliary(model, np.array([0.5]), sol)
    with pytest.raises(errors.DimensionMismatch):
        semi_derivative(aux, np.zeros(1))
    with pytest.raises(errors.DimensionMismatch):
        semi_derivative(aux, np.ones(2))
