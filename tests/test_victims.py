"""Tests for victim model construction and derivative callbacks."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semipoison import errors, victims
from semipoison.qp import TOL_FEAS, classify_active, solve_qp
from semipoison.victims import (
    SvmModel,
    bound_tracking_model,
    generic_parametric_qp,
    kink_projection_model,
    solve_victim,
    svm_assemble,
    svm_cross_hessian,
    svm_feasible_start,
    svm_grad_x_constraint,
    svm_victim,
    toy_bilevel_model,
    toy_lower_solution,
)

from _oracles import validate_derivative_callbacks


def separable_svm(n=10, seed=42, C=10.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    feats = np.vstack([
        rng.normal([-1.0, -1.0], 0.3, (half, 2)),
        rng.normal([1.0, 1.0], 0.3, (n - half, 2)),
    ])
    labels = np.array([1] * half + [-1] * (n - half))
    return SvmModel(feats, labels, C=C)


def test_svm_assemble_structure():
    svm = separable_svm(n=4)
    x = svm.features.ravel()
    prob = svm_assemble(svm, x)
    assert prob.n_var == 7
    assert prob.n_ineq == 8
    assert prob.n_eq == 0
    assert_allclose(np.diag(prob.H), [1.0, 1.0, svm.ridge_eps] + [svm.ridge_eps] * 4)
    assert_allclose(prob.c, [0, 0, 0] + [svm.C] * 4)
    # margin row 0: -y_0 * (x_01, x_02, 1), -1 on its own slack
    assert_allclose(prob.A_ineq[0, :2], -svm.labels[0] * svm.features[0])
    assert prob.A_ineq[0, 2] == -svm.labels[0]
    assert prob.A_ineq[0, 3] == -1.0
    assert prob.b_ineq[0] == 1.0
    assert prob.b_ineq[4] == 0.0


def test_svm_separable_solution_classifies_correctly():
    svm = separable_svm(n=10)
    sol = solve_victim(svm_victim(svm), svm.features.ravel())
    w, b = sol.y[:2], sol.y[2]
    margins = svm.labels * (svm.features @ w + b)
    assert np.all(margins >= 1.0 - 1e-6)  # separable: every point outside the margin
    assert np.abs(sol.y[3:]).max() <= 1e-6  # no slack used


def test_svm_cross_hessian_single_point():
    svm = SvmModel(np.array([[0.5, -0.25]]), np.array([1]))
    x = svm.features.ravel()
    y = np.array([1.0, -1.0, 0.2, 0.0])
    cross = svm_cross_hessian(svm, x, y, np.array([2.0, 0.0]))
    assert_allclose(cross[:2, :2], -2.0 * np.eye(2))
    assert_allclose(cross[2:, :], 0.0)  # no coupling through b or the slacks


def test_svm_grad_x_constraint():
    svm = separable_svm(n=4)
    x = svm.features.ravel()
    y = np.array([0.7, -0.3, 0.1, 0, 0, 0, 0])
    J = svm_grad_x_constraint(svm, x, y)
    assert J.shape == (8, 8)
    expect = np.zeros(8)
    expect[2:4] = -svm.labels[1] * y[:2]
    assert_allclose(J[1], expect)
    assert_allclose(J[4:], 0.0)  # slack-sign rows


def test_svm_callbacks_match_finite_differences():
    svm = separable_svm(n=6, seed=3)
    vict = svm_victim(svm)
    x = svm.features.ravel()
    sol = solve_victim(vict, x)
    validate_derivative_callbacks(vict, x, sol.y, sol.lam)


def test_svm_constraint_order_permutation_leaves_y_unchanged():
    svm = separable_svm(n=6, seed=1)
    x = svm.features.ravel()
    prob = svm_assemble(svm, x)
    base = solve_victim(svm_victim(svm), x)
    rng = np.random.default_rng(0)
    from semipoison.qp import QpProblem, solve_qp

    for _ in range(3):
        perm = rng.permutation(prob.n_ineq)
        shuffled = QpProblem(prob.H, prob.c, prob.A_ineq[perm], prob.b_ineq[perm])
        sol = solve_qp(shuffled)
        assert_allclose(sol.y, base.y, atol=1e-7)


def test_svm_validation_errors():
    with pytest.raises(errors.BadLabel):
        SvmModel(np.zeros((2, 2)), np.array([1, 0]))
    with pytest.raises(errors.DimensionMismatch):
        SvmModel(np.zeros((2, 3)), np.array([1, -1]))
    with pytest.raises(ValueError):
        SvmModel(np.zeros((2, 2)), np.array([1, -1]), C=-1.0)
    svm = separable_svm(n=4)
    with pytest.raises(errors.DimensionMismatch):
        svm_assemble(svm, np.zeros(3))


def test_toy_solution_is_absolute_value():
    for x in np.linspace(-1, 1, 41):
        assert toy_lower_solution(x) == pytest.approx(abs(x), abs=1e-6)


def test_toy_out_of_domain():
    with pytest.raises(errors.OutOfDomain):
        toy_lower_solution(1.5)


def test_toy_victim_callbacks():
    model = toy_bilevel_model()
    sol = solve_victim(model, np.array([0.4]))
    assert_allclose(sol.y, [0.4], atol=1e-8)
    validate_derivative_callbacks(model, np.array([0.4]), sol.y, sol.lam)


def test_kink_projection_solution_map():
    model = kink_projection_model()
    for x, expect in [(-0.5, 0.0), (0.0, 0.0), (0.7, 0.7)]:
        sol = solve_victim(model, np.array([x]))
        assert sol.y[0] == pytest.approx(expect, abs=1e-10)
    # at the kink the bound is active with zero multiplier
    sol = solve_victim(model, np.array([0.0]))
    st = classify_active(model.assemble(np.array([0.0])), sol)
    assert st.active == [0]
    assert st.weakly_active == [0]


def test_bound_tracking_solution_map():
    model = bound_tracking_model(pull=1.0)
    for x, expect in [(-0.5, -0.5), (0.0, 0.0), (2.0, 1.0)]:
        sol = solve_victim(model, np.array([x]))
        assert sol.y[0] == pytest.approx(expect, abs=1e-10)
    # data appears only in the constraint: objective cross term is zero
    assert_allclose(model.cross_hessian(np.array([0.0]), np.zeros(1), np.zeros(1)), 0.0)


# (dim_var, dim_data, n_ineq, n_eq) of every fixture run_oracle_trials draws,
# then the unconstrained ones of compare --victim quadratic and acceptance
# criterion 3 (and every other unconstrained shape up to the same sizes)
FIXTURE_SHAPES = [
    (dim_var, dim_data, n_ineq, n_eq)
    for dim_var, dim_data, n_eq, n_ineq in itertools.product(
        range(2, 9), range(1, 5), range(2), range(1, 6)
    )
] + [(dim_var, dim_data, 0, 0) for dim_var in range(2, 9) for dim_data in range(1, 5)]


@pytest.mark.parametrize("seed", range(6))
def test_generic_fixture_validates_and_solves(seed):
    """Callbacks agree with finite differences at a solution and on every shape.

    generic_parametric_qp does not check its callbacks, so each seed also
    checks a sixth of FIXTURE_SHAPES at random (x, y, lam).
    """
    rng = np.random.default_rng(seed)
    model = generic_parametric_qp(
        seed,
        dim_var=int(rng.integers(2, 8)),
        dim_data=int(rng.integers(1, 5)),
        n_ineq=int(rng.integers(1, 6)),
        n_eq=int(rng.integers(0, 2)),
    )
    x = 0.1 * rng.standard_normal(model.dim_data)
    sol = solve_victim(model, x)
    validate_derivative_callbacks(model, x, sol.y, sol.lam)
    for dim_var, dim_data, n_ineq, n_eq in FIXTURE_SHAPES[seed::6]:
        model = generic_parametric_qp(seed, dim_var, dim_data, n_ineq, n_eq)
        validate_derivative_callbacks(
            model,
            0.1 * rng.standard_normal(dim_data),
            rng.standard_normal(dim_var),
            rng.uniform(0.0, 2.0, n_ineq + n_eq),
        )


def test_fixture_construction_assembles_nothing(monkeypatch):
    """Building a fixture assembles no problem; assembling it builds one."""
    calls, built = [], []

    def counting(fn, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)

        return wrapper

    family = victims._AffineQpFamily
    monkeypatch.setattr(family, "assemble", counting(family.assemble, calls))
    monkeypatch.setattr(victims, "QpProblem", counting(victims.QpProblem, built))
    model = generic_parametric_qp(11, dim_var=4, dim_data=3, n_ineq=3, n_eq=1)
    assert (len(calls), len(built)) == (0, 0)
    model.assemble(np.zeros(3))
    assert (len(calls), len(built)) == (1, 1)


def test_generic_fixture_deterministic():
    a = generic_parametric_qp(7)
    b = generic_parametric_qp(7)
    x = np.array([0.1, -0.2, 0.3])
    pa, pb = a.assemble(x), b.assemble(x)
    assert_allclose(pa.H, pb.H)
    assert_allclose(pa.c, pb.c)
    assert_allclose(pa.A_ineq, pb.A_ineq)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
    dx=st.lists(st.floats(-1e-3, 1e-3), min_size=3, max_size=3),
)
def test_warm_solve_after_small_data_move_matches_cold(seed, x, dx):
    """A warm start from the solution at x changes nothing but round-off at x + dx."""
    model = generic_parametric_qp(seed)
    x, dx = np.array(x), np.array(dx)
    warm = solve_victim(model, x + dx, warm=solve_victim(model, x))
    cold = solve_victim(model, x + dx)
    assert np.abs(warm.y - cold.y).max() <= 1e-9


def _outcome(solve):
    """(solution, None), or (None, the type of the SemipoisonError raised)."""
    try:
        return solve(), None
    except errors.SemipoisonError as exc:
        return None, type(exc)


def _relative_stationarity(problem, sol):
    """max |H y + c + A' lam| over the largest of its three terms: scale-free."""
    terms = (problem.H @ sol.y, problem.c, problem.A.T @ sol.lam)
    return np.abs(sum(terms)).max() / max(np.abs(t).max() for t in terms)


# log10 of C and of ridge_eps: often moderate, sometimes anywhere up to 1e300
LOG_SCALE = st.one_of(st.floats(-8.0, 8.0), st.floats(-8.0, 300.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@example(seed=2, n=2, kind="gauss", log_c=-5.0, log_eps=-5.0)  # phase 1 stops short
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(["gauss", "dup", "collinear", "identical", "one-class", "flipped"]),
    log_c=LOG_SCALE,
    log_eps=LOG_SCALE,
)
def test_cold_svm_start_is_feasible_and_changes_no_result(seed, n, kind, log_c, log_eps):
    """The least-squares cold start is feasible, or the solve falls back to phase 1.

    Nothing warns.  With C and ridge_eps at most 1e5 the start is
    feasible, and the started and the phase-1 solve both succeed or both
    raise the same typed error.  Where both succeed they agree within
    1e-10 plus round-off amplified by kappa, the spread of the problem's
    scales (1, C and ridge_eps), or else the started solve is the more
    nearly stationary of the two: solve_qp's stationarity tolerance
    scales with |c| alone, so at small C phase 1 can stop short of the
    optimum (the pinned example), and at extreme scales the two solves
    may also end in different errors.
    """
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 2))
    labels = np.where(feats[:, 0] + feats[:, 1] > 0.0, 1, -1)
    if kind == "dup":
        feats = feats[rng.integers(n, size=n)]
        labels = rng.choice([-1, 1], n)  # copies of one point may disagree
    elif kind == "collinear":
        feats = np.outer(rng.standard_normal(n), rng.standard_normal(2))
    elif kind == "identical":
        feats = np.tile(feats[0], (n, 1))
    elif kind == "one-class":
        labels = np.ones(n, dtype=int)
    elif kind == "flipped":
        labels[rng.random(n) < 0.3] *= -1
    C, eps = 10.0**log_c, 10.0**log_eps
    svm = SvmModel(feats, labels, C=C, ridge_eps=eps)
    x = feats.ravel()
    problem = svm_assemble(svm, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = svm_feasible_start(svm, x, None)
        with np.errstate(over="ignore", invalid="ignore"):
            feasible = bool(np.isfinite(start).all())
            feasible = feasible and problem.constraint_values(start).max() <= TOL_FEAS
        sol, err = _outcome(lambda: solve_victim(svm_victim(svm), x))
        ref, ref_err = _outcome(lambda: solve_qp(problem))
    if sol is not None:
        assert sol.phase1 == (not feasible)
    if max(C, eps) <= 1e5:
        assert feasible and err is ref_err
    if sol is not None and ref is not None:
        kappa = max(1.0, C, eps) / min(1.0, eps)
        tol = (1e-10 + 1e-14 * kappa) * (1.0 + np.abs(ref.y).max())
        if np.abs(sol.y - ref.y).max() > tol:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _relative_stationarity(problem, sol) <= _relative_stationarity(problem, ref)
