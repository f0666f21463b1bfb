"""Tests for victim model construction and derivative callbacks."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semipoison import errors, victims
from semipoison import qp as qp_module
from semipoison.qp import TOL_FEAS, QpProblem, classify_active, solve_qp, working_start
from semipoison.victims import (
    SvmModel,
    generic_parametric_qp,
    solve_victim,
    svm_assemble,
    svm_cross_hessian,
    svm_feasible_start,
    svm_grad_x_constraint,
    svm_victim,
    toy_bilevel_model,
    toy_lower_solution,
)

from _oracles import (
    EXAMPLES,
    bound_tracking_model,
    kink_projection_model,
    validate_derivative_callbacks,
)


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


@pytest.mark.parametrize("n", [1, 20, 160])
def test_svm_assemble_matches_the_identity_block_construction_bit_for_bit(n):
    """H, c, A and b equal, bit for bit, the arrays built from np.eye(n) blocks.

    The -I blocks' off-diagonal zeros are -0.0 there, and stay so.
    """
    rng = np.random.default_rng(n)
    svm = SvmModel(rng.standard_normal((n, 2)), rng.choice([-1, 1], n), C=3.0, ridge_eps=1e-5)
    x = svm.features.ravel()
    d, y, pts = n + 3, svm.labels, svm.features
    H = np.zeros((d, d))
    H[0, 0] = H[1, 1] = 1.0
    H[2, 2] = svm.ridge_eps
    H[3:, 3:] = svm.ridge_eps * np.eye(n)
    c = np.zeros(d)
    c[3:] = svm.C
    A = np.zeros((2 * n, d))
    A[:n, 0], A[:n, 1], A[:n, 2] = -y * pts[:, 0], -y * pts[:, 1], -y
    A[:n, 3:] = -np.eye(n)
    A[n:, 3:] = -np.eye(n)
    b = np.zeros(2 * n)
    b[:n] = 1.0
    prob = svm_assemble(svm, x)
    for got, want in ((prob.H, H), (prob.c, c), (prob.A, A), (prob.b, b)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# data entries: signed zeros, entries near 1e300 and the largest double, any finite float, rarely NaN or inf
DATA_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.7976931348623157e308, 5e-324]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def svm_data_moves(draw):
    """(labels, first, x): n <= 6 labels, the data vector of a model's first assembly and a later one.

    x holds a repeated point half of the time, and a NaN or an inf in
    one entry one time in ten.
    """
    n = draw(st.integers(1, 6))
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    first, x = (np.array(draw(st.lists(DATA_ENTRY, min_size=2 * n, max_size=2 * n))) for _ in "ab")
    if n > 1 and draw(st.booleans()):
        x[2:4] = x[:2]
    if draw(st.integers(0, 9)) == 0:
        x[draw(st.integers(0, 2 * n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return labels, first, x


@settings(derandomize=True, deadline=None, max_examples=200 * EXAMPLES)
@given(case=svm_data_moves())
def test_derived_svm_problem_equals_a_freshly_constructed_one(case):
    """A later assembly, from the model's base, is the problem a first assembly constructs at x.

    A, A_ineq and A_eq (their -0.0 zeros included), H, c, b and the row
    counts agree bit for bit, and A_ineq and A_eq are views of A.  A
    non-finite entry raises construction's ValueError, text and all,
    and leaves the base alone.
    """
    labels, first, x = case
    model = SvmModel(np.zeros((labels.size, 2)), labels)
    base = svm_assemble(model, first)
    kept = base.A.copy()
    fresh_model = SvmModel(np.zeros((labels.size, 2)), labels)
    if not np.isfinite(x).all():
        with pytest.raises(ValueError) as derived_error:
            svm_assemble(model, x)
        with pytest.raises(ValueError) as fresh_error:
            svm_assemble(fresh_model, x)
        assert str(derived_error.value) == str(fresh_error.value)
        assert model.base is base and fresh_model.base is None
        return
    derived, fresh = svm_assemble(model, x), svm_assemble(fresh_model, x)
    assert model.base is base and base.A.tobytes() == kept.tobytes()
    for name in ("A", "A_ineq", "A_eq", "H", "c", "b", "b_ineq", "b_eq"):
        got, want = getattr(derived, name), getattr(fresh, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert (derived.n_var, derived.n_ineq, derived.n_eq) == (fresh.n_var, fresh.n_ineq, fresh.n_eq)
    assert derived.A_ineq.base is derived.A and derived.A_eq.base is derived.A


def test_a_model_checks_its_training_problem_in_full_once(monkeypatch):
    """SvmModel builds no problem; its first assembly constructs and checks one, later ones none.

    Each later assembly checks its rewritten margin rows alone, through
    the row check construction uses (_as_matrix).
    """
    constructed, row_checks = [], []
    post_init, as_matrix = QpProblem.__post_init__, qp_module._as_matrix
    monkeypatch.setattr(QpProblem, "__post_init__", lambda self: constructed.append(self) or post_init(self))
    monkeypatch.setattr(
        qp_module, "_as_matrix", lambda a, n, name: row_checks.append(np.shape(a)) or as_matrix(a, n, name)
    )
    svm = separable_svm(n=6)
    assert constructed == [] and svm.base is None
    x = svm.features.ravel()
    problems = [svm_assemble(svm, x + 0.01 * k) for k in range(5)]
    assert constructed == [svm.base] == problems[:1]
    assert row_checks == [(12, 9), ()] + 4 * [(6, 9)]  # A_ineq and no A_eq once, then the margin rows


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SvmModel(np.zeros((2, 2)), np.array([1, -1, 1])),
         "labels must be one per feature row"),
        (lambda: svm_cross_hessian(separable_svm(n=4), np.zeros(8), np.zeros(3), np.zeros(7)),
         "lam must have length 8, got (7,)"),
        (lambda: victims.toy_assemble(np.zeros(2)),
         "toy data vector must have shape (1,), got (2,)"),
    ],
    ids=["svm-labels", "svm-cross-hessian-lam", "toy-assemble"],
)
def test_victim_shape_errors(build, message):
    with pytest.raises(errors.DimensionMismatch) as info:
        build()
    assert info.type is errors.DimensionMismatch and str(info.value) == message


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


@settings(derandomize=True, deadline=None, max_examples=200 * EXAMPLES)
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


def test_warm_start_reads_a_bound_entry_at_the_new_data():
    """working_start fixes a bound's variable with the bound's entry at the new data.

    The bound -(1 + x) y + 1 <= 0 is active at the minimizer y = 1 / (1 + x)
    of 0.5 y^2.  Moved from x = 0 to x = 0.1, the start meets it to
    round-off, not only to within the change in its entry.
    """
    family = victims._AffineQpFamily(
        H=np.eye(1), c0=np.zeros(1), Cx=np.zeros((1, 1)),
        rows_a=np.array([[-1.0]]), rows_M=np.array([[[-1.0]]]),
        rows_b0=np.array([1.0]), rows_beta=np.zeros((1, 1)), n_ineq=1,
    )
    model = family.as_victim()
    warm = solve_victim(model, np.zeros(1))
    assert warm.factors.fixed.tolist() == [0]
    x = np.array([0.1])
    problem = model.assemble(x)
    start = working_start(warm, problem)
    assert start.factors.fixed.tolist() == [0]  # the bound keeps its place
    assert abs(problem.constraint_values(start.y)[0]) <= 1e-15
    sol = solve_victim(model, x, warm=warm)
    assert not sol.phase1 and sol.iterations == 1
    assert sol.y[0] == pytest.approx(1.0 / 1.1, abs=1e-15)


def _vertex_model(bound_coupling=0.0):
    """min 0.5 |y - (5, 5)|^2 subject to y_0 + bound_coupling x y_1 <= 1, y_1 <= 1, y_0 + y_1 <= 2 + x.

    At x = 0 the optimum is the vertex (1, 1): the two bounds are the
    working rows, with multipliers 4, and row 2 passes through the
    vertex with a zero multiplier, not working.
    """
    rows_M = np.zeros((3, 2, 1))
    rows_M[0, 1, 0] = bound_coupling
    return victims._AffineQpFamily(
        H=np.eye(2), c0=np.array([-5.0, -5.0]), Cx=np.zeros((2, 1)),
        rows_a=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), rows_M=rows_M,
        rows_b0=np.array([-1.0, -1.0, -2.0]), rows_beta=np.array([[0.0], [0.0], [-1.0]]), n_ineq=3,
    ).as_victim()


def test_violated_row_that_cannot_join_gives_no_hot_start():
    """A row violated at the hot start that cannot join the working rows means a cold solve.

    At x = -5e-9 row 2 cuts the vertex (1, 1) off by 5e-9, inside
    TOL_FEAS, and cannot join: the two bounds fix every variable.  A loop
    started on them would end at the vertex, 2.5e-9 from the optimum,
    with that violation kept.  So there is no hot start, and the re-solve
    is the cold one.  At x = +5e-9 row 2 moves away and the hot start
    takes one iteration.
    """
    model = _vertex_model()
    warm = solve_victim(model, np.zeros(1))
    assert warm.factors.rows.tolist() == [0, 1] and warm.lam.tolist() == [4.0, 4.0, 0.0]
    x = np.array([-5e-9])
    assert working_start(warm, model.assemble(x)) is None
    sol, cold = solve_victim(model, x, warm=warm), solve_victim(model, x)
    assert sol.phase1 and np.abs(sol.y - cold.y).max() <= 1e-12
    assert_allclose(cold.y, [1.0 - 2.5e-9, 1.0 - 2.5e-9], rtol=0.0, atol=1e-15)
    moved_away = solve_victim(model, -x, warm=warm)
    assert not moved_away.phase1 and moved_away.iterations == 1
    assert moved_away.y.tolist() == [1.0, 1.0]


def test_bound_row_that_gains_a_second_nonzero_gives_no_hot_start():
    """Row 0 bounds y_0 at x = 0 and couples y_1 in at x = 0.1: no hot start, a cold solve."""
    model = _vertex_model(bound_coupling=1.0)
    warm = solve_victim(model, np.zeros(1))
    assert warm.factors.fixed.tolist() == [0, 1]
    x = np.array([0.1])
    assert working_start(warm, model.assemble(x)) is None
    sol = solve_victim(model, x, warm=warm)
    assert sol.phase1 and np.array_equal(sol.y, solve_victim(model, x).y)


def test_hot_start_that_overflows_is_none():
    """A bound entry of 1e-300 with offset 1e300 puts the start at -b / s = inf: no hot start.

    working_start runs inside the error state solve_victim sets.
    """
    warm = solve_qp(QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0]))
    assert warm.factors.fixed.tolist() == [0]
    huge = QpProblem([[1.0]], [0.0], A_ineq=[[-1e-300]], b_ineq=[1e300])
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        assert working_start(warm, huge) is None


def test_start_that_overflows_gives_a_typed_error_through_the_public_entries():
    """The same data through solve_qp and a warm solve_victim: Infeasible (y >= 1e600), unwarned."""
    problems = [
        QpProblem([[1.0]], [0.0], A_ineq=[[-1.0]], b_ineq=[1.0]),
        QpProblem([[1.0]], [0.0], A_ineq=[[-1e-300]], b_ineq=[1e300]),
    ]
    model = victims.VictimModel(
        dim_data=1,
        dim_var=1,
        assemble=lambda x: problems[int(x[0])],
        grad_x_constraint=lambda x, y: np.zeros((1, 1)),
        cross_hessian=lambda x, y, lam: np.zeros((1, 1)),
    )
    warm = solve_victim(model, np.zeros(1))
    assert warm.factors.fixed.tolist() == [0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: solve_qp(problems[1]), lambda: solve_victim(model, np.ones(1), warm)):
            with pytest.raises(errors.Infeasible, match="no feasible point"):
                solve()


def test_hot_start_built_for_another_problem_is_refused():
    model = _vertex_model()
    warm = solve_victim(model, np.zeros(1))
    start = working_start(warm, model.assemble(np.ones(1)))
    with pytest.raises(errors.InputError, match="another problem"):
        solve_qp(model.assemble(np.ones(1)), start=start)


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


@settings(derandomize=True, deadline=None, max_examples=300 * EXAMPLES)
@example(seed=2, n=2, kind="gauss", log_c=-5.0, log_eps=-5.0)  # phase 1 stops short
@example(seed=3, n=3, kind="collinear", log_c=196.75, log_eps=1.4375)  # see the test below
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
    optimum (the first pinned example), and at extreme scales the two
    solves may also end in different errors.  Where the agreement
    tolerance overflows to inf, only the stationarity comparison runs.
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
        tol = (1e-10 + 1e-14 * kappa) * (1.0 + float(np.abs(ref.y).max()))  # inf past 1e308
        if not (math.isfinite(tol) and np.abs(sol.y - ref.y).max() <= tol):
            with np.errstate(over="ignore", invalid="ignore"):
                assert _relative_stationarity(problem, sol) <= _relative_stationarity(problem, ref)


def test_cold_solve_refines_a_minimizer_reached_from_far_away():
    """A unit step that shrinks y by more than 1e5 is taken again from its end.

    Cold, the active-set loop on this SVM (collinear features, C near
    1e197) reaches |y| near 1e149.  The working-set minimizer computed
    from there carries round-off near 1e133 in w, which the KKT gate's
    |c|-scaled stationarity tolerance passed.  Refined, the cold solve
    ends where the solve from the least-squares start ends.
    """
    rng = np.random.default_rng(3)
    labels = np.where(rng.standard_normal((3, 2)).sum(axis=1) > 0.0, 1, -1)
    feats = np.outer(rng.standard_normal(3), rng.standard_normal(2))
    svm = SvmModel(feats, labels, C=10.0**196.75, ridge_eps=10.0**1.4375)
    x = feats.ravel()
    cold = solve_qp(svm_assemble(svm, x))
    started = solve_victim(svm_victim(svm), x)
    assert cold.phase1 and not started.phase1
    assert_allclose(cold.y, started.y, rtol=0.0, atol=1e-12)
