"""Victim models: learners whose training problem is a convex QP in which
the training data appears as a parameter.

A VictimModel bundles the assembled QP with the analytic derivative
callbacks that sensitivity analysis needs: the Jacobian of the
constraints with respect to the data vector, and the mixed second
derivative of the Lagrangian (solution variables by data coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import BadLabel, DimensionMismatch, OutOfDomain
from .qp import KktSolution, QpProblem, point_start, solve_qp, working_start


@dataclass(eq=False)
class VictimModel:
    """A learner exposed as a data-parametrized QP.

    Attributes
    ----------
    dim_data : int
        Length of the data vector x.
    dim_var : int
        Length of the learned variable vector y.
    assemble : callable(x) -> QpProblem
        Training problem at data x.
    grad_x_constraint : callable(x, y) -> (n_con, dim_data) array
        Jacobian of the constraint values with respect to x, at fixed y.
        Row i is constraint i as indexed in the assembled problem
        (inequalities first, then equalities).
    cross_hessian : callable(x, y, lam) -> (dim_var, dim_data) array
        Mixed second derivative of the Lagrangian
        objective + sum_i lam_i * g_i with respect to (y, x).
    feasible_start : callable(x, y_prev) -> y, optional
        A point that is feasible for the training problem at data x:
        built from y_prev, the solution at nearby data, for a warm solve
        that has no hot start (see solve_victim), or from the data alone
        when y_prev is None, for cold starts.  solve_victim starts from
        it through qp.point_start, on the rows active there.
    """

    dim_data: int
    dim_var: int
    assemble: Callable[[np.ndarray], QpProblem]
    grad_x_constraint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cross_hessian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    feasible_start: Callable[[np.ndarray, np.ndarray | None], np.ndarray] | None = None


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises or falls back
def solve_victim(
    model: VictimModel, x: np.ndarray, warm: KktSolution | None = None
) -> KktSolution:
    """Train the victim at data x (thin wrapper over solve_qp).

    warm is the solution at nearby data, or None for a cold solve.
    solve_qp starts from qp.working_start(warm, problem): on warm's
    working rows at x, with a copy of warm's factors, so a re-solve whose
    working set stays optimal takes one iteration.  Where that gives
    None (a cold solve, or see working_start), it starts from
    qp.point_start at model.feasible_start(x, warm.y), with None in
    place of warm.y on a cold solve, and where that gives None too, or
    the model has no such hook, from phase 1.  Every start is a
    qp.HotStart, so the start changes the cost of the solve, not its
    result beyond round-off.  The whole call, model.assemble and
    model.feasible_start included, runs with numpy's overflow and
    invalid warnings off; QpProblem still rejects non-finite data.
    """
    x = np.asarray(x, dtype=float)
    problem = model.assemble(x)
    start = None if warm is None else working_start(warm, problem)
    if start is None and model.feasible_start is not None:
        start = point_start(problem, model.feasible_start(x, None if warm is None else warm.y))
    return solve_qp(problem, start=start)


def _check_x(x, dim_data):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim_data,):
        raise DimensionMismatch(f"data vector must have shape ({dim_data},), got {x.shape}")
    return x


# ---------------------------------------------------------------------------
# soft-margin linear SVM, primal form
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SvmModel:
    """Soft-margin linear SVM on 2-feature data, trained in the primal.

    Variables are ordered (w1, w2, b, xi_1, ..., xi_n).  The data vector
    is the row-major flattening of the n-by-2 feature matrix; labels are
    fixed and never perturbed.  ridge_eps adds curvature on b and xi so
    the training problem is strictly convex (unique solution).  Treat
    instances as immutable: H, c and b are built once, on construction,
    and the training problem is built and checked in full once, by the
    first svm_assemble, which keeps it as the base of every later one.
    """

    features: np.ndarray
    labels: np.ndarray
    C: float = 10.0
    ridge_eps: float = 1e-6

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[1] != 2:
            raise DimensionMismatch(f"features must be (n, 2), got {self.features.shape}")
        self.labels = np.asarray(self.labels)
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatch("labels must be one per feature row")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise BadLabel("labels must be -1 or +1")
        self.labels = self.labels.astype(float)
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError("C must be finite and positive")
        if not (np.isfinite(self.ridge_eps) and self.ridge_eps > 0):
            raise ValueError("ridge_eps must be finite and positive for a unique solution")
        # the training QP's H, c and b, which no data moves: shared read-only by every assembly
        n = self.n_points
        self.H = np.diag(np.r_[1.0, 1.0, np.full(n + 1, self.ridge_eps)])
        self.c = np.r_[np.zeros(3), np.full(n, self.C)]
        self.b = np.r_[np.ones(n), np.zeros(n)]
        k = np.arange(2 * n)  # data coordinate k moves point k // 2, so only margin row k // 2
        self.jac_index = k // 2 * (2 * n) + k  # those entries' flat places in the (2n, 2n) Jacobian
        for a in (self.H, self.c, self.b, self.jac_index):
            a.flags.writeable = False
        self.base: QpProblem | None = None  # built on first use: train assembles only once

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def dim_var(self) -> int:
        return 3 + self.n_points

    @property
    def dim_data(self) -> int:
        return 2 * self.n_points


def svm_assemble(svm: SvmModel, x: np.ndarray) -> QpProblem:
    """Primal SVM training QP at data vector x.

    minimize 0.5*||w||^2 + 0.5*ridge*(b^2 + ||xi||^2) + C * sum(xi)
    s.t.     1 - xi_i - y_i * (w . x_i + b) <= 0     (margin, rows 0..n-1)
             -xi_i <= 0                              (slack sign, rows n..2n-1)

    The first call builds and checks the problem in full and keeps it as
    svm.base.  A later call copies the base's rows, rewrites the margin
    rows' two data columns, and checks those rows alone
    (QpProblem.with_rows): the same problem, for less work.
    """
    x = _check_x(x, svm.dim_data)
    n, base = svm.n_points, svm.base
    pts = x.reshape(n, 2)
    A = np.zeros((2 * n, svm.dim_var)) if base is None else base.A.copy()
    y = svm.labels
    A[:n, :2] = -y[:, None] * pts
    if base is not None:
        return base.with_rows(A, np.s_[:n])
    A[:n, 2] = -y
    i = np.arange(n)
    A[:, 3:] = -0.0  # the -I blocks' zeros are -0.0, as negated identities have them
    A[i, 3 + i] = A[n + i, 3 + i] = -1.0
    svm.base = QpProblem(svm.H, svm.c, A_ineq=A, b_ineq=svm.b)
    return svm.base


def svm_grad_x_constraint(svm: SvmModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(2n, 2n) constraint Jacobian: margin row i depends on x only through point i."""
    _check_x(x, svm.dim_data)
    out = np.zeros((2 * svm.n_points, svm.dim_data))
    out.ravel()[svm.jac_index] = np.multiply.outer(-svm.labels, y[:2]).ravel()  # row i, point i
    return out


def svm_cross_hessian(svm: SvmModel, x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """d/dx of the Lagrangian's y-gradient: only the w-rows couple to data.

    lam carries 2n multipliers (margin rows then slack-sign rows); the
    slack-sign rows and the bias coupling contribute nothing.
    """
    _check_x(x, svm.dim_data)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (2 * svm.n_points,):
        raise DimensionMismatch(f"lam must have length {2 * svm.n_points}, got {lam.shape}")
    n = svm.n_points
    out = np.zeros((svm.dim_var, svm.dim_data))
    coef = -lam[:n] * svm.labels
    out[0, 0::2] = coef
    out[1, 1::2] = coef
    return out


def _least_squares_wb(svm: SvmModel, pts: np.ndarray) -> np.ndarray:
    """(w, b) for a cold start: a least-squares fit to the labels, rescaled.

    The fit theta solves min ||[x_i, 1] theta - l_i|| (lstsq, so repeated,
    collinear or identical points are safe).  Scaling it by s = 1/m_k,
    with m_i = l_i * (theta . [x_i, 1]) > 0, puts point k on the margin;
    the scale with the lowest training objective wins.  For scale s the
    points with m_i < m_k carry slack 1 - s*m_i, so sorted margins and
    prefix sums price every candidate in O(n log n).  Zeros when no
    margin is positive or no candidate's objective is finite.
    """
    n, C, eps = svm.n_points, svm.C, svm.ridge_eps
    theta = np.linalg.lstsq(np.column_stack([pts, np.ones(n)]), svm.labels, rcond=None)[0]
    m = np.sort(svm.labels * (pts @ theta[:2] + theta[2]))
    k = np.flatnonzero(m > 0.0)  # candidate k has k points with slack
    if not k.size:
        return np.zeros(3)
    s = 1.0 / m[k]
    s1 = np.concatenate([[0.0], np.cumsum(m)])[k]  # sum of the margins below m[k]
    s2 = np.concatenate([[0.0], np.cumsum(m * m)])[k]
    slack = k - s * s1  # sum of the slacks at scale s
    slack_sq = k - 2.0 * s * s1 + s * s * s2
    norm = theta[:2] @ theta[:2] + eps * theta[2] ** 2
    # the objective over max(C, 1): the same minimizer, and C * slack cannot overflow
    unit = max(C, 1.0)
    value = (0.5 * s * s * norm + 0.5 * eps * slack_sq) / unit + (C / unit) * slack
    finite = np.isfinite(value)
    if not finite.any():
        return np.zeros(3)
    return theta * s[finite][np.argmin(value[finite])]


def svm_feasible_start(svm: SvmModel, x: np.ndarray, y_prev: np.ndarray | None) -> np.ndarray:
    """A feasible point at data x: (w, b) as given, least slack.

    (w, b) is that of y_prev, or of _least_squares_wb when y_prev is None
    (a cold start).  Each slack is then reset to its least feasible value
    xi_i = max(0, 1 - l_i * (w . x_i + b)), with l_i the label of point
    i, which meets margin row i and slack row i at data x.
    """
    pts = _check_x(x, svm.dim_data).reshape(svm.n_points, 2)
    y = np.zeros(svm.dim_var)
    y[:3] = _least_squares_wb(svm, pts) if y_prev is None else y_prev[:3]
    y[3:] = np.maximum(0.0, 1.0 - svm.labels * (pts @ y[:2] + y[2]))  # non-finite: phase 1
    return y


def svm_victim(svm: SvmModel) -> VictimModel:
    """Wrap an SvmModel as a generic VictimModel."""
    return VictimModel(
        dim_data=svm.dim_data,
        dim_var=svm.dim_var,
        assemble=partial(svm_assemble, svm),
        grad_x_constraint=partial(svm_grad_x_constraint, svm),
        cross_hessian=partial(svm_cross_hessian, svm),
        feasible_start=partial(svm_feasible_start, svm),
    )


# ---------------------------------------------------------------------------
# 1-D bi-level toy: lowest y above both mirrored lines
# ---------------------------------------------------------------------------

_TOY_RIDGE = 1e-9


def toy_assemble(x: np.ndarray) -> QpProblem:
    """Lower-level toy problem: minimize y subject to y >= -x and y >= x.

    Stated as a QP with a tiny ridge so the solver sees curvature; the
    solution is y = |x| for any x in [-1, 1].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (1,):
        raise DimensionMismatch(f"toy data vector must have shape (1,), got {x.shape}")
    if abs(x[0]) > 1.0 + 1e-12:
        raise OutOfDomain(f"toy model is defined for |x| <= 1, got {x[0]}")
    return QpProblem(
        [[_TOY_RIDGE]],
        [1.0],
        A_ineq=[[-1.0], [-1.0]],
        b_ineq=[-x[0], x[0]],
    )


def toy_bilevel_model() -> VictimModel:
    return VictimModel(
        dim_data=1,
        dim_var=1,
        assemble=toy_assemble,
        grad_x_constraint=lambda x, y: np.array([[-1.0], [1.0]]),
        cross_hessian=lambda x, y, lam: np.zeros((1, 1)),
    )


def toy_lower_solution(x: float) -> float:
    """Solve the toy lower problem; the exact solution is |x|."""
    return float(solve_qp(toy_assemble(np.array([float(x)]))).y[0])


# ---------------------------------------------------------------------------
# parametric QP fixtures
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _AffineQpFamily:
    """QP family whose linear term and constraint rows are affine in x.

    objective    0.5 y'H y + (c0 + Cx x)' y
    constraint i (a_i + M_i x)' y + b0_i + beta_i' x  (<= 0 or == 0)
    """

    H: np.ndarray
    c0: np.ndarray
    Cx: np.ndarray
    rows_a: np.ndarray      # (m, dim_var)
    rows_M: np.ndarray      # (m, dim_var, dim_data)
    rows_b0: np.ndarray     # (m,)
    rows_beta: np.ndarray   # (m, dim_data)
    n_ineq: int

    @property
    def dim_var(self):
        return self.H.shape[0]

    @property
    def dim_data(self):
        return self.Cx.shape[1]

    def assemble(self, x):
        x = _check_x(x, self.dim_data)
        A = self.rows_a + self.rows_M @ x
        b = self.rows_b0 + self.rows_beta @ x
        r = self.n_ineq
        return QpProblem(self.H, self.c0 + self.Cx @ x, A[:r], b[:r], A[r:], b[r:])

    def grad_x_constraint(self, x, y):
        _check_x(x, self.dim_data)
        return np.einsum("ijk,j->ik", self.rows_M, y) + self.rows_beta

    def cross_hessian(self, x, y, lam):
        _check_x(x, self.dim_data)
        lam = np.asarray(lam, dtype=float)
        return self.Cx + np.einsum("i,ijk->jk", lam, self.rows_M)

    def as_victim(self):
        return VictimModel(
            dim_data=self.dim_data,
            dim_var=self.dim_var,
            assemble=self.assemble,
            grad_x_constraint=self.grad_x_constraint,
            cross_hessian=self.cross_hessian,
        )


def generic_parametric_qp(
    seed: int,
    dim_var: int = 4,
    dim_data: int = 3,
    n_ineq: int = 3,
    n_eq: int = 0,
) -> VictimModel:
    """Random strictly convex QP family with affine-in-x data coupling.

    H is SPD with eigenvalues in [0.5, 3]; constraint normals carry a
    small x-dependence (scale 0.3) so the cross Hessian depends on
    the multipliers.  A random point y_int is strictly feasible at x = 0
    (inequality slacks 0.5-1.5), so problems stay feasible for moderate
    ||x||.  Construction assembles no problem; tests/test_victims.py
    checks the derivative callbacks against central finite differences
    for every fixture shape the package draws.
    """
    rng = np.random.default_rng(seed)
    m = n_ineq + n_eq
    Q, _ = np.linalg.qr(rng.standard_normal((dim_var, dim_var)))
    H = Q @ np.diag(rng.uniform(0.5, 3.0, dim_var)) @ Q.T
    c0 = rng.standard_normal(dim_var)
    Cx = rng.standard_normal((dim_var, dim_data))
    rows_a = rng.standard_normal((m, dim_var))
    rows_M = 0.3 * rng.standard_normal((m, dim_var, dim_data))
    rows_beta = rng.standard_normal((m, dim_data))
    y_int = rng.standard_normal(dim_var) * 0.5
    rows_b0 = np.empty(m)
    rows_b0[:n_ineq] = -(rows_a[:n_ineq] @ y_int) - rng.uniform(0.5, 1.5, n_ineq)
    if n_eq:
        rows_b0[n_ineq:] = -(rows_a[n_ineq:] @ y_int)
    return _AffineQpFamily(H, c0, Cx, rows_a, rows_M, rows_b0, rows_beta, n_ineq).as_victim()
