"""Victim models: learners whose training problem is a convex QP in which
the training data appears as a parameter.

A VictimModel bundles the assembled QP with the analytic derivative
callbacks that sensitivity analysis needs: the Jacobian of the
constraints with respect to the data vector, and the mixed second
derivative of the Lagrangian (solution variables by data coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import BadLabel, DimensionMismatch, OutOfDomain
from .qp import KktSolution, QpProblem, solve_qp


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
    description : str
    """

    dim_data: int
    dim_var: int
    assemble: Callable[[np.ndarray], QpProblem]
    grad_x_constraint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cross_hessian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    description: str = ""


def solve_victim(model: VictimModel, x: np.ndarray) -> KktSolution:
    """Train the victim at data x (thin wrapper over solve_qp)."""
    return solve_qp(model.assemble(np.asarray(x, dtype=float)))


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
    the training problem is strictly convex (unique solution).
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
    """
    x = _check_x(x, svm.dim_data)
    n = svm.n_points
    pts = x.reshape(n, 2)
    d = svm.dim_var
    H = np.zeros((d, d))
    H[0, 0] = H[1, 1] = 1.0
    H[2, 2] = svm.ridge_eps
    H[3:, 3:] = svm.ridge_eps * np.eye(n)
    c = np.zeros(d)
    c[3:] = svm.C
    A = np.zeros((2 * n, d))
    y = svm.labels
    A[:n, 0] = -y * pts[:, 0]
    A[:n, 1] = -y * pts[:, 1]
    A[:n, 2] = -y
    A[:n, 3:] = -np.eye(n)
    A[n:, 3:] = -np.eye(n)
    b = np.zeros(2 * n)
    b[:n] = 1.0
    return QpProblem(H, c, A_ineq=A, b_ineq=b)


def svm_grad_x_constraint(svm: SvmModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(2n, 2n) constraint Jacobian: margin row i depends on x only through point i."""
    _check_x(x, svm.dim_data)
    n = svm.n_points
    out = np.zeros((2 * n, svm.dim_data))
    rows = np.arange(n)
    out[rows, 2 * rows] = -svm.labels * y[0]
    out[rows, 2 * rows + 1] = -svm.labels * y[1]
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


def svm_victim(svm: SvmModel) -> VictimModel:
    """Wrap an SvmModel as a generic VictimModel."""
    return VictimModel(
        dim_data=svm.dim_data,
        dim_var=svm.dim_var,
        assemble=partial(svm_assemble, svm),
        grad_x_constraint=partial(svm_grad_x_constraint, svm),
        cross_hessian=partial(svm_cross_hessian, svm),
        description=f"soft-margin linear SVM, n={svm.n_points}, C={svm.C}",
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
        description="1-d toy: y(x) = |x|",
    )


def toy_lower_solution(x: float) -> float:
    """Solve the toy lower problem; the result equals |x| within 1e-6."""
    sol = solve_qp(toy_assemble(np.array([float(x)])))
    y = float(sol.y[0])
    if abs(y - abs(x)) > 1e-6:
        raise AssertionError(f"toy solution {y} deviates from |{x}|")
    return y


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
        return QpProblem(
            self.H,
            self.c0 + self.Cx @ x,
            A_ineq=A[:r] if r else None,
            b_ineq=b[:r] if r else None,
            A_eq=A[r:] if A.shape[0] > r else None,
            b_eq=b[r:] if A.shape[0] > r else None,
        )

    def grad_x_constraint(self, x, y):
        _check_x(x, self.dim_data)
        return np.einsum("ijk,j->ik", self.rows_M, y) + self.rows_beta

    def cross_hessian(self, x, y, lam):
        _check_x(x, self.dim_data)
        lam = np.asarray(lam, dtype=float)
        return self.Cx + np.einsum("i,ijk->jk", lam, self.rows_M)

    def as_victim(self, description):
        return VictimModel(
            dim_data=self.dim_data,
            dim_var=self.dim_var,
            assemble=self.assemble,
            grad_x_constraint=self.grad_x_constraint,
            cross_hessian=self.cross_hessian,
            description=description,
        )


def validate_derivative_callbacks(model: VictimModel, x, y, lam, h=1e-6, tol=1e-5):
    """Check the analytic callbacks against central finite differences.

    Raises AssertionError on disagreement.  Exercises every entry of the
    constraint Jacobian and of the cross Hessian.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)

    def constraint_values(xv):
        return model.assemble(xv).constraint_values(y)

    def lagrangian_grad(xv):
        prob = model.assemble(xv)
        A, _ = prob.stacked_rows()
        g = prob.H @ y + prob.c
        if prob.n_con:
            g = g + A.T @ lam
        return g

    m = model.assemble(x).n_con
    fd_rows = np.zeros((m, model.dim_data))
    fd_cross = np.zeros((model.dim_var, model.dim_data))
    for j in range(model.dim_data):
        e = np.zeros(model.dim_data)
        e[j] = h
        fd_rows[:, j] = (constraint_values(x + e) - constraint_values(x - e)) / (2 * h)
        fd_cross[:, j] = (lagrangian_grad(x + e) - lagrangian_grad(x - e)) / (2 * h)
    got = np.asarray(model.grad_x_constraint(x, y), dtype=float)
    if got.shape != fd_rows.shape or np.abs(got - fd_rows).max(initial=0.0) > tol:
        raise AssertionError("grad_x_constraint disagrees with finite differences")
    got = model.cross_hessian(x, y, lam)
    if np.abs(got - fd_cross).max(initial=0.0) > tol:
        raise AssertionError("cross_hessian disagrees with finite differences")


def generic_parametric_qp(
    seed: int,
    dim_var: int = 4,
    dim_data: int = 3,
    n_ineq: int = 3,
    n_eq: int = 0,
    coupling: float = 0.3,
) -> VictimModel:
    """Random strictly convex QP family with affine-in-x data coupling.

    H is SPD with eigenvalues in [0.5, 3]; constraint normals carry a
    small x-dependence (scale `coupling`) so the cross Hessian depends on
    the multipliers.  The origin in y is strictly feasible at x = 0, so
    assembled problems stay feasible for moderate ||x||.  Derivative
    callbacks are validated against finite differences at construction.
    """
    rng = np.random.default_rng(seed)
    m = n_ineq + n_eq
    Q, _ = np.linalg.qr(rng.standard_normal((dim_var, dim_var)))
    H = Q @ np.diag(rng.uniform(0.5, 3.0, dim_var)) @ Q.T
    c0 = rng.standard_normal(dim_var)
    Cx = rng.standard_normal((dim_var, dim_data))
    rows_a = rng.standard_normal((m, dim_var))
    rows_M = coupling * rng.standard_normal((m, dim_var, dim_data))
    rows_beta = rng.standard_normal((m, dim_data))
    y_int = rng.standard_normal(dim_var) * 0.5
    rows_b0 = np.empty(m)
    rows_b0[:n_ineq] = -(rows_a[:n_ineq] @ y_int) - rng.uniform(0.5, 1.5, n_ineq)
    if n_eq:
        rows_b0[n_ineq:] = -(rows_a[n_ineq:] @ y_int)
    fam = _AffineQpFamily(H, c0, Cx, rows_a, rows_M, rows_b0, rows_beta, n_ineq)
    model = fam.as_victim(
        f"random parametric QP seed={seed}, dim_var={dim_var}, dim_data={dim_data}"
    )
    validate_derivative_callbacks(
        model,
        rng.standard_normal(dim_data) * 0.1,
        rng.standard_normal(dim_var),
        rng.uniform(0.0, 2.0, m),
    )
    return model


def kink_projection_model() -> VictimModel:
    """Projection of x onto the nonnegative half-line: y(x) = max(x, 0).

    minimize 0.5*(y - x)^2  subject to  -y <= 0.  The solution map has a
    kink at x = 0 where the bound is active with zero multiplier.
    """
    fam = _AffineQpFamily(
        H=np.array([[1.0]]),
        c0=np.zeros(1),
        Cx=np.array([[-1.0]]),
        rows_a=np.array([[-1.0]]),
        rows_M=np.zeros((1, 1, 1)),
        rows_b0=np.zeros(1),
        rows_beta=np.zeros((1, 1)),
        n_ineq=1,
    )
    return fam.as_victim("half-line projection: y(x) = max(x, 0)")


def bound_tracking_model(pull: float = 1.0) -> VictimModel:
    """Track a fixed setpoint under a data-controlled ceiling: y(x) = min(x, pull).

    minimize 0.5*(y - pull)^2  subject to  y - x <= 0.  The data enters
    the constraint only, so the objective's mixed second derivative in
    (x, y) is identically zero.
    """
    fam = _AffineQpFamily(
        H=np.array([[1.0]]),
        c0=np.array([-float(pull)]),
        Cx=np.zeros((1, 1)),
        rows_a=np.array([[1.0]]),
        rows_M=np.zeros((1, 1, 1)),
        rows_b0=np.zeros(1),
        rows_beta=np.array([[-1.0]]),
        n_ineq=1,
    )
    return fam.as_victim(f"bound tracking: y(x) = min(x, {pull})")
