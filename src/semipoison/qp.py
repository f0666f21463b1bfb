"""Dense convex quadratic programming via a primal active-set method.

Problems are stated as

    minimize    0.5 * y' H y + c' y
    subject to  A_ineq y + b_ineq <= 0      (componentwise)
                A_eq   y + b_eq  == 0

H must be symmetric and positive semidefinite on the feasible tangent
space.  All linear algebra is dense; the intended scale is tens of
variables and at most a few hundred constraints.

Constraints are indexed inequalities first: constraint i is row i of
A_ineq for i < n_ineq and row i - n_ineq of A_eq otherwise.  Multipliers
follow the same ordering, with stationarity

    H y + c + sum_i lambda_i * a_i = 0,    lambda_i >= 0 for inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Infeasible, MaxIterations, Unbounded

# Tolerances.  TOL_ACT / TOL_MULT are classify_active's thresholds for
# active and weakly active constraints; the rest define when a candidate
# point counts as a KKT point.
TOL_ACT = 1e-7
TOL_MULT = 1e-7
TOL_FEAS = 1e-8
TOL_STATIONARITY = 1e-7
TOL_DUAL = 1e-10
TOL_COMPLEMENTARITY = 1e-8

_SYM_TOL = 1e-10
_RANK_TOL = 1e-11
_DROP_TOL = 1e-9


def _as_matrix(a, n_cols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n_cols))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n_cols:
        raise DimensionMismatch(f"{name} must be 2-d with {n_cols} columns, got shape {a.shape}")
    return a


def _as_vector(b, n: int, name: str) -> np.ndarray:
    if b is None:
        return np.zeros(n)
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch(f"{name} must have shape ({n},), got {b.shape}")
    return b


@dataclass(eq=False)
class QpProblem:
    """A dense convex QP.  Treat instances as immutable after construction.

    Parameters
    ----------
    H : (n_var, n_var) array
        Quadratic term; symmetrized on construction, asymmetry beyond
        1e-10 (relative) is rejected.
    c : (n_var,) array
        Linear term.
    A_ineq, b_ineq : (n_ineq, n_var) array, (n_ineq,) array, optional
        Inequality rows, A_ineq y + b_ineq <= 0.
    A_eq, b_eq : (n_eq, n_var) array, (n_eq,) array, optional
        Equality rows, A_eq y + b_eq == 0.
    """

    H: np.ndarray
    c: np.ndarray
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"H must be square, got shape {H.shape}")
        asym = np.abs(H - H.T).max(initial=0.0)
        if asym > _SYM_TOL * max(1.0, np.abs(H).max(initial=0.0)):
            raise DimensionMismatch(f"H is not symmetric (asymmetry {asym:.3e})")
        self.H = 0.5 * (H + H.T)
        n = H.shape[0]
        c = np.asarray(self.c, dtype=float)
        if c.shape != (n,):
            raise DimensionMismatch(f"c must have shape ({n},), got {c.shape}")
        self.c = c
        self.A_ineq = _as_matrix(self.A_ineq, n, "A_ineq")
        self.b_ineq = _as_vector(self.b_ineq, self.A_ineq.shape[0], "b_ineq")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")

    @property
    def n_var(self) -> int:
        return self.H.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.A_ineq.shape[0]

    @property
    def n_eq(self) -> int:
        return self.A_eq.shape[0]

    @property
    def n_con(self) -> int:
        return self.n_ineq + self.n_eq

    def stacked_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """All constraint rows and offsets, inequalities first."""
        A = np.vstack([self.A_ineq, self.A_eq])
        b = np.concatenate([self.b_ineq, self.b_eq])
        return A, b

    def constraint_values(self, y: np.ndarray) -> np.ndarray:
        A, b = self.stacked_rows()
        return A @ y + b

    def objective_value(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.H @ y + self.c @ y)


@dataclass(eq=False)
class KktSolution:
    """Primal-dual solution of a QpProblem.

    lam holds one multiplier per constraint in problem order; inequality
    multipliers are nonnegative.  classify_active splits the constraints
    into active, weakly active and strictly active ones.
    """

    y: np.ndarray
    lam: np.ndarray
    value: float


@dataclass
class KktResiduals:
    """Max-norm KKT violation of a candidate point, one scalar per condition."""

    stationarity: float
    primal: float
    dual: float
    complementarity: float

    def within_default_tolerances(self, c_inf: float, lam_inf: float) -> bool:
        """Stationarity and complementarity scale with the sizes of c and lam."""
        return (
            self.stationarity <= TOL_STATIONARITY * (1.0 + c_inf)
            and self.primal <= TOL_FEAS
            and self.dual <= TOL_DUAL
            and self.complementarity <= TOL_COMPLEMENTARITY * (1.0 + lam_inf)
        )


def kkt_residuals(problem: QpProblem, y: np.ndarray, lam: np.ndarray) -> KktResiduals:
    """Evaluate the four KKT residuals of a candidate primal-dual pair."""
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape != (problem.n_var,):
        raise DimensionMismatch(f"y must have shape ({problem.n_var},), got {y.shape}")
    if lam.shape != (problem.n_con,):
        raise DimensionMismatch(f"lam must have shape ({problem.n_con},), got {lam.shape}")
    A, _ = problem.stacked_rows()
    g = problem.constraint_values(y)
    r = problem.n_ineq
    grad = problem.H @ y + problem.c
    if problem.n_con:
        grad = grad + A.T @ lam
    stationarity = float(np.abs(grad).max(initial=0.0))
    primal_ineq = float(np.maximum(g[:r], 0.0).max(initial=0.0))
    primal_eq = float(np.abs(g[r:]).max(initial=0.0))
    dual = float(np.maximum(-lam[:r], 0.0).max(initial=0.0))
    complementarity = float(np.abs(lam[:r] * g[:r]).max(initial=0.0))
    return KktResiduals(stationarity, max(primal_ineq, primal_eq), dual, complementarity)


@dataclass(eq=False)
class ActiveStructure:
    """Partition of the constraints at a solved point.

    active lists every constraint with |g_i| <= TOL_ACT plus all
    equalities; weakly_active is the subset of active inequalities whose
    multiplier is at most TOL_MULT; strict is their complement in active.
    """

    active: list[int]
    weakly_active: list[int]
    strict: list[int]


def classify_active(problem: QpProblem, solution: KktSolution) -> ActiveStructure:
    """Split constraints into active / weakly active / strictly active.

    Equality constraints always count as active (and strict).  An active
    inequality is weakly active when its multiplier magnitude is at most
    TOL_MULT; those are the constraints whose one-sided behaviour the
    auxiliary problem of the sensitivity module keeps as inequalities.
    """
    g = problem.constraint_values(solution.y)
    r = problem.n_ineq
    active = [i for i in range(problem.n_con) if i >= r or abs(g[i]) <= TOL_ACT]
    weakly = [i for i in active if i < r and abs(solution.lam[i]) <= TOL_MULT]
    strict = [i for i in active if i not in weakly]
    return ActiveStructure(active=active, weakly_active=weakly, strict=strict)


# ---------------------------------------------------------------------------
# subproblem: minimize over the affine set fixed by the working rows
# ---------------------------------------------------------------------------


def _working_subproblem(H, c, A_w, b_w, y):
    """Minimize the objective subject to A_w q + b_w = 0, anchored near y.

    Returns (y_hat, ray).  y_hat is the minimizer (None if the subproblem
    is unbounded); ray is a descent direction of unbounded decrease lying
    in the null space of A_w (None when the minimizer exists).
    """
    n = len(y)
    if A_w.shape[0] == 0:
        Z = np.eye(n)
        y0 = y
    else:
        U, s, Vt = np.linalg.svd(A_w, full_matrices=True)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > _RANK_TOL * max(smax, 1.0)))
        Z = Vt[rank:].T
        resid = A_w @ y + b_w
        # min-norm correction onto the working affine set
        coef = (U[:, :rank].T @ resid) / s[:rank]
        y0 = y - Vt[:rank].T @ coef
    if Z.shape[1] == 0:
        return y0, None
    g0 = H @ y0 + c
    gr = Z.T @ g0
    Hr = Z.T @ H @ Z
    Hr = 0.5 * (Hr + Hr.T)
    w, V = np.linalg.eigh(Hr)
    wmax = max(float(w.max(initial=0.0)), 1.0)
    eps = 1e-11 * wmax
    neg = w < -eps
    pos = w > eps
    if np.any(neg):
        j = int(np.argmin(w))
        d = Z @ V[:, j]
        if gr @ V[:, j] > 0:
            d = -d
        return None, d
    zero = ~pos
    if np.any(zero):
        gz = V[:, zero] @ (V[:, zero].T @ gr)
        if np.abs(gz).max(initial=0.0) > 1e-9 * (1.0 + np.abs(gr).max(initial=0.0)):
            d = -(Z @ gz)
            return None, d / np.linalg.norm(d)
    if np.any(pos):
        u = -V[:, pos] @ ((V[:, pos].T @ gr) / w[pos])
    else:
        u = np.zeros(Z.shape[1])
    return y0 + Z @ u, None


def _multipliers(A_w, grad):
    """Solve A_w' lam = -grad in the least-squares sense."""
    if A_w.shape[0] == 0:
        return np.zeros(0)
    lam, *_ = np.linalg.lstsq(A_w.T, -grad, rcond=None)
    return lam


def _independent_subset(rows: np.ndarray, base: np.ndarray) -> list[int]:
    """Indices of rows that extend `base` to a linearly independent set."""
    basis: list[np.ndarray] = []
    for r in base:
        v = r.copy()
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            basis.append(v / nrm)
    keep = []
    for idx in range(rows.shape[0]):
        v = rows[idx].copy()
        scale = np.linalg.norm(v)
        if scale <= 1e-14:
            continue
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-8 * scale:
            basis.append(v / nrm)
            keep.append(idx)
    return keep


def _active_set_loop(problem: QpProblem, y: np.ndarray, working: list[int], max_iter: int):
    """Primal active-set iteration from a feasible point.

    `working` holds stacked-constraint indices; all equality indices must
    be present.  Ties and drops follow Bland's rule (smallest index) to
    avoid cycling.  Returns (y, lam_full, iterations).
    """
    A, b = problem.stacked_rows()
    H, c = problem.H, problem.c
    r = problem.n_ineq
    working = sorted(working)
    for it in range(max_iter):
        idx = np.array(working, dtype=int)
        A_w = A[idx] if idx.size else np.zeros((0, problem.n_var))
        b_w = b[idx] if idx.size else np.zeros(0)
        y_hat, ray = _working_subproblem(H, c, A_w, b_w, y)

        if ray is None:
            p = y_hat - y
            step_scale = np.abs(p).max(initial=0.0)
            if step_scale <= 1e-11 * (1.0 + np.abs(y).max(initial=0.0)):
                # stationary on the working set: check multiplier signs
                grad = H @ y_hat + c
                lam_w = _multipliers(A_w, grad)
                negative = [
                    (working[j], lam_w[j])
                    for j in range(len(working))
                    if working[j] < r and lam_w[j] < -_DROP_TOL
                ]
                if not negative:
                    lam = np.zeros(problem.n_con)
                    for j, gi in enumerate(working):
                        lam[gi] = lam_w[j] if (gi >= r or lam_w[j] > 0.0) else 0.0
                    return y_hat, lam, it + 1
                working.remove(min(gi for gi, _ in negative))
                y = y_hat
                continue
            limit = 1.0
        else:
            p = ray
            limit = np.inf

        # ratio test over inequality rows not in the working set; scanning
        # in index order with a strict < keeps the smallest blocking index
        # on ties (Bland)
        blocking = -1
        alpha = limit
        outside = [i for i in range(r) if i not in working]
        if outside:
            rows = A[outside]
            s = rows @ p
            g = rows @ y + b[np.array(outside)]
            thresh = 1e-13 * max(1.0, float(np.abs(s).max(initial=0.0)))
            for j, i in enumerate(outside):
                if s[j] > thresh:
                    t = max(0.0, -g[j] / s[j])
                    if t < alpha:
                        alpha = t
                        blocking = i
        if not np.isfinite(alpha):
            raise Unbounded("objective decreases without bound along a feasible ray")
        if ray is None and alpha >= 1.0:
            y = y_hat
        else:
            y = y + alpha * p
            if blocking < 0:
                raise Unbounded("no blocking constraint along an unbounded ray")
            working.append(blocking)
            working.sort()
    raise MaxIterations(f"active-set method did not converge in {max_iter} iterations")


def _phase1(problem: QpProblem) -> np.ndarray:
    """Find a feasible point, or raise Infeasible.

    Equalities are met by a least-squares solve; remaining inequality
    violation is driven to zero by an auxiliary QP minimizing 0.5 t^2
    subject to A_ineq y + b_ineq <= t, which reuses the same active-set
    machinery from a strictly feasible start.
    """
    n = problem.n_var
    if problem.n_eq:
        y0, *_ = np.linalg.lstsq(problem.A_eq, -problem.b_eq, rcond=None)
        resid = np.abs(problem.A_eq @ y0 + problem.b_eq).max(initial=0.0)
        if resid > 1e-8 * (1.0 + np.abs(problem.b_eq).max(initial=0.0)):
            raise Infeasible("equality constraints are inconsistent")
    else:
        y0 = np.zeros(n)
    if problem.n_ineq == 0:
        return y0
    viol = float((problem.A_ineq @ y0 + problem.b_ineq).max())
    if viol <= TOL_FEAS:
        return y0
    H1 = np.zeros((n + 1, n + 1))
    H1[n, n] = 1.0
    A1 = np.hstack([problem.A_ineq, -np.ones((problem.n_ineq, 1))])
    aux = QpProblem(
        H1,
        np.zeros(n + 1),
        A_ineq=A1,
        b_ineq=problem.b_ineq,
        A_eq=np.hstack([problem.A_eq, np.zeros((problem.n_eq, 1))]) if problem.n_eq else None,
        b_eq=problem.b_eq if problem.n_eq else None,
    )
    start = np.concatenate([y0, [viol * (1.0 + 1e-3) + 1e-6]])
    working = list(range(problem.n_ineq, problem.n_ineq + problem.n_eq))
    max_iter = max(200, 30 * (aux.n_con + 1))
    y_aux, _, _ = _active_set_loop(aux, start, working, max_iter)
    if y_aux[n] > 1e-9:
        raise Infeasible(f"no feasible point (minimal constraint violation {y_aux[n]:.3e})")
    return y_aux[:n]


def solve_qp(problem: QpProblem, *, max_iter: int | None = None) -> KktSolution:
    """Solve a convex QP to a KKT point.

    Parameters
    ----------
    problem : QpProblem
    max_iter : int, optional
        Active-set iteration cap; defaults to max(200, 30 * (n_con + 1)).

    Returns
    -------
    KktSolution
        The primal-dual pair; classify_active reports which constraints
        are active at it.

    Raises
    ------
    Infeasible, Unbounded, MaxIterations
    """
    if max_iter is None:
        max_iter = max(200, 30 * (problem.n_con + 1))
    y0 = _phase1(problem)
    r = problem.n_ineq
    working = list(range(r, problem.n_con))
    g0 = problem.A_ineq @ y0 + problem.b_ineq if r else np.zeros(0)
    candidates = [i for i in range(r) if g0[i] >= -1e-9]
    if candidates:
        rows = problem.A_ineq[candidates]
        base = problem.A_eq if problem.n_eq else np.zeros((0, problem.n_var))
        keep = _independent_subset(rows, base)
        working.extend(candidates[j] for j in keep)
    y, lam, _ = _active_set_loop(problem, y0, working, max_iter)
    res = kkt_residuals(problem, y, lam)
    c_inf = float(np.abs(problem.c).max(initial=0.0))
    if not res.within_default_tolerances(c_inf, float(np.abs(lam).max(initial=0.0))):
        raise MaxIterations(
            "active-set method returned a point violating KKT tolerances "
            f"(stationarity {res.stationarity:.2e}, primal {res.primal:.2e}, "
            f"dual {res.dual:.2e}, complementarity {res.complementarity:.2e})"
        )
    return KktSolution(y=y, lam=lam, value=problem.objective_value(y))
