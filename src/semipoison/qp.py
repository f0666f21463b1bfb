"""Dense convex quadratic programming via a primal active-set method.

Problems are stated as

    minimize    0.5 * y' H y + c' y
    subject to  A_ineq y + b_ineq <= 0      (componentwise)
                A_eq   y + b_eq  == 0

H must be symmetric and positive semidefinite on the feasible tangent
space.  All linear algebra is dense; the intended scale is tens of
variables and at most a few hundred constraints.  The working rows'
factors are built and updated by one Householder join per row and one
small QR per dropped row.  Start rows that open with bounds (rows with
one nonzero, such as an SVM's slack signs) are factored in closed form;
the other start rows then join one by one, as rows join in the loop.

Constraints are indexed inequalities first: constraint i is row i of
the stacked matrix A = [A_ineq; A_eq], with offset b[i].  Multipliers
follow the same ordering, with stationarity

    H y + c + sum_i lambda_i * a_i = 0,    lambda_i >= 0 for inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, Infeasible, InputError, MaxIterations, Unbounded

# Tolerances.  TOL_ACT / TOL_MULT are classify_active's thresholds for
# active and weakly active constraints; a row whose residual off the rows
# before it exceeds TOL_INDEP of its norm is independent of them (working
# rows and LICQ); the rest define when a candidate point counts as a KKT point.
TOL_ACT = 1e-7
TOL_MULT = 1e-7
TOL_INDEP = 1e-8
TOL_FEAS = 1e-8
TOL_STATIONARITY = 1e-7
TOL_DUAL = 1e-10
TOL_COMPLEMENTARITY = 1e-8

_SYM_TOL = 1e-10
_DROP_TOL = 1e-9


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # count_nonzero is cheaper than .all() on the small arrays solved here
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{name} contains NaN or infinite entries")
    return a


def row_norms(a: np.ndarray) -> np.ndarray:
    """a's row norms without overflow: above 1e100, rows are scaled by a power of two (exact)."""
    if not np.abs(a).max(initial=0.0) > 1e100:  # no square can overflow
        return np.linalg.norm(a, axis=1)
    e = np.frexp(np.abs(a).max(axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(a, -e[:, None]), axis=1), e)


def _as_matrix(a, n_cols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n_cols))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n_cols:
        raise DimensionMismatch(f"{name} must be 2-d with {n_cols} columns, got shape {a.shape}")
    return _finite(a, name)


def _as_vector(b, n: int, name: str) -> np.ndarray:
    if b is None:
        return np.zeros(n)
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch(f"{name} must have shape ({n},), got {b.shape}")
    return _finite(b, name)


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

    Every entry must be finite; NaN or inf raises ValueError.

    Attributes
    ----------
    A, b : (n_ineq + n_eq, n_var) array, (n_ineq + n_eq,) array
        All constraint rows and offsets, inequalities first, stacked
        once on construction.  A_ineq, A_eq, b_ineq and b_eq are views
        of them.
    """

    H: np.ndarray
    c: np.ndarray
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"H must be square, got shape {H.shape}")
        h_max = np.abs(H).max(initial=0.0)  # NaN or inf when H has such an entry
        if not np.isfinite(h_max):
            raise ValueError("H contains NaN or infinite entries")
        asym = np.abs(H - H.T).max(initial=0.0)
        if asym > _SYM_TOL * max(1.0, h_max):
            raise DimensionMismatch(f"H is not symmetric (asymmetry {asym:.3e})")
        # an exactly symmetric H is its own symmetrization, bit for bit
        self.H = H if asym == 0.0 else 0.5 * (H + H.T)
        n = H.shape[0]
        c = np.asarray(self.c, dtype=float)
        if c.shape != (n,):
            raise DimensionMismatch(f"c must have shape ({n},), got {c.shape}")
        self.c = _finite(c, "c")
        A_ineq = _as_matrix(self.A_ineq, n, "A_ineq")
        b_ineq = _as_vector(self.b_ineq, A_ineq.shape[0], "b_ineq")
        A_eq = _as_matrix(self.A_eq, n, "A_eq")
        b_eq = _as_vector(self.b_eq, A_eq.shape[0], "b_eq")
        self.A, self.b = np.vstack([A_ineq, A_eq]), np.concatenate([b_ineq, b_eq])
        r = A_ineq.shape[0]
        self.A_ineq, self.b_ineq = self.A[:r], self.b[:r]
        self.A_eq, self.b_eq = self.A[r:], self.b[r:]

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

    def constraint_values(self, y: np.ndarray) -> np.ndarray:
        return self.A @ y + self.b

    def objective_value(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.H @ y + self.c @ y)


@dataclass(eq=False)
class KktSolution:
    """Primal-dual solution of a QpProblem.

    lam holds one multiplier per constraint in problem order; inequality
    multipliers are nonnegative.  classify_active splits the constraints
    into active, weakly active and strictly active ones.  iterations
    counts the main active-set iterations (phase 1 excluded), one
    working-set subproblem each, so an optimal starting working set
    takes one.  phase1 tells whether a phase-1 search supplied the
    starting point.  problem is the QpProblem that solve_qp solved, so
    callers that need its data at the solution do not assemble it again.
    factors holds the final working rows and their factors (see
    WorkingFactors): the start rows first, in the order solve_qp
    describes, then the rows that joined, in the order they joined.
    working_minimizer, working_start and licq_margin read them.
    """

    y: np.ndarray
    lam: np.ndarray
    value: float
    iterations: int = 0
    phase1: bool = False
    problem: QpProblem | None = None
    factors: WorkingFactors | None = None


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
    """Evaluate the four KKT residuals of a candidate primal-dual pair.

    A residual that overflows comes back as inf or NaN, without a
    warning, and so fails within_default_tolerances.
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape != (problem.n_var,):
        raise DimensionMismatch(f"y must have shape ({problem.n_var},), got {y.shape}")
    if lam.shape != (problem.n_con,):
        raise DimensionMismatch(f"lam must have shape ({problem.n_con},), got {lam.shape}")
    r = problem.n_ineq
    with np.errstate(over="ignore", invalid="ignore"):
        g = problem.constraint_values(y)
        grad = problem.H @ y + problem.c
        if problem.n_con:
            grad = grad + problem.A.T @ lam
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


class WorkingFactors:
    """Working rows w of a constraint matrix A and their factors A[w]' = Q[:, :m] R.

    rows holds w in working order, Q is n x n and orthogonal, and the n x n
    buffer T, taken as given like Q, holds R^-1 in its leading m x m block.
    Rows join at the end and leave from anywhere; Q and T are updated in
    place (Gill, Golub, Murray & Saunders 1974).
    """

    def __init__(self, rows: np.ndarray, Q: np.ndarray, T: np.ndarray):
        self.rows, self.Q, self.T = rows, Q, T

    @property
    def null_space(self) -> np.ndarray:
        return self.Q[:, self.rows.size :]

    @property
    def r_diagonal(self) -> np.ndarray:
        """|R_jj|: each working row's residual off the rows before it."""
        return 1.0 / np.abs(self.T.diagonal()[: self.rows.size])

    def onto(self, y: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """y moved by the least-norm step onto A[w] q + b[w] = 0: y - Y T'(A[w] y + b[w])."""
        w = self.rows
        return y - self.Q[:, : w.size] @ (self.T[: w.size, : w.size].T @ (A[w] @ y + b[w]))

    def multipliers(self, g: np.ndarray) -> np.ndarray:
        """lam with A[w]' lam = g, for g in the span of the working rows: T Y'g."""
        m = self.rows.size
        return self.T[:m, :m] @ (self.Q[:, :m].T @ g)

    def join(self, i: int, a: np.ndarray, cut: float) -> bool:
        """Row i, a, joins by one Householder reflection of Q[:, m:]; False if |Q[:, m:]'a| <= cut.

        That residual and the reflector square no entry of a, so a row of
        any finite scale joins.
        """
        m, Q, T = self.rows.size, self.Q, self.T
        v = Q[:, m:].T @ a
        norm = math.hypot(*v.tolist())
        if norm <= cut:
            return False
        beta = -math.copysign(norm, v[0])
        u = v / norm
        u[0] += math.copysign(1.0, v[0])  # now u'u = 2 |u_0|
        Q[:, m:] -= (Q[:, m:] @ u)[:, None] * (u / abs(u[0]))
        T[:m, m] = (T[:m, :m] @ (Q[:, :m].T @ a)) / -beta
        T[m, m] = 1.0 / beta
        self.rows = np.append(self.rows, i)
        return True

    def drop(self, i: int, A: np.ndarray) -> None:
        """Working row i of A leaves; the rows after it are re-triangularized."""
        m, Q, T = self.rows.size, self.Q, self.T
        j = int(np.flatnonzero(self.rows == i)[0])
        if j < m - 1:  # without row j, R's rows j.. are upper Hessenberg: one QR fixes them
            q = np.linalg.qr(Q[:, j:m].T @ A[self.rows[j + 1 :]].T, mode="complete")[0]
            Q[:, j:m] = Q[:, j:m] @ q
            T[:m, j:m] = T[:m, j:m] @ q
        T[j : m - 1] = T[j + 1 : m]  # the new R^-1 is T q without row j
        T[m - 1] = T[:, m - 1] = 0.0
        self.rows = np.delete(self.rows, j)


def _working_subproblem(H, c, A, b, y, factors: WorkingFactors):
    """Minimize the objective subject to A[w] q + b[w] = 0 on factors' rows w, anchored near y.

    Returns (y_hat, ray): the minimizer (None if unbounded) and a
    direction of unbounded descent in the null space Z of A[w] (None
    when the minimizer exists).  Z'HZ is decomposed whole: a negative
    eigenvalue, or a flat direction with a nonzero reduced gradient,
    gives the ray; else the minimizer.
    """
    y0 = factors.onto(y, A, b)
    Z = factors.null_space
    if Z.shape[1] == 0:
        return y0, None
    g0 = H @ y0 + c
    gr = Z.T @ g0
    Hr = Z.T @ H @ Z
    w, V = np.linalg.eigh(0.5 * (Hr + Hr.T))
    wmax = max(float(w.max(initial=0.0)), 1.0)
    eps = 1e-11 * wmax
    neg = w < -eps
    pos = w > eps
    if neg.any():
        j = int(np.argmin(w))
        d = Z @ V[:, j]
        if gr @ V[:, j] > 0:
            d = -d
        return None, d
    if np.count_nonzero(pos) < gr.size:  # some null-space directions are flat
        gz = gr - V[:, pos] @ (V[:, pos].T @ gr)
        if np.abs(gz).max(initial=0.0) > 1e-9 * (1.0 + np.abs(gr).max(initial=0.0)):
            d = -(Z @ gz)
            return None, d / np.linalg.norm(d)
    u = -V[:, pos] @ ((V[:, pos].T @ gr) / w[pos])  # zeros when no curvature is positive
    return y0 + Z @ u, None


def _independent_factors(A: np.ndarray, rows: np.ndarray, n_base: int) -> WorkingFactors:
    """A linearly independent subset of the rows A[rows], and its factors.

    Greedy in the order of rows: a row of norm at most 1e-14 is skipped,
    any other of the first n_base (base) rows counts when its residual
    off the rows counted before it exceeds 1e-12, and any other row when
    it exceeds TOL_INDEP of its norm.  Returns the factors of the k <= n
    rows kept, in the same order.

    The leading run of bound rows is factored in closed form (Gill,
    Murray & Wright 1981, section 5.5).  Row i is in the run when its
    one nonzero s_i bounds a variable j_i that no run row before it
    bounds, and |s_i|, its residual, is above the cut (1e-14; 1e-12 for
    a base row).  Q's first p columns are sign(s_i) e_(j_i), the free
    variables' unit vectors follow, and T's leading block is
    diag(1 / |s_i|).  The other rows join through WorkingFactors.join, as
    in the active-set loop: no QR runs.  A cold SVM start is a run of
    slack-sign bounds and a margin row or two.
    """
    n = A.shape[1]
    stack = A[rows]
    Q, T = np.zeros((n, n)), np.zeros((n, n))
    p, free = 0, np.ones(n, dtype=bool)
    if rows.size and np.count_nonzero(stack[0]) == 1:  # a bound opens the rows: find the run's end
        nonzero = stack != 0.0
        single = nonzero.sum(axis=1) == 1
        q = single.size if single.all() else int(single.argmin())
        cols = nonzero[:q].argmax(axis=1)  # the variable row i bounds
        s = stack[np.arange(q), cols]
        by_col = np.argsort(cols, kind="stable")  # a variable's rows, in row order
        again = by_col[1:][cols[by_col[1:]] == cols[by_col[:-1]]]  # its rows after the first
        small = np.abs(s) <= np.where(np.arange(q) < n_base, 1e-12, 1e-14)
        p = int(np.concatenate([again, np.flatnonzero(small), [q]]).min())
        cols, s = cols[:p], s[:p]
        free[cols] = False
        Q[cols, np.arange(p)] = np.sign(s)
        T[np.arange(p), np.arange(p)] = 1.0 / np.abs(s)
    Q[free, np.arange(p, n)] = 1.0  # the free variables' unit vectors
    factors = WorkingFactors(rows[:p], Q, T)
    for k, norm in enumerate(row_norms(stack[p:]), p):
        if norm > 1e-14:
            factors.join(rows[k], stack[k], 1e-12 if k < n_base else TOL_INDEP * norm)
    return factors


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step or multiplier raises instead
def _active_set_loop(problem: QpProblem, y: np.ndarray, max_iter=None, factored=None):
    """Primal active-set iteration from a feasible point y.

    The working set starts as the rows at y that solve_qp describes,
    factored by _independent_factors unless factored, _phase1's (rows,
    factors), factored exactly these rows.  max_iter defaults to
    solve_qp's cap.  Each iteration moves toward the working-set
    minimizer y_hat, or along a ray of unbounded descent, up to the first
    blocking row, which joins; a row that WorkingFactors.join refuses
    (one in the working rows' span) does not block.  When no row blocks
    the unit step, or y already is y_hat, it checks the multiplier signs
    at y_hat and returns, or drops a row with a negative one.  Ties and
    drops follow Bland's rule (smallest index).  Returns (y, lam,
    iterations, factors), factors being the final working rows'.
    """
    A, b, H, c, r = problem.A, problem.b, problem.H, problem.c, problem.n_ineq
    if max_iter is None:
        max_iter = max(200, 30 * (problem.n_con + 1))
    candidates = np.flatnonzero(problem.A_ineq @ y + problem.b_ineq >= -1e-9)
    order = np.concatenate([np.arange(r, problem.n_con), candidates[::-1]])
    if factored is None or not np.array_equal(order, factored[0]):
        factored = order, _independent_factors(A, order, problem.n_eq)
    factors = factored[1]
    for it in range(max_iter):
        idx = factors.rows
        y_hat, ray = _working_subproblem(H, c, A, b, y, factors)
        p = y_hat - y if ray is None else ray
        step = float(np.abs(p).max(initial=0.0))  # NaN when p holds one
        if not math.isfinite(step):
            raise MaxIterations("active-set step is not finite: the data are too large")
        stationary_tol = 1e-11 * (1.0 + np.abs(y).max(initial=0.0))
        if ray is not None or step > stationary_tol:
            i = -1
            if r:  # ratio test over the inequality rows not in the working set
                s = problem.A_ineq @ p
                s[idx[idx < r]] = 0.0
                can = s > 1e-13 * max(1.0, float(np.abs(s).max()))
                # t[0], the unit step (none along a ray), wins ties; then the lowest index
                t = np.full(r + 1, 1.0 if ray is None else np.inf)
                np.divide(problem.A_ineq @ y + problem.b_ineq, -s, out=t[1:], where=can)
                i = int(np.maximum(t, 0.0, out=t).argmin()) - 1
                while i >= 0 and not factors.join(i, A[i], TOL_INDEP * math.hypot(*A[i].tolist())):
                    t[i + 1] = np.inf
                    i = int(t.argmin()) - 1
            if i >= 0:
                y = y + t[i + 1] * p
                continue
            if ray is not None:
                raise Unbounded("objective decreases without bound along a feasible ray")

        # y_hat minimizes over the working set: check multiplier signs
        lam_w = -factors.multipliers(H @ y_hat + c)  # A_w' lam_w = -(H y_hat + c)
        if not np.isfinite(lam_w).all():
            raise MaxIterations("working-set multipliers are not finite: the data are too large")
        negative = idx[(idx < r) & (lam_w < -_DROP_TOL)]
        if not negative.size:
            lam = np.zeros(problem.n_con)
            lam[idx] = np.where((idx >= r) | (lam_w > 0.0), lam_w, 0.0)
            return y_hat, lam, it + 1, factors
        factors.drop(int(negative.min()), A)
        y = y_hat
    raise MaxIterations(f"active-set method did not converge in {max_iter} iterations")


def _phase1(problem: QpProblem):
    """Find a feasible point, or raise Infeasible.

    Equalities hold at the min-norm point y0 of their independent rows.
    If y0 violates inequalities, its projection onto the equality rows
    and the violated ones, in the loop's start order, is the start when
    it meets every row within TOL_FEAS; else an auxiliary QP, min 0.5 t^2
    subject to A_ineq y + b_ineq <= t, solved by the same loop from y0,
    drives the violation to 0.  That loop starts on the equality rows
    alone, factored in the auxiliary QP's variables.  Returns (y,
    factored): the rows factored last and their factors, for the loop to
    reuse, or None when the auxiliary QP ran.
    """
    n, r = problem.n_var, problem.n_ineq
    eq_rows, y0 = np.arange(r, problem.n_con), np.zeros(n)
    if problem.n_eq:
        eq = _independent_factors(problem.A, eq_rows, problem.n_eq)
        y0 = eq.onto(y0, problem.A, problem.b)
        resid = np.abs(problem.A_eq @ y0 + problem.b_eq).max()
        if resid > 1e-8 * (1.0 + np.abs(problem.b_eq).max()):
            raise Infeasible("equality constraints are inconsistent")
    else:
        eq = WorkingFactors(eq_rows, np.eye(n), np.zeros((n, n)))
    g = problem.A_ineq @ y0 + problem.b_ineq
    viol = float(g.max(initial=0.0))
    if viol <= TOL_FEAS:
        return y0, (eq_rows, eq)
    rows = np.concatenate([eq_rows, np.flatnonzero(g > TOL_FEAS)[::-1]])
    factors = _independent_factors(problem.A, rows, problem.n_eq)
    y = factors.onto(y0, problem.A, problem.b)
    if _usable_start(problem, y) is not None:
        return y, (rows, factors)
    H1 = np.diag(np.append(np.zeros(n), 1.0))
    A1 = np.hstack([problem.A, np.where(np.arange(problem.n_con) < r, -1.0, 0.0)[:, None]])
    aux = QpProblem(H1, np.zeros(n + 1), A1[:r], problem.b_ineq, A1[r:], problem.b_eq)
    del A1  # aux.A is a copy; freeing A1 keeps the phase-1 loop's peak memory down
    # t clears every violation, so the loop starts on the equality rows alone
    start = np.concatenate([y0, [viol * (1.0 + 1e-3) + 1e-6]])
    factored = eq_rows, _independent_factors(aux.A, eq_rows, problem.n_eq)
    y_aux = _active_set_loop(aux, start, factored=factored)[0]
    if y_aux[n] > 1e-9:
        raise Infeasible(f"no feasible point (minimal constraint violation {y_aux[n]:.3e})")
    return y_aux[:n], None


def _usable_start(problem: QpProblem, start) -> np.ndarray | None:
    """start as a float vector when it is finite and feasible, else None."""
    y = np.asarray(start, dtype=float)
    if y.shape != (problem.n_var,):
        raise DimensionMismatch(f"start must have shape ({problem.n_var},), got {y.shape}")
    if not np.isfinite(y).all():
        return None
    g = problem.constraint_values(y)
    r = problem.n_ineq
    if g[:r].max(initial=0.0) > TOL_FEAS or np.abs(g[r:]).max(initial=0.0) > TOL_FEAS:
        return None
    return y


def solve_qp(problem: QpProblem, *, max_iter: int | None = None, start=None) -> KktSolution:
    """Solve a convex QP to a KKT point.

    Parameters
    ----------
    problem : QpProblem
    max_iter : int, optional
        Active-set iteration cap; defaults to max(200, 30 * (n_con + 1)).
    start : (n_var,) array, optional
        A warm start, typically the solution of a nearby problem.  It
        replaces phase 1 when it is finite and meets every constraint
        within TOL_FEAS; any other start is ignored, and the result is
        the cold one bit for bit.  Phase 1 (see _phase1) takes the
        min-norm point of the equality rows, or else its projection onto
        them and the violated rows when that is feasible, or else solves
        an auxiliary QP.  Either way the working set starts as the
        independent constraints active at the starting point, so a start
        close to the optimum needs few iterations.  These start rows are
        the equality rows, then the inequality rows within 1e-9 of
        active (g_i >= -1e-9) in decreasing index: Bland's rule drops the
        lowest index, and a row dropped near the tail of the factors
        leaves few rows after it to re-triangularize.  Of two dependent
        start rows the later one in this order is dropped.  The bound
        rows that lead this order are factored in closed form, and the
        others join them one by one (see _independent_factors).

    Returns
    -------
    KktSolution
        The primal-dual pair with the iteration count, whether phase 1
        ran, problem itself and the final working rows with their factors
        (see KktSolution).  An equality row that depends on the ones
        before it gets a zero multiplier and is not a working row.

    Raises
    ------
    Infeasible, Unbounded, MaxIterations
    DimensionMismatch
        When start does not have shape (n_var,).
    """
    y0 = None if start is None else _usable_start(problem, start)
    phase1, factored = y0 is None, None
    if phase1:
        y0, factored = _phase1(problem)
    y, lam, iterations, factors = _active_set_loop(problem, y0, max_iter, factored)
    res = kkt_residuals(problem, y, lam)
    c_inf = float(np.abs(problem.c).max(initial=0.0))
    if not res.within_default_tolerances(c_inf, float(np.abs(lam).max(initial=0.0))):
        raise MaxIterations(
            "active-set method returned a point violating KKT tolerances "
            f"(stationarity {res.stationarity:.2e}, primal {res.primal:.2e}, "
            f"dual {res.dual:.2e}, complementarity {res.complementarity:.2e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = problem.objective_value(y)
    if not math.isfinite(value):
        raise MaxIterations(
            "objective value at the KKT point is not finite: the data are too large"
        )
    return KktSolution(y, lam, value, iterations, phase1, problem, factors)


def solved_problem(solution: KktSolution) -> QpProblem:
    """solution.problem, once solution is known to carry solve_qp's working-set factors.

    Raises InputError for a KktSolution built without them, since every
    function that reads the factors needs both.
    """
    if solution.problem is None or solution.factors is None:
        raise InputError("solution must come from solve_qp: no problem or working-set factors")
    return solution.problem


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def working_minimizer(solution: KktSolution, c: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimize 0.5 d'Hd + c'd subject to A[w] d + b[w] = 0 over the working rows w.

    H and A are solution.problem's, b holds one offset per constraint,
    and the solve runs on the solution's factors through
    _working_subproblem: one KKT solve, no factorization (Nocedal &
    Wright, section 16.2).  Returns None where the objective decreases
    without bound on that affine set, as solve_qp's Unbounded would.

    Raises MaxIterations when the minimizer is not finite.
    """
    problem = solved_problem(solution)
    d = _working_subproblem(problem.H, c, problem.A, b, np.zeros_like(c), solution.factors)[0]
    if d is not None and not np.isfinite(d).all():
        raise MaxIterations("working-set minimizer is not finite: the data are too large")
    return d


@np.errstate(over="ignore", invalid="ignore")  # solve_qp ignores a non-finite start
def working_start(solution: KktSolution, problem: QpProblem) -> np.ndarray:
    """solution.y moved by one least-norm step back onto its working rows in problem.

    problem is the training problem at nearby data.  The step
    (WorkingFactors.onto) runs on the solution's factors of the old
    rows, so the new rows hold at its end up to the square of the
    change in the data, and the inactive rows keep their slack up to
    its size.  Returns solution.y itself when solution has no factors
    (it was not built by solve_qp) or problem's rows differ in shape.
    """
    old, factors = solution.problem, solution.factors
    if old is None or factors is None or old.A.shape != problem.A.shape:
        return solution.y
    return factors.onto(solution.y, problem.A, problem.b)


def licq_margin(solution: KktSolution, active) -> float:
    """Smallest |R_jj| / |a_j| over the active rows: each row's residual off those before it.

    The working rows come first, with R from the solver's factors; the
    other active rows follow, factored in the working rows' null space.
    More of them than its dimension leave a zero residual.
    """
    A, factors = solved_problem(solution).A, solution.factors
    live, Z = set(factors.rows.tolist()), factors.null_space
    extra = np.array([i for i in active if i not in live], dtype=int)
    if extra.size > Z.shape[1]:
        return 0.0
    resid = factors.r_diagonal
    if extra.size:
        R = np.linalg.qr(Z.T @ A[extra].T, mode="r")
        resid = np.append(resid, np.abs(R.diagonal()))
    norms = row_norms(A[np.append(factors.rows, extra)])
    ratio = np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0.0)  # a zero row fails
    return float(ratio.min(initial=np.inf))
