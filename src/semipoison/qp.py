"""Dense convex quadratic programming via a primal active-set method.

Problems are stated as

    minimize    0.5 * y' H y + c' y
    subject to  A_ineq y + b_ineq <= 0      (componentwise)
                A_eq   y + b_eq  == 0

H must be symmetric and positive semidefinite on the feasible tangent
space.  All linear algebra is dense; the intended scale is tens of
variables and at most a few hundred constraints.  A working row with
one nonzero (a bound, such as an SVM's slack sign) fixes its variable
and is not factored; the other working rows are factored on the free
variables only, so a working set of n - 3 bounds and a few general
rows keeps n x 3 and 3 x 3 factors, not n x n ones.  A general row
joins by one Householder reflection and leaves by one small QR; a
bound that joins or leaves removes or adds one free variable.  Every
solve starts from a HotStart, a point moved onto its working rows and
their factors, which _hot_start makes from a copy of a nearby
solution's (working_start) or the rows active at a point (point_start,
phase 1): leading bounds are fixed in closed form, the rest join.

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
_START_TOL = 1e-9  # a row within this of active at a hot start's point joins its working rows


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
        once on construction when both blocks have rows, and otherwise
        the block that has them, not copied.  A_ineq, A_eq, b_ineq and
        b_eq are views of them.
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
        h_max = max(H.max(initial=0.0), -H.min(initial=0.0))  # NaN or inf when H has such an entry
        if not np.isfinite(h_max):
            raise ValueError("H contains NaN or infinite entries")
        if not (H == H.T).all():  # an exactly symmetric H is its own symmetrization
            asym = np.abs(H - H.T).max()
            if asym > _SYM_TOL * max(1.0, h_max):
                raise DimensionMismatch(f"H is not symmetric (asymmetry {asym:.3e})")
            H = 0.5 * (H + H.T)
        self.H = H
        n = H.shape[0]
        c = np.asarray(self.c, dtype=float)
        if c.shape != (n,):
            raise DimensionMismatch(f"c must have shape ({n},), got {c.shape}")
        self.c = _finite(c, "c")
        A_ineq = _as_matrix(self.A_ineq, n, "A_ineq")
        b_ineq = _as_vector(self.b_ineq, A_ineq.shape[0], "b_ineq")
        A_eq = _as_matrix(self.A_eq, n, "A_eq")
        b_eq = _as_vector(self.b_eq, A_eq.shape[0], "b_eq")
        if A_ineq.shape[0] and A_eq.shape[0]:
            self.A, self.b = np.vstack([A_ineq, A_eq]), np.concatenate([b_ineq, b_eq])
        else:  # one block holds every row: A is that block itself
            self.A, self.b = (A_eq, b_eq) if A_eq.shape[0] else (A_ineq, b_ineq)
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

    def with_rows(self, A: np.ndarray, rows: slice) -> QpProblem:
        """This problem with constraint matrix A, which differs from self.A in the rows A[rows] alone.

        Only A[rows], inequality rows, is checked, as construction checks
        A_ineq (_as_matrix: shape and finiteness).  A is kept, not copied;
        H, c and b are this problem's.
        """
        if A.shape != self.A.shape:
            raise DimensionMismatch(f"A must have shape {self.A.shape}, got {A.shape}")
        _as_matrix(A[rows], self.n_var, "A_ineq")
        other, r = object.__new__(QpProblem), self.n_ineq
        other.__dict__ = {**self.__dict__, "A": A, "A_ineq": A[:r], "A_eq": A[r:]}
        return other

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
    WorkingFactors): the bounds first, then the general rows, each in
    the order they joined, start rows before the loop's.
    working_minimizer and working_start read them, and the sensitivity
    module decides LICQ on a copy of them.  g holds A y + b as solve_qp's
    KKT gate computed it, which classify_active reads; None on a solution
    built by hand.
    """

    y: np.ndarray
    lam: np.ndarray
    value: float
    iterations: int = 0
    phase1: bool = False
    problem: QpProblem | None = None
    factors: WorkingFactors | None = None
    g: np.ndarray | None = field(default=None, init=False, repr=False)


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
    with np.errstate(over="ignore", invalid="ignore"):
        return _residuals(problem, lam, problem.constraint_values(y), problem.H @ y + problem.c)


def _residuals(problem: QpProblem, lam, g, grad) -> KktResiduals:
    """kkt_residuals from g = A y + b and grad = H y + c, evaluated at y by the caller."""
    r = problem.n_ineq
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
    The constraint values are solution.g where solve_qp kept them for
    problem, else evaluated here.
    """
    r, g = problem.n_ineq, solution.g if solution.problem is problem else None
    active = np.abs(problem.constraint_values(solution.y) if g is None else g) <= TOL_ACT
    active[r:] = True
    weakly = np.abs(solution.lam) <= TOL_MULT
    weakly[r:] = False
    weakly &= active
    return ActiveStructure(
        active=np.flatnonzero(active).tolist(),
        weakly_active=np.flatnonzero(weakly).tolist(),
        strict=np.flatnonzero(active > weakly).tolist(),  # active and not weakly active
    )


class WorkingFactors:
    """Working rows w of a constraint matrix A: fixed variables and factored general rows.

    rows holds w, the bounds first.  A bound is a row with one nonzero s,
    on variable j: it fixes y_j = -b_i / s and is not factored (Gill,
    Murray & Wright 1981, section 5.5.1).  fixed holds the bounds' j, in
    the order they joined; s is read off A where it is needed.  The
    other working rows, general, are factored on the nf free variables
    only: A[general]' = Q[:, :m] R, where Q is n x nf, zero in the fixed
    variables' rows and orthogonal in the free ones, and the nf x nf
    buffer T, taken as given like Q, holds R^-1 in its leading m x m
    block.  General rows join at the end and leave from anywhere, Q and
    T updated in place (Gill, Golub, Murray & Saunders 1974); a bound
    that joins fixes its variable, and one that leaves frees it.  norms
    holds each general row's norm |a_i|, taken as it joins, which
    licq_margin divides by.
    """

    reduced = None  # _working_subproblem's decomposition of Z'HZ, and its H; updates drop it
    norms: tuple[float, ...] = ()  # replaced, never changed in place, as rows and fixed are

    def __init__(self, n: int, bounds=np.zeros(0, dtype=int), fixed=np.zeros(0, dtype=int)):
        """No general rows; bound row bounds[k] fixes variable fixed[k] (none: Q = I)."""
        self.rows, self.fixed, nf = bounds, fixed, n - fixed.size
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        self.Q, self.T = np.zeros((n, nf)), np.zeros((nf, nf))
        self.Q[free, np.arange(nf)] = 1.0  # the free variables' unit vectors

    def copy(self) -> WorkingFactors:
        """Factors whose updates leave these alone (rows and fixed are only ever replaced)."""
        other = object.__new__(WorkingFactors)
        other.rows, other.fixed, other.norms = self.rows, self.fixed, self.norms
        other.Q, other.T = self.Q.copy(), self.T.copy()
        return other

    @property
    def general(self) -> np.ndarray:
        return self.rows[self.fixed.size :]

    @property
    def null_space(self) -> np.ndarray:
        """A basis of the working rows' null space, zero in the fixed variables."""
        return self.Q[:, self.rows.size - self.fixed.size :]

    @property
    def licq_margin(self) -> float:
        """Smallest |R_jj| / |a_j| over the rows: each one's residual off those before it.

        A bound's is |s| / |s| = 1; a general row's |a_j| is the norm join
        took (norms).  inf with no rows.  It depends on the order the rows
        joined in, bounds first, so near TOL_INDEP LICQ can turn on which
        rows the solver made working: planted_kink_model(7)'s active rows
        read 0.59 on a copy of its factors, 0.52 by a QR in active order.
        """
        resid = 1.0 / np.abs(self.T.diagonal()[: self.rows.size - self.fixed.size])
        return float((resid / np.array(self.norms)).min(initial=1.0 if self.fixed.size else np.inf))

    def onto(self, y: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """y with each fixed variable at -b_i / s, then moved onto A[general] q + b[general] = 0.

        The second move is the least-norm step, Y T'(A[general] y + b[general]),
        which leaves the fixed variables alone.
        """
        p = self.fixed.size
        g, m = self.rows[p:], self.rows.size - p
        if p:
            bounds, y = self.rows[:p], y.copy()
            y[self.fixed] = -b[bounds] / A[bounds, self.fixed]
        return y - self.Q[:, :m] @ (self.T[:m, :m].T @ (A[g] @ y + b[g]))

    def multipliers(self, g: np.ndarray, A: np.ndarray) -> np.ndarray:
        """lam with A[rows]' lam = g, for g in the span of the working rows.

        The general rows' part is T Y'g; a bound's is
        (g_j - (A[general]' lam_general)_j) / s, with no solve.
        """
        p = self.fixed.size
        m = self.rows.size - p
        lam = self.T[:m, :m] @ (self.Q[:, :m].T @ g)
        if not p:
            return lam
        bounds, fixed = self.rows[:p], self.fixed
        return np.concatenate([(g - lam @ A[self.rows[p:]])[fixed] / A[bounds, fixed], lam])

    def join(self, i: int, a: np.ndarray, cut: float | None = None) -> bool:
        """Row i, a, joins unless its residual off the working rows is at most cut; False then.

        cut defaults to TOL_INDEP |a|.  A bound fixes its variable (_fix).
        A general row's residual is |Q[:, m:]'a|, and one Householder
        reflection of Q[:, m:] adds the row.  That residual, the reflector
        and |a| square no entry of a, so a row of any finite scale joins.
        """
        norm_a = math.hypot(*a.tolist())
        cut = TOL_INDEP * norm_a if cut is None else cut
        if np.count_nonzero(a) == 1:
            j = int(np.flatnonzero(a)[0])
            return self._fix(i, j, float(a[j]), cut)
        m, Q, T = self.rows.size - self.fixed.size, self.Q, self.T
        v = Q[:, m:].T @ a
        norm = math.hypot(*v.tolist())
        if norm <= cut:
            return False
        beta = self._reflect(m, v, norm)
        T[:m, m] = (T[:m, :m] @ (Q[:, :m].T @ a)) / -beta
        T[m, m] = 1.0 / beta
        self.rows, self.norms = np.concatenate((self.rows, (i,))), (*self.norms, norm_a)
        self.reduced = None
        return True

    def _reflect(self, m: int, v: np.ndarray, norm: float) -> float:
        """Reflect Q[:, m:] so that v = Q[:, m:]'a, of norm > 0, becomes beta e_0; returns beta."""
        Q = self.Q
        beta = -math.copysign(norm, v[0])
        u = v / norm
        u[0] += math.copysign(1.0, v[0])  # now u'u = 2 |u_0|
        Q[:, m:] -= (Q[:, m:] @ u)[:, None] * (u / abs(u[0]))
        return beta

    def _fix(self, i: int, j: int, s: float, cut: float) -> bool:
        """Bound row i, entry s on variable j, fixes j; False if j is fixed or |s Q[j, m:]| <= cut.

        |s| |Q[j, m:]| is the row's residual off the working rows.  The
        unit row e_j joins as general row m, as join adds a row, and plane
        rotations of Q's columns (m - 1, m), ..., (0, 1) move it to the
        front: Q[:, 0] is then e_j, Q[j, 1:] is zero, and the rotated R^-1
        without its first row and column is the inverse of the general
        rows' new R.  Q without column 0, and with row j set to zero,
        factors them on the other free variables.
        """
        if np.any(self.fixed == j):
            return False  # the row is a multiple of j's bound
        p, Q, T = self.fixed.size, self.Q, self.T
        m = self.rows.size - p
        v = Q[j, m:].copy()
        norm = math.hypot(*v.tolist())
        if abs(s) * norm <= cut:
            return False
        beta = self._reflect(m, v, norm)
        T[:m, m] = (T[:m, :m] @ Q[j, :m]) / -beta
        T[m, m] = 1.0 / beta
        w = Q[j, : m + 1].copy()
        for c in range(m - 1, -1, -1):  # rotate e_j's weight from column c + 1 into column c
            r = math.hypot(w[c], w[c + 1])
            G = np.array([[w[c], -w[c + 1]], [w[c + 1], w[c]]]) / r
            Q[:, c : c + 2] = Q[:, c : c + 2] @ G
            T[: m + 1, c : c + 2] = T[: m + 1, c : c + 2] @ G
            w[c] = r
        self.Q = Q[:, 1:].copy()
        self.Q[j] = 0.0
        self.T = np.zeros((T.shape[0] - 1, T.shape[0] - 1))
        self.T[:m, :m] = T[:m, 1 : m + 1]
        self.rows = np.concatenate((self.rows[:p], (i,), self.rows[p:]))
        self.fixed, self.reduced = np.concatenate((self.fixed, (j,))), None
        return True

    def drop(self, i: int, A: np.ndarray) -> None:
        """Working row i of A leaves; the general rows after it are re-triangularized.

        A bound first frees its variable (_free), as the leading general row.
        """
        t = int(np.flatnonzero(self.rows == i)[0])
        if t < self.fixed.size:
            self._free(t, A)
            t = self.fixed.size
        p, Q, T, rows = self.fixed.size, self.Q, self.T, self.rows
        j, m = t - p, rows.size - p  # row i is general row j of m
        if j < m - 1:  # without row j, R's rows j.. are upper Hessenberg: one QR fixes them
            q = np.linalg.qr(Q[:, j:m].T @ A[rows[t + 1 :]].T, mode="complete")[0]
            Q[:, j:m] = Q[:, j:m] @ q
            T[:m, j:m] = T[:m, j:m] @ q
        T[j : m - 1] = T[j + 1 : m]  # the new R^-1 is T q without row j
        T[m - 1] = T[:, m - 1] = 0.0
        self.rows, self.reduced = np.concatenate((rows[:t], rows[t + 1 :])), None
        self.norms = self.norms[:j] + self.norms[j + 1 :]

    def _free(self, t: int, A: np.ndarray) -> None:
        """Bound t's variable j joins the free variables, its row the general rows, first.

        Q gains the leading column e_j, so that R gains the leading row
        (1, A[general, j]), and norms the row's norm |s|.  T's leading
        row stays zero, as drop deletes that row and reads none of it.
        """
        j, p, nf, rows = self.fixed[t], self.fixed.size, self.T.shape[0], self.rows
        Q, T = np.zeros((self.Q.shape[0], nf + 1)), np.zeros((nf + 1, nf + 1))
        Q[:, 1:], Q[j, 0] = self.Q, 1.0
        T[1:, 1:] = self.T
        self.Q, self.T = Q, T
        self.rows = np.concatenate((rows[:t], rows[t + 1 : p], rows[t : t + 1], rows[p:]))
        self.fixed = np.concatenate((self.fixed[:t], self.fixed[t + 1 :]))
        self.norms = (abs(float(A[rows[t], j])), *self.norms)


def _working_subproblem(H, c, y, factors: WorkingFactors):
    """Minimize the objective over y + Z u, y on factors' rows and Z their null space's basis.

    Returns (y_hat, ray): the minimizer (None if unbounded) and a
    direction of unbounded descent in Z (None when the minimizer
    exists).  Z'HZ is decomposed whole: a negative eigenvalue, or a flat
    direction with a nonzero reduced gradient, gives the ray; else the
    minimizer.  A 1 x 1 Z'HZ is its own decomposition, as eigh would
    return it, and skips eigh's call.  The decomposition and its flatness
    decision stay on factors, with H (factors.reduced), so a later call
    on the same factors and H, such as working_minimizer's at a
    solution, decomposes nothing.
    """
    Z = factors.null_space
    if Z.shape[1] == 0:
        return y, None
    gr = Z.T @ (H @ y + c)
    if factors.reduced is None or factors.reduced[0] is not H:
        Hr = Z.T @ H @ Z
        if Hr.shape[0] == 1:  # one null-space direction, as an SVM's working set leaves
            w, V = Hr[0], np.ones((1, 1))
        else:
            w, V = np.linalg.eigh(0.5 * (Hr + Hr.T))
        eps = 1e-11 * max(float(w.max(initial=0.0)), 1.0)
        pos = w > eps
        neg = int(np.argmin(w)) if (w < -eps).any() else None
        factors.reduced = H, V, neg, V[:, pos], w[pos], np.count_nonzero(pos) < w.size
    _, V, neg, Vp, wp, flat = factors.reduced
    if neg is not None:
        d = Z @ V[:, neg]
        if gr @ V[:, neg] > 0:
            d = -d
        return None, d
    if flat:  # some null-space directions are flat
        gz = gr - Vp @ (Vp.T @ gr)
        if np.abs(gz).max(initial=0.0) > 1e-9 * (1.0 + np.abs(gr).max(initial=0.0)):
            d = -(Z @ gz)
            return None, d / np.linalg.norm(d)
    u = -Vp @ ((Vp.T @ gr) / wp)  # zeros when no curvature is positive
    return y + Z @ u, None


def _independent_factors(A: np.ndarray, rows: np.ndarray, n_base: int) -> WorkingFactors:
    """A linearly independent subset of the rows A[rows], and its factors.

    Greedy in the order of rows: a row of norm at most 1e-14 is skipped,
    any other of the first n_base (base) rows counts when its residual
    off the rows counted before it exceeds 1e-12, and any other row when
    it exceeds TOL_INDEP of its norm.  Returns the factors of the k <= n
    rows kept.

    The leading run of bound rows is the fixed set, in closed form (Gill,
    Murray & Wright 1981, section 5.5).  Row i is in the run when its
    one nonzero s_i bounds a variable j_i that no run row before it
    bounds, and |s_i|, its residual, is above the cut (1e-14; 1e-12 for
    a base row).  The other rows join through WorkingFactors.join, as in
    the active-set loop, from the identity on the free variables.  A cold
    SVM start is a run of slack-sign bounds and a margin row or two.
    """
    n, p = A.shape[1], 0
    if rows.size and np.count_nonzero(A[rows[0]]) == 1:  # a bound opens the rows: find its run
        nonzero = (A != 0.0)[rows]  # one byte per entry, no copy of A[rows]; counted on rows only
        single = nonzero.sum(axis=1) == 1
        q = single.size if single.all() else int(single.argmin())
        cols = nonzero[:q].argmax(axis=1)  # the variable row i bounds
        s = A[rows[:q], cols]
        stop = np.abs(s) <= 1e-14  # the run stops at a row with a small entry
        stop[:n_base] = np.abs(s[:n_base]) <= 1e-12
        by_col = np.argsort(cols, kind="stable")  # a variable's rows, in row order
        stop[by_col[1:][cols[by_col[1:]] == cols[by_col[:-1]]]] = True  # or at its second row
        p = int(np.append(stop, True).argmax())
        factors = WorkingFactors(n, rows[:p], cols[:p])
    else:
        factors = WorkingFactors(n)
    for k, (i, norm) in enumerate(zip(rows[p:], row_norms(A[rows[p:]])), p):
        if norm > 1e-14:
            factors.join(i, A[i], 1e-12 if k < n_base else None)
    return factors


def _active_set_loop(problem: QpProblem, y: np.ndarray, factors: WorkingFactors, max_iter=None):
    """Primal active-set iteration from y on the working rows factors holds, updated in place.

    y meets every row to round-off, as a HotStart's does; only the
    loop's steps, which keep it on the working rows, move it.  max_iter
    defaults to max(200, 30 * (n_con + 1)).  Each iteration moves toward the
    working-set minimizer y_hat, or along a ray of unbounded descent, up
    to the first blocking row, which joins; a row that
    WorkingFactors.join refuses (one in the working rows' span) does not
    block.  When no row blocks the unit step, or y already is y_hat, it
    checks the multiplier signs at y_hat and returns, or drops a row
    with a negative one; but a unit step that shrinks y by more than 1e5
    leaves round-off of y's size in y_hat, above the 1e-11 |y_hat| the
    stationarity test allows, so the loop solves again from y_hat first.
    Ties and drops follow Bland's rule (smallest index).  Returns (y,
    lam, iterations, factors, grad), factors being the final working
    rows' and grad H y + c, from which the multipliers were taken.
    """
    A, H, c, r = problem.A, problem.H, problem.c, problem.n_ineq
    if max_iter is None:
        max_iter = max(200, 30 * (problem.n_con + 1))
    for it in range(max_iter):
        idx = factors.rows
        y_hat, ray = _working_subproblem(H, c, y, factors)
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
                while i >= 0 and not factors.join(i, A[i]):
                    t[i + 1] = np.inf
                    i = int(t.argmin()) - 1
            if i >= 0:
                y = y + t[i + 1] * p
                continue
            if ray is not None:
                raise Unbounded("objective decreases without bound along a feasible ray")
            if step > 1e5 and step > 1e5 * (1.0 + np.abs(y_hat).max()):  # round-off of y's size
                y = y_hat
                continue

        # y_hat minimizes over the working set: check multiplier signs
        grad = H @ y_hat + c
        lam_w = -factors.multipliers(grad, A)  # A_w' lam_w = -(H y_hat + c)
        if not np.isfinite(lam_w).all():
            raise MaxIterations("working-set multipliers are not finite: the data are too large")
        negative = idx[(idx < r) & (lam_w < -_DROP_TOL)]
        if not negative.size:
            lam = np.zeros(problem.n_con)
            lam[idx] = np.where((idx >= r) | (lam_w > 0.0), lam_w, 0.0)
            return y_hat, lam, it + 1, factors, grad
        factors.drop(int(negative.min()), A)
        y = y_hat
    raise MaxIterations(f"active-set method did not converge in {max_iter} iterations")


def _phase1(problem: QpProblem) -> HotStart:
    """A start at a feasible point, or raise Infeasible.

    Equalities hold at the min-norm point y0 of their independent rows.
    _hot_start moves y0 onto them and the inequality rows it violates
    beyond TOL_FEAS, in start order, on the factors made for that move;
    that is the start unless _hot_start refuses it.  Else an auxiliary
    QP, min 0.5 t^2 subject to A_ineq y + b_ineq <= t, solved by the
    same loop from y0 on the equality rows alone, drives the violation
    to 0, and its point is the start (point_start).  A violation left
    above 1e-9, or one point_start refuses, is Infeasible.
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
        eq = WorkingFactors(n)
    g = problem.A_ineq @ y0 + problem.b_ineq
    violated = np.flatnonzero(g > TOL_FEAS)[::-1]
    rows = np.concatenate([eq_rows, violated])
    factors = _independent_factors(problem.A, rows, problem.n_eq) if violated.size else eq
    start = _hot_start(problem, np.zeros(n), factors)  # the move from 0 ends where y0's would
    if start is not None:
        return start
    H1 = np.diag(np.append(np.zeros(n), 1.0))
    A1 = np.hstack([problem.A, np.where(np.arange(problem.n_con) < r, -1.0, 0.0)[:, None]])
    aux = QpProblem(H1, np.zeros(n + 1), A1[:r], problem.b_ineq, A1[r:], problem.b_eq)
    del A1  # with equality rows aux.A is a stacked copy: freeing A1 lowers the loop's peak memory
    # t clears every violation, so the loop starts on the equality rows alone
    y_t = np.append(y0, g.max(initial=0.0) * (1.0 + 1e-3) + 1e-6)
    y_aux = _active_set_loop(aux, y_t, _independent_factors(aux.A, eq_rows, problem.n_eq))[0]
    start = point_start(problem, y_aux[:n]) if y_aux[n] <= 1e-9 else None
    if start is None:
        raise Infeasible(f"no feasible point (minimal constraint violation {y_aux[n]:.3e})")
    return start


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises instead
def solve_qp(problem: QpProblem, *, start=None) -> KktSolution:
    """Solve a convex QP to a KKT point, in at most max(200, 30 * (n_con + 1)) iterations.

    Parameters
    ----------
    problem : QpProblem
    start : HotStart, optional
        A start for this problem (working_start or point_start): the
        loop starts at its point, on its working rows and their factors,
        which it updates in place, with no phase 1 and no factorization.
        None runs phase 1 (see _phase1), which builds its start the same
        way.  A start changes the cost of a solve, not its result beyond
        round-off.

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
    InputError
        When start is not a HotStart (point_start makes one from a point)
        or was built for another problem.
    """
    phase1 = start is None
    if phase1:
        start = _phase1(problem)
    elif not isinstance(start, HotStart):
        raise InputError("start must be a HotStart or None: qp.point_start makes one from a point")
    elif start.problem is not problem:
        raise InputError("hot start was built for another problem")
    y, lam, iterations, factors, grad = _active_set_loop(problem, start.y, start.factors)
    g = problem.constraint_values(y)
    res = _residuals(problem, lam, g, grad)  # the gate reads the loop's H y + c
    value = problem.objective_value(y)
    c_inf = float(np.abs(problem.c).max(initial=0.0))
    if not res.within_default_tolerances(c_inf, float(np.abs(lam).max(initial=0.0))):
        raise MaxIterations(
            "active-set method returned a point violating KKT tolerances "
            f"(stationarity {res.stationarity:.2e}, primal {res.primal:.2e}, "
            f"dual {res.dual:.2e}, complementarity {res.complementarity:.2e})"
        )
    if not math.isfinite(value):
        raise MaxIterations(
            "objective value at the KKT point is not finite: the data are too large"
        )
    solution = KktSolution(y, lam, value, iterations, phase1, problem, factors)
    solution.g = g
    return solution


def solved_problem(solution: KktSolution) -> QpProblem:
    """solution.problem, once solution is known to carry solve_qp's working-set factors.

    Raises InputError for a KktSolution built without them, since every
    function that reads the factors needs both.
    """
    if solution.problem is None or solution.factors is None:
        raise InputError("solution must come from solve_qp: no problem or working-set factors")
    return solution.problem


def working_minimizer(
    solution: KktSolution, factors: WorkingFactors, c: np.ndarray, b: np.ndarray | None
) -> np.ndarray | None:
    """Minimize 0.5 d'Hd + c'd subject to A[w] d + b[w] = 0 over the rows w factors holds.

    H and A are solution.problem's, and b holds one offset per
    constraint, or is None for zero offsets.  factors are the solution's
    own, or a copy of them with one row dropped or joined (the
    sensitivity module's two pieces at a kink); the solve runs on them
    through _working_subproblem: one KKT solve, no factorization
    (Nocedal & Wright, section 16.2).  On the solution's own factors it
    reuses the solve's last decomposition of Z'HZ.  It starts from the
    zero point, moved onto the rows where b is nonzero.  Returns None
    where the objective decreases without bound on that affine set, as
    solve_qp's Unbounded would.

    Raises MaxIterations when the minimizer is not finite.
    """
    problem = solved_problem(solution)
    y = np.zeros_like(c)
    if b is not None and b.any():
        y = factors.onto(y, problem.A, b)
    d = _working_subproblem(problem.H, c, y, factors)[0]
    if d is not None and not np.isfinite(d).all():
        raise MaxIterations("working-set minimizer is not finite: the data are too large")
    return d


@dataclass(eq=False)
class HotStart:
    """A start for solve_qp on problem: a point y and the factors of its working rows.

    y meets the working rows, and every other row, to round-off
    (_hot_start).  solve_qp updates factors in place, so a HotStart
    starts one solve.
    """

    problem: QpProblem
    y: np.ndarray
    factors: WorkingFactors


def _hot_start(problem: QpProblem, y: np.ndarray, factors: WorkingFactors) -> HotStart | None:
    """y moved onto factors' rows (WorkingFactors.onto), with every other row near active joined.

    The rows within _START_TOL of active at the moved y join, equality
    rows first and inequality rows in decreasing index, and y moves once
    more if any joined: the only moves of a start onto its rows.  Where
    y then violates a row not working beyond round-off (_meets_rows),
    which would stay violated through the solve, the joined rows leave;
    None where y on the start's own rows, or not finite, does too.
    """
    r, A, b = problem.n_ineq, problem.A, problem.b
    y = factors.onto(y, A, b)
    g = problem.constraint_values(y)
    g[r:] = np.abs(g[r:])
    g[factors.rows] = -np.inf
    near = np.flatnonzero(g >= -_START_TOL)
    if not near.size:  # every violated row is near, so none is
        return HotStart(problem, y, factors) if np.isfinite(y).all() else None
    joined = [i for i in (*near[near >= r], *near[near < r][::-1]) if factors.join(i, A[i])]
    y_joined = factors.onto(y, A, b) if joined else y
    if _meets_rows(problem, y_joined, factors.rows):
        return HotStart(problem, y_joined, factors)
    for i in joined[::-1]:  # a joined row moved y past a row that cannot join
        factors.drop(i, A)
    return HotStart(problem, y, factors) if _meets_rows(problem, y, factors.rows) else None


def _meets_rows(problem: QpProblem, y: np.ndarray, working: np.ndarray) -> bool:
    """y is finite, and g_i <= 1e-12 (|a_i|'|y| + |b_i|) (|g_i| for an equality) off working."""
    g, r = problem.constraint_values(y), problem.n_ineq
    g[r:] = np.abs(g[r:])
    g[working] = 0.0
    out = np.flatnonzero(g > 0.0)  # the bound is computed on the violated rows alone
    noise = 1e-12 * (np.abs(problem.A[out]) @ np.abs(y) + np.abs(problem.b[out]))
    return bool(np.isfinite(y).all()) and not (g[out] > noise).any()


def point_start(problem: QpProblem, y) -> HotStart | None:
    """A hot start at y, typically a nearby problem's solution, or None.

    The start rows are the equality rows, then the inequality rows
    active at y to round-off, g_i >= -1e-12 (1 + |b_i|), in decreasing
    index: Bland's rule drops the lowest index, and a row dropped near
    the tail of the factors leaves few rows after it to
    re-triangularize.  Their independent rows are factored (the later of
    two dependent ones is left out; see _independent_factors), and
    _hot_start moves y onto them.  None where y is not finite, violates
    a row beyond TOL_FEAS or _hot_start refuses it.  Raises
    DimensionMismatch when y does not have shape (n_var,).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.n_var,):
        raise DimensionMismatch(f"start must have shape ({problem.n_var},), got {y.shape}")
    if not np.isfinite(y).all():
        return None
    g, r = problem.constraint_values(y), problem.n_ineq
    if not (g[:r].max(initial=0.0) <= TOL_FEAS and np.abs(g[r:]).max(initial=0.0) <= TOL_FEAS):
        return None
    active = np.flatnonzero(g[:r] >= -1e-12 * (1.0 + np.abs(problem.b_ineq)))
    rows = np.concatenate([np.arange(r, problem.n_con), active[::-1]])
    return _hot_start(problem, y, _independent_factors(problem.A, rows, problem.n_eq))


def working_start(solution: KktSolution, problem: QpProblem) -> HotStart | None:
    """A hot start for problem, at nearby data, on solution's working rows with copied factors.

    The leading general rows whose entries are the same in problem keep
    their factors; the rest join again at problem's data, as rows join
    in the loop (one refused then is one of the other rows below).  A
    bound whose entry changed keeps its place while it stays the row's
    one nonzero.  _hot_start moves solution.y onto these rows, so where
    the working set stays optimal the solve takes one iteration.  None,
    for another start instead, when solution has no factors (it was not
    built by solve_qp), problem's rows differ in shape, a bound row
    gains a second nonzero or loses its one, or _hot_start refuses.
    """
    old = solution.problem
    if old is None or solution.factors is None or old.A.shape != problem.A.shape:
        return None
    A, factors = problem.A, solution.factors.copy()
    p, general = factors.fixed.size, factors.general
    changed = (A != old.A).any(axis=1)
    moved = changed[factors.rows[:p]]
    if moved.any():  # each such bound row must keep its one nonzero, on its variable
        bounds = factors.rows[:p][moved]
        single = np.count_nonzero(A[bounds], axis=1) == 1
        if not (single.all() and A[bounds, factors.fixed[moved]].all()):
            return None
    k = int(np.append(changed[general], True).argmax())  # the first general row that changed
    factors.rows, factors.norms, factors.reduced = factors.rows[: p + k], factors.norms[:k], None
    factors.T[k:] = factors.T[:, k:] = 0.0  # Q's columns k.. stay the complement of rows ..k
    for i in general[k:]:
        factors.join(i, A[i])
    return _hot_start(problem, solution.y, factors)
