"""Directional derivatives of QP solution maps via an auxiliary problem.

Let y(x) solve a convex QP whose data vector x enters the objective's
linear term and the constraints.  At a regular solution the map x -> y(x)
is directionally differentiable even where the active set is about to
change, and the one-sided derivative along dx solves a second, smaller
QP assembled from the active constraints:

    minimize    0.5 dy' H_aux dy - v' dy
    subject to  a_i' dy + mu_i == 0   for strictly active i
                a_i' dy + mu_i <= 0   for weakly active i (zero multiplier)

where v = -C dx and mu = J dx, C being the Lagrangian's mixed second
derivative in (y, x) and J the constraints' Jacobian in x.  Two regularity
conditions back this construction.  The active constraint gradients
must be linearly independent (LICQ): build_auxiliary joins each active
row outside the training solver's working rows to a copy of its factors,
as the active-set loop joins rows, and a refused join fails LICQ.  H_aux
must be positive definite on the null space of the strictly active rows
(a strong second-order condition); where it is not, semi_derivative
raises AuxUnbounded.

Under LICQ the strictly active rows are the training solution's working
rows, less a weakly active one among them.  Without weakly active rows
the auxiliary problem has equality rows only, and semi_derivative solves
it as one KKT system on the training solver's factors
(qp.working_minimizer).  With one weakly active row w the derivative is
piecewise linear in dx, with two pieces (Jittorntrum 1984; Ralph & Dempe
1995): piece 0 keeps w off, and piece 1, taken where piece 0 would
violate w, holds it as an equality.  Each piece is one KKT solve on
factors built once per point: piece 1 on the factors of every active
row, the LICQ test's, and piece 0 on those without w, the training
factors themselves where w is not a working row.  The auxiliary QP is
solved by solve_qp only where two or more active rows are weakly active.

PointDerivative, built once per solved point, holds what decides the route:
aux, None where LICQ fails, and gradient, None off the differentiable points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .errors import (
    AuxInfeasible,
    AuxUnbounded,
    DimensionMismatch,
    Infeasible,
    MaxIterations,
    RegularityFailure,
    Unbounded,
)
from .qp import ActiveStructure, KktSolution, QpProblem, classify_active, solve_qp
from .victims import VictimModel, generic_parametric_qp, solve_victim

FD_STEP = 1e-5
ORACLE_MARGIN = 1e-4  # strict-complementarity margin of the oracle's gate


@dataclass(eq=False)
class AuxiliaryProblem:
    """Data of the directional-derivative QP at a solved point.

    solution is the training solution it was built at; the constraints
    are linear in y, so the training problem's H is H_aux and its rows
    are the auxiliary problem's, both read from solution.problem.
    """

    solution: KktSolution
    structure: ActiveStructure
    cross: np.ndarray  # C, (n_var, dim_data), as model.cross_hessian returns it
    jac: np.ndarray  # J, (n_con, dim_data), as model.grad_x_constraint returns it
    licq_margin: float  # WorkingFactors.licq_margin of every active row's factors
    # factors of each piece's equality rows (see semi_derivative), never updated:
    # every active row's without weakly active rows, (without w, with w) with
    # one, the latter every active row's, none with more
    pieces: tuple[qp.WorkingFactors, ...]

    @property
    def H_aux(self) -> np.ndarray:
        return self.solution.problem.H

    @property
    def rows(self) -> np.ndarray:
        """Every constraint row in problem order; structure indexes it."""
        return self.solution.problem.A

    @property
    def dim_data(self) -> int:
        return self.cross.shape[1]


def build_auxiliary(model: VictimModel, x: np.ndarray, solution: KktSolution) -> AuxiliaryProblem:
    """Assemble the directional-derivative QP data at a solved point.

    solution must come from solve_qp: its problem, the training problem at
    x, is not assembled again, and its working-set factors decide LICQ.
    A KktSolution built without them raises InputError.  Each active row
    outside the working rows joins a copy of those factors, in active
    order, through WorkingFactors.join, as rows join in the active-set
    loop; with none, the solution's own factors serve.  With one weakly
    active row w these factors of every active row are piece 1, and
    piece 0 is the solution's own factors where w is the one row that
    joined, else a copy without w (one WorkingFactors.drop).

    Raises RegularityFailure when LICQ fails, naming the first row whose
    join is refused (its residual off the rows before it is at most
    qp.TOL_INDEP of its norm, its variable is fixed already, or no
    null-space direction is left), or where the factors' licq_margin is
    at most qp.TOL_INDEP (a working row the solver kept below it): the
    auxiliary problem then does not determine the derivative.  The
    second-order condition is not checked here; where it fails,
    semi_derivative raises AuxUnbounded.  A callback array of another
    shape than C's or J's raises DimensionMismatch.
    """
    x = np.asarray(x, dtype=float)
    problem = qp.solved_problem(solution)
    structure = classify_active(problem, solution)
    A, factors = problem.A, solution.factors
    working = set(factors.rows.tolist())
    extra = [i for i in structure.active if i not in working]
    if extra:
        factors = factors.copy()
    for i in extra:
        if not factors.join(i, A[i]):
            raise RegularityFailure(f"active row {i} depends on the other active rows (LICQ fails)")
    margin = factors.licq_margin
    if not margin > qp.TOL_INDEP:
        raise RegularityFailure(
            f"active constraint gradients are dependent (LICQ margin {margin:.3e})"
        )
    jac = np.asarray(model.grad_x_constraint(x, solution.y), dtype=float)
    cross = np.asarray(model.cross_hessian(x, solution.y, solution.lam), dtype=float)
    got = cross.shape, jac.shape
    want = (problem.n_var, model.dim_data), (problem.n_con, model.dim_data)
    if got != want:
        raise DimensionMismatch(f"cross_hessian, grad_x_constraint shapes {got}, not {want}")
    weak = structure.weakly_active
    if len(weak) != 1:
        pieces = () if weak else (factors,)
    elif extra == weak:
        pieces = (solution.factors, factors)
    else:
        without = factors.copy()
        without.drop(weak[0], A)
        pieces = (without, factors)
    return AuxiliaryProblem(solution, structure, cross, jac, margin, pieces)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises instead
def semi_derivative(aux: AuxiliaryProblem, dx: np.ndarray) -> np.ndarray:
    """One-sided derivative dy of the solution map along dx.

    Positively homogeneous in dx: scaling dx by a > 0 scales dy by a.
    With at most one weakly active row no QP is solved.  Piece 0 is the
    minimizer over the strictly active rows, which under LICQ are the
    working rows less a weakly active one, on aux.pieces[0]
    (qp.working_minimizer).  With one weakly active row w, and where piece
    0 gives a_w'dy + (J dx)_w > 0, w holds as an equality instead: piece 1,
    the minimizer on aux.pieces[1].  Piece 1's null space lies in piece
    0's, so it has a minimizer wherever piece 0 has one.  With two or
    more weakly active rows the auxiliary QP is solved by solve_qp,
    which starts it at phase 1's projection: the least-norm point of its
    equality rows, moved onto the weakly active rows it violates.

    Raises
    ------
    AuxInfeasible
        Equality rows of the auxiliary problem are inconsistent.
    AuxUnbounded
        The auxiliary objective is unbounded, or piece 0 has no
        minimizer; the second-order regularity condition fails at this
        point.
    MaxIterations
        C dx, J dx or dy is not finite: the data are too large.
    """
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (aux.dim_data,):
        raise DimensionMismatch(f"dx must have shape ({aux.dim_data},), got {dx.shape}")
    if not np.linalg.norm(dx) > 0:
        raise DimensionMismatch("dx must be nonzero")
    c, mu = aux.cross @ dx, aux.jac @ dx  # c = -v
    if not (np.isfinite(c).all() and np.isfinite(mu).all()):
        raise MaxIterations("derivative data C dx, J dx is not finite: the data are too large")

    weak, strict = aux.structure.weakly_active, aux.structure.strict
    if aux.pieces:
        dy = qp.working_minimizer(aux.solution, aux.pieces[0], c, mu)
        if weak and dy is not None and aux.rows[weak[0]] @ dy + mu[weak[0]] > 0.0:
            dy = qp.working_minimizer(aux.solution, aux.pieces[1], c, mu)
        if dy is None:
            raise AuxUnbounded("auxiliary objective decreases without bound on the active rows")
        return dy
    # the weakly active rows as inequalities, the strict ones as equalities
    strict = strict[::-1]  # decreasing, so the bounds lead phase 1's equality factors
    problem = QpProblem(aux.H_aux, c, aux.rows[weak], mu[weak], aux.rows[strict], mu[strict])
    try:
        return solve_qp(problem).y
    except Infeasible as exc:
        raise AuxInfeasible(str(exc)) from exc
    except Unbounded as exc:
        raise AuxUnbounded(str(exc)) from exc


class PointDerivative:
    """Derivatives of the solution map at one solved point, built once.

    aux is the auxiliary problem, or None where LICQ fails, for the
    caller's finite difference.  Else gradient, where it is not None, or
    semi_derivative(aux, dx): one or two KKT solves per direction on
    factors built here, an auxiliary QP where several rows are weakly active.
    """

    def __init__(self, model: VictimModel, x: np.ndarray, solution: KktSolution):
        try:
            self.aux = build_auxiliary(model, x, solution)
        except RegularityFailure:
            self.aux = None

    def gradient(self, grad_y: np.ndarray) -> np.ndarray | None:
        """Data gradient of grad_y' y(x), or None unless the map is differentiable here.

        With LICQ and no weakly active row, the rows A_w of aux.pieces[0]
        are the strict set and dy is linear in dx: one adjoint solve,
        [[H, A_w'], [A_w, 0]] (u, nu) = (grad_y, 0), gives the gradient
        -(C'u + J[w]'nu).  Where every active row is a working row it runs
        on the training solve's own factors and decomposition of Z'HZ
        (qp.working_minimizer, with zero offsets).  None also where Z'HZ
        is flat.
        """
        aux = self.aux
        if aux is None or aux.structure.weakly_active:
            return None
        factors = aux.pieces[0]
        u = qp.working_minimizer(aux.solution, factors, -grad_y, None)
        if u is None:
            return None
        nu = np.zeros(aux.rows.shape[0])
        nu[factors.rows] = factors.multipliers(grad_y - aux.H_aux @ u, aux.rows)
        return -(aux.cross.T @ u + aux.jac.T @ nu)


def fd_directional_derivative(
    model: VictimModel, x: np.ndarray, dx: np.ndarray, *, base_solution: KktSolution
) -> np.ndarray:
    """One-sided finite-difference estimate (y(x + h dx) - y(x)) / h, h = FD_STEP.

    base_solution is the victim's solution at x.  Re-solves the training
    problem once, at x + h dx, hot from base_solution through
    solve_victim: on its working rows and a copy of its factors, the
    base point stepped onto those rows at x + h dx, which an active row
    moving outward by O(h) would otherwise leave infeasible.  Where no
    hot start is usable it falls back to the model's feasible_start
    hook, or to phase 1.  Solver errors propagate.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    if dx.shape != x.shape:
        raise DimensionMismatch("dx must match the shape of x")
    if not np.linalg.norm(dx) > 0:
        raise DimensionMismatch("dx must be nonzero")
    y1 = solve_victim(model, x + FD_STEP * dx, warm=base_solution).y
    return (y1 - base_solution.y) / FD_STEP


# ---------------------------------------------------------------------------
# randomized agreement trials against the finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleTrial:
    """Outcome of one randomized semi-derivative vs finite-difference trial."""

    seed: int
    status: str  # "ok" or "skipped (regularity)" or "skipped (solve)"
    deviation: float = float("nan")


def run_oracle_trials(n_trials: int, seed: int = 0) -> list[OracleTrial]:
    """Compare semi-derivatives with the re-solve oracle on random fixtures.

    Keeps generating random parametric QP fixtures until n_trials of them
    pass the regularity gate: LICQ, and a strict-complementarity margin,
    since a finite-step oracle cannot resolve a kink that sits closer to
    the base point than the step.  The second-order condition holds by
    construction, as generic_parametric_qp's H is positive definite.
    Gated-out fixtures are reported as skipped, never silently dropped.
    """
    results: list[OracleTrial] = []
    rng = np.random.default_rng(seed)
    ok_count = 0
    max_attempts = max(20 * n_trials, 50)
    while ok_count < n_trials and len(results) < max_attempts:  # one result per attempt
        trial_seed = int(rng.integers(0, 2**31 - 1))
        dim_var = int(rng.integers(2, 9))
        dim_data = int(rng.integers(1, 5))
        n_eq = int(rng.integers(0, 2))
        n_ineq = int(rng.integers(1, 6))
        model = generic_parametric_qp(trial_seed, dim_var, dim_data, n_ineq, n_eq)
        x = 0.2 * rng.standard_normal(dim_data)
        try:
            sol = solve_victim(model, x)
        except (Infeasible, Unbounded, MaxIterations):
            results.append(OracleTrial(trial_seed, "skipped (solve)"))
            continue
        g = sol.g[:n_ineq]
        # active rows need a multiplier above the margin, inactive ones a slack above it
        clean = np.all(np.where(np.abs(g) <= qp.TOL_ACT, sol.lam[:n_ineq], -g) > ORACLE_MARGIN)
        point = PointDerivative(model, x, sol) if clean else None
        if point is None or point.aux is None:
            results.append(OracleTrial(trial_seed, "skipped (regularity)"))
            continue
        dx = rng.standard_normal(dim_data)
        dx /= np.linalg.norm(dx)
        dy = semi_derivative(point.aux, dx)
        fd = fd_directional_derivative(model, x, dx, base_solution=sol)
        dev = float(np.abs(dy - fd).max() / (1.0 + np.abs(dy).max(initial=0.0)))
        results.append(OracleTrial(trial_seed, "ok", dev))
        ok_count += 1
    return results
