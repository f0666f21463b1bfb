"""Directional derivatives of QP solution maps via an auxiliary problem.

Let y(x) solve a convex QP whose data vector x enters the objective's
linear term and the constraints.  At a regular solution the map x -> y(x)
is directionally differentiable even where the active set is about to
change, and the one-sided derivative along dx solves a second, smaller
QP assembled from the active constraints:

    minimize    0.5 dy' H_aux dy - v' dy
    subject to  a_i' dy + mu_i == 0   for strictly active i
                a_i' dy + mu_i <= 0   for weakly active i (zero multiplier)

where (v, mu) = -B dx,  B stacks the Lagrangian's mixed second
derivative over -grad_x g_i for every constraint i.  Two regularity
conditions back this construction.  build_auxiliary checks, from the
solver's own factors, that the active constraint gradients are linearly
independent (LICQ).  H_aux must be positive definite on the null space of
the strictly active rows (a strong second-order condition); where it is
not, semi_derivative raises AuxUnbounded.

Without weakly active rows the auxiliary problem has equality rows only,
and under LICQ they are the training solution's final working rows, so
semi_derivative solves it as one KKT system on the training solver's
factors (qp.working_minimizer); the auxiliary QP is solved by solve_qp
only where some active row is weakly active.
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
    B: np.ndarray  # (dim_var + n_con, dim_data)
    licq_margin: float  # smallest |R_jj| / |a_j| of the active rows; inf with none

    @property
    def H_aux(self) -> np.ndarray:
        return self.solution.problem.H

    @property
    def rows(self) -> np.ndarray:
        """Every constraint row in problem order; structure indexes it."""
        return self.solution.problem.A

    @property
    def dim_var(self) -> int:
        return self.H_aux.shape[0]

    @property
    def dim_data(self) -> int:
        return self.B.shape[1]


def build_auxiliary(model: VictimModel, x: np.ndarray, solution: KktSolution) -> AuxiliaryProblem:
    """Assemble the directional-derivative QP data at a solved point.

    solution must come from solve_qp: its problem, the training problem at
    x, is not assembled again, and its working-set factors decide LICQ.
    A KktSolution built without them raises InputError.

    Raises RegularityFailure when LICQ fails, that is when an active row's
    residual off the rows before it is at most qp.TOL_INDEP of its norm:
    the auxiliary problem then does not determine the derivative.  The
    second-order condition is not checked here; where it fails,
    semi_derivative raises AuxUnbounded.
    """
    x = np.asarray(x, dtype=float)
    problem = qp.solved_problem(solution)
    structure = classify_active(problem, solution)
    margin = qp.licq_margin(solution, structure.active)
    if not margin > qp.TOL_INDEP:
        raise RegularityFailure(
            f"active constraint gradients are dependent (LICQ margin {margin:.3e})"
        )
    grads = np.asarray(model.grad_x_constraint(x, solution.y), dtype=float)
    B = np.vstack([model.cross_hessian(x, solution.y, solution.lam), -grads])
    return AuxiliaryProblem(solution, structure, B, margin)


def semi_derivative(aux: AuxiliaryProblem, dx: np.ndarray) -> np.ndarray:
    """One-sided derivative dy of the solution map along dx.

    Positively homogeneous in dx: scaling dx by a > 0 scales dy by a.
    Without weakly active rows the strictly active rows are the training
    solution's working rows (LICQ holds), and dy is the minimizer over
    them on the training factors, qp.working_minimizer: no QP is solved.
    With weakly active rows the auxiliary QP is solved by solve_qp.

    Raises
    ------
    AuxInfeasible
        Equality rows of the auxiliary problem are inconsistent.
    AuxUnbounded
        The auxiliary objective is unbounded; the second-order regularity
        condition fails at this point.
    MaxIterations
        B dx or dy is not finite: the data are too large.
    """
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (aux.dim_data,):
        raise DimensionMismatch(f"dx must have shape ({aux.dim_data},), got {dx.shape}")
    if not np.linalg.norm(dx) > 0:
        raise DimensionMismatch("dx must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):
        z = -(aux.B @ dx)
    if not np.isfinite(z).all():
        raise MaxIterations("derivative data B dx is not finite: the data are too large")
    v, mu = z[: aux.dim_var], z[aux.dim_var :]

    weak, strict = aux.structure.weakly_active, aux.structure.strict
    if not weak:  # only working rows carry multipliers, so under LICQ strict is the working set
        dy = qp.working_minimizer(aux.solution, -v, mu)
        if dy is None:
            raise AuxUnbounded("auxiliary objective decreases without bound on the active rows")
        return dy
    # the weakly active rows as inequalities, the strict ones as equalities
    problem = QpProblem(aux.H_aux, -v, aux.rows[weak], mu[weak], aux.rows[strict], mu[strict])
    try:
        return solve_qp(problem).y
    except Infeasible as exc:
        raise AuxInfeasible(str(exc)) from exc
    except Unbounded as exc:
        raise AuxUnbounded(str(exc)) from exc


def fd_directional_derivative(
    model: VictimModel, x: np.ndarray, dx: np.ndarray, *, base_solution: KktSolution
) -> np.ndarray:
    """One-sided finite-difference estimate (y(x + h dx) - y(x)) / h, h = FD_STEP.

    base_solution is the victim's solution at x.  Re-solves the training
    problem once, at x + h dx, warm from base_solution through
    solve_victim: a model without a feasible_start hook starts from the
    base point stepped back onto its working rows at x + h dx, which an
    active row moving outward by O(h) would otherwise leave infeasible,
    and phase 1 runs only where that start is infeasible.  Solver errors
    propagate.
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
        problem = sol.problem
        g = problem.constraint_values(sol.y)
        clean = all(
            abs(g[i]) <= qp.TOL_ACT or g[i] < -ORACLE_MARGIN for i in range(problem.n_ineq)
        ) and all(
            sol.lam[i] > ORACLE_MARGIN
            for i in range(problem.n_ineq)
            if abs(g[i]) <= qp.TOL_ACT
        )
        if clean:
            try:
                aux = build_auxiliary(model, x, sol)
            except RegularityFailure:
                clean = False
        if not clean:
            results.append(OracleTrial(trial_seed, "skipped (regularity)"))
            continue
        dx = rng.standard_normal(dim_data)
        dx /= np.linalg.norm(dx)
        dy = semi_derivative(aux, dx)
        fd = fd_directional_derivative(model, x, dx, base_solution=sol)
        dev = float(np.abs(dy - fd).max() / (1.0 + np.abs(dy).max(initial=0.0)))
        results.append(OracleTrial(trial_seed, "ok", dev))
        ok_count += 1
    return results
