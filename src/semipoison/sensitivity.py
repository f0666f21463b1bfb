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
conditions back this construction: active constraint gradients must be
linearly independent (LICQ), and H_aux must be positive definite on the
null space of the strictly active rows (a strong second-order
condition).
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

LICQ_RTOL = 1e-8
SSOC_MIN_EIG = 1e-9
FD_STEP = 1e-5
ORACLE_MARGIN = 1e-4  # strict-complementarity margin of the oracle's gate


@dataclass
class RegularityReport:
    ssoc_ok: bool
    min_singular_value: float
    min_curvature: float


@dataclass(eq=False)
class AuxiliaryProblem:
    """Data of the directional-derivative QP at a solved point."""

    H_aux: np.ndarray
    active_rows: np.ndarray  # one row per entry of structure.active
    structure: ActiveStructure
    B: np.ndarray  # (dim_var + n_con, dim_data)
    regularity: RegularityReport

    @property
    def dim_var(self) -> int:
        return self.H_aux.shape[0]

    @property
    def dim_data(self) -> int:
        return self.B.shape[1]


def check_licq(active_rows: np.ndarray) -> tuple[bool, float]:
    """Full row rank test on the active constraint gradients.

    Returns (ok, smallest singular value).  Vacuously true with no active
    rows.  ok requires the smallest singular value to exceed LICQ_RTOL
    times the largest.
    """
    rows = np.asarray(active_rows, dtype=float)
    if rows.size == 0 or rows.shape[0] == 0:
        return True, np.inf
    s = np.linalg.svd(rows, compute_uv=False)
    if rows.shape[0] > rows.shape[1]:
        return False, 0.0
    return bool(s[-1] > LICQ_RTOL * s[0]), float(s[-1])


def check_ssoc(H_aux: np.ndarray, strict_rows: np.ndarray) -> tuple[bool, float]:
    """Positive definiteness of H_aux on the null space of the strict rows.

    Returns (ok, smallest restricted eigenvalue); ok requires it to
    exceed SSOC_MIN_EIG.  Vacuously true when the null space is {0}.
    """
    H_aux = np.asarray(H_aux, dtype=float)
    strict_rows = np.asarray(strict_rows, dtype=float)
    n = H_aux.shape[0]
    if strict_rows.size == 0:
        Z = np.eye(n)
    else:
        _, s, Vt = np.linalg.svd(strict_rows.reshape(-1, n), full_matrices=True)
        rank = int(np.sum(s > LICQ_RTOL * max(float(s[0]) if s.size else 0.0, 1.0)))
        Z = Vt[rank:].T
    if Z.shape[1] == 0:
        return True, np.inf
    w = np.linalg.eigvalsh(Z.T @ H_aux @ Z)
    return bool(w[0] > SSOC_MIN_EIG), float(w[0])


def build_auxiliary(model: VictimModel, x: np.ndarray, solution: KktSolution) -> AuxiliaryProblem:
    """Assemble the directional-derivative QP data at a solved point.

    Raises RegularityFailure when LICQ fails: the auxiliary problem then
    does not determine the derivative.  A failing second-order condition
    is recorded in the regularity report, not raised; it surfaces as
    AuxUnbounded when a derivative is requested.
    """
    x = np.asarray(x, dtype=float)
    problem = model.assemble(x)
    structure = classify_active(problem, solution)
    A, _ = problem.stacked_rows()
    active_rows = A[structure.active] if structure.active else np.zeros((0, problem.n_var))
    licq_ok, min_sv = check_licq(active_rows)
    if not licq_ok:
        raise RegularityFailure(
            f"active constraint gradients are dependent (min singular value {min_sv:.3e})"
        )

    H_aux = problem.H  # constraints are linear in y, so this is the full Hessian
    strict_rows = A[structure.strict] if structure.strict else np.zeros((0, problem.n_var))
    ssoc_ok, min_curv = check_ssoc(H_aux, strict_rows)

    grads = np.asarray(model.grad_x_constraint(x, solution.y), dtype=float)
    B = np.vstack([model.cross_hessian(x, solution.y, solution.lam), -grads])

    report = RegularityReport(ssoc_ok, min_sv, min_curv)
    return AuxiliaryProblem(H_aux, active_rows, structure, B, report)


def semi_derivative(aux: AuxiliaryProblem, dx: np.ndarray) -> np.ndarray:
    """One-sided derivative dy of the solution map along dx.

    Positively homogeneous in dx: scaling dx by a > 0 scales dy by a.

    Raises
    ------
    AuxInfeasible
        Equality rows of the auxiliary problem are inconsistent.
    AuxUnbounded
        The auxiliary objective is unbounded; the second-order regularity
        condition fails at this point.
    """
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (aux.dim_data,):
        raise DimensionMismatch(f"dx must have shape ({aux.dim_data},), got {dx.shape}")
    if not np.linalg.norm(dx) > 0:
        raise DimensionMismatch("dx must be nonzero")
    z = -(aux.B @ dx)
    v = z[: aux.dim_var]
    mu = z[aux.dim_var :]

    st = aux.structure
    pos = {i: k for k, i in enumerate(st.active)}
    strict_rows = aux.active_rows[[pos[i] for i in st.strict]] if st.strict else None
    weak_rows = aux.active_rows[[pos[i] for i in st.weakly_active]] if st.weakly_active else None
    problem = QpProblem(
        aux.H_aux,
        -v,
        A_ineq=weak_rows,
        b_ineq=mu[st.weakly_active] if st.weakly_active else None,
        A_eq=strict_rows,
        b_eq=mu[st.strict] if st.strict else None,
    )
    try:
        return solve_qp(problem).y
    except Infeasible as exc:
        raise AuxInfeasible(str(exc)) from exc
    except Unbounded as exc:
        raise AuxUnbounded(str(exc)) from exc


def solution_semi_derivative(
    model: VictimModel, x: np.ndarray, solution: KktSolution, dx: np.ndarray
) -> np.ndarray:
    """Build the auxiliary problem at a solved point and differentiate along dx."""
    return semi_derivative(build_auxiliary(model, x, solution), dx)


def fd_directional_derivative(
    model: VictimModel,
    x: np.ndarray,
    dx: np.ndarray,
    *,
    base_solution: KktSolution | None = None,
) -> np.ndarray:
    """One-sided finite-difference estimate (y(x + h dx) - y(x)) / h, h = FD_STEP.

    Re-solves the victim's training problem once (twice without a cached
    base solution); solver errors propagate.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    if dx.shape != x.shape:
        raise DimensionMismatch("dx must match the shape of x")
    if not np.linalg.norm(dx) > 0:
        raise DimensionMismatch("dx must be nonzero")
    y0 = base_solution.y if base_solution is not None else solve_victim(model, x).y
    y1 = solve_victim(model, x + FD_STEP * dx).y
    return (y1 - y0) / FD_STEP


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
    pass the regularity gate (LICQ, the second-order condition, and a
    strict-complementarity margin: a finite-step oracle cannot resolve a
    kink that sits closer to the base point than the step).  Gated-out
    fixtures are reported as skipped, never silently dropped.
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
        problem = model.assemble(x)
        g = problem.constraint_values(sol.y)
        clean = all(
            abs(g[i]) <= qp.TOL_ACT or g[i] < -ORACLE_MARGIN for i in range(problem.n_ineq)
        ) and all(
            sol.lam[i] > ORACLE_MARGIN
            for i in range(problem.n_ineq)
            if abs(g[i]) <= qp.TOL_ACT
        )
        if not clean:
            results.append(OracleTrial(trial_seed, "skipped (regularity)"))
            continue
        try:
            aux = build_auxiliary(model, x, sol)
        except RegularityFailure:
            results.append(OracleTrial(trial_seed, "skipped (regularity)"))
            continue
        if not aux.regularity.ssoc_ok:
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
