"""Model-targeted poisoning driven by one-sided solution derivatives.

The attacker owns the training data x of a convex learner and wants the
learned parameters to land on a chosen target.  Each iteration scores
every data point by the directional derivative of the squared distance
to the target, taken through the learner's solution map, then moves the
most sensitive point a short way along its best descent direction.  All
iterates stay inside a norm ball around the pristine data and inside
per-feature box bounds.

Directional derivatives are exact one-sided values from the auxiliary
problem of the sensitivity module.  When the solution map is plainly
differentiable at the current iterate (every active constraint has a
nonzero multiplier) they collapse to a single linear solve that yields
the full data gradient at once; when regularity fails entirely the
engine falls back to one-sided finite differences rather than giving up.

A classical gradient attack that ignores the training constraints is
included for comparison, as is a geometric-decay check for step-size
rules with a known curvature bound.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    AuxInfeasible,
    AuxUnbounded,
    DimensionMismatch,
    EmptyDirectionSet,
    RegularityFailure,
    SingularHessian,
    Stalled,
)
from .qp import KktSolution
from .sensitivity import build_auxiliary, semi_derivative
from .victims import VictimModel, solve_victim

PROBE_STEP = 1e-9
BOUNDARY_SLACK = 1e-12
TOL_STALL = 1e-9  # a derivative above -TOL_STALL is no descent
MIN_STEP = 1e-8  # backtracking gives up below this trial length
FD_OBJECTIVE_STEP = 1e-6
CONVERGENCE_REL_SLACK = 1e-6
CONVERGENCE_ABS_SLACK = 1e-15


@dataclass(eq=False)
class AttackConfig:
    """Attack problem statement plus search-control knobs.

    target is the desired value of ``selector @ y``; selector defaults to
    the identity, so target then addresses the full parameter vector.
    delta bounds the Euclidean distance of the poisoned data vector from
    the pristine one.  box_lo/box_hi, when given, bound each coordinate
    within a data point (length point_dim, broadcast across points).

    curvature_bound is the L estimate behind the step rule: a direction
    with derivative dG gets the trial length -dG / curvature_bound, which
    fixed-L mode applies once and backtracking mode halves until the
    objective decreases.
    """

    target: np.ndarray
    delta: float
    selector: np.ndarray | None = None
    point_dim: int = 1
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    curvature_bound: float = 1.0
    step_mode: str = "backtracking"
    num_random_dirs: int = 8
    random_probe: bool = False
    tol_target: float = 1e-12
    tol_improve: float = 1e-12
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        self.target = np.atleast_1d(np.asarray(self.target, dtype=float))
        if self.selector is not None:
            self.selector = np.asarray(self.selector, dtype=float)
            if self.selector.ndim != 2:
                raise DimensionMismatch("selector must be a 2-D matrix")
            if self.target.shape != (self.selector.shape[0],):
                raise DimensionMismatch(
                    f"target must have shape ({self.selector.shape[0]},) "
                    f"to match the selector, got {self.target.shape}"
                )
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and nonnegative")
        if not (np.isfinite(self.curvature_bound) and self.curvature_bound > 0):
            raise ValueError("curvature_bound must be finite and positive")
        if self.step_mode not in ("fixed-L", "backtracking"):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")
        if self.point_dim < 1:
            raise ValueError("point_dim must be at least 1")
        if self.num_random_dirs < 0:
            raise ValueError("num_random_dirs must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if (self.box_lo is None) != (self.box_hi is None):
            raise ValueError("box bounds must be given together or not at all")
        if self.box_lo is not None:
            self.box_lo = np.atleast_1d(np.asarray(self.box_lo, dtype=float))
            self.box_hi = np.atleast_1d(np.asarray(self.box_hi, dtype=float))
            if self.box_lo.shape != (self.point_dim,) or self.box_hi.shape != (self.point_dim,):
                raise DimensionMismatch(
                    f"box bounds must have shape ({self.point_dim},) "
                    f"got {self.box_lo.shape} and {self.box_hi.shape}"
                )
            if np.any(self.box_lo > self.box_hi):
                raise ValueError("box lower bounds exceed upper bounds")

    def resolve_selector(self, dim_var: int) -> np.ndarray:
        if self.selector is None:
            if self.target.shape != (dim_var,):
                raise DimensionMismatch(
                    f"target must have shape ({dim_var},) without a selector, "
                    f"got {self.target.shape}"
                )
            return np.eye(dim_var)
        if self.selector.shape[1] != dim_var:
            raise DimensionMismatch(
                f"selector must have {dim_var} columns, got {self.selector.shape[1]}"
            )
        return self.selector


@dataclass(eq=False)
class StepRecord:
    """One accepted attack iteration.

    objective_value is measured after the step.  derivative is the
    directional derivative along the chosen unit direction before the
    step; step is the accepted length before projection.  point is -1
    for the gradient baseline, which moves every coordinate at once.
    """

    k: int
    objective_value: float
    point: int
    direction: np.ndarray
    derivative: float
    step: float
    distance: float
    route: str = "linear"

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "objective": self.objective_value,
            "point": self.point,
            "direction": [float(v) for v in self.direction],
            "derivative": self.derivative,
            "step": self.step,
            "distance": self.distance,
            "route": self.route,
        }


@dataclass(eq=False)
class AttackTrace:
    """Complete record of one attack run."""

    x_initial: np.ndarray
    x_final: np.ndarray
    initial_objective: float
    records: list[StepRecord]
    reason: str  # optimal | budget | stalled | max_iters
    final_solution: KktSolution | None
    stall_certificate: float | None = None

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective_value if self.records else self.initial_objective

    @property
    def objective_history(self) -> list[float]:
        return [self.initial_objective] + [r.objective_value for r in self.records]


def objective(selected: np.ndarray, target: np.ndarray) -> float:
    """Squared Euclidean distance between the selected output and the target."""
    selected = np.atleast_1d(np.asarray(selected, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if selected.shape != target.shape:
        raise DimensionMismatch(
            f"selected output has shape {selected.shape}, target {target.shape}"
        )
    r = selected - target
    return float(r @ r)


def _tile_bounds(config: AttackConfig, dim_data: int):
    if config.box_lo is None:
        return None, None
    reps = dim_data // config.point_dim
    return np.tile(config.box_lo, reps), np.tile(config.box_hi, reps)


def project_to_feasible(x, x_base, delta, lo=None, hi=None) -> np.ndarray:
    """Nearest practical point of the ball-and-box region.

    Clips to the box, then pulls radially toward the base point until the
    ball constraint holds; the base point sits inside the box, so the
    pull preserves box feasibility and the combination is exact under
    floating point (verified against the same norm the caller would use).
    """
    x_base = np.asarray(x_base, dtype=float)
    z = np.array(x, dtype=float, copy=True)
    if lo is not None:
        z = np.clip(z, lo, hi)
    for shrink in (0.0, 1e-15, 1e-12, 1e-9):
        dist = float(np.linalg.norm(z - x_base))
        if dist <= delta:
            return z
        z = x_base + (z - x_base) * ((delta / dist) * (1.0 - shrink))
        if lo is not None:
            z = np.clip(z, lo, hi)
    if float(np.linalg.norm(z - x_base)) <= delta:
        return z
    return x_base.copy()  # round-off exhausted; the base point is always feasible


def _point_slots(point_index: int, point_dim: int) -> slice:
    return slice(point_index * point_dim, (point_index + 1) * point_dim)


def _feasible_mask(x, D, x_base, delta, lo, hi) -> np.ndarray:
    """Rows of D along which a tiny step stays inside the ball and the box."""
    trial = x + PROBE_STEP * D
    ok = np.linalg.norm(trial - x_base, axis=1) <= delta + BOUNDARY_SLACK * max(1.0, delta)
    if lo is not None:
        ok &= np.all((trial >= lo - BOUNDARY_SLACK) & (trial <= hi + BOUNDARY_SLACK), axis=1)
    return ok


def _axis_directions(slots: slice, dim_data: int) -> np.ndarray:
    """Rows +e_j, -e_j for every coordinate j in slots, in that order.

    Built from zeros so that every zero entry is +0.0: equal directions
    then have equal bytes and share the derivative cache.
    """
    cols = np.arange(dim_data)[slots]
    rows = 2 * np.arange(cols.size)
    D = np.zeros((2 * cols.size, dim_data))
    D[rows, cols] = 1.0
    D[rows + 1, cols] = -1.0
    return D


def _random_directions(point_index, point_dim, dim_data, count, rng) -> np.ndarray:
    D = np.zeros((count, dim_data))
    slots = _point_slots(point_index, point_dim)
    for d in D:
        v = rng.standard_normal(point_dim)
        nrm = float(np.linalg.norm(v))
        while nrm < 1e-12:  # essentially never; redraw rather than divide by 0
            v = rng.standard_normal(point_dim)
            nrm = float(np.linalg.norm(v))
        d[slots] = v / nrm
    return D


def feasible_directions(x, point_index, config: AttackConfig, *, x_base=None, rng=None):
    """Candidate unit directions confined to one data point's coordinates.

    The +/- coordinate axes of the point plus config.num_random_dirs
    random unit vectors in its subspace, keeping those along which a tiny
    step stays inside both the norm ball around x_base and the box.

    Raises EmptyDirectionSet when nothing survives the filter (the point
    is pinned at a corner of the feasible region, or delta is zero).
    """
    x = np.asarray(x, dtype=float)
    if x.size % config.point_dim:
        raise DimensionMismatch(
            f"data size {x.size} is not a multiple of point_dim {config.point_dim}"
        )
    n_points = x.size // config.point_dim
    if not 0 <= point_index < n_points:
        raise DimensionMismatch(f"point_index {point_index} out of range [0, {n_points})")
    x_base = x if x_base is None else np.asarray(x_base, dtype=float)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    lo, hi = _tile_bounds(config, x.size)

    D = np.vstack([
        _axis_directions(_point_slots(point_index, config.point_dim), x.size),
        _random_directions(point_index, config.point_dim, x.size, config.num_random_dirs, rng),
    ])
    kept = list(D[_feasible_mask(x, D, x_base, config.delta, lo, hi)])
    if not kept:
        raise EmptyDirectionSet(f"no feasible perturbation direction for point {point_index}")
    return kept


class _ObjectiveDerivative:
    """Directional derivative of the attack objective at a fixed iterate.

    Routes, in order of preference: a single symmetric linear solve when
    the solution map is differentiable here (no weakly active
    constraints), the auxiliary problem per direction otherwise, and a
    one-sided finite difference when regularity fails outright.
    """

    def __init__(self, model, x, solution, selector, target, value):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.solution = solution
        self.selector = selector
        self.target = target
        self.value = value
        resid = selector @ solution.y - target
        self.grad_y = 2.0 * (selector.T @ resid)
        self.aux = None
        self.gradient = None
        self._cache: dict[bytes, tuple[float, str]] = {}
        try:
            aux = build_auxiliary(model, self.x, solution)
        except RegularityFailure:
            return
        self.aux = aux
        if aux.structure.weakly_active:
            return
        # strict complementarity: dy is linear in dx, so one solve of the
        # stationarity system gives the gradient of G through the map
        nv = aux.dim_var
        rows = aux.active_rows
        k = rows.shape[0]
        K = np.zeros((nv + k, nv + k))
        K[:nv, :nv] = aux.H_aux
        if k:
            K[:nv, nv:] = rows.T
            K[nv:, :nv] = rows
        rhs = np.zeros(nv + k)
        rhs[:nv] = self.grad_y
        try:
            u = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return
        if np.abs(K @ u - rhs).max(initial=0.0) > 1e-8 * (1.0 + np.abs(rhs).max(initial=0.0)):
            return
        cross = aux.B[:nv]
        grads_strict = -aux.B[nv:][aux.structure.strict] if k else np.zeros((0, aux.dim_data))
        W = np.vstack([cross, grads_strict])
        self.gradient = -(W.T @ u)

    def dG(self, dx) -> tuple[float, str]:
        dx = np.asarray(dx, dtype=float)
        key = dx.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.gradient is not None:
            out = (float(self.gradient @ dx), "linear")
        else:
            out = None
            if self.aux is not None:
                try:
                    dy = semi_derivative(self.aux, dx)
                    out = (float(self.grad_y @ dy), "aux")
                except (AuxInfeasible, AuxUnbounded):
                    out = None
            if out is None:
                out = (self._finite_difference(dx), "fd")
        self._cache[key] = out
        return out

    def _finite_difference(self, dx):
        sol = solve_victim(self.model, self.x + FD_OBJECTIVE_STEP * dx)
        return (objective(self.selector @ sol.y, self.target) - self.value) / FD_OBJECTIVE_STEP

    def steepest_direction(self, slots: slice):
        if self.gradient is None:
            return None
        g = self.gradient[slots]
        nrm = float(np.linalg.norm(g))
        if nrm <= 0.0:
            return None
        d = np.zeros(self.gradient.size)
        d[slots] = -g / nrm
        return d


def objective_derivative(
    model: VictimModel,
    x,
    dx,
    config: AttackConfig,
    *,
    solution: KktSolution | None = None,
) -> float:
    """One-sided directional derivative of the attack objective along dx."""
    x = np.asarray(x, dtype=float)
    selector = config.resolve_selector(model.dim_var)
    sol = solution if solution is not None else solve_victim(model, x)
    value = objective(selector @ sol.y, config.target)
    ev = _ObjectiveDerivative(model, x, sol, selector, config.target, value)
    return ev.dG(dx)[0]


def _try_step(model, x, d, dg, value, config, x_base, lo, hi, selector, target):
    """Trial steps along d until the objective strictly decreases.

    Returns (x_new, solution, value_new, step) or None when rejected.
    """
    eta = -dg / config.curvature_bound
    while eta > 0.0:
        trial = project_to_feasible(x + eta * d, x_base, config.delta, lo, hi)
        if not np.array_equal(trial, x):
            sol = solve_victim(model, trial)
            val = objective(selector @ sol.y, target)
            if val < value:
                return trial, sol, val, eta
        if config.step_mode == "fixed-L":
            return None
        eta *= 0.5
        if eta < MIN_STEP:
            return None
    return None


def _attack_round(model, x, value, solution, config, *, x_base, rng, k, selector, lo, hi):
    """One accepted step, or the reason none exists.

    Probes every point at once, then works through the points in
    decreasing probe magnitude; a point whose candidates, plus its
    steepest direction when the data gradient is known, yield no strict
    decrease is set aside for the rest of the round.  Raises
    EmptyDirectionSet when no point can move at all, Stalled when movable
    points admit no sampled descent (with the smallest derivative seen as
    certificate when it clears -TOL_STALL).
    """
    target = config.target
    n_points = model.dim_data // config.point_dim
    ev = _ObjectiveDerivative(model, x, solution, selector, target, value)

    if config.random_probe:
        D = np.vstack([_random_directions(p, config.point_dim, x.size, 1, rng)
                       for p in range(n_points)])
        owner = np.arange(n_points)
    else:
        D = _axis_directions(slice(None), x.size)
        owner = np.arange(D.shape[0]) // (2 * config.point_dim)
    ok = _feasible_mask(x, D, x_base, config.delta, lo, hi)
    probe_vals = np.array([ev.dG(d)[0] for d in D[ok]], dtype=float)
    evaluated: list[float] = probe_vals.tolist()
    scores = np.full(n_points, np.inf)
    np.minimum.at(scores, owner[ok], probe_vals)
    probed = np.isfinite(scores)
    # probed points by decreasing |score| (ties by index), then the unprobed ones
    order = sorted(range(n_points), key=lambda p: (not probed[p], -abs(scores[p])))

    empty = 0
    for p in order:
        try:
            cands = feasible_directions(x, p, config, x_base=x_base, rng=rng)
        except EmptyDirectionSet:
            empty += 1
            continue
        d_st = ev.steepest_direction(_point_slots(p, config.point_dim))
        if d_st is not None and _feasible_mask(x, d_st[None], x_base, config.delta, lo, hi)[0]:
            cands.append(d_st)
        scored = [ev.dG(d) for d in cands]
        vals = [v for v, _ in scored]
        evaluated.extend(vals)
        best = int(np.argmin(vals))
        if vals[best] >= -TOL_STALL:
            continue
        outcome = _try_step(
            model, x, cands[best], vals[best], value, config, x_base, lo, hi, selector, target
        )
        if outcome is None:
            continue
        trial, sol_new, val_new, eta = outcome
        record = StepRecord(
            k=k,
            objective_value=val_new,
            point=p,
            direction=cands[best],
            derivative=vals[best],
            step=eta,
            distance=float(np.linalg.norm(trial - x_base)),
            route=scored[best][1],
        )
        return trial, sol_new, record

    if order and empty == len(order):
        raise EmptyDirectionSet("no feasible perturbation direction remains for any point")
    certificate = min(evaluated) if evaluated else None
    if certificate is not None and certificate < -TOL_STALL:
        certificate = None  # descent existed but every trial step was rejected
    raise Stalled("no candidate direction decreases the objective", certificate=certificate)


def _one_round(round_fn, x, model, config, x_base, rng, solution, k):
    """One round of round_fn at x, outside a driver; returns (x, solution, record)."""
    x = np.asarray(x, dtype=float)
    x_base = x if x_base is None else np.asarray(x_base, dtype=float)
    selector = config.resolve_selector(model.dim_var)
    lo, hi = _tile_bounds(config, model.dim_data)
    sol = solution if solution is not None else solve_victim(model, x)
    value = objective(selector @ sol.y, config.target)
    return round_fn(
        model, x, value, sol, config, x_base=x_base, rng=rng, k=k, selector=selector, lo=lo, hi=hi
    )


def attack_step(x, model: VictimModel, config: AttackConfig, *, x_base=None, rng=None,
                solution: KktSolution | None = None, k: int = 1):
    """One attack iteration: probe, select a point, direction search, step.

    Returns (x_next, record).  x_base is the pristine data anchoring the
    budget ball and defaults to x itself.  Raises Stalled when no sampled
    direction decreases the objective and EmptyDirectionSet when no point
    can move; training-solver errors propagate.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    x_next, _, record = _one_round(_attack_round, x, model, config, x_base, rng, solution, k)
    return x_next, record


def _drive(x_bar, model: VictimModel, config: AttackConfig, round_fn) -> AttackTrace:
    """Repeat round_fn from pristine data until a stopping rule fires.

    round_fn has _attack_round's signature and returns (x, solution,
    record); it raises EmptyDirectionSet or Stalled to end the run.
    """
    x_bar = np.asarray(x_bar, dtype=float).copy()
    if model.dim_data % config.point_dim:
        raise DimensionMismatch(
            f"dim_data {model.dim_data} is not a multiple of point_dim {config.point_dim}"
        )
    selector = config.resolve_selector(model.dim_var)
    lo, hi = _tile_bounds(config, model.dim_data)
    if lo is not None and (np.any(x_bar < lo) or np.any(x_bar > hi)):
        raise ValueError("pristine data violates the box bounds")
    rng = np.random.default_rng(config.seed)

    x = x_bar.copy()
    sol = solve_victim(model, x)
    value = objective(selector @ sol.y, config.target)
    initial_value = value
    records: list[StepRecord] = []
    certificate = None
    for k in range(1, config.max_iters + 1):
        if value <= config.tol_target:
            reason = "optimal"
            break
        try:
            x, sol, record = round_fn(
                model, x, value, sol, config,
                x_base=x_bar, rng=rng, k=k, selector=selector, lo=lo, hi=hi,
            )
        except EmptyDirectionSet:
            reason = "budget"
            break
        except Stalled as exc:
            reason = "stalled"
            certificate = exc.certificate
            break
        improvement = value - record.objective_value
        value = record.objective_value
        records.append(record)
        if improvement < config.tol_improve:
            reason = "stalled"
            break
    else:
        reason = "optimal" if value <= config.tol_target else "max_iters"
    return AttackTrace(x_bar, x, initial_value, records, reason, sol, certificate)


def run_attack(x_bar, model: VictimModel, config: AttackConfig) -> AttackTrace:
    """Iterate attack steps from pristine data until a stopping rule fires.

    Termination reasons: "optimal" when the objective reaches tol_target,
    "budget" when no point can move inside the ball and box, "stalled"
    when no sampled direction descends or the last improvement fell below
    tol_improve, "max_iters" otherwise.  Deterministic in config.seed.
    """
    return _drive(x_bar, model, config, _attack_round)


def _unconstrained_gradient(model, x, solution, selector, target):
    """Data gradient of the objective with the training constraints ignored.

    Chain rule through the stationarity system of the training objective
    alone; exact for the victim only when no constraint is active.
    """
    problem = model.assemble(np.asarray(x, dtype=float))
    resid = selector @ solution.y - target
    grad_y = 2.0 * (selector.T @ resid)
    cross = model.cross_hessian(x, solution.y, np.zeros(problem.n_con))
    try:
        z = np.linalg.solve(problem.H, grad_y)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian("training objective Hessian is singular") from exc
    if np.abs(problem.H @ z - grad_y).max(initial=0.0) > 1e-6 * (
        1.0 + np.abs(grad_y).max(initial=0.0)
    ):
        raise SingularHessian("training objective Hessian solve failed the residual check")
    return -(cross.T @ z)


def _gradient_round(model, x, value, solution, config, *, x_base, rng, k, selector, lo, hi):
    """One projected step down the unconstrained gradient; rng is unused."""
    grad = _unconstrained_gradient(model, x, solution, selector, config.target)
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= TOL_STALL:
        raise Stalled("objective gradient vanished", certificate=-gnorm)
    d = -grad / gnorm
    outcome = _try_step(
        model, x, d, -gnorm, value, config, x_base, lo, hi, selector, config.target
    )
    if outcome is None:
        raise Stalled("no decrease along the gradient direction", certificate=None)
    trial, sol_new, val_new, eta = outcome
    record = StepRecord(
        k=k,
        objective_value=val_new,
        point=-1,
        direction=d,
        derivative=-gnorm,
        step=eta,
        distance=float(np.linalg.norm(trial - x_base)),
        route="grad",
    )
    return trial, sol_new, record


def gradient_baseline_step(x, model: VictimModel, config: AttackConfig, *, x_base=None,
                           solution: KktSolution | None = None, k: int = 1):
    """One projected step of the classical gradient attack.

    Treats the trained parameters as an unconstrained stationary point,
    moves the whole data vector down the resulting gradient, and projects
    back into the ball and box.  Comparison baseline only.  Returns
    (x_next, record, solution).  Raises SingularHessian, and Stalled when
    the gradient vanishes or no trial length decreases the objective.
    """
    x_next, sol, record = _one_round(_gradient_round, x, model, config, x_base, None, solution, k)
    return x_next, record, sol


def run_gradient_baseline(x_bar, model: VictimModel, config: AttackConfig) -> AttackTrace:
    """Iterate the gradient baseline with the same stopping rules as run_attack."""
    return _drive(x_bar, model, config, _gradient_round)


@dataclass
class ConvergenceReport:
    """Outcome of the geometric-decay check on an attack trace."""

    passed: bool
    bound_factor: float
    worst_excess: float
    empirical_factor: float
    violations: list[int]


def convergence_check(trace: AttackTrace, sigma: float, L: float) -> ConvergenceReport:
    """Check |G_k| <= (1 - sigma/L)^k |G_0| along the trace, with slack.

    Meaningful for fixed-L runs toward an attainable target (optimal
    value zero) when the composed objective is sigma-strongly convex with
    an L-Lipschitz gradient; elsewhere it reports, never raises.
    empirical_factor is the largest observed per-step ratio.
    """
    if sigma <= 0 or L <= 0:
        raise ValueError("sigma and L must be positive")
    if sigma > L:
        raise ValueError("sigma cannot exceed L")
    factor = 1.0 - sigma / L
    history = trace.objective_history
    base = abs(history[0])
    violations = []
    worst = -np.inf
    ratios = []
    for k, value in enumerate(history):
        bound = factor**k * base * (1.0 + CONVERGENCE_REL_SLACK) + CONVERGENCE_ABS_SLACK
        excess = abs(value) - bound
        worst = max(worst, excess)
        if excess > 0:
            violations.append(k)
        if k and abs(history[k - 1]) > CONVERGENCE_ABS_SLACK:
            ratios.append(abs(value) / abs(history[k - 1]))
    return ConvergenceReport(
        passed=not violations,
        bound_factor=factor,
        worst_excess=float(worst),
        empirical_factor=max(ratios, default=0.0),
        violations=violations,
    )


def write_trace_jsonl(trace: AttackTrace, path) -> None:
    """One JSON object per accepted iteration."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace.records:
            fh.write(json.dumps(record.as_dict()) + "\n")


def write_summary_csv(trace: AttackTrace, path) -> None:
    """Objective value and displacement per iteration, starting at k=0."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective", "distance"])
        writer.writerow([0, repr(trace.initial_objective), repr(0.0)])
        for record in trace.records:
            writer.writerow([record.k, repr(record.objective_value), repr(record.distance)])
