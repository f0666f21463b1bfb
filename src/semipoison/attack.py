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
nonzero multiplier) they collapse to one adjoint solve on the training
solver's own factors that yields the full data gradient at once; where
regularity fails entirely, one-sided finite differences take over.

A classical gradient attack that ignores the training constraints is
included for comparison, as is a geometric-decay check for step-size
rules with a known curvature bound.
"""

from __future__ import annotations

import csv
import json
import math
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
from .qp import KktSolution, adjoint
from .sensitivity import build_auxiliary, semi_derivative
from .victims import VictimModel, solve_victim

PROBE_STEP = 1e-9
BOUNDARY_SLACK = 1e-12
TOL_STALL = 1e-9  # a derivative above -TOL_STALL is no descent
MIN_STEP = 1e-8  # backtracking gives up below this trial length
FD_OBJECTIVE_STEP = 1e-6
CONVERGENCE_REL_SLACK = 1e-6
CONVERGENCE_ABS_SLACK = 1e-15
RANDOM_DIRS = 8  # random candidate directions per point, on top of the +/- axes


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
    objective decreases.  Candidate directions are fixed: see feasible_directions.
    """

    target: np.ndarray
    delta: float
    selector: np.ndarray | None = None
    point_dim: int = 1
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    curvature_bound: float = 1.0
    step_mode: str = "backtracking"
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
        if not all(np.isfinite(a).all() for a in (self.target, self.selector) if a is not None):
            raise ValueError("target and selector entries must be finite")
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be finite and nonnegative")
        if not (np.isfinite(self.curvature_bound) and self.curvature_bound > 0):
            raise ValueError("curvature_bound must be finite and positive")
        if not (np.isfinite(self.tol_target) and np.isfinite(self.tol_improve)):
            raise ValueError("tol_target and tol_improve must be finite")
        if self.step_mode not in ("fixed-L", "backtracking"):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")
        if self.point_dim < 1:
            raise ValueError("point_dim must be at least 1")
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
            if np.isnan(self.box_lo).any() or np.isnan(self.box_hi).any():
                raise ValueError("box bounds must not be NaN")
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
    """Squared Euclidean distance between the selected output and the target.

    inf when the square overflows.
    """
    selected = np.atleast_1d(np.asarray(selected, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if selected.shape != target.shape:
        raise DimensionMismatch(
            f"selected output has shape {selected.shape}, target {target.shape}"
        )
    r = selected - target
    with np.errstate(over="ignore"):
        return float(r @ r)


def project_to_feasible(x, x_base, delta, lo=None, hi=None) -> np.ndarray:
    """Nearest practical point of the ball-and-box region.

    lo and hi bound the coordinates of each data point, lo.size of them
    (a full-length box is one point).  Clips to the box, then pulls
    radially toward the base point until the ball constraint holds; the
    base point sits inside the box, so the pull preserves box feasibility
    and the combination is exact under floating point (verified against
    the same norm the caller would use).  A distance whose square
    overflows is taken again from scaled differences, without a warning.
    """
    x_base = np.asarray(x_base, dtype=float)
    z = np.array(x, dtype=float, copy=True)
    with np.errstate(over="ignore"):
        for shrink in (None, 0.0, 1e-15, 1e-12, 1e-9):
            if shrink is not None:  # pull toward the base point
                z = x_base + (z - x_base) * ((delta / dist) * (1.0 - shrink))
            if lo is not None:
                z = np.clip(z.reshape(-1, np.size(lo)), lo, hi).ravel()
            dist = float(np.linalg.norm(z - x_base))
            if dist == np.inf:
                scale = np.abs(z - x_base).max()
                dist = scale * float(np.linalg.norm((z - x_base) / scale))
            if dist <= delta:
                return z
    return x_base.copy()  # round-off exhausted; the base point is always feasible


def _point_slots(point_index: int, point_dim: int) -> slice:
    return slice(point_index * point_dim, (point_index + 1) * point_dim)


def _feasible_mask(x, x_base, owner, V, config: AttackConfig) -> np.ndarray:
    """Rows V[i] along which a tiny step of point owner[i] stays in the ball and box.

    owner is an index array or one index for every row.  The moved data's
    squared distance is the current one with the owner's term replaced;
    the box test reads the owner's coordinates only, as the other points
    lie inside the box.
    """
    pd = config.point_dim
    r = x - x_base
    own = r.reshape(-1, pd)[owner]
    moved = own + PROBE_STEP * V
    dist = np.sqrt(np.maximum(r @ r - (own * own).sum(axis=-1), 0.0) + (moved * moved).sum(axis=1))
    ok = dist <= config.delta + BOUNDARY_SLACK * max(1.0, config.delta)
    if config.box_lo is not None:
        trial = x.reshape(-1, pd)[owner] + PROBE_STEP * V
        lo, hi = config.box_lo - BOUNDARY_SLACK, config.box_hi + BOUNDARY_SLACK
        ok &= np.all((trial >= lo) & (trial <= hi), axis=1)
    return ok


def _axis_rows(point_dim: int) -> np.ndarray:
    """Rows +e_j, -e_j of R^point_dim for every j, in that order."""
    rows = np.eye(point_dim).repeat(2, axis=0)
    rows[1::2] = 0.0 - rows[1::2]  # +0.0 off the axis: traces never print -0.0
    return rows


def _random_rows(point_dim: int, count: int, rng) -> np.ndarray:
    """count random unit rows of R^point_dim."""
    V = np.empty((count, point_dim))
    for row in V:
        v = rng.standard_normal(point_dim)
        while (nrm := math.sqrt(v @ v)) < 1e-12:  # redraw rather than divide by 0
            v = rng.standard_normal(point_dim)
        row[:] = v / nrm
    return V


def feasible_directions(x, point_index, config: AttackConfig, *, x_base=None, rng=None):
    """Candidate unit directions for one data point, as rows of length point_dim.

    The +/- coordinate axes of the point plus RANDOM_DIRS random unit
    vectors drawn from rng, keeping those along which a tiny step of the
    point stays inside both the norm ball around x_base and the box.  A
    row v moves the point's coordinates x[point_index * point_dim :
    (point_index + 1) * point_dim] and no others.

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

    pd = config.point_dim
    V = np.vstack([_axis_rows(pd), _random_rows(pd, RANDOM_DIRS, rng)])
    V = V[_feasible_mask(x, x_base, point_index, V, config)]
    if not len(V):
        raise EmptyDirectionSet(f"no feasible perturbation direction for point {point_index}")
    return V


class _ObjectiveDerivative:
    """Directional derivatives of the attack objective at a fixed iterate.

    Routes, in order of preference: one adjoint solve on the training
    solver's factors when the solution map is differentiable here (no
    weakly active constraints), the auxiliary problem per direction
    otherwise, and a one-sided finite difference when regularity fails.
    """

    def __init__(self, model, x, solution, selector, target, value):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.solution = solution
        self.selector = selector
        self.target = target
        self.value = value
        self.grad_y = 2.0 * (selector.T @ (selector @ solution.y - target))
        self.aux = None
        self.gradient = None
        self._cache: dict[tuple[int, bytes], tuple[float, str]] = {}
        try:
            aux = build_auxiliary(model, self.x, solution)
        except RegularityFailure:
            return
        self.aux = aux
        if aux.structure.weakly_active:
            return
        # strict complementarity: dy is linear in dx, so one adjoint solve
        # gives the gradient of G.  Only working rows carry nonzero multipliers
        # and LICQ held, so the solver's final working set is the strict set.
        # B = [B_y; B_con] stacks the data derivatives of the Lagrangian's
        # y-gradient over those of every constraint row.
        pair = adjoint(solution, self.grad_y)
        if pair is not None:
            u, nu = pair
            B, nv = aux.B, aux.dim_var
            self.gradient = -(B[:nv].T @ u - B[nv:][solution.working].T @ nu)

    def dG(self, owner, V: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Derivatives along the rows of V, and the route behind each.

        Row V[i] moves point owner[i] (an index array, or one index for all
        rows) in its V.shape[1] coordinates.  The linear route reads the
        owner's slice of the gradient; the aux and fd routes expand each
        row to full length and cache its value by (point, row bytes).
        """
        if self.gradient is not None:
            G = self.gradient.reshape(-1, V.shape[1])
            return (V * G[owner]).sum(axis=1), ["linear"] * len(V)
        owner = np.broadcast_to(owner, len(V))
        scored = [self._per_direction(int(p), v) for p, v in zip(owner, V)]
        return np.array([v for v, _ in scored], dtype=float), [r for _, r in scored]

    def _per_direction(self, p, v) -> tuple[float, str]:
        key = (p, v.tobytes())
        if key not in self._cache:
            dx = np.zeros(self.x.size)
            dx[_point_slots(p, v.size)] = v
            out = None
            if self.aux is not None:
                try:
                    out = (float(self.grad_y @ semi_derivative(self.aux, dx)), "aux")
                except (AuxInfeasible, AuxUnbounded):
                    pass
            self._cache[key] = out or (self._finite_difference(dx), "fd")
        return self._cache[key]

    def _finite_difference(self, dx):
        sol = solve_victim(self.model, self.x + FD_OBJECTIVE_STEP * dx, warm=self.solution)
        return (objective(self.selector @ sol.y, self.target) - self.value) / FD_OBJECTIVE_STEP

    def steepest_direction(self, p: int, point_dim: int):
        """Row -g / |g| for the gradient's slice g at point p, as dG takes it.

        None off the linear route or where g vanishes.
        """
        if self.gradient is None:
            return None
        g = self.gradient[_point_slots(p, point_dim)]
        nrm = float(np.linalg.norm(g))
        return -g / nrm if nrm > 0.0 else None


def _try_step(model, x, solution, d, dg, value, config, x_base, selector):
    """Trial steps along d until the objective strictly decreases.

    Each trial re-solves the victim warm from solution, the one at x.
    The first trial is at most the ball's diameter long: a longer one
    projects onto the boundary too, and halving it re-solves near there.
    Returns (x_new, solution, value_new, step) or None when rejected,
    also when the first trial step overflows: halving never makes inf
    smaller than MIN_STEP.
    """
    eta = -dg / config.curvature_bound  # positive: callers pass dg < 0
    if not np.isfinite(eta):
        return None
    eta = min(eta, 2.0 * config.delta / float(np.linalg.norm(d)))
    while True:
        trial = project_to_feasible(
            x + eta * d, x_base, config.delta, config.box_lo, config.box_hi
        )
        if not np.array_equal(trial, x):
            sol = solve_victim(model, trial, warm=solution)
            val = objective(selector @ sol.y, config.target)
            if val < value:
                return trial, sol, val, eta
        if config.step_mode == "fixed-L":
            return None
        eta *= 0.5
        if eta < MIN_STEP:
            return None


def _attack_round(model, x, value, solution, config, *, x_base, rng, k, selector):
    """One accepted step, or the reason none exists.

    Probes every point at once, then works through the points in
    decreasing probe magnitude; a point whose candidates, plus its
    steepest direction when the data gradient is known, yield no strict
    decrease is set aside for the rest of the round.  Every direction is
    a row of length point_dim moving one point.  Raises
    EmptyDirectionSet when no point can move at all, Stalled when movable
    points admit no sampled descent (with the smallest derivative seen as
    certificate when it clears -TOL_STALL).
    """
    pd = config.point_dim
    n_points = model.dim_data // pd
    ev = _ObjectiveDerivative(model, x, solution, selector, config.target, value)

    V = np.tile(_axis_rows(pd), (n_points, 1))
    owner = np.repeat(np.arange(n_points), 2 * pd)  # each point's +/- axes, consecutively
    ok = _feasible_mask(x, x_base, owner, V, config)
    probe_vals, _ = ev.dG(owner[ok], V[ok])
    evaluated = [probe_vals]
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
        v_st = ev.steepest_direction(p, pd)
        if v_st is not None and _feasible_mask(x, x_base, p, v_st[None], config)[0]:
            cands = np.vstack([cands, v_st])
        vals, routes = ev.dG(p, cands)
        evaluated.append(vals)
        best = int(np.argmin(vals))
        dg = float(vals[best])
        if dg >= -TOL_STALL:
            continue
        d = np.zeros(x.size)
        d[_point_slots(p, pd)] = cands[best]
        outcome = _try_step(model, x, solution, d, dg, value, config, x_base, selector)
        if outcome is None:
            continue
        trial, sol_new, val_new, eta = outcome
        record = StepRecord(
            k=k,
            objective_value=val_new,
            point=p,
            direction=d,
            derivative=dg,
            step=eta,
            distance=float(np.linalg.norm(trial - x_base)),
            route=routes[best],
        )
        return trial, sol_new, record

    if order and empty == len(order):
        raise EmptyDirectionSet("no feasible perturbation direction remains for any point")
    evaluated = np.concatenate(evaluated)
    certificate = float(evaluated.min()) if evaluated.size else None
    if certificate is not None and certificate < -TOL_STALL:
        certificate = None  # descent existed but every trial step was rejected
    raise Stalled("no candidate direction decreases the objective", certificate=certificate)


def _drive(x_bar, model: VictimModel, config: AttackConfig, round_fn) -> AttackTrace:
    """Repeat round_fn from pristine data until a stopping rule fires.

    round_fn has _attack_round's signature and returns (x, solution,
    record); it raises EmptyDirectionSet or Stalled to end the run.
    Raises ValueError before the first round when the pristine data lies
    outside the box or its objective is not finite.
    """
    x_bar = np.asarray(x_bar, dtype=float).copy()
    if model.dim_data % config.point_dim:
        raise DimensionMismatch(
            f"dim_data {model.dim_data} is not a multiple of point_dim {config.point_dim}"
        )
    selector = config.resolve_selector(model.dim_var)
    sol = solve_victim(model, x_bar)
    value = objective(selector @ sol.y, config.target)
    if not np.isfinite(value):
        raise ValueError(f"objective at the data is {value}; the target is out of range")
    points = x_bar.reshape(-1, config.point_dim)
    if config.box_lo is not None and np.any((points < config.box_lo) | (points > config.box_hi)):
        raise ValueError("pristine data violates the box bounds")
    rng = np.random.default_rng(config.seed)
    x = x_bar.copy()
    initial_value = value
    records: list[StepRecord] = []
    certificate = None
    for k in range(1, config.max_iters + 1):
        if value <= config.tol_target:
            reason = "optimal"
            break
        try:
            x, sol, record = round_fn(
                model, x, value, sol, config, x_base=x_bar, rng=rng, k=k, selector=selector
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


def _gradient_round(model, x, value, solution, config, *, x_base, rng, k, selector):
    """One projected step down the data gradient with the constraints ignored.

    Exact only where no training constraint is active; rng is unused.
    """
    H, y = solution.problem.H, solution.y
    grad_y = 2.0 * (selector.T @ (selector @ y - config.target))
    cross = model.cross_hessian(x, y, np.zeros(solution.problem.n_con))
    try:
        u = np.linalg.solve(H, grad_y)
    except np.linalg.LinAlgError:
        raise SingularHessian("training objective Hessian is singular") from None
    grad = -(cross.T @ u)
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= TOL_STALL:
        raise Stalled("objective gradient vanished", certificate=-gnorm)
    d = -grad / gnorm
    outcome = _try_step(model, x, solution, d, -gnorm, value, config, x_base, selector)
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
