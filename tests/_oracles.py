"""Independent test oracles, the 1-D victim fixtures, planted kinks and a soft-margin SVM.

Kept deliberately naive: correctness over speed.  The oracles share no
code with the package beyond problem containers, except the reference
attack round, which scores with the package's derivative object and
draws the package's random rows, so that only the round's own search is
compared; the 1-D fixtures and the planted kinks are affine QP families,
and the soft-margin SVM is the package's own victim on its synthetic
data.  fresh_working_minimizer recomputes, on the package's factors,
what qp.working_minimizer keeps from the solve, and
reference_licq_margin the LICQ margin by the QR that
sensitivity.build_auxiliary no longer runs.

EXAMPLES scales the example counts of the hypothesis properties that
guard the solver and the derivative: SEMIPOISON_TEST_EXAMPLES=10 runs
them at 10x (default 1).  The package reads no such variable.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from semipoison import attack
from semipoison.data import Dataset, normalize, synth_lane_change
from semipoison.errors import EmptyDirectionSet, Stalled
from semipoison.victims import SvmModel, VictimModel, _AffineQpFamily, svm_victim

EXAMPLES = int(os.environ.get("SEMIPOISON_TEST_EXAMPLES", "1"))


def enumerate_qp(H, c, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None, tol=1e-9):
    """Brute-force KKT point of a convex QP by active-set enumeration.

    Solves the equality-constrained subproblem for every subset of the
    inequality constraints (plus all equalities) and returns the feasible
    KKT point with the smallest objective value, as (y, lam, value), or
    None if no subset yields one.  Exponential in the number of
    inequalities; use only on small problems.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    n = H.shape[0]
    A_ineq = np.zeros((0, n)) if A_ineq is None else np.asarray(A_ineq, dtype=float)
    b_ineq = np.zeros(0) if b_ineq is None else np.asarray(b_ineq, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    r, m_eq = A_ineq.shape[0], A_eq.shape[0]

    best = None
    for size in range(r + 1):
        for subset in itertools.combinations(range(r), size):
            rows = np.vstack([A_ineq[list(subset)], A_eq]) if subset or m_eq else np.zeros((0, n))
            k = rows.shape[0]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            if k:
                kkt[:n, n:] = rows.T
                kkt[n:, :n] = rows
            rhs = np.concatenate([-c, -np.concatenate([b_ineq[list(subset)], b_eq])])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.abs(kkt @ sol - rhs).max(initial=0.0) > tol * (1.0 + np.abs(rhs).max(initial=0.0)):
                continue  # singular and inconsistent: no KKT point with this active set
            y = sol[:n]
            mults = sol[n:]
            lam_ineq = np.zeros(r)
            for j, i in enumerate(subset):
                lam_ineq[i] = mults[j]
            if lam_ineq.min(initial=0.0) < -tol:
                continue
            if r and (A_ineq @ y + b_ineq).max(initial=-np.inf) > tol:
                continue
            if m_eq and np.abs(A_eq @ y + b_eq).max(initial=0.0) > tol:
                continue
            value = float(0.5 * y @ H @ y + c @ y)
            if best is None or value < best[2] - 1e-12:
                best = (y, np.concatenate([lam_ineq, mults[size:]]), value)
    return best


def fd_solution_derivative(solve, x, dx, h=1e-5):
    """One-sided finite-difference derivative of a solution map.

    `solve` maps a data vector to the primal solution vector.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    return (solve(x + h * dx) - solve(x)) / h


def validate_derivative_callbacks(model, x, y, lam, h=1e-6, tol=1e-5):
    """Check a victim's analytic callbacks against central finite differences.

    Raises AssertionError on disagreement.  Exercises every entry of the
    constraint Jacobian and of the cross Hessian.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)

    def values_and_lagrangian_grad(xv):
        """Constraint values and the Lagrangian's y-gradient, from one assembly."""
        prob = model.assemble(xv)
        g = prob.H @ y + prob.c
        if prob.n_con:
            g = g + prob.A.T @ lam
        return prob.constraint_values(y), g

    m = model.assemble(x).n_con
    fd_rows = np.zeros((m, model.dim_data))
    fd_cross = np.zeros((model.dim_var, model.dim_data))
    for j in range(model.dim_data):
        e = np.zeros(model.dim_data)
        e[j] = h
        values_plus, grad_plus = values_and_lagrangian_grad(x + e)
        values_minus, grad_minus = values_and_lagrangian_grad(x - e)
        fd_rows[:, j] = (values_plus - values_minus) / (2 * h)
        fd_cross[:, j] = (grad_plus - grad_minus) / (2 * h)
    got = np.asarray(model.grad_x_constraint(x, y), dtype=float)
    if got.shape != fd_rows.shape or np.abs(got - fd_rows).max(initial=0.0) > tol:
        raise AssertionError("grad_x_constraint disagrees with finite differences")
    got = model.cross_hessian(x, y, lam)
    if np.abs(got - fd_cross).max(initial=0.0) > tol:
        raise AssertionError("cross_hessian disagrees with finite differences")


def independent_subset_mgs(rows, base):
    """Greedy independent-row selection by one modified Gram-Schmidt pass.

    Reference for qp._independent_factors, which factors a leading run of
    bounds in closed form and joins the other rows one Householder
    reflection at a time: base rows enter the basis when their residual
    exceeds 1e-12; a candidate row is skipped when its norm is at most
    1e-14 and kept when its residual exceeds 1e-8 of its norm.  Returns
    the kept candidate indices in row order.
    """
    basis = []
    for r in base:
        v = np.array(r, dtype=float)
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            basis.append(v / nrm)
    keep = []
    for idx in range(rows.shape[0]):
        v = np.array(rows[idx], dtype=float)
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


def lstsq_multipliers(rows, grad):
    """Least-squares solution of rows' lam = -grad, by numpy's lstsq.

    Reference for the working-set multipliers of qp.solve_qp, which takes
    them from the factorization of the working rows it already holds.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] == 0:
        return np.zeros(0)
    lam, *_ = np.linalg.lstsq(rows.T, -np.asarray(grad, dtype=float), rcond=None)
    return lam


def dense_kkt_gradient(H, rows, W, grad_y):
    """Data gradient -W' u from one dense solve of a stationarity system.

    u solves [[H, rows'], [rows, 0]] u = [grad_y, 0], and W stacks the
    data derivatives of the Lagrangian's y-gradient over those of the
    rows.  Reference for the attack's data gradient, which the package
    computes on the training solver's own factors of the working rows.
    """
    H = np.asarray(H, dtype=float)
    rows = np.asarray(rows, dtype=float)
    nv, k = H.shape[0], rows.shape[0]
    K = np.zeros((nv + k, nv + k))
    K[:nv, :nv] = H
    K[:nv, nv:] = rows.T
    K[nv:, :nv] = rows
    rhs = np.concatenate([np.asarray(grad_y, dtype=float), np.zeros(k)])
    return -(np.asarray(W, dtype=float).T @ np.linalg.solve(K, rhs))


def fresh_working_minimizer(problem, factors, c, b):
    """qp.working_minimizer's d with nothing kept: y moved from zero onto the rows, Z'HZ decomposed anew.

    b None stands for zero offsets, as it does for qp.working_minimizer.
    The same arithmetic in the same order as the package's reduced
    solve before it kept its decomposition on the factors, so the two
    agree bit for bit wherever the kept decomposition is the one this
    computes.  None where the objective is unbounded on the rows.
    """
    b = np.zeros(problem.n_con) if b is None else b
    H, y0 = problem.H, factors.onto(np.zeros_like(c), problem.A, b)
    Z = factors.null_space
    if Z.shape[1] == 0:
        return y0
    gr = Z.T @ (H @ y0 + c)
    Hr = Z.T @ H @ Z
    w, V = (Hr[0], np.ones((1, 1))) if Hr.shape[0] == 1 else np.linalg.eigh(0.5 * (Hr + Hr.T))
    eps = 1e-11 * max(float(w.max(initial=0.0)), 1.0)
    pos = w > eps
    if (w < -eps).any():
        return None
    if np.count_nonzero(pos) < gr.size:
        gz = gr - V[:, pos] @ (V[:, pos].T @ gr)
        if np.abs(gz).max(initial=0.0) > 1e-9 * (1.0 + np.abs(gr).max(initial=0.0)):
            return None
    return y0 + Z @ (-V[:, pos] @ ((V[:, pos].T @ gr) / w[pos]))


def axis_directions(slots, dim_data):
    """Full-length rows +e_j, -e_j for every coordinate j in slots, in that order.

    Reference for the attack's point-local axis rows, which keep only a
    point's own coordinates.
    """
    cols = np.arange(dim_data)[slots]
    rows = 2 * np.arange(cols.size)
    D = np.zeros((2 * cols.size, dim_data))
    D[rows, cols] = 1.0
    D[rows + 1, cols] = -1.0
    return D


def dense_feasible_mask(x, D, x_base, delta, lo, hi, probe_step=1e-9, slack=1e-12):
    """Rows of D along which a step of probe_step stays inside the ball and the box.

    Reference for the attack's point-local feasibility test: every row is
    a full-length direction, the whole trial point is built, and lo/hi
    (or None) bound every coordinate.
    """
    trial = x + probe_step * D
    ok = np.linalg.norm(trial - x_base, axis=1) <= delta + slack * max(1.0, delta)
    if lo is not None:
        ok &= np.all((trial >= lo - slack) & (trial <= hi + slack), axis=1)
    return ok


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
    return fam.as_victim()


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
    return fam.as_victim()


def soft_margin_svm(n: int, seed: int, flips) -> tuple[VictimModel, np.ndarray]:
    """synth_lane_change(n, seed), labels at flips flipped, normalized: (victim, data vector).

    The classes no longer separate, so some points carry a positive slack
    and their slack-sign bounds leave and rejoin the solver's working set.
    """
    data = synth_lane_change(n, seed=seed)
    labels = data.labels.copy()
    labels[list(flips)] *= -1
    data = normalize(Dataset(data.features, labels, seed=seed))
    return svm_victim(SvmModel(data.features, data.labels, C=10.0)), data.features.ravel()


def planted_kink_model(seed: int) -> tuple[VictimModel, np.ndarray, int]:
    """A random affine QP family with one weakly active row planted exactly at x: (victim, x, w).

    y* is drawn, and so are the rows: 0-4 strictly active ones (an
    equality among them at times), the weakly active row w, and 0-2
    inactive ones with slack 0.5-1.5; about 30 % of them are bounds (one
    nonzero, which no x moves), the active ones on distinct variables.
    The offsets put each active row exactly at 0 at (x, y*), the strict
    rows get multipliers in [0.5, 2], and c0 makes y* stationary, so KKT
    holds at x with g_w = 0 and lambda_w = 0, up to the round-off of
    those products.  H is positive definite, so the second-order
    condition holds.
    """
    rng = np.random.default_rng(seed)
    n, dim_data = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    n_strict, n_free = int(rng.integers(0, n)), int(rng.integers(0, 3))
    n_eq = int(n_strict > 0 and rng.random() < 0.3)
    m = n_strict + 1 + n_free
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.T
    rows_a = rng.standard_normal((m, n))
    rows_M = 0.3 * rng.standard_normal((m, n, dim_data))
    bound = rng.random(m) < 0.3
    var = np.append(rng.permutation(n), rng.integers(0, n, m))  # the active rows, 0..n_strict, differ
    for i in np.flatnonzero(bound):
        j = int(var[i])
        rows_a[i] = 0.0
        rows_a[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        rows_M[i] = 0.0
    rows_beta = rng.standard_normal((m, dim_data))
    y, x = rng.standard_normal(n), 0.2 * rng.standard_normal(dim_data)
    lam, slack = np.zeros(m), np.zeros(m)
    lam[:n_strict] = rng.uniform(0.5, 2.0, n_strict)  # rows n_strict - n_eq .. n_strict - 1: equalities
    slack[n_strict + 1 :] = rng.uniform(0.5, 1.5, n_free)
    # inequality rows in random order, then the equality rows
    ineq = np.concatenate([np.arange(n_strict - n_eq), np.arange(n_strict, m)])
    order = np.concatenate([rng.permutation(ineq), np.arange(n_strict - n_eq, n_strict)])
    rows_a, rows_M, rows_beta, lam, slack = (a[order] for a in (rows_a, rows_M, rows_beta, lam, slack))
    A = rows_a + rows_M @ x
    rows_b0 = -(A @ y) - rows_beta @ x - slack
    Cx = rng.standard_normal((n, dim_data))
    c0 = -(H @ y + Cx @ x + A.T @ lam)
    fam = _AffineQpFamily(H, c0, Cx, rows_a, rows_M, rows_b0, rows_beta, m - n_eq)
    return fam.as_victim(), x, int(np.flatnonzero(order == n_strict)[0])


def with_copied_row(model: VictimModel, i: int) -> VictimModel:
    """An affine QP family's victim with a copy of its row i added as the last inequality row."""
    fam = model.assemble.__self__
    r = fam.n_ineq
    rows = (fam.rows_a, fam.rows_M, fam.rows_b0, fam.rows_beta)
    rows = (np.concatenate([a[:r], a[i : i + 1], a[r:]]) for a in rows)
    return _AffineQpFamily(fam.H, fam.c0, fam.Cx, *rows, r + 1).as_victim()


def reference_licq_margin(solution, active) -> float:
    """Smallest |R_jj| / |a_j| over the active rows: the working rows first, the others by one QR.

    The working rows' ratios are read off the solver's factors (1 for a
    bound); the other active rows, in active order, are factored by a
    QR of Z'A[extra]', Z the working rows' null space.  More of them
    than its dimension leave a zero residual.  What
    sensitivity.build_auxiliary computed before it joined those rows to
    a copy of the factors.
    """
    A, factors = solution.problem.A, solution.factors
    extra = [i for i in active if i not in factors.rows]
    Z = factors.null_space
    if len(extra) > Z.shape[1]:
        return 0.0
    resid = 1.0 / np.abs(factors.T.diagonal()[: factors.general.size])
    norms = np.array(factors.norms)
    if extra:
        R = np.linalg.qr(Z.T @ A[extra].T, mode="r")
        resid = np.append(resid, np.abs(R.diagonal()))
        norms = np.append(norms, np.linalg.norm(A[extra], axis=1))
    ratio = np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0.0)
    return float(ratio.min(initial=1.0 if factors.fixed.size else np.inf))


def qr_licq_margin(rows) -> float:
    """Smallest |R_jj| / |a_j| of rows, k <= n of them, by a dense QR of rows' in their order."""
    R = np.linalg.qr(np.asarray(rows, dtype=float).T, mode="r")
    return float((np.abs(R.diagonal()) / np.linalg.norm(rows, axis=1)).min(initial=np.inf))


def _reference_mask(x, x_base, owner, V, config):
    """Rows V[i] along which a tiny step of point owner[i] stays in the ball and box, row by row."""
    pd = config.point_dim
    r = x - x_base
    own = r.reshape(-1, pd)[owner]
    moved = own + attack.PROBE_STEP * V
    dist = np.sqrt(np.maximum(r @ r - (own * own).sum(axis=-1), 0.0) + (moved * moved).sum(axis=1))
    ok = dist <= config.delta + attack.BOUNDARY_SLACK * max(1.0, config.delta)
    if config.box_lo is not None:
        trial = x.reshape(-1, pd)[owner] + attack.PROBE_STEP * V
        lo, hi = config.box_lo - attack.BOUNDARY_SLACK, config.box_hi + attack.BOUNDARY_SLACK
        ok &= np.all((trial >= lo) & (trial <= hi), axis=1)
    return ok


def _reference_point_rows(ev, x, p, config, x_base, rng, n_probed):
    """A searched point's rows past its probe rows, with a one-row test of its steepest row."""
    pd = config.point_dim
    v_st = ev.steepest_direction(p, pd)
    steep = v_st is not None and _reference_mask(x, x_base, p, v_st[None], config)[0]
    if steep and n_probed:
        rng.standard_normal((attack.RANDOM_DIRS, pd))
        return v_st[None]
    V = np.vstack([attack._axis_rows(pd), attack._random_rows(pd, attack.RANDOM_DIRS, rng)])
    V = V[_reference_mask(x, x_base, p, V, config)]
    if not len(V):
        if steep:
            return v_st[None]
        raise EmptyDirectionSet(f"no feasible perturbation direction for point {p}")
    rows = V[n_probed:]
    return np.vstack([rows, v_st]) if steep else rows


def reference_attack_round(model, x, value, solution, config, *, x_base, rng, k, selector, try_step):
    """attack._attack_round point by point, with try_step in place of attack._try_step.

    Reference for the round's array pass: the axis rows are tiled per
    point and tested row by row, the probe scores are folded per point
    with np.minimum.at, the points are ordered by a Python sort keyed on
    (not probed, -|score|), and each searched point's steepest row gets a
    one-row feasibility test.  A linear-route point whose steepest row is
    feasible and whose sampled set is empty scores that row alone.
    Derivatives come from the package's attack._ObjectiveDerivative.
    """
    pd = config.point_dim
    n_points = model.dim_data // pd
    ev = attack._ObjectiveDerivative(model, x, solution, selector, config.target, value)
    V = np.tile(attack._axis_rows(pd), (n_points, 1))
    owner = np.repeat(np.arange(n_points), 2 * pd)
    ok = _reference_mask(x, x_base, owner, V, config)
    V = V[ok]
    probe_vals = ev.dG(owner[ok], V)
    evaluated = [probe_vals]
    scores = np.full(n_points, np.inf)
    np.minimum.at(scores, owner[ok], probe_vals)
    first = np.searchsorted(owner[ok], np.arange(n_points + 1))
    probed = np.isfinite(scores)
    order = sorted(range(n_points), key=lambda p: (not probed[p], -abs(scores[p])))
    empty = 0
    for p in order:
        lo, hi = first[p], first[p + 1]
        try:
            rows = _reference_point_rows(ev, x, p, config, x_base, rng, hi - lo)
        except EmptyDirectionSet:
            empty += 1
            continue
        cands = np.vstack([V[lo:hi], rows])
        new_vals = ev.dG(p, rows)
        evaluated.append(new_vals)
        vals = np.concatenate([probe_vals[lo:hi], new_vals])
        best = int(np.argmin(vals))
        dg = float(vals[best])
        if dg >= -attack.TOL_STALL:
            continue
        d = np.zeros(x.size)
        d[p * pd:(p + 1) * pd] = cands[best]
        outcome = try_step(
            model, x, solution, d, dg, value, config, x_base, selector,
            k=k, point=p, route=ev.route,
        )
        if outcome is not None:
            return outcome
    if order and empty == len(order):
        raise EmptyDirectionSet("no feasible perturbation direction remains for any point")
    seen = np.concatenate(evaluated)
    certificate = float(seen.min()) if seen.size and seen.min() >= -attack.TOL_STALL else None
    raise Stalled("no candidate direction decreases the objective", certificate=certificate)
