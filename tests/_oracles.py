"""Independent test oracles.

Kept deliberately naive: correctness over speed, no shared code with the
package beyond problem containers.
"""

from __future__ import annotations

import itertools

import numpy as np


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

    Reference for qp._independent_factors: base rows enter the basis when
    their residual exceeds 1e-12; a candidate row is skipped when its norm
    is at most 1e-14 and kept when its residual exceeds 1e-8 of its norm.
    Returns the kept candidate indices in row order.
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
