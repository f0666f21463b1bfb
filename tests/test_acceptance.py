"""Acceptance gate: eight criteria, one test and one printed verdict each.

Run with ``pytest -v tests/test_acceptance.py``; each test prints its
``criterion N: PASS/FAIL`` line directly to the terminal (bypassing
capture) in addition to the usual pytest outcome.
"""

import time

import numpy as np
import pytest

from semipoison.attack import (
    AttackConfig,
    attack_step,
    convergence_check,
    gradient_baseline_step,
    run_attack,
    run_gradient_baseline,
)
from semipoison.cli import toy_report
from semipoison.data import normalize, normalized_box, synth_lane_change
from semipoison.qp import solve_qp
from semipoison.sensitivity import build_auxiliary, run_oracle_trials, semi_derivative
from semipoison.victims import (
    SvmModel,
    generic_parametric_qp,
    kink_projection_model,
    solve_victim,
    svm_victim,
)

from _oracles import enumerate_qp
from test_qp import random_feasible_qp

SVM_SEEDS = range(10)
SCENARIO_SEED = 3
SVM_DELTA = 3.0
KINK_DELTA = 2.0


def verdict(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number}: {detail}"


def svm_scenario(seed, n=20):
    data = normalize(synth_lane_change(n, seed=seed))
    model = svm_victim(SvmModel(data.features, data.labels, C=10.0))
    selector = np.zeros((1, model.dim_var))
    selector[0, 0] = 1.0
    selector[0, 1] = -1.0
    config = AttackConfig(
        target=np.zeros(1),
        delta=SVM_DELTA,
        selector=selector,
        point_dim=2,
        curvature_bound=20.0,
        max_iters=200,
        tol_target=1e-10,
        tol_improve=1e-14,
        seed=seed,
    )
    return data, model, config


@pytest.fixture(scope="module")
def oracle_trials():
    start = time.monotonic()
    results = run_oracle_trials(200, seed=0)
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def kink_run():
    model = kink_projection_model()
    config = AttackConfig(
        target=np.array([1.0]),
        delta=KINK_DELTA,
        curvature_bound=2.0,
        step_mode="fixed-L",
        max_iters=50,
        tol_target=1e-12,
    )
    start = time.monotonic()
    trace = run_attack(np.zeros(1), model, config)
    return trace, time.monotonic() - start


@pytest.fixture(scope="module")
def svm_runs():
    runs = {}
    for seed in SVM_SEEDS:
        data, model, config = svm_scenario(seed)
        x0 = data.features.ravel()
        start = time.monotonic()
        semi = run_attack(x0, model, config)
        elapsed = time.monotonic() - start
        grad = run_gradient_baseline(x0, model, config)
        runs[seed] = {"semi": semi, "grad": grad, "elapsed": elapsed}
    return runs


@pytest.fixture(scope="module")
def boxed_iterates():
    """Stepwise box-constrained SVM attack, every iterate kept."""
    data, model, config = svm_scenario(SCENARIO_SEED)
    lo, hi = normalized_box([-3.0, 5.0], [3.0, 60.0], data)
    config = AttackConfig(
        target=config.target,
        delta=2.5,
        selector=config.selector,
        point_dim=2,
        box_lo=lo,
        box_hi=hi,
        curvature_bound=20.0,
        max_iters=40,
        tol_target=1e-10,
        seed=SCENARIO_SEED,
    )
    x_bar = data.features.ravel()
    rng = np.random.default_rng(config.seed)
    sol = solve_victim(model, x_bar)
    iterates = []
    x = x_bar
    from semipoison.errors import EmptyDirectionSet, Stalled

    for k in range(1, config.max_iters + 1):
        try:
            x, record = attack_step(x, model, config, x_base=x_bar, rng=rng, k=k)
        except (Stalled, EmptyDirectionSet):
            break
        iterates.append(x)
        if record.objective_value <= config.tol_target:
            break
    lo_full = np.tile(lo, len(x_bar) // 2)
    hi_full = np.tile(hi, len(x_bar) // 2)
    return x_bar, iterates, config, lo_full, hi_full


def test_criterion_1_semi_derivative_oracle_agreement(oracle_trials, capsys):
    results, elapsed = oracle_trials
    ok = [r for r in results if r.status == "ok"]
    worst = max(r.deviation for r in ok)
    passed = len(ok) == 200 and worst <= 5e-4 and elapsed <= 60.0
    verdict(
        capsys, 1, passed,
        f"200 fixtures, worst relative deviation {worst:.2e} <= 5e-4, {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_kink_one_sided_values(capsys):
    model = kink_projection_model()
    x = np.zeros(1)
    sol = solve_victim(model, x)
    right = float(semi_derivative(build_auxiliary(model, x, sol), np.array([1.0]))[0])
    left = float(semi_derivative(build_auxiliary(model, x, sol), np.array([-1.0]))[0])
    report = toy_report()
    passed = (
        abs(right - 1.0) <= 1e-9
        and abs(left - 0.0) <= 1e-9
        and abs(report["rate_right"] - 3.0) <= 1e-9
        and abs(report["rate_left"] - 1.0) <= 1e-9
        and report["chosen_direction"] == 1
    )
    verdict(
        capsys, 2, passed,
        f"kink one-sided values ({right:.6f}, {left:.6f}) vs (1, 0), toy rates "
        f"({report['rate_right']:.6f}, {report['rate_left']:.6f}) vs (3, 1), direction +1",
    )


def test_criterion_3_reduction_to_classical_gradient(capsys):
    worst = 0.0
    for seed in range(5):
        model = generic_parametric_qp(seed, dim_var=3 + seed % 3, dim_data=2 + seed % 2,
                                      n_ineq=0, n_eq=0)
        config = AttackConfig(
            target=np.zeros(model.dim_var),
            delta=10.0,
            point_dim=model.dim_data,
            curvature_bound=5.0,
            seed=seed,
        )
        x = 0.3 * np.ones(model.dim_data)
        rng = np.random.default_rng(seed)
        _, rec_semi = attack_step(x, model, config, x_base=x, rng=rng)
        _, rec_grad, _ = gradient_baseline_step(x, model, config, x_base=x)
        worst = max(worst, float(np.abs(rec_semi.direction - rec_grad.direction).max()))
    passed = worst <= 1e-8
    verdict(capsys, 3, passed, f"unconstrained direction gap {worst:.2e} <= 1e-8 over 5 seeds")


def test_criterion_4_geometric_convergence_bound(capsys):
    model = generic_parametric_qp(5, dim_var=3, dim_data=2, n_ineq=0, n_eq=0)
    x0 = np.zeros(2)
    x_star = np.array([0.7, -0.4])
    target = solve_victim(model, x_star).y
    problem = model.assemble(x0)
    cross = model.cross_hessian(x0, solve_victim(model, x0).y, np.zeros(0))
    sensitivity = -np.linalg.solve(problem.H, cross)
    evals = np.linalg.eigvalsh(2.0 * sensitivity.T @ sensitivity)
    sigma, big_l = float(evals[0]), float(evals[-1])
    config = AttackConfig(
        target=target,
        delta=50.0,
        point_dim=2,
        curvature_bound=big_l,
        step_mode="fixed-L",
        max_iters=20,
        tol_target=0.0,
        tol_improve=0.0,
        seed=0,
    )
    trace = run_attack(x0, model, config)
    report = convergence_check(trace, sigma, big_l)
    passed = len(trace.records) == 20 and report.passed
    verdict(
        capsys, 4, passed,
        f"20 iterations, empirical factor {report.empirical_factor:.3f} <= "
        f"bound {report.bound_factor:.3f}, worst excess {report.worst_excess:.2e}",
    )


def test_criterion_5_attainable_target_convergence(kink_run, svm_runs, capsys):
    kink_trace, kink_elapsed = kink_run
    scenario = svm_runs[SCENARIO_SEED]
    semi = scenario["semi"]
    gap_start = float(np.sqrt(semi.initial_objective))
    gap_final = float(np.sqrt(semi.final_objective))
    reduction = 1.0 - gap_final / gap_start
    history = semi.objective_history
    monotone = all(b <= a for a, b in zip(history, history[1:]))
    runtime = kink_elapsed + scenario["elapsed"]
    passed = (
        kink_trace.final_objective <= 1e-6
        and reduction >= 0.95
        and len(semi.records) <= 200
        and monotone
        and runtime <= 30.0
    )
    verdict(
        capsys, 5, passed,
        f"kink G {kink_trace.final_objective:.1e} <= 1e-6, weight-gap reduction "
        f"{100 * reduction:.2f}% >= 95% in {len(semi.records)} iters, monotone={monotone}, "
        f"{runtime:.1f}s <= 30s",
    )


def test_every_derivative_route_is_exercised(svm_runs):
    # scenario 3 has a LICQ failure (fd route), scenario 4 weakly active
    # constraints (aux route); these keep the per-direction probe path in use
    routes = {seed: [r.route for r in run["semi"].records] for seed, run in svm_runs.items()}
    assert all(set(r) <= {"linear", "aux", "fd"} for r in routes.values())
    assert "fd" in routes[3]
    assert "aux" in routes[4]


def test_criterion_6_baseline_ordering(svm_runs, capsys):
    never_worse = all(
        run["semi"].final_objective <= run["grad"].final_objective
        for run in svm_runs.values()
    )
    strict = sum(
        run["semi"].final_objective < run["grad"].final_objective
        for run in svm_runs.values()
    )
    passed = never_worse and strict >= 8
    verdict(
        capsys, 6, passed,
        f"semi <= baseline in 10/10 runs: {never_worse}, strictly better in {strict}/10 >= 8",
    )


def test_criterion_7_constraint_respect(kink_run, svm_runs, boxed_iterates, capsys):
    eps = 4 * np.finfo(float).eps
    worst_ball = 0.0
    for run in svm_runs.values():
        for record in run["semi"].records:
            worst_ball = max(worst_ball, record.distance / SVM_DELTA)
        final = float(np.linalg.norm(run["semi"].x_final - run["semi"].x_initial))
        worst_ball = max(worst_ball, final / SVM_DELTA)
    kink_trace, _ = kink_run
    for record in kink_trace.records:
        worst_ball = max(worst_ball, record.distance / KINK_DELTA)

    x_bar, iterates, box_config, lo_full, hi_full = boxed_iterates
    box_ok = True
    for x in iterates:
        box_ok = box_ok and bool(np.all(x >= lo_full) and np.all(x <= hi_full))
        worst_ball = max(
            worst_ball, float(np.linalg.norm(x - x_bar)) / box_config.delta
        )
    passed = worst_ball <= 1.0 + eps and box_ok and len(iterates) > 0
    verdict(
        capsys, 7, passed,
        f"worst ||x - x_bar||/delta = {worst_ball:.15f} <= 1, "
        f"box bounds exact over {len(iterates)} boxed iterates: {box_ok}",
    )


def test_criterion_8_qp_solver_vs_enumeration(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(500):
        n_var = int(rng.integers(2, 7))
        n_eq = int(rng.integers(0, min(3, n_var)))
        n_ineq = int(rng.integers(0, 9 - n_eq))
        prob = random_feasible_qp(rng, n_var, n_ineq, n_eq)
        sol = solve_qp(prob)
        ref = enumerate_qp(prob.H, prob.c, prob.A_ineq, prob.b_ineq, prob.A_eq, prob.b_eq)
        assert ref is not None
        gap = abs(sol.value - ref[2]) / (1.0 + abs(ref[2]))
        worst = max(worst, gap)
        checked += 1
    passed = checked == 500 and worst <= 1e-6
    verdict(capsys, 8, passed, f"500 QPs, worst optimal-value gap {worst:.2e} <= 1e-6")
