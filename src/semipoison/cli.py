"""Command-line front end: train, attack, compare, sensitivity-check, toy.

Flags merge over an optional flat JSON config file (--config); explicit
flags win, unknown config keys are rejected, and every run that writes
files also writes the fully resolved configuration next to them.  Exit
codes are machine-consumable: 0 success, 2 validation error, 3 solver or
numeric failure, 4 attack stalled or out of budget before the target.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .attack import (
    AttackConfig,
    AttackTrace,
    run_attack,
    run_gradient_baseline,
    write_summary_csv,
    write_trace_jsonl,
)
from .data import (
    Dataset,
    denormalize,
    load_csv,
    normalize,
    normalized_box,
    normalized_budget,
    synth_lane_change,
    write_stats_json,
    write_csv,
)
from .errors import (
    AuxInfeasible,
    AuxUnbounded,
    BadLabel,
    DegenerateFeature,
    DimensionMismatch,
    EmptyDirectionSet,
    Infeasible,
    MaxIterations,
    OutOfDomain,
    ParseError,
    RegularityFailure,
    SingularHessian,
    Unbounded,
)
from .sensitivity import (
    fd_directional_derivative,
    run_oracle_trials,
    solution_semi_derivative,
)
from .victims import (
    SvmModel,
    generic_parametric_qp,
    solve_victim,
    svm_victim,
    toy_bilevel_model,
    toy_lower_solution,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_STALLED = 4

VALIDATION_ERRORS = (
    ValueError,
    DimensionMismatch,
    ParseError,
    BadLabel,
    DegenerateFeature,
    OutOfDomain,
    EmptyDirectionSet,
)
SOLVER_ERRORS = (
    Infeasible,
    Unbounded,
    MaxIterations,
    SingularHessian,
    RegularityFailure,
    AuxInfeasible,
    AuxUnbounded,
)

COMMON_DEFAULTS = {"seed": 42, "out": "."}
DATA_DEFAULTS = {"data": None, "synth_n": 40, "svm_c": 10.0, "ridge_eps": 1e-6}
ATTACK_DEFAULTS = {
    "target": "equal-weights",
    "delta": 3.0,
    "delta_units": "normalized",
    "bounds": None,
    "bounds_units": "raw",
    "step_mode": "backtracking",
    "curvature_bound": 20.0,
    "max_iters": 200,
    "tol_improve": 1e-12,
    "tol_target": 1e-10,
    "num_random_dirs": 8,
    "random_probe": False,
}
SEARCH_KNOBS = (
    "curvature_bound", "step_mode", "num_random_dirs", "random_probe",
    "tol_target", "tol_improve", "max_iters", "seed",
)

DEFAULTS = {
    "train": {**COMMON_DEFAULTS, **DATA_DEFAULTS},
    "attack": {**COMMON_DEFAULTS, **DATA_DEFAULTS, **ATTACK_DEFAULTS},
    "compare": {**COMMON_DEFAULTS, **DATA_DEFAULTS, **ATTACK_DEFAULTS, "victim": "svm"},
    "sensitivity-check": {"seed": 7, "out": ".", "trials": 200, "tol": 5e-4},
    "toy": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipoison",
        description="Data poisoning attacks on a lane-change SVM, driven by "
        "one-sided derivatives of the training solution map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON file of flag defaults")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="output directory")

    def data_flags(p):
        p.add_argument("--data", help="dataset CSV (default: synthetic)")
        p.add_argument("--synth-n", type=int, help="synthetic dataset size")
        p.add_argument("--svm-c", type=float, help="SVM slack penalty C")
        p.add_argument("--ridge-eps", type=float, help="SVM Hessian ridge")

    def attack_flags(p):
        p.add_argument(
            "--target",
            help="'equal-weights' for w1 == w2, or 'W1,W2' for explicit weights",
        )
        p.add_argument("--delta", type=float, help="perturbation budget")
        p.add_argument("--delta-units", choices=("normalized", "raw"))
        p.add_argument("--bounds", help="per-feature box 'v_lo,v_hi,h_lo,h_hi'")
        p.add_argument("--bounds-units", choices=("normalized", "raw"))
        p.add_argument("--step-mode", choices=("fixed-L", "backtracking"))
        p.add_argument("--curvature-bound", type=float, help="L estimate for the step rule")
        p.add_argument("--max-iters", type=int)
        p.add_argument("--tol-improve", type=float, help="stop below this per-step decrease")
        p.add_argument("--tol-target", type=float, help="declare success at this objective")
        p.add_argument("--num-random-dirs", type=int)
        p.add_argument("--random-probe", action="store_true", default=None)

    p_train = sub.add_parser("train", help="train the SVM and report metrics")
    common(p_train)
    data_flags(p_train)

    p_attack = sub.add_parser("attack", help="run the model-targeted attack")
    common(p_attack)
    data_flags(p_attack)
    attack_flags(p_attack)

    p_compare = sub.add_parser("compare", help="attack vs classical gradient baseline")
    common(p_compare)
    data_flags(p_compare)
    attack_flags(p_compare)
    p_compare.add_argument(
        "--victim",
        choices=("svm", "quadratic"),
        help="victim problem: the lane-change SVM, or an unconstrained "
        "quadratic fixture on which the two attacks provably coincide",
    )

    p_sens = sub.add_parser(
        "sensitivity-check", help="randomized derivative-vs-oracle agreement trials"
    )
    common(p_sens)
    p_sens.add_argument("--trials", type=int, help="number of gated trials")
    p_sens.add_argument("--tol", type=float, help="max allowed relative deviation")

    p_toy = sub.add_parser("toy", help="one-dimensional walkthrough of the method")
    p_toy.add_argument("--config", help=argparse.SUPPRESS)

    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config file {path} must hold a flat JSON object")
    return doc


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (strongest last)."""
    defaults = DEFAULTS[args.command]
    resolved = dict(defaults)
    if getattr(args, "config", None):
        overrides = _load_config_file(args.config)
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
        resolved.update(overrides)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _write_resolved_config(resolved: dict, out: Path) -> None:
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(resolved: dict) -> Dataset:
    if resolved["data"]:
        return load_csv(resolved["data"])
    return synth_lane_change(resolved["synth_n"], resolved["seed"])


def _trained_svm(resolved: dict):
    raw = _load_dataset(resolved)
    ds = normalize(raw)
    model = svm_victim(
        SvmModel(ds.features, ds.labels, C=resolved["svm_c"], ridge_eps=resolved["ridge_eps"])
    )
    return raw, ds, model


def _parse_target(text: str, dim_var: int):
    if text == "equal-weights":
        selector = np.zeros((1, dim_var))
        selector[0, 0] = 1.0
        selector[0, 1] = -1.0
        return selector, np.zeros(1)
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"target must be 'equal-weights' or 'W1,W2', got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"target weights must be numbers, got {text!r}") from None
    selector = np.zeros((2, dim_var))
    selector[0, 0] = 1.0
    selector[1, 1] = 1.0
    return selector, np.array(values)


def _search_knobs(resolved: dict) -> dict:
    """The AttackConfig search and stopping knobs every attack scenario shares."""
    knobs = {key: resolved[key] for key in SEARCH_KNOBS}
    knobs["random_probe"] = bool(knobs["random_probe"])
    return knobs


def _attack_config(resolved: dict, ds: Dataset, dim_var: int) -> AttackConfig:
    selector, target = _parse_target(resolved["target"], dim_var)
    delta = float(resolved["delta"])
    if resolved["delta_units"] == "raw":
        delta = normalized_budget(delta, ds)
    box_lo = box_hi = None
    if resolved["bounds"]:
        parts = str(resolved["bounds"]).split(",")
        if len(parts) != 4:
            raise ValueError(f"bounds must be 'v_lo,v_hi,h_lo,h_hi', got {resolved['bounds']!r}")
        try:
            v_lo, v_hi, h_lo, h_hi = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"bounds must be numbers, got {resolved['bounds']!r}") from None
        lo = np.array([v_lo, h_lo])
        hi = np.array([v_hi, h_hi])
        if resolved["bounds_units"] == "raw":
            box_lo, box_hi = normalized_box(lo, hi, ds)
        else:
            box_lo, box_hi = lo, hi
    return AttackConfig(
        target=target,
        delta=delta,
        selector=selector,
        point_dim=2,
        box_lo=box_lo,
        box_hi=box_hi,
        **_search_knobs(resolved),
    )


def _training_metrics(ds: Dataset, w1: float, w2: float, b: float) -> dict:
    scores = ds.features @ np.array([w1, w2]) + b
    pred = np.where(scores >= 0.0, 1.0, -1.0)
    tp = float(np.sum((pred == 1.0) & (ds.labels == 1.0)))
    fp = float(np.sum((pred == 1.0) & (ds.labels == -1.0)))
    fn = float(np.sum((pred == -1.0) & (ds.labels == 1.0)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "w": [w1, w2, b]}


def cmd_train(resolved: dict) -> int:
    out = _prepare_out(resolved)
    _, ds, model = _trained_svm(resolved)
    sol = solve_victim(model, ds.features.ravel())
    w1, w2, b = (float(v) for v in sol.y[:3])
    report = _training_metrics(ds, w1, w2, b)
    print(json.dumps(report, indent=2))
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    write_stats_json(ds, out / "stats.json")
    _write_resolved_config(resolved, out)
    return EXIT_OK


def _attack_exit(trace: AttackTrace) -> int:
    return EXIT_OK if trace.reason in ("optimal", "max_iters") else EXIT_STALLED


def _attack_summary(trace: AttackTrace) -> dict:
    w = [float(v) for v in trace.final_solution.y[:3]] if trace.final_solution else None
    return {
        "reason": trace.reason,
        "iterations": len(trace.records),
        "initial_objective": trace.initial_objective,
        "final_objective": trace.final_objective,
        "displacement": float(np.linalg.norm(trace.x_final - trace.x_initial)),
        "stall_certificate": trace.stall_certificate,
        "weights": w,
    }


def cmd_attack(resolved: dict) -> int:
    out = _prepare_out(resolved)
    raw, ds, model = _trained_svm(resolved)
    cfg = _attack_config(resolved, ds, model.dim_var)
    x0 = ds.features.ravel()
    trace = run_attack(x0, model, cfg)

    _write_resolved_config(resolved, out)
    write_trace_jsonl(trace, out / "trace.jsonl")
    write_summary_csv(trace, out / "summary.csv")
    poisoned_raw = denormalize(trace.x_final.reshape(-1, 2), ds)
    write_csv(Dataset(poisoned_raw, ds.labels), out / "poisoned.csv")
    moved = np.linalg.norm(poisoned_raw - raw.features, axis=1)
    with open(out / "diff.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "d_lateral_velocity", "d_space_headway", "displacement"])
        for i in np.flatnonzero(moved > 1e-12):
            d = poisoned_raw[i] - raw.features[i]
            writer.writerow([int(i), repr(float(d[0])), repr(float(d[1])), repr(float(moved[i]))])
    summary = _attack_summary(trace)
    with open(out / "attack.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary, indent=2))
    return _attack_exit(trace)


def _quadratic_scenario(resolved: dict):
    """Unconstrained fixture on which both attacks reduce to plain descent."""
    model = generic_parametric_qp(
        resolved["seed"], dim_var=3, dim_data=2, n_ineq=0, n_eq=0
    )
    x0 = np.full(model.dim_data, 0.3)
    config = AttackConfig(
        target=np.zeros(model.dim_var),
        delta=float(resolved["delta"]),
        point_dim=model.dim_data,
        **_search_knobs(resolved),
    )
    return x0, model, config


def cmd_compare(resolved: dict) -> int:
    out = _prepare_out(resolved)
    if resolved["victim"] == "quadratic":
        x0, model, cfg = _quadratic_scenario(resolved)
    else:
        _, ds, model = _trained_svm(resolved)
        cfg = _attack_config(resolved, ds, model.dim_var)
        x0 = ds.features.ravel()
    trace_semi = run_attack(x0, model, cfg)
    trace_grad = run_gradient_baseline(x0, model, cfg)

    _write_resolved_config(resolved, out)
    write_trace_jsonl(trace_semi, out / "semi_trace.jsonl")
    write_trace_jsonl(trace_grad, out / "grad_trace.jsonl")
    hist_semi = trace_semi.objective_history
    hist_grad = trace_grad.objective_history
    with open(out / "compare.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective_semi", "objective_grad"])
        for k in range(max(len(hist_semi), len(hist_grad))):
            semi = hist_semi[min(k, len(hist_semi) - 1)]
            grad = hist_grad[min(k, len(hist_grad) - 1)]
            writer.writerow([k, repr(semi), repr(grad)])
    summary = {
        "semi": _attack_summary(trace_semi),
        "gradient": _attack_summary(trace_grad),
    }
    with open(out / "compare.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_sensitivity_check(resolved: dict) -> int:
    out = _prepare_out(resolved)
    _write_resolved_config(resolved, out)
    trials = int(resolved["trials"])
    tol = float(resolved["tol"])
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    results = run_oracle_trials(trials, seed=resolved["seed"]) if trials else []
    with open(out / "trials.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "status", "deviation"])
        for i, r in enumerate(results):
            dev = "" if np.isnan(r.deviation) else repr(r.deviation)
            writer.writerow([i, r.seed, r.status, dev])
    if trials == 0:
        print("warning: 0 trials requested; the check passes vacuously", file=sys.stderr)
        print("sensitivity-check: PASS (vacuous)")
        return EXIT_OK
    ok = [r for r in results if r.status == "ok"]
    skipped = len(results) - len(ok)
    worst = max((r.deviation for r in ok), default=float("nan"))
    passed = len(ok) == trials and worst <= tol
    verdict = "PASS" if passed else "FAIL"
    print(
        f"sensitivity-check: {verdict} ({len(ok)} ok, {skipped} skipped, "
        f"worst deviation {worst:.3e}, tolerance {tol:.1e})"
    )
    return EXIT_OK if passed else EXIT_SOLVER


def toy_report() -> dict:
    """One-dimensional walkthrough used by the toy subcommand.

    The lower problem learns y(x) = |x|; the upper objective x + 2 y(x)
    is to be maximized over the data x.  At x = 0 the two one-sided
    rates are 3 (rightward) and 1 (leftward), so the right direction
    wins, kink notwithstanding.
    """
    model = toy_bilevel_model()
    xs = np.linspace(-1.0, 1.0, 201)
    y_hat = np.array([toy_lower_solution(float(v)) for v in xs])
    max_dev = float(np.abs(y_hat - np.abs(xs)).max())

    x0 = np.zeros(1)
    sol = solve_victim(model, x0)
    rates = {}
    route = "one-sided derivative"
    for label, dx in (("right", 1.0), ("left", -1.0)):
        direction = np.array([dx])
        try:
            dy = float(solution_semi_derivative(model, x0, sol, direction)[0])
        except (RegularityFailure, AuxInfeasible, AuxUnbounded):
            # the kink pins two bounds at once, so fall back to the defining limit
            dy = float(fd_directional_derivative(model, x0, direction, base_solution=sol)[0])
            route = "finite-difference fallback"
        rates[label] = dx + 2.0 * dy
    chosen = 1 if rates["right"] >= rates["left"] else -1
    return {
        "grid_x": xs,
        "grid_y": y_hat,
        "grid_max_deviation": max_dev,
        "rate_right": rates["right"],
        "rate_left": rates["left"],
        "chosen_direction": chosen,
        "derivative_route": route,
    }


def cmd_toy(resolved: dict) -> int:
    report = toy_report()
    print("learned map on a 201-point grid (every 20th point):")
    print("       x     y(x)")
    for i in range(0, 201, 20):
        print(f"  {report['grid_x'][i]:+.2f}  {report['grid_y'][i]:+.6f}")
    print(f"max |y(x) - |x|| over the grid: {report['grid_max_deviation']:.2e}")
    print(
        f"one-sided rates of x + 2 y(x) at 0: "
        f"+1 direction {report['rate_right']:.6f}, -1 direction {report['rate_left']:.6f} "
        f"({report['derivative_route']})"
    )
    print(f"chosen perturbation direction: {report['chosen_direction']:+d}")
    if report["chosen_direction"] != 1 or report["grid_max_deviation"] > 1e-6:
        print("toy walkthrough failed its self-check", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "attack": cmd_attack,
    "compare": cmd_compare,
    "sensitivity-check": cmd_sensitivity_check,
    "toy": cmd_toy,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = resolve_config(args)
        return COMMANDS[args.command](resolved)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
