"""Command-line front end: train, attack, compare, sensitivity-check, toy.

Flags merge over an optional flat JSON config file (--config); explicit
flags win, unknown config keys are rejected, and every run that writes
files also writes the fully resolved configuration next to them.  Exit
codes are machine-consumable: 0 success, 2 validation error or an output
file that cannot be written, 3 solver or numeric failure or out of memory,
4 attack stalled or out of budget before the target.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
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
    write_csv,
    write_json,
    write_stats_json,
    write_table,
)
from .errors import InputError, ParseError, SolverError
from .sensitivity import (
    PointDerivative,
    fd_directional_derivative,
    run_oracle_trials,
    semi_derivative,
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

# Each subcommand's flags, by config key: (default, add_argument options).
# The flag is the key with dashes, so --synth-n sets synth_n.
COMMON_FLAGS = {
    "seed": (42, {"type": int, "help": "random seed"}),
    "out": (".", {"help": "output directory"}),
}
DATA_FLAGS = {
    "data": (None, {"help": "dataset CSV (default: synthetic)"}),
    "synth_n": (40, {"type": int, "help": "synthetic dataset size"}),
    "svm_c": (10.0, {"type": float, "help": "SVM slack penalty C"}),
    "ridge_eps": (1e-6, {"type": float, "help": "SVM Hessian ridge"}),
}
ATTACK_FLAGS = {
    "target": ("equal-weights", {
        "help": "'equal-weights' for w1 == w2, or 'W1,W2' for explicit weights",
    }),
    "delta": (3.0, {"type": float, "help": "perturbation budget"}),
    "delta_units": ("normalized", {"choices": ("normalized", "raw")}),
    "bounds": (None, {"help": "per-feature box 'v_lo,v_hi,h_lo,h_hi'"}),
    "bounds_units": ("raw", {"choices": ("normalized", "raw")}),
    "step_mode": ("backtracking", {"choices": ("fixed-L", "backtracking")}),
    "curvature_bound": (20.0, {"type": float, "help": "L estimate for the step rule"}),
    "max_iters": (200, {"type": int}),
    "tol_improve": (1e-12, {"type": float, "help": "stop below this per-step decrease"}),
    "tol_target": (1e-10, {"type": float, "help": "declare success at this objective"}),
}
FLAGS = {
    "train": {**COMMON_FLAGS, **DATA_FLAGS},
    "attack": {**COMMON_FLAGS, **DATA_FLAGS, **ATTACK_FLAGS},
    "compare": {**COMMON_FLAGS, **DATA_FLAGS, **ATTACK_FLAGS, "victim": ("svm", {
        "choices": ("svm", "quadratic"),
        "help": "victim problem: the lane-change SVM, or an unconstrained "
        "quadratic fixture on which the two attacks provably coincide",
    })},
    "sensitivity-check": {
        **COMMON_FLAGS,
        "seed": (7, COMMON_FLAGS["seed"][1]),
        "trials": (200, {"type": int, "help": "number of gated trials"}),
        "tol": (5e-4, {"type": float, "help": "max allowed relative deviation"}),
    },
    "toy": {},
}
SUBCOMMAND_HELP = {
    "train": "train the SVM and report metrics",
    "attack": "run the model-targeted attack",
    "compare": "attack vs classical gradient baseline",
    "sensitivity-check": "randomized derivative-vs-oracle agreement trials",
    "toy": "one-dimensional walkthrough of the method",
}
# the JSON types a config-file value may have, by the type its flag parses to
CONFIG_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}
SEARCH_KNOBS = ("curvature_bound", "step_mode", "tol_target", "tol_improve", "max_iters", "seed")


@functools.cache  # one tree per process: each main call in it parses with the same one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipoison",
        description="Data poisoning attacks on a lane-change SVM, driven by "
        "one-sided derivatives of the training solution map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in FLAGS.items():
        p = sub.add_parser(command, help=SUBCOMMAND_HELP[command])
        # toy has no flags; its --config only rejects unknown keys
        p.add_argument(
            "--config", help="flat JSON file of flag defaults" if flags else argparse.SUPPRESS
        )
        for key, (_, options) in flags.items():
            # no default, so resolve_config can tell an explicit flag from an absent one
            p.add_argument("--" + key.replace("_", "-"), default=None, **options)
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


def _check_config_value(key: str, value, default, options: dict) -> None:
    """Reject a config-file value that the key's flag would not produce.

    null is taken only where the default is null, and a flag's choices
    bind its config key too.
    """
    if value is None and default is None:
        return
    kinds, name = CONFIG_TYPES[options.get("type", str)]
    # true and false are Python ints, but no flag takes them
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"config key {key!r} must be {name}, got {json.dumps(value)}")
    choices = options.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"config key {key!r} must be one of {choices}, got {value!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (strongest last), then vet seed and out."""
    flags = FLAGS[args.command]
    resolved = {key: default for key, (default, _) in flags.items()}
    if args.config:
        overrides = _load_config_file(args.config)
        unknown = sorted(set(overrides) - set(flags))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
        for key, value in overrides.items():
            _check_config_value(key, value, *flags[key])
        resolved.update(overrides)
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    if resolved.get("seed", 0) < 0:  # numpy's own message would not name the key
        raise ValueError(f"seed must be nonnegative, got {resolved['seed']}")
    out = Path(resolved.get("out", "."))  # before any work, creating nothing; toy has no out
    try:
        near = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:  # a name too long to look up, say
        raise ValueError(f"cannot write output directory {out}: {exc.strerror}") from None
    if not near.is_dir():  # with the reason _prepare_out's mkdir would give
        reason = os.strerror(errno.EEXIST if near == out else errno.ENOTDIR)
        raise ValueError(f"cannot write output directory {out}: {reason}")
    return resolved


def _prepare_out(resolved: dict) -> Path:
    """Create the output directory and write the resolved configuration into it."""
    out = Path(resolved["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write output directory {out}: {exc.strerror}") from None
    write_json(out / "config.json", dict(sorted(resolved.items())))
    return out


def _trained_svm(resolved: dict):
    if resolved["data"]:
        raw = load_csv(resolved["data"])
    else:
        raw = synth_lane_change(resolved["synth_n"], resolved["seed"])
    ds = normalize(raw)
    model = svm_victim(
        SvmModel(ds.features, ds.labels, C=resolved["svm_c"], ridge_eps=resolved["ridge_eps"])
    )
    return raw, ds, model


def _numbers(text: str, count: int, form: str, what: str) -> list[float]:
    """The count comma-separated numbers in text; form and what word the errors."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{form}, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} must be numbers, got {text!r}") from None


def _parse_target(text: str, dim_var: int):
    if text == "equal-weights":
        selector = np.zeros((1, dim_var))
        selector[0, 0] = 1.0
        selector[0, 1] = -1.0
        return selector, np.zeros(1)
    values = _numbers(text, 2, "target must be 'equal-weights' or 'W1,W2'", "target weights")
    selector = np.zeros((2, dim_var))
    selector[0, 0] = 1.0
    selector[1, 1] = 1.0
    return selector, np.array(values)


def _search_knobs(resolved: dict) -> dict:
    """The AttackConfig search and stopping knobs every attack scenario shares."""
    return {key: resolved[key] for key in SEARCH_KNOBS}


def _attack_config(resolved: dict, ds: Dataset, dim_var: int) -> AttackConfig:
    selector, target = _parse_target(resolved["target"], dim_var)
    delta = float(resolved["delta"])
    if resolved["delta_units"] == "raw":
        delta = normalized_budget(delta, ds)
    box_lo = box_hi = None
    if resolved["bounds"]:
        v_lo, v_hi, h_lo, h_hi = _numbers(
            resolved["bounds"], 4, "bounds must be 'v_lo,v_hi,h_lo,h_hi'", "bounds"
        )
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
    _, ds, model = _trained_svm(resolved)
    sol = solve_victim(model, ds.features.ravel())
    out = _prepare_out(resolved)
    w1, w2, b = (float(v) for v in sol.y[:3])
    write_stats_json(ds, out / "stats.json")
    print(write_json(out / "model.json", _training_metrics(ds, w1, w2, b)))
    return EXIT_OK


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
    raw, ds, model = _trained_svm(resolved)
    cfg = _attack_config(resolved, ds, model.dim_var)
    x0 = ds.features.ravel()
    trace = run_attack(x0, model, cfg)

    out = _prepare_out(resolved)
    write_trace_jsonl(trace, out / "trace.jsonl")
    write_summary_csv(trace, out / "summary.csv")
    poisoned_raw = denormalize(trace.x_final.reshape(-1, 2), ds)
    write_csv(Dataset(poisoned_raw, ds.labels), out / "poisoned.csv")
    d = poisoned_raw - raw.features
    moved = np.linalg.norm(d, axis=1)
    rows = [(int(i), *d[i], moved[i]) for i in np.flatnonzero(moved > 1e-12)]
    header = ("point", "d_lateral_velocity", "d_space_headway", "displacement")
    write_table(out / "diff.csv", header, rows)
    print(write_json(out / "attack.json", _attack_summary(trace)))
    return EXIT_OK if trace.reason in ("optimal", "max_iters") else EXIT_STALLED


def _quadratic_scenario(resolved: dict):
    """Unconstrained fixture on which both attacks reduce to plain descent."""
    model = generic_parametric_qp(resolved["seed"], dim_var=3, dim_data=2, n_ineq=0, n_eq=0)
    x0 = np.full(model.dim_data, 0.3)
    config = AttackConfig(
        target=np.zeros(model.dim_var),
        delta=float(resolved["delta"]),
        point_dim=model.dim_data,
        **_search_knobs(resolved),
    )
    return x0, model, config


def cmd_compare(resolved: dict) -> int:
    if resolved["victim"] == "quadratic":
        x0, model, cfg = _quadratic_scenario(resolved)
    else:
        _, ds, model = _trained_svm(resolved)
        cfg = _attack_config(resolved, ds, model.dim_var)
        x0 = ds.features.ravel()
    trace_semi = run_attack(x0, model, cfg)
    trace_grad = run_gradient_baseline(x0, model, cfg)

    out = _prepare_out(resolved)
    write_trace_jsonl(trace_semi, out / "semi_trace.jsonl")
    write_trace_jsonl(trace_grad, out / "grad_trace.jsonl")
    semi, grad = trace_semi.objective_history, trace_grad.objective_history
    steps = range(max(len(semi), len(grad)))  # the shorter run holds its last value
    rows = [(k, semi[min(k, len(semi) - 1)], grad[min(k, len(grad) - 1)]) for k in steps]
    write_table(out / "compare.csv", ("k", "objective_semi", "objective_grad"), rows)
    summary = {"semi": _attack_summary(trace_semi), "gradient": _attack_summary(trace_grad)}
    print(write_json(out / "compare.json", summary))
    return EXIT_OK


def cmd_sensitivity_check(resolved: dict) -> int:
    trials = int(resolved["trials"])
    tol = float(resolved["tol"])
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    out = _prepare_out(resolved)
    results = run_oracle_trials(trials, seed=resolved["seed"]) if trials else []
    devs = ["" if np.isnan(r.deviation) else r.deviation for r in results]  # empty when skipped
    rows = [(i, r.seed, r.status, dev) for i, (r, dev) in enumerate(zip(results, devs))]
    write_table(out / "trials.csv", ("trial", "seed", "status", "deviation"), rows)
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
    wins, kink notwithstanding.  The semi-derivative gives the rates, or
    finite differences where LICQ fails and PointDerivative has no aux.
    """
    model = toy_bilevel_model()
    xs = np.linspace(-1.0, 1.0, 201)
    y_hat = np.array([toy_lower_solution(float(v)) for v in xs])
    max_dev = float(np.abs(y_hat - np.abs(xs)).max())

    x0 = np.zeros(1)
    sol = solve_victim(model, x0)
    aux = PointDerivative(model, x0, sol).aux
    if aux is None:  # the kink pins two bounds at once: LICQ fails, so take the defining limit
        route = "finite-difference fallback"
        along = functools.partial(fd_directional_derivative, model, x0, base_solution=sol)
    else:
        route, along = "one-sided derivative", functools.partial(semi_derivative, aux)
    rates = {}
    for label, dx in (("right", 1.0), ("left", -1.0)):
        rates[label] = dx + 2.0 * float(along(np.array([dx]))[0])
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
    except (ValueError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
