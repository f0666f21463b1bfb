"""The benchmark workloads: inputs made from the seed, CLI calls, output checks.

Each workload is a closed loop of CLI calls, one at a time.  Op j of a
run uses seed + j, so a run's inputs depend only on its seed and its
length.  ``unit`` ops form the reference unit the traced run measures;
``nominal_op_s`` (about the mean seconds per op on a shared 2-core Xeon
VM at the seed commit)
turns the run length into a fixed op count, so that two versions of the
program always get the same inputs and the same number of ops.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

ATTACK_N = 20
TRAIN_N = 160
ORACLE_TRIALS = 2000
MIN_F1 = 1.0  # every seed-commit training run separates the synthetic classes
DISTANCE_SLACK = 1e-12  # relative; projection keeps iterates in the ball to round-off
EXIT_SOLVER = 3  # the CLI's code for a solver or numeric failure
SOLVER_FAILURE = {"failure": "solver error (exit 3)"}


@dataclass
class Op:
    index: int
    seed: int
    argv: list[str]
    out: Path


@dataclass
class Outcome:
    """What one CLI call did, as read back from its outputs."""

    attempted: int
    failed: int
    work: int  # attack steps, training runs or oracle trials
    problems: list[str] = field(default_factory=list)  # wrong outputs
    stats: dict = field(default_factory=dict)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    unit = 1
    nominal_op_s = 1.0
    work_unit = ""

    def op_count(self, seconds: float) -> int:
        return max(self.unit, math.ceil(seconds / self.nominal_op_s))

    def prepare(self, sp, seed: int, n_ops: int, inputs: Path, outputs: Path) -> list[Op]:
        """Write the inputs of n_ops ops and return their CLI calls."""
        raise NotImplementedError

    def check(self, op: Op, rc) -> Outcome:
        """Read back op's outputs; rc is the exit code, None after a crash."""
        raise NotImplementedError

    def figures(self, outcomes: list[Outcome], wall: float) -> dict:
        """End-to-end figures of this workload only."""
        return {}


class _CsvWorkload(Workload):
    n_rows = 0
    command: list[str] = []

    def prepare(self, sp, seed, n_ops, inputs, outputs):
        ops = []
        for j in range(n_ops):
            s = seed + j
            path = inputs / f"data-{s}.csv"
            sp.data.write_csv(sp.data.synth_lane_change(self.n_rows, s), path)
            out = outputs / f"op{j}"
            argv = [*self.command, "--data", str(path), "--seed", str(s), "--out", str(out)]
            ops.append(Op(j, s, argv, out))
        return ops


class AttackN20(_CsvWorkload):
    name = "attack-n20"
    unit = 10
    nominal_op_s = 1.6
    work_unit = "accepted attack step"
    n_rows = ATTACK_N
    command = ["attack", "--tol-improve", "1e-14"]  # the acceptance-suite settings

    def check(self, op, rc):
        if rc == EXIT_SOLVER:
            return Outcome(1, 1, 0, stats=SOLVER_FAILURE)
        problems = []
        if rc not in (0, 4):
            problems.append(f"exit code {rc}, expected 0 or 4")
        try:
            summary = _read_json(op.out / "attack.json")
            config = _read_json(op.out / "config.json")
            rows = _read_csv(op.out / "summary.csv")
            with open(op.out / "trace.jsonl", encoding="utf-8") as fh:
                trace_lines = sum(1 for line in fh if line.strip())
        except (OSError, ValueError) as exc:
            return Outcome(1, 1, 0, problems + [f"unreadable output: {exc}"])
        objectives = [float(r["objective"]) for r in rows]
        distances = [float(r["distance"]) for r in rows]
        if any(b > a for a, b in zip(objectives, objectives[1:])):
            problems.append("summary.csv objective increases")
        if config["delta_units"] != "normalized":
            problems.append(f"unexpected delta units {config['delta_units']!r}")
        delta = float(config["delta"])
        if max(distances, default=0.0) > delta * (1.0 + DISTANCE_SLACK):
            problems.append(f"distance {max(distances)!r} exceeds delta {delta!r}")
        steps = int(summary["iterations"])
        if trace_lines != steps:
            problems.append(f"trace.jsonl has {trace_lines} lines for {steps} iterations")
        initial, final = summary["initial_objective"], summary["final_objective"]
        stats = {
            "reason": summary["reason"],
            "steps": steps,
            "log10_gain": math.log10(initial / final) if initial > 0 and final > 0 else None,
        }
        return Outcome(1, int(bool(problems)), steps, problems, stats)

    def figures(self, outcomes, wall):
        gains = [o.stats["log10_gain"] for o in outcomes if o.stats.get("log10_gain") is not None]
        return {
            "attack_steps_per_s": sum(o.work for o in outcomes) / wall,
            "targets_reached": sum(o.stats.get("reason") == "optimal" for o in outcomes),
            "objective_log10_gain": statistics.fmean(gains) if gains else math.nan,
        }


class TrainN160(_CsvWorkload):
    name = "train-n160"
    unit = 5
    nominal_op_s = 1.8
    work_unit = "training run"
    n_rows = TRAIN_N
    command = ["train"]

    def check(self, op, rc):
        if rc == EXIT_SOLVER:
            return Outcome(1, 1, 0, stats=SOLVER_FAILURE)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        try:
            model = _read_json(op.out / "model.json")
        except (OSError, ValueError) as exc:
            return Outcome(1, 1, 0, problems + [f"unreadable output: {exc}"])
        w = model["w"]
        if len(w) != 3 or not all(math.isfinite(v) for v in w):
            problems.append(f"weights not finite: {w}")
        if not model["f1"] >= MIN_F1:
            problems.append(f"f1 {model['f1']} below {MIN_F1}")
        return Outcome(1, int(bool(problems)), 1, problems, {"f1": model["f1"]})


class SensitivityOracle(Workload):
    name = "sensitivity-oracle"
    unit = 1
    nominal_op_s = 6.0
    work_unit = "oracle trial"

    def prepare(self, sp, seed, n_ops, inputs, outputs):
        ops = []
        for j in range(n_ops):
            out = outputs / f"op{j}"
            argv = ["sensitivity-check", "--trials", str(ORACLE_TRIALS),
                    "--seed", str(seed + j), "--out", str(out)]
            ops.append(Op(j, seed + j, argv, out))
        return ops

    def check(self, op, rc):
        """Each trial is an op; one above the CLI tolerance is a failed op.

        Such a trial is the CLI correctly reporting a disagreement (exit
        3), so it is not a wrong output; an exit code that contradicts
        trials.csv, or a missing trial, is.  A solver error stops the
        call before trials.csv is written (exit 3): every trial fails.
        """
        try:
            tol = float(_read_json(op.out / "config.json")["tol"])
            rows = _read_csv(op.out / "trials.csv")
        except (OSError, ValueError) as exc:
            if rc == EXIT_SOLVER:
                return Outcome(ORACLE_TRIALS, ORACLE_TRIALS, 0, stats=SOLVER_FAILURE)
            return Outcome(ORACLE_TRIALS, ORACLE_TRIALS, 0, [f"unreadable output: {exc}"])
        ok = [r for r in rows if r["status"] == "ok"]
        above = [r for r in ok if float(r["deviation"]) > tol]
        problems = []
        if len(ok) != ORACLE_TRIALS:
            problems.append(f"{len(ok)} ok trials, expected {ORACLE_TRIALS}")
        failed = len(above) + max(0, ORACLE_TRIALS - len(ok))
        expected_rc = 0 if failed == 0 else 3
        if rc != expected_rc:
            problems.append(f"exit code {rc}, expected {expected_rc} for {failed} failed trials")
        stats = {
            "worst_deviation": max((float(r["deviation"]) for r in ok), default=float("nan")),
            "tolerance": tol,
            "failed_trials": [
                {"trial": int(r["trial"]), "seed": int(r["seed"]), "deviation": float(r["deviation"])}
                for r in above
            ],
            "fixtures": len(rows),
        }
        return Outcome(ORACLE_TRIALS, failed, ORACLE_TRIALS, problems, stats)

    def figures(self, outcomes, wall):
        return {
            "trials_per_s": sum(o.work for o in outcomes) / wall,
            "oracle_worst_dev": max(o.stats.get("worst_deviation", math.nan) for o in outcomes),
            "failed_trials": [t for o in outcomes for t in o.stats.get("failed_trials", [])],
        }


WORKLOADS = {w.name: w for w in (AttackN20(), TrainN160(), SensitivityOracle())}
