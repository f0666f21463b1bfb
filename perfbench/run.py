"""Benchmark of the semipoison command line, timed end to end and traced per layer.

    python3 perfbench/run.py --workload attack-n20 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process, one thread, one CLI call at a time (closed
loop): the workload's inputs are made from --seed during set-up, then
each op calls ``semipoison.cli.main`` in-process and its outputs are
checked.  --seconds fixes the op count through the workload's nominal op
time, so every version of the program gets the same inputs.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op of the
workload's reference unit twice, untraced and then traced, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/<run>/spans.jsonl``.  Human-readable lines come first; the
last line of stdout is the JSON result.  Every run also writes
``.bench_out/<run>/result.json`` with the machine info.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracing import END, NAME, START, Tracer, layer_metrics, per_op_counts, self_time_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
WARMUP_ARGV = ["train", "--synth-n", "20", "--seed", "1"]
SELF_TIME_RTOL = 1e-9

# On a shared host other tenants slow a CPU-bound process (by up to 1.5x
# on a shared 2-core Xeon VM), both in bursts shorter than an op and in
# stretches of minutes.  While an interval is timed, a timer signal runs
# a fixed micro-computation every PROBE_INTERVAL_S; the interval's
# slowdown is the median micro time over PROBE_NOMINAL_S (its median on
# a 2-core Xeon under typical load), and the gated times are the raw
# times, less the probe's own time, divided by that slowdown.
PROBE_INTERVAL_S = 0.02
PROBE_NOMINAL_S = 2.0e-4
PROBE_MATRIX = np.random.default_rng(12345).standard_normal((24, 24))

E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "qp.victim_solve_ms_p50": "ms",
    "qp.victim_solve_ms_p99": "ms",
    "attack.accept_ratio": "ratio",
    "cli.output_bytes": "bytes",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def import_semipoison():
    """Import semipoison afresh from SRC, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "semipoison" or m.startswith("semipoison.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sp = importlib.import_module("semipoison")
    importlib.import_module("semipoison.cli")
    if not Path(sp.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"semipoison was imported from {sp.__file__}, not from {SRC}")
    return sp


def call_cli(sp, argv, tracer=None):
    """Run one CLI call in-process; returns (exit code or None, bytes printed)."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        try:
            rc = tracer.span("cli.main", sp.cli.main, argv) if tracer else sp.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the call
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a benchmark failure
            print(f"{type(exc).__name__}: {exc}", file=buf_err)
            rc = None
    return rc, len(buf_out.getvalue().encode()) + len(buf_err.getvalue().encode())


def _probe_micro() -> float:
    """Time of the micro-computation's second run: the first one refills
    the caches the interrupted program evicted, so that the reading
    depends on the machine's load more than on what the program was doing."""
    for _ in range(2):
        t0 = time.perf_counter()
        np.linalg.svd(PROBE_MATRIX)
        acc = 0
        for k in range(200):
            acc += k * k
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while an interval is timed (SIGALRM)."""

    def __init__(self):
        for _ in range(50):  # numpy's first SVD call sets up lazily
            _probe_micro()
        self.samples: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_probe_micro())
        self.stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def timed(self):
        """Time the block; the yielded dict gets "elapsed", "seconds"
        (elapsed less the probe's own time) and "slowdown"."""
        out: dict[str, float] = {}
        self.samples = []
        self.stolen = 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
            out["elapsed"] = elapsed
            out["seconds"] = elapsed - self.stolen
            out["slowdown"] = (statistics.median(self.samples) / PROBE_NOMINAL_S
                               if self.samples else 1.0)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_ops(sp, workload, ops, probe, tracer=None):
    records = []
    for op in ops:
        if tracer:
            tracer.op = op.index
        with probe.timed() as t:
            rc, printed = call_cli(sp, op.argv, tracer)
        outcome = workload.check(op, rc)
        out_bytes = printed + (_dir_bytes(op.out) if op.out.exists() else 0)
        records.append({"op": op, "elapsed": t["elapsed"], "seconds": t["seconds"],
                        "slowdown": t["slowdown"], "rc": rc, "outcome": outcome,
                        "output_bytes": out_bytes})
        shutil.rmtree(op.out, ignore_errors=True)
    return records


def setup(workload, seed, n_ops, run_dir, probe):
    """Import the package, write the inputs and warm up, SETUP_REPS times.

    Returns the package, the ops, and each set-up's raw and
    speed-corrected seconds.
    """
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        with probe.timed() as t:
            sp = import_semipoison()
            (run_dir / "inputs").mkdir(parents=True)
            ops = workload.prepare(sp, seed, n_ops, run_dir / "inputs", run_dir / "ops")
            rc, _ = call_cli(sp, [*WARMUP_ARGV, "--out", str(run_dir / "warmup")])
        times.append((t["seconds"], t["seconds"] / t["slowdown"]))
        if rc != 0:
            raise BenchError(f"warm-up call exited {rc}")
    shutil.rmtree(run_dir / "warmup", ignore_errors=True)
    return sp, ops, times


def machine_info() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def summarize(workload, records) -> dict:
    """The end-to-end figures of a list of op records."""
    seconds = [r["seconds"] for r in records]
    outcomes = [r["outcome"] for r in records]
    work = sum(o.work for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wall = sum(seconds)
    done = [r for r in records if r["outcome"].work]
    per_work = [r["seconds"] * 1e3 / r["outcome"].work for r in done]
    per_work_corrected = [r["seconds"] * 1e3 / r["outcome"].work / r["slowdown"] for r in done]
    s = {
        "per_op": [{"seed": r["op"].seed, "seconds": r["seconds"], "slowdown": r["slowdown"],
                    "rc": r["rc"], "work": r["outcome"].work, **r["outcome"].stats}
                   for r in records],
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "work": work,
        "work_per_s": work / sum(r["seconds"] / r["slowdown"] for r in records),
        "work_per_s_raw": work / wall,
        "work_ms_p50": statistics.median(per_work_corrected) if done else float("nan"),
        "work_ms_p50_raw": statistics.median(per_work) if done else float("nan"),
        "slowdown_p50": statistics.median(r["slowdown"] for r in records),
        "op_s_p50": statistics.median(seconds),
        "ops": len(records),
        "problems": [f"op {r['op'].index} (seed {r['op'].seed}): {p}"
                     for r in records for p in r["outcome"].problems],
        "op_failures": [f"op {r['op'].index} (seed {r['op'].seed}): {r['outcome'].stats['failure']}"
                        for r in records if "failure" in r["outcome"].stats],
    }
    s.update(workload.figures(outcomes, wall))
    return s


def check_invariants(records, counts) -> list[str]:
    """Per attack: victim solves = 1 initial + line-search + FD solves, and
    the accepted steps seen in memory match the trace.jsonl lines."""
    problems = []
    for r in records:
        op, steps = r["op"], r["outcome"].stats.get("steps")
        if steps is None:
            continue
        c = counts.get(op.index, {})
        expected = 1 + c.get("linesearch_solves", 0) + c.get("fd_solves", 0)
        if c.get("victim_solves", 0) != expected:
            problems.append(f"op {op.index}: {c.get('victim_solves', 0)} victim solves, "
                            f"expected 1 + line-search + FD = {expected}")
        routes = sum(v for k, v in c.items() if k.startswith("route_"))
        if routes != steps:
            problems.append(f"op {op.index}: {routes} routed steps, trace.jsonl has {steps}")
    return problems


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    if not (SRC / "semipoison" / "__init__.py").is_file():
        raise BenchError(f"no semipoison package under {SRC}")
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    n_ops = workload.unit if trace else workload.op_count(seconds)
    probe = SpeedProbe()
    sp, ops, setup_times = setup(workload, seed, n_ops, run_dir, probe)

    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "work_unit": workload.work_unit, "machine": machine_info(),
        "setup_s_raw": [raw for raw, _ in setup_times],
        "setup_s_corrected": [corrected for _, corrected in setup_times],
    }
    if not trace:
        records = run_ops(sp, workload, ops, probe)
        summary = summarize(workload, records)
        problems = summary["problems"]
        metrics = {
            "setup_s": statistics.median(result["setup_s_corrected"]),
            "work_per_s": summary["work_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update(summary=summary, metrics={k: (v, E2E_UNITS[k]) for k, v in metrics.items()})
    else:
        # each op runs untraced and then traced, so that both see the same load
        tracer = Tracer()
        with tracer.installed(sp):
            tracer.op = -1
            tracer.span("setup", workload.prepare, sp, seed, n_ops,
                        run_dir / "inputs", run_dir / "ops")
        untraced_records, records = [], []
        for op in ops:
            untraced_records += run_ops(sp, workload, [op], probe)
            with tracer.installed(sp):
                records += run_ops(sp, workload, [op], probe, tracer)
        untraced = summarize(workload, untraced_records)
        summary = summarize(workload, records)
        overhead = statistics.median(
            (t["seconds"] / t["slowdown"]) / (u["seconds"] / u["slowdown"])
            for t, u in zip(records, untraced_records))
        problems = summary["problems"] + untraced["problems"]
        counts = per_op_counts(tracer)
        if tracer.missing:
            print(f"warning: not traced, the program no longer has {', '.join(tracer.missing)}")
        else:
            problems += check_invariants(records, counts)
        self_total, root_total = self_time_totals(tracer.spans)
        if abs(self_total - root_total) > SELF_TIME_RTOL * root_total:
            problems.append(f"self times add up to {self_total!r} s, root spans to {root_total!r} s")
        cli_total = sum(rec[END] - rec[START] for rec in tracer.spans if rec[NAME] == "cli.main")
        layers = layer_metrics(tracer, sum(r["output_bytes"] for r in records))
        result.update(
            summary=summary,
            untraced_wall_s=untraced["wall_s"],
            traced_wall_s=summary["wall_s"],
            trace_overhead_pct=100.0 * (overhead - 1.0),
            self_time_total_s=self_total,
            root_span_total_s=root_total,
            cli_span_coverage=cli_total / sum(r["elapsed"] for r in records),
            not_traced=tracer.missing,
            per_op_counts={str(k): dict(v) for k, v in sorted(counts.items())},
            metrics={k: (v, layer_unit(k)) for k, v in layers.items()},
        )
        tracer.write_jsonl(run_dir / "spans.jsonl")
    shutil.rmtree(run_dir / "ops", ignore_errors=True)
    result["problems"] = problems
    result["correct"] = not problems
    result["attempted"] = summary["attempted"]
    result["failed"] = summary["failed"]
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")
    return result


def report(result) -> None:
    """Human-readable lines: machine, every end-to-end figure with its unit."""
    m = result["machine"]
    s = result["summary"]
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"on {m['cpu_model']} ({m['nproc']} cpus), python {m['python']}, "
          f"numpy {m['numpy']}, threads {m['thread_env']}")
    print(f"setup_s = {statistics.median(result['setup_s_corrected']):.6f} s "
          f"(median of {len(result['setup_s_corrected'])}, speed-corrected; raw "
          f"{statistics.median(result['setup_s_raw']):.6f} s)")
    print(f"wall_s = {s['wall_s']:.4f} s over {s['ops']} ops")
    print(f"error_rate = {s['error_rate']:.6g} ({s['failed']} failed / {s['attempted']} attempted)")
    print(f"op_s_p50 = {s['op_s_p50']:.4f} s (n={s['ops']})")
    print(f"work_per_s = {s['work_per_s']:.6g} 1/s {result['work_unit']}s (speed-corrected; "
          f"raw {s['work_per_s_raw']:.6g} 1/s)")
    print(f"work_ms_p50 = {s['work_ms_p50']:.4f} ms per {result['work_unit']} "
          f"(speed-corrected; raw {s['work_ms_p50_raw']:.4f} ms, "
          f"machine slowdown p50 {s['slowdown_p50']:.3f})")
    for key, unit in (("attack_steps_per_s", "1/s"), ("targets_reached", f"of {s['ops']}"),
                      ("objective_log10_gain", "decades"), ("trials_per_s", "1/s"),
                      ("oracle_worst_dev", "relative")):
        if key in s:
            print(f"{key} = {s[key]:.6g} {unit}")
    for t in s.get("failed_trials", []):
        print(f"failed trial {t['trial']} (fixture seed {t['seed']}): deviation {t['deviation']:.3e}")
    if result["trace"]:
        print(f"tracing overhead = {result['trace_overhead_pct']:.2f} % (median over ops of "
              f"speed-corrected traced / untraced time; raw walls: traced "
              f"{result['traced_wall_s']:.4f} s, untraced {result['untraced_wall_s']:.4f} s)")
        print(f"self times sum = {result['self_time_total_s']:.6f} s, root spans = "
              f"{result['root_span_total_s']:.6f} s, cli spans cover "
              f"{100 * result['cli_span_coverage']:.2f} % of traced wall")
    else:
        print(f"peak_rss_mb = {result['metrics']['peak_rss_mb'][0]:.3f} MB")
    for f in s["op_failures"]:
        print(f"failed op: {f}")
    for p in result["problems"]:
        print(f"problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
