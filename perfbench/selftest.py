"""Self-test of the benchmark's counters against the seed commit at seed 0.

    python3 perfbench/selftest.py

Runs the traced attack-n20 unit and one sensitivity-oracle call at seed
0 (about a minute) and checks the counts the seed commit produces: 862
accepted steps (859 linear, 2 aux, 1 fd), 962 victim solves, 176
semi-derivative calls, scenario 3 at 39 steps and 128 victim solves, and
the known FD-oracle outlier as 1 failed trial of 2000.  The per-scenario
invariants (victim solves = 1 + line-search + FD solves; routed steps =
trace.jsonl lines) are checked by every traced run; a broken one makes
the run incorrect.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from run import ROOT, run

EXPECTED_TOTALS = {
    "route_linear": 859,
    "route_aux": 2,
    "route_fd": 1,
    "victim_solves": 962,
    "semi_derivative_calls": 176,
}
SCENARIO = "3"
EXPECTED_SCENARIO = {"steps": 39, "victim_solves": 128}
KNOWN_OUTLIER = {"trial": 751, "seed": 45675549}
OUTLIER_DEVIATION = (5.7e-4, 5.8e-4)


def main() -> int:
    failures = []

    def expect(label, got, want):
        ok = got == want
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} (expected {want})")
        if not ok:
            failures.append(label)

    attack = run("attack-n20", 0, 0.0, trace=True)
    expect("attack run correct", attack["correct"], True)
    for p in attack["problems"]:
        print(f"     {p}")
    counts = attack["per_op_counts"]
    totals = sum((Counter(c) for c in counts.values()), Counter())
    for key, want in EXPECTED_TOTALS.items():
        expect(f"total {key}", totals[key], want)
    expect("accepted steps", sum(totals[f"route_{r}"] for r in ("linear", "aux", "fd")), 862)
    scenario = counts[SCENARIO]
    steps = sum(v for k, v in scenario.items() if k.startswith("route_"))
    expect(f"scenario {SCENARIO} steps", steps, EXPECTED_SCENARIO["steps"])
    expect(f"scenario {SCENARIO} victim solves", scenario["victim_solves"],
           EXPECTED_SCENARIO["victim_solves"])

    oracle = run("sensitivity-oracle", 0, 0.0, trace=False)
    expect("oracle run correct", oracle["correct"], True)
    expect("oracle failed / attempted", (oracle["failed"], oracle["attempted"]), (1, 2000))
    failed = oracle["summary"]["failed_trials"]
    expect("oracle outlier", [{k: t[k] for k in KNOWN_OUTLIER} for t in failed], [KNOWN_OUTLIER])
    lo, hi = OUTLIER_DEVIATION
    expect("outlier deviation in [5.7e-4, 5.8e-4]",
           bool(failed) and lo <= failed[0]["deviation"] <= hi, True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, result in (("end_to_end", oracle), ("per_layer", attack)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: unit for name, (_, unit) in result["metrics"].items()}
        mismatch = sorted(set(printed.items()) ^ set(declared.items()))
        expect(f"{key} metrics and units differing from BENCHMARK.json", mismatch, [])

    print("selftest:", "FAIL " + ", ".join(failures) if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
