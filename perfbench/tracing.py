"""In-memory spans around the calls into each semipoison layer.

Nothing under src/ is edited: ``Tracer.install`` swaps module attributes
(and the callbacks of the VictimModel objects the CLI builds) for thin
wrappers that record one span per call, and ``Tracer.uninstall`` puts
the originals back.  A span is (name, start, end, parent, op, error);
the layer is the part of the name before the first dot.  Spans stay in
memory until ``write_jsonl`` at the end of the run.

A span's inclusive time is end - start.  Its self time is that minus
the time its child spans cover, so the self times of every span under
one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter

NAME, START, END, PARENT, OP, ERROR = range(6)

CALLBACKS = {
    "assemble": "victims.assemble",
    "grad_x_constraint": "victims.grad_x",
    "cross_hessian": "victims.cross_hessian",
}
FD_SPANS = ("attack.fd", "sensitivity.fd")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.routes: list[tuple[int, str]] = []  # (op, route) per accepted attack step
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # the slot keeps the index children refer to
        self._stack.append(idx)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            # a tuple of plain values, which the garbage collector stops scanning
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.op, error)
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, obj, attr, name, on_result=None):
        original = getattr(obj, attr, None)
        if original is None:
            # the program was restructured; report the gap, keep running
            self.missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        self._patches.append((obj, attr, original))
        setattr(obj, attr, self.wrap(name, original, on_result))

    def _wrap_callbacks(self, model):
        for attr, name in CALLBACKS.items():
            setattr(model, attr, self.wrap(name, getattr(model, attr)))

    def _note_round(self, out):
        self.routes.append((self.op, out[2].route))

    def install(self, sp):
        """Wrap the entry points of every layer of the semipoison package sp."""
        self.missing = []
        p = self._patch
        p(sp.victims, "solve_qp", "qp.victim_solve")
        p(sp.sensitivity, "solve_qp", "qp.aux_solve")
        p(sp.cli, "svm_victim", "victims.build", self._wrap_callbacks)
        p(sp.sensitivity, "generic_parametric_qp", "victims.fixture", self._wrap_callbacks)
        for mod in (sp.attack, sp.sensitivity):
            p(mod, "build_auxiliary", "sensitivity.build_aux")
            p(mod, "semi_derivative", "sensitivity.semi_derivative")
        p(sp.cli, "run_oracle_trials", "sensitivity.oracle_trials")
        p(sp.sensitivity, "fd_directional_derivative", "sensitivity.fd")
        p(sp.cli, "run_attack", "attack.run")
        p(sp.attack, "_attack_round", "attack.round", self._note_round)
        p(sp.attack, "_try_step", "attack.linesearch")
        p(sp.attack, "feasible_directions", "attack.feasible_directions")
        p(sp.attack, "project_to_feasible", "attack.project")
        p(getattr(sp.attack, "_ObjectiveDerivative", None), "_finite_difference", "attack.fd")
        p(sp.cli, "load_csv", "data.load_csv")
        p(sp.cli, "normalize", "data.normalize")
        p(sp.cli, "write_stats_json", "data.write_stats")
        p(sp.cli, "write_csv", "data.write_csv")
        p(sp.data, "write_csv", "data.write_csv")
        p(sp.data, "synth_lane_change", "data.synth")

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    @contextlib.contextmanager
    def installed(self, sp):
        self.install(sp)
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are strictly nested on one thread, so children never overlap
    each other and their durations simply add up.
    """
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def _under(spans, idx, names) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op_counts(tracer: Tracer) -> dict[int, Counter]:
    """Victim solves split by caller, and accepted steps by route, per op."""
    spans = tracer.spans
    out: dict[int, Counter] = {}
    for i, rec in enumerate(spans):
        if rec[NAME] != "qp.victim_solve":
            continue
        c = out.setdefault(rec[OP], Counter())
        c["victim_solves"] += 1
        if _under(spans, i, ("attack.linesearch",)):
            c["linesearch_solves"] += 1
        if _under(spans, i, FD_SPANS):
            c["fd_solves"] += 1
    for i, rec in enumerate(spans):
        if rec[NAME] == "sensitivity.semi_derivative":
            out.setdefault(rec[OP], Counter())["semi_derivative_calls"] += 1
    for op, route in tracer.routes:
        out.setdefault(op, Counter())[f"route_{route}"] += 1
    return out


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics over every recorded span."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    errors: Counter = Counter()
    layer_self: Counter = Counter()
    victim_ms = []
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] += 1
        incl[name] += dur
        layer_self[name.split(".", 1)[0]] += own[i]
        if rec[ERROR]:
            errors[(name, rec[ERROR])] += 1
        if name == "qp.victim_solve":
            victim_ms.append(dur * 1e3)
    totals = sum(per_op_counts(tracer).values(), Counter())
    linesearch_solves = totals["linesearch_solves"]
    accepted = len(tracer.routes)
    qp_errors = sum(n for (name, _), n in errors.items() if name.startswith("qp."))
    aux_errors = sum(
        n for (name, err), n in errors.items()
        if name == "sensitivity.semi_derivative" and err in ("AuxInfeasible", "AuxUnbounded")
    )
    regularity = sum(
        n for (name, err), n in errors.items()
        if name == "sensitivity.build_aux" and err == "RegularityFailure"
    )
    m = {
        "qp.victim_solves": calls["qp.victim_solve"],
        "qp.victim_solve_s": incl["qp.victim_solve"],
        "qp.victim_solve_ms_p50": _percentile(victim_ms, 50),
        "qp.victim_solve_ms_p99": _percentile(victim_ms, 99),
        "qp.aux_solves": calls["qp.aux_solve"],
        "qp.aux_solve_s": incl["qp.aux_solve"],
        "qp.errors": qp_errors,
        "qp.self_s": layer_self["qp"],
        "victims.assemble_calls": calls["victims.assemble"],
        "victims.assemble_s": incl["victims.assemble"],
        "victims.grad_x_calls": calls["victims.grad_x"],
        "victims.grad_x_s": incl["victims.grad_x"],
        "victims.cross_hessian_s": incl["victims.cross_hessian"],
        "victims.self_s": layer_self["victims"],
        "sensitivity.build_aux_calls": calls["sensitivity.build_aux"],
        "sensitivity.build_aux_s": incl["sensitivity.build_aux"],
        "sensitivity.semi_derivative_calls": calls["sensitivity.semi_derivative"],
        "sensitivity.semi_derivative_s": incl["sensitivity.semi_derivative"],
        "sensitivity.regularity_failures": regularity,
        "sensitivity.aux_errors": aux_errors,
        "sensitivity.fd_solves": totals["fd_solves"],
        "sensitivity.self_s": layer_self["sensitivity"],
        "attack.self_s": layer_self["attack"],
        "attack.rounds": calls["attack.round"],
        "attack.linesearch_solves": linesearch_solves,
        "attack.accept_ratio": accepted / linesearch_solves if linesearch_solves else 0.0,
        "attack.route_linear": totals["route_linear"],
        "attack.route_aux": totals["route_aux"],
        "attack.route_fd": totals["route_fd"],
        "attack.feasible_directions_s": incl["attack.feasible_directions"],
        "attack.project_s": incl["attack.project"],
        "data.load_csv_s": incl["data.load_csv"],
        "data.normalize_s": incl["data.normalize"],
        "data.write_csv_s": incl["data.write_csv"],
        "data.self_s": layer_self["data"],
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
    }
    return m


def self_time_totals(spans) -> tuple[float, float]:
    """(sum of every span's self time, sum of the root spans' durations)."""
    roots = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)
    return sum(self_times(spans)), roots
