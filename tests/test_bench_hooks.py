"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracing.py swaps module attributes and VictimModel callbacks by
name; a refactor that renames one would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

import semipoison
import semipoison.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LAYER_SPANS = (
    "attack.round",
    "attack.linesearch",
    "attack.feasible_directions",
    "attack.project",
    "qp.victim_solve",
    "victims.grad_x",
    "sensitivity.build_aux",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_present_and_recording(tmp_path, capsys):
    """Three rounds in a ball of radius 0.01 reach every span.

    The first step ends on the ball's boundary.  In the third round the
    points searched first sit there with their steepest rows pointing
    out, so they score the sampled set (attack.feasible_directions);
    a linear-route point elsewhere scores its steepest row alone.
    """
    tracer = load_tracing().Tracer()
    with tracer.installed(semipoison):
        assert tracer.missing == []
        code = semipoison.cli.main(
            ["attack", "--synth-n", "8", "--max-iters", "3", "--delta", "0.01",
             "--out", str(tmp_path)]
        )
    assert code in (0, 4)
    names = {span[0] for span in tracer.spans}
    missing = [name for name in LAYER_SPANS if name not in names]
    assert missing == []
