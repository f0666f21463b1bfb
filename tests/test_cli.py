"""End-to-end checks of the command-line interface."""

import csv
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semipoison
from semipoison import attack, cli, errors, sensitivity, victims
from semipoison.data import Dataset, load_csv, normalize, synth_lane_change, write_csv

from _oracles import kink_projection_model


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_cli_process(*argv, timeout):
    """Run the CLI in a fresh interpreter with default warning filters."""
    src = str(Path(semipoison.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    script = "import sys; from semipoison.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- train


def test_train_prints_exact_fields(tmp_path, capsys):
    code = run_cli("train", "--out", tmp_path, "--synth-n", 40, "--seed", 42)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"precision", "recall", "f1", "w"}
    assert doc["f1"] >= 0.95
    assert len(doc["w"]) == 3
    on_disk = json.loads((tmp_path / "model.json").read_text())
    assert on_disk == doc


@pytest.mark.parametrize(
    "bad",
    [["train", "--synth-n", "99", "--bogus"], ["attack", "--svm-c", "3", "--delta", "x"]],
    ids=["unknown-flag", "bad-value"],
)
def test_bad_flag_leaves_the_next_call_unaffected(tmp_path, capsys, bad):
    """main parses with one parser per process; a call that exits 2 leaves no state in it."""
    assert run_cli("train", "--seed", 5, "--out", tmp_path / "before") == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    assert exc.value.code == 2
    assert run_cli("train", "--seed", 5, "--out", tmp_path / "after") == 0
    assert cli.build_parser() is cli.build_parser()
    runs = [tmp_path / "before", tmp_path / "after"]
    assert (runs[0] / "model.json").read_bytes() == (runs[1] / "model.json").read_bytes()
    before, after = (json.loads((run / "config.json").read_text()) for run in runs)
    assert (before.pop("out"), after.pop("out")) == tuple(map(str, runs))
    assert after == before == {
        "data": None, "ridge_eps": 1e-06, "seed": 5, "svm_c": 10.0, "synth_n": 40
    }


def test_train_writes_resolved_config(tmp_path, capsys):
    run_cli("train", "--out", tmp_path, "--seed", 11)
    resolved = json.loads((tmp_path / "config.json").read_text())
    assert resolved["seed"] == 11
    assert resolved["synth_n"] == 40
    assert resolved["svm_c"] == 10.0


def test_train_from_csv(tmp_path, capsys):
    data = synth_lane_change(24, seed=8)
    write_csv(data, tmp_path / "lanes.csv")
    code = run_cli("train", "--out", tmp_path, "--data", tmp_path / "lanes.csv")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision"] == 1.0 and doc["recall"] == 1.0


def test_train_missing_file_is_validation_error(tmp_path, capsys):
    code = run_cli("train", "--out", tmp_path, "--data", tmp_path / "absent.csv")
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_train_header_only_file_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("lateral_velocity,space_headway,label\n")
    code = run_cli("train", "--out", tmp_path, "--data", bad)
    assert code == 2


def test_train_overflowing_feature_is_validation_error(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(
        "lateral_velocity,space_headway,label\n-0.7,1e308,1\n-0.1,-1e308,-1\n0.05,1e308,-1\n"
    )
    code = run_cli("train", "--out", tmp_path / "run", "--data", data)
    assert code == 2
    assert "feature 'space_headway' has a non-finite mean or std" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [("--svm-c", "inf"), ("--ridge-eps", "nan")])
def test_train_non_finite_svm_parameter_is_validation_error(tmp_path, capsys, flag, value):
    code = run_cli("train", "--out", tmp_path, flag, value)
    assert code == 2
    assert "must be finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------- attack


@pytest.fixture(scope="module")
def attack_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("attack")
    code = run_cli(
        "attack", "--out", out, "--synth-n", 24, "--seed", 3, "--max-iters", 200
    )
    return code, out


def test_attack_reaches_target(attack_run):
    code, out = attack_run
    assert code == 0
    summary = json.loads((out / "attack.json").read_text())
    assert summary["reason"] == "optimal"
    w1, w2, _ = summary["weights"]
    assert abs(w1 - w2) <= 1e-4


def test_attack_writes_all_outputs(attack_run):
    _, out = attack_run
    for name in ("config.json", "trace.jsonl", "summary.csv", "poisoned.csv", "diff.csv", "attack.json"):
        assert (out / name).exists(), name


def test_attack_summary_matches_trace(attack_run):
    _, out = attack_run
    rows = read_rows(out / "summary.csv")
    assert rows[0] == ["k", "objective", "distance"]
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(rows) == len(lines) + 2  # header + k=0 row
    objectives = [float(r[1]) for r in rows[1:]]
    assert objectives == sorted(objectives, reverse=True)


def test_attack_poisoned_dataset_reloads(attack_run):
    _, out = attack_run
    poisoned = load_csv(out / "poisoned.csv")
    pristine = synth_lane_change(24, seed=3)
    assert poisoned.n_rows == 24
    assert np.array_equal(poisoned.labels, pristine.labels)
    # diff.csv names exactly the rows that moved
    moved = np.flatnonzero(
        np.linalg.norm(poisoned.features - pristine.features, axis=1) > 1e-12
    )
    diff_rows = read_rows(out / "diff.csv")
    assert diff_rows[0][0] == "point"
    assert [int(r[0]) for r in diff_rows[1:]] == list(moved)
    for row in diff_rows[1:]:
        i = int(row[0])
        d = poisoned.features[i] - pristine.features[i]
        assert abs(float(row[1]) - d[0]) < 1e-12
        assert abs(float(row[2]) - d[1]) < 1e-12


def test_attack_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("attack", "--out", out, "--synth-n", 16, "--seed", 5, "--max-iters", 30)
        assert code in (0, 4)
    for name in ("trace.jsonl", "summary.csv", "poisoned.csv", "diff.csv", "attack.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_attack_zero_budget_exits_4(tmp_path, capsys):
    code = run_cli("attack", "--out", tmp_path, "--synth-n", 16, "--seed", 5, "--delta", 0.0)
    assert code == 4
    summary = json.loads((tmp_path / "attack.json").read_text())
    assert summary["reason"] == "budget"
    assert summary["iterations"] == 0


def test_attack_explicit_weight_target(tmp_path, capsys):
    code = run_cli(
        "attack", "--out", tmp_path, "--synth-n", 20, "--seed", 7,
        "--target=-1.0,-1.0", "--max-iters", 150,
    )
    assert code == 0
    summary = json.loads((tmp_path / "attack.json").read_text())
    w1, w2, _ = summary["weights"]
    assert abs(w1 + 1.0) <= 1e-4 and abs(w2 + 1.0) <= 1e-4


def test_attack_raw_bounds_respected(tmp_path):
    code = run_cli(
        "attack", "--out", tmp_path, "--synth-n", 20, "--seed", 9,
        "--bounds=-3,3,5,60", "--delta", 2.5, "--max-iters", 60,
    )
    assert code in (0, 4)
    poisoned = load_csv(tmp_path / "poisoned.csv")
    assert np.all(poisoned.features[:, 0] >= -3 - 1e-9)
    assert np.all(poisoned.features[:, 0] <= 3 + 1e-9)
    assert np.all(poisoned.features[:, 1] >= 5 - 1e-9)
    assert np.all(poisoned.features[:, 1] <= 60 + 1e-9)


def test_attack_raw_budget_is_converted_to_normalized_units(tmp_path, monkeypatch):
    """--delta-units raw divides the budget by the largest raw feature std."""
    budgets, inner = [], cli.run_attack
    monkeypatch.setattr(
        cli, "run_attack", lambda x0, model, cfg: budgets.append(cfg.delta) or inner(x0, model, cfg)
    )
    for units in ("raw", "normalized"):
        argv = ("--synth-n", 8, "--seed", 0, "--max-iters", 1, "--delta", 2.0)
        assert run_cli("attack", *argv, "--delta-units", units, "--out", tmp_path / units) in (0, 4)
    std = synth_lane_change(8, 0).features.std(axis=0).max()
    assert std > 1.0
    assert budgets == [2.0 / std, 2.0]


def test_attack_bad_target_string(tmp_path, capsys):
    code = run_cli("attack", "--out", tmp_path, "--target", "w1=w2")
    assert code == 2
    assert "target" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--target=x,1", "target weights must be numbers, got 'x,1'"),
        ("--bounds=a,3,5,60", "bounds must be numbers, got 'a,3,5,60'"),
    ],
    ids=["target", "bounds"],
)
def test_non_numeric_values_exit_2_before_any_output(tmp_path, capsys, flag, message):
    out = tmp_path / "run"
    assert run_cli("attack", "--synth-n", 20, flag, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_attack_bad_bounds_string(tmp_path, capsys):
    code = run_cli("attack", "--out", tmp_path, "--bounds", "1,2,3")
    assert code == 2


def test_attack_normalized_bounds_out_of_order(tmp_path, capsys):
    code = run_cli(
        "attack", "--out", tmp_path, "--bounds", "1,0,0,1", "--bounds-units", "normalized"
    )
    assert code == 2
    assert "lower bounds exceed upper bounds" in capsys.readouterr().err


def test_attack_nan_curvature_bound_is_validation_error(tmp_path, capsys):
    code = run_cli("attack", "--out", tmp_path, "--curvature-bound", "nan")
    assert code == 2
    assert "curvature_bound must be finite" in capsys.readouterr().err


def test_attack_overflowing_trial_step_ends(tmp_path):
    """-dg / curvature_bound overflows to inf; halving it must not loop forever."""
    proc = run_cli_process(
        "attack", "--out", tmp_path, "--synth-n", 20, "--curvature-bound", "1e-320",
        "--max-iters", 3, timeout=60,
    )
    assert proc.returncode in (0, 4), proc.stderr
    assert "Warning" not in proc.stderr


def flipped_csv(tmp_path, seed, flip):
    """synth_lane_change(20, seed) with label `flip` flipped: no longer separable."""
    data = synth_lane_change(20, seed=seed)
    labels = data.labels.copy()
    labels[flip] = -labels[flip]
    path = tmp_path / "flipped.csv"
    write_csv(Dataset(data.features, labels, seed=seed), path)
    return path


def test_attack_overflowing_kkt_residual_is_solver_error(tmp_path, capsys):
    """With C = 1e308 a victim solve ends at a point whose residuals overflow.

    At C = 1e300 every flipped n=20 input of seeds 0-5 now solves within
    the KKT tolerances, since a bound's multiplier is read off the
    gradient; 34 of those 120 once failed the gate.
    """
    code = run_cli(
        "attack", "--out", tmp_path / "run", "--data", flipped_csv(tmp_path, 2, 12),
        "--svm-c", "1e308", "--max-iters", 3,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "violating KKT tolerances" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "seed, flip, message",
    [(0, 11, "active-set step is not finite"), (1, 3, "active-set step is not finite"),
     (2, 17, "working-set multipliers are not finite")],
    ids=["0", "1", "2"],
)
@pytest.mark.parametrize("argv", [("train",), ("attack", "--max-iters", 3)], ids=["train", "attack"])
def test_overflowing_active_set_step_is_solver_error(tmp_path, capsys, argv, seed, flip, message):
    """With C = 1e308 the working-set minimizer overflows inside the active-set loop."""
    code = run_cli(
        *argv, "--out", tmp_path / "run", "--data", flipped_csv(tmp_path, seed, flip),
        "--svm-c", "1e308",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: {message}") and "Warning" not in err


@pytest.mark.parametrize("argv", [("train",), ("attack", "--max-iters", 3)], ids=["train", "attack"])
def test_overflowing_objective_value_is_solver_error(tmp_path, argv):
    """With C = 1e308 the solve meets the KKT gate but c @ y overflows."""
    proc = run_cli_process(
        *argv, "--out", tmp_path / "run", "--data", flipped_csv(tmp_path, 1, 2),
        "--svm-c", "1e308", timeout=60,
    )
    assert proc.returncode == 3
    assert "objective value at the KKT point is not finite" in proc.stderr
    assert "Warning" not in proc.stderr


def test_train_extreme_c_gives_hard_margin_svm(tmp_path, capsys):
    """Separable data at C = 1e308 train to the same (w, b) as at C = 1e4."""
    weights = []
    for c in ("1e4", "1e308"):
        assert run_cli("train", "--out", tmp_path / c, "--synth-n", 20, "--svm-c", c) == 0
        weights.append(np.array(json.loads((tmp_path / c / "model.json").read_text())["w"]))
    assert "Warning" not in capsys.readouterr().err
    assert np.abs(weights[1] - weights[0]).max() <= 1e-12 * np.abs(weights[0]).max()


def test_attack_trial_step_with_overflowing_norm(tmp_path, capsys, monkeypatch):
    """-dg / curvature_bound is finite but its squared norm overflows in the projection.

    The first trial of each round still lands on the ball, so backtracking
    does not re-solve the victim hundreds of times on the way down.
    """
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args[1])
        return victims.solve_victim(*args, **kwargs)

    monkeypatch.setattr(attack, "solve_victim", counting_solve)
    code = run_cli(
        "attack", "--out", tmp_path, "--synth-n", 20, "--curvature-bound", "1e-300",
        "--max-iters", 3,
    )
    assert code in (0, 4)
    assert "Warning" not in capsys.readouterr().err
    assert len(solves) <= 10
    delta = json.loads((tmp_path / "config.json").read_text())["delta"]
    assert json.loads((tmp_path / "attack.json").read_text())["displacement"] <= delta


# ---------------------------------------------------------------- config file


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth_n": 16, "seed": 5, "max_iters": 3}))
    out = tmp_path / "run"
    code = run_cli("attack", "--config", cfg, "--out", out, "--max-iters", 2)
    assert code in (0, 4)
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["synth_n"] == 16  # from file
    assert resolved["max_iters"] == 2  # flag wins
    assert resolved["delta"] == 3.0  # untouched default
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) <= 2


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    code = run_cli("train", "--config", cfg, "--out", tmp_path)
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code = run_cli("train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err == f"error: config file {cfg} must hold a flat JSON object\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: cannot read config file {}: "),
        ("{not json", "error: config file {} is not valid JSON: "),
    ],
    ids=["missing", "not-json"],
)
def test_unreadable_config_file_exits_2_before_any_output(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "run"
    assert run_cli("attack", "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err.startswith(message.format(cfg))
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("attack", {"max_iters": "10"}),
        ("train", {"synth_n": "40"}),
        ("train", {"svm_c": "10"}),
        ("train", {"seed": "x"}),
        ("attack", {"bounds": [-3, 3, 5, 60]}),
        ("attack", {"delta": True}),
        ("train", {"synth_n": 40.0}),
        ("train", {"seed": None}),
        ("attack", {"delta_units": "miles"}),
        ("compare", {"victim": "lasso"}),
        ("sensitivity-check", {"trials": True}),
    ],
)
def test_config_file_value_of_wrong_type_rejected(tmp_path, capsys, command, doc):
    (key,) = doc
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = run_cli(command, "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_values_of_flag_types_accepted(tmp_path, capsys):
    # an integer for a float flag, null where the default is null
    doc = {"svm_c": 10, "delta": 2, "data": None, "synth_n": 16, "max_iters": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = run_cli("attack", "--config", cfg, "--out", out)
    assert code in (0, 4)
    resolved = json.loads((out / "config.json").read_text())
    assert {key: resolved[key] for key in doc} == doc


@pytest.mark.parametrize(
    "argv",
    [
        ("sensitivity-check", "--trials", -1),
        ("sensitivity-check", "--trials", 5, "--tol", "nan"),
        ("attack", "--delta", "nan"),
        ("compare", "--delta", "nan"),
        ("compare", "--victim", "quadratic", "--delta", "nan"),
        ("train", "--svm-c", "inf"),
        # the pristine points lie outside this box, which run_attack rejects
        ("attack", "--synth-n", 16, "--bounds", "0,0.001,0,0.001", "--bounds-units", "normalized"),
        ("attack", "--synth-n", 20, "--target=nan,1"),
        ("attack", "--synth-n", 20, "--target=inf,0"),
        ("attack", "--synth-n", 20, "--bounds=nan,3,5,60"),
        # finite targets whose squared residual overflows
        ("attack", "--synth-n", 20, "--target=1e200,0"),
        ("compare", "--synth-n", 20, "--target=1e200,0"),
        # non-finite tolerances: a NaN tol_target never stops a run as optimal
        ("attack", "--synth-n", 20, "--tol-target", "nan"),
        ("attack", "--synth-n", 20, "--tol-improve", "inf"),
        # a config file naming the removed direction knobs: unknown keys
        ("attack", "--synth-n", 20, "--config", {"num_random_dirs": 8, "random_probe": True}),
        # negative seeds, by flag and by config file
        ("sensitivity-check", "--seed", -1),
        ("attack", "--synth-n", 20, "--seed", -1),
        ("sensitivity-check", "--config", {"seed": -1}),
    ],
    ids=[
        "trials", "tol", "attack-delta", "compare-delta", "quadratic-delta", "svm-c", "box",
        "target-nan", "target-inf", "bounds-nan", "attack-target-overflow",
        "compare-target-overflow", "tol-target-nan", "tol-improve-inf", "removed-keys",
        "sensitivity-seed", "attack-seed", "config-seed",
    ],
)
def test_rejected_run_creates_no_output(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):  # the contents of the --config file
        (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = run_cli(*argv, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--synth-n", 20),
        ("attack", "--synth-n", 8, "--max-iters", 2),
        ("compare", "--synth-n", 8, "--max-iters", 2),
    ],
    ids=["train", "attack", "compare"],
)
def test_out_naming_a_file_is_validation_error(tmp_path, capsys, monkeypatch, argv, under):
    """Rejected before the work: the solver never runs."""
    solves, real_solve = [], victims.solve_qp
    monkeypatch.setattr(
        victims, "solve_qp", lambda *a, **k: solves.append(a) or real_solve(*a, **k)
    )
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / "sub" if under else afile
    assert run_cli(*argv, "--out", out) == 2
    assert solves == []
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output directory ") and str(out) in err
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["train", "attack", "sensitivity-check"])
def test_out_name_too_long_is_validation_error(tmp_path, capsys, monkeypatch, command):
    """A 300-character --out exits 2 with the OS's reason, creating nothing."""
    monkeypatch.chdir(tmp_path)
    argv = (command, "--synth-n", 8) if command != "sensitivity-check" else (command,)
    assert run_cli(*argv, "--out", "d" * 300) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write output directory {'d' * 300}: File name too long\n"
    assert list(tmp_path.iterdir()) == []


def test_out_that_cannot_be_created_is_validation_error(tmp_path, capsys, monkeypatch):
    """An OSError from creating the output directory exits 2 with its reason."""

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "mkdir", refuse)
    out = tmp_path / "run"
    assert run_cli("train", "--synth-n", 8, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write output directory {out}: Permission denied\n"
    assert not out.exists()


TRAIN = ("train", "--synth-n", 8)
ATTACK = ("attack", "--synth-n", 8, "--max-iters", 2)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("config.json", TRAIN),
        ("model.json", TRAIN),
        ("stats.json", TRAIN),
        ("trace.jsonl", ATTACK),
        ("summary.csv", ATTACK),
        ("poisoned.csv", ATTACK),
        ("diff.csv", ATTACK),
        ("attack.json", ATTACK),
        ("compare.csv", ("compare", "--synth-n", 8, "--max-iters", 2)),
        ("trials.csv", ("sensitivity-check", "--trials", 2)),
    ],
)
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, name, argv):
    """A directory in the place of an output file: exit 2 after the work, nothing printed."""
    (tmp_path / name).mkdir()
    assert run_cli(*argv, "--out", tmp_path) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write output file {tmp_path / name}: Is a directory\n"
    )
    assert name == "config.json" or (tmp_path / "config.json").is_file()  # written before, kept


@pytest.mark.parametrize("argv", [ATTACK, ("train", "--data", "lanes.csv")], ids=["synth", "csv"])
def test_out_of_memory_exits_3_before_any_output(tmp_path, capsys, monkeypatch, argv):
    """A dataset too large to hold (attack --synth-n 100000000000, say) exits 3 with one line."""

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 373. GiB for an array")

    monkeypatch.setattr(cli, "synth_lane_change", exhausted)
    monkeypatch.setattr(cli, "load_csv", exhausted)
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", out) == 3
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 373. GiB for an array\n")
    assert not out.exists()


def test_output_formats(tmp_path, capsys, monkeypatch):
    """CSV: header first, CRLF line ends, floats as repr(float(v)); JSON: indent 2, then a newline."""
    dev = np.float64(2.0) / 3
    trials = [sensitivity.OracleTrial(11, "ok", dev), sensitivity.OracleTrial(12, "skipped (solve)")]
    monkeypatch.setattr(cli, "run_oracle_trials", lambda n_trials, seed: trials)
    assert run_cli("sensitivity-check", "--trials", 2, "--out", tmp_path / "s") == 3
    assert (tmp_path / "s" / "trials.csv").read_bytes() == (
        f"trial,seed,status,deviation\r\n0,11,ok,{float(dev)!r}\r\n1,12,skipped (solve),\r\n"
    ).encode()
    assert float(read_rows(tmp_path / "s" / "trials.csv")[1][3]) == dev

    capsys.readouterr()
    assert run_cli("train", "--synth-n", 8, "--seed", 1, "--out", tmp_path / "t") == 0
    printed = capsys.readouterr().out
    docs = {
        "config.json": {
            "data": None, "out": str(tmp_path / "t"), "ridge_eps": 1e-6, "seed": 1, "svm_c": 10.0,
            "synth_n": 8,
        },
        "model.json": json.loads(printed),
        "stats.json": normalize(synth_lane_change(8, seed=1)).stats_dict(),
    }
    for name, doc in docs.items():
        text = (tmp_path / "t" / name).read_text(encoding="utf-8")
        assert text.endswith("}\n") and json.loads(text) == doc, name
        assert text == json.dumps(doc, indent=2, sort_keys=name == "config.json") + "\n", name
    assert (tmp_path / "t" / "model.json").read_text() == printed


def test_negative_seed_message_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv in (("train", "--seed", -1), ("sensitivity-check", "--config", cfg)):
        assert run_cli(*argv, "--out", tmp_path / "run") == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--synth-n", 20, "--seed", 3),
        ("attack", "--synth-n", 16, "--seed", 5, "--max-iters", 10, "--bounds=-3,3,5,60"),
        ("compare", "--synth-n", 12, "--seed", 2, "--max-iters", 5),
        ("compare", "--victim", "quadratic", "--max-iters", 5),
        ("sensitivity-check", "--trials", 10, "--seed", 3),
    ],
    ids=["train", "attack", "compare", "compare-quadratic", "sensitivity-check"],
)
def test_run_reproduces_from_its_config_file(tmp_path, capsys, argv):
    first = tmp_path / "first"
    second = tmp_path / "second"
    code = run_cli(*argv, "--out", first)
    printed = capsys.readouterr().out
    assert run_cli(argv[0], "--config", first / "config.json", "--out", second) == code
    assert capsys.readouterr().out == printed
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "config.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    configs = [json.loads((out / "config.json").read_text()) for out in (first, second)]
    assert configs[0] == {**configs[1], "out": str(first)}


@pytest.mark.parametrize(
    "error, code", [(errors.ParseError, 2), (errors.SingularHessian, 3), (ValueError, 2)]
)
def test_error_types_map_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(resolved):
        raise error("boom")

    monkeypatch.setitem(cli.COMMANDS, "toy", fail)
    assert run_cli("toy") == code
    assert "boom" in capsys.readouterr().err


def test_every_error_type_has_an_exit_code():
    """Each toolkit error but Stalled, which the attack driver handles, maps to exit 2 or 3."""
    kinds = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]
    unmapped = [
        kind.__name__ for kind in kinds
        if not issubclass(kind, (errors.InputError, errors.SolverError))
    ]
    assert sorted(unmapped) == ["SemipoisonError", "Stalled"]


# ---------------------------------------------------------------- compare


def test_compare_semi_beats_stalled_gradient(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--out", out, "--synth-n", 16, "--seed", 5, "--max-iters", 40)
    assert code == 0
    doc = json.loads((out / "compare.json").read_text())
    # data enters the SVM only through constraints, so the classical
    # gradient vanishes and the baseline cannot move
    assert doc["gradient"]["reason"] == "stalled"
    assert doc["gradient"]["iterations"] == 0
    assert doc["semi"]["final_objective"] < doc["gradient"]["final_objective"]

    rows = read_rows(out / "compare.csv")
    assert rows[0] == ["k", "objective_semi", "objective_grad"]
    assert len(rows) - 1 == doc["semi"]["iterations"] + 1
    assert float(rows[1][1]) == float(rows[1][2])  # shared pristine start
    grad_col = {float(r[2]) for r in rows[1:]}
    assert len(grad_col) == 1  # flat line after the stall


def test_compare_quadratic_victim_curves_identical(tmp_path):
    out = tmp_path / "quad"
    code = run_cli(
        "compare", "--out", out, "--victim", "quadratic",
        "--seed", 11, "--max-iters", 25,
    )
    assert code == 0
    rows = read_rows(out / "compare.csv")[1:]
    assert len(rows) == 26
    for _, semi, grad in rows:
        gap = abs(float(semi) - float(grad)) / (1.0 + abs(float(semi)))
        assert gap <= 1e-8
    # a genuine descent, not two traces stuck at the start
    assert float(rows[-1][1]) < 0.5 * float(rows[0][1])


def test_compare_curves_match_library_runs(tmp_path):
    out = tmp_path / "cmp"
    run_cli("compare", "--out", out, "--synth-n", 12, "--seed", 2, "--max-iters", 10)
    semi_lines = (out / "semi_trace.jsonl").read_text().splitlines()
    rows = read_rows(out / "compare.csv")
    last_semi = json.loads(semi_lines[-1])
    assert float(rows[-1][1]) == last_semi["objective"]


# ---------------------------------------------------------------- sensitivity-check


def test_sensitivity_check_passes(tmp_path, capsys):
    code = run_cli("sensitivity-check", "--out", tmp_path, "--trials", 20, "--seed", 7)
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    rows = read_rows(tmp_path / "trials.csv")
    assert rows[0] == ["trial", "seed", "status", "deviation"]
    assert len(rows) == 21
    for row in rows[1:]:
        assert row[2] == "ok"
        assert float(row[3]) <= 5e-4


def test_sensitivity_check_zero_trials_vacuous(tmp_path, capsys):
    code = run_cli("sensitivity-check", "--out", tmp_path, "--trials", 0)
    assert code == 0
    captured = capsys.readouterr()
    assert "vacuous" in captured.out
    assert "warning" in captured.err
    assert len(read_rows(tmp_path / "trials.csv")) == 1


def test_sensitivity_check_tight_tolerance_fails(tmp_path, capsys):
    code = run_cli("sensitivity-check", "--out", tmp_path, "--trials", 5, "--tol", 1e-16)
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_sensitivity_check_bad_tolerance_is_validation_error(tmp_path, capsys, tol):
    code = run_cli("sensitivity-check", "--out", tmp_path, "--trials", 5, "--tol", tol)
    assert code == 2
    assert "tol must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "trials.csv").exists()


# ---------------------------------------------------------------- toy


def test_toy_report_values():
    report = cli.toy_report()
    assert report["grid_max_deviation"] <= 1e-6
    assert len(report["grid_x"]) == 201
    assert abs(report["rate_right"] - 3.0) <= 1e-9
    assert abs(report["rate_left"] - 1.0) <= 1e-9
    assert report["chosen_direction"] == 1


def test_toy_report_takes_the_semi_derivative_where_licq_holds(monkeypatch):
    """The toy's kink fails LICQ; at the kink of max(x, 0) the rates come from the aux problem.

    The route is picked once, so both rates come from semi_derivative,
    and no finite difference is taken.  x + 2 max(x, 0) has rates 3 and -1.
    """
    monkeypatch.setattr(cli, "toy_bilevel_model", kink_projection_model)
    monkeypatch.setattr(cli, "fd_directional_derivative", lambda *args, **kwargs: pytest.fail())
    report = cli.toy_report()
    assert report["derivative_route"] == "one-sided derivative"
    assert (report["rate_right"], report["rate_left"]) == (3.0, -1.0)
    assert report["chosen_direction"] == 1


def test_toy_command_output(capsys):
    code = run_cli("toy")
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen perturbation direction: +1" in out
    assert "3.000000" in out and "1.000000" in out


@pytest.mark.filterwarnings("ignore:'semipoison.cli' found in sys.modules:RuntimeWarning")
def test_module_run_as_a_script_exits_with_mains_code(monkeypatch, capsys):
    """python -m semipoison.cli toy runs main through the __main__ guard and exits 0."""
    monkeypatch.setattr(sys, "argv", ["semipoison", "toy"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("semipoison.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert "chosen perturbation direction: +1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, code, stream, text",
    [
        ({}, 0, "out", "chosen perturbation direction: +1"),
        ({"seed": 1}, 2, "err", "unknown config keys"),
    ],
    ids=["empty", "unknown-key"],
)
def test_toy_config_file(tmp_path, capsys, doc, code, stream, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("toy", "--config", cfg) == code
    assert text in getattr(capsys.readouterr(), stream)


def test_toy_self_check_failure_exits_3(monkeypatch, capsys):
    """A learned map 1e-3 off |x| fails the walkthrough's check, not the process."""
    solve = victims.solve_qp

    def shifted(problem, **kwargs):
        sol = solve(problem, **kwargs)
        sol.y = sol.y + 1e-3
        return sol

    monkeypatch.setattr(victims, "solve_qp", shifted)
    assert run_cli("toy") == 3
    assert "toy walkthrough failed its self-check" in capsys.readouterr().err
