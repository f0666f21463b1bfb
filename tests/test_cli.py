"""End-to-end checks of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from semipoison import cli
from semipoison.data import load_csv, synth_lane_change, write_csv


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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


def test_attack_bad_target_string(tmp_path, capsys):
    code = run_cli("attack", "--out", tmp_path, "--target", "w1=w2")
    assert code == 2
    assert "target" in capsys.readouterr().err


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
    code = run_cli("train", "--config", cfg, "--out", tmp_path)
    assert code == 2


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


# ---------------------------------------------------------------- toy


def test_toy_report_values():
    report = cli.toy_report()
    assert report["grid_max_deviation"] <= 1e-6
    assert len(report["grid_x"]) == 201
    assert abs(report["rate_right"] - 3.0) <= 1e-9
    assert abs(report["rate_left"] - 1.0) <= 1e-9
    assert report["chosen_direction"] == 1


def test_toy_command_output(capsys):
    code = run_cli("toy")
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen perturbation direction: +1" in out
    assert "3.000000" in out and "1.000000" in out
