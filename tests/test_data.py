"""Dataset ingestion, synthesis, and standardization."""

import json

import numpy as np
import pytest

from semipoison.data import (
    Dataset,
    denormalize,
    load_csv,
    normalize,
    normalized_box,
    normalized_budget,
    synth_lane_change,
    write_csv,
    write_stats_json,
)
from semipoison.errors import BadLabel, DegenerateFeature, DimensionMismatch, ParseError

WELL_FORMED = "lateral_velocity,space_headway,label\n-0.7,17.5,1\n-0.1,44.0,-1\n0.05,46.2,-1\n"


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode())
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_load_well_formed(tmp_path):
    ds = load_csv(write(tmp_path, WELL_FORMED))
    assert ds.n_rows == 3
    assert ds.features[0, 0] == -0.7
    assert ds.labels.tolist() == [1.0, -1.0, -1.0]
    assert not ds.normalized
    # statistics are computed at load time
    assert ds.mean == pytest.approx(ds.features.mean(axis=0))
    assert ds.std == pytest.approx(ds.features.std(axis=0))


def test_crlf_parses_identically(tmp_path):
    lf = load_csv(write(tmp_path, WELL_FORMED, "lf.csv"))
    crlf = load_csv(write(tmp_path, WELL_FORMED.replace("\n", "\r\n"), "crlf.csv"))
    bom = load_csv(write(tmp_path, "\ufeff" + WELL_FORMED.replace("\n", "\r\n"), "bom.csv"))
    for other in (crlf, bom):
        assert np.array_equal(lf.features, other.features)
        assert np.array_equal(lf.labels, other.labels)


def test_zero_label_is_rejected_with_row_number(tmp_path):
    text = "lateral_velocity,space_headway,label\n-0.7,17.5,1\n-0.1,44.0,0\n"
    with pytest.raises(BadLabel, match="row 3"):
        load_csv(write(tmp_path, text))


def test_wrong_header_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="row 1"):
        load_csv(write(tmp_path, "lat_vel,headway,label\n-0.7,17.5,1\n"))


def test_non_numeric_field_names_row_and_column(tmp_path):
    text = "lateral_velocity,space_headway,label\n-0.7,fast,1\n"
    with pytest.raises(ParseError, match="row 2.*space_headway"):
        load_csv(write(tmp_path, text))


def test_short_row_and_empty_file(tmp_path):
    with pytest.raises(ParseError, match="3 fields"):
        load_csv(write(tmp_path, "lateral_velocity,space_headway,label\n-0.7,17.5\n"))
    with pytest.raises(ParseError, match="empty"):
        load_csv(write(tmp_path, "", "empty.csv"))
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(write(tmp_path, "lateral_velocity,space_headway,label\n", "hdr.csv"))


def test_csv_round_trip(tmp_path):
    ds = synth_lane_change(10, seed=4)
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(BadLabel):
        Dataset(np.zeros((2, 2)), np.array([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((2, 2)), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([1.0]))


def test_synth_is_deterministic_and_balanced():
    a = synth_lane_change(40, seed=42)
    b = synth_lane_change(40, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.seed == 42
    c = synth_lane_change(4, seed=0)
    assert int((c.labels == 1).sum()) == 2
    assert int((c.labels == -1).sum()) == 2
    with pytest.raises(ValueError):
        synth_lane_change(5, seed=0)
    with pytest.raises(ValueError):
        synth_lane_change(2, seed=0)


def test_synth_classes_are_well_separated():
    for seed in range(6):
        ds = synth_lane_change(40, seed=seed)
        pos = ds.features[ds.labels == 1]
        neg = ds.features[ds.labels == -1]
        for j in range(2):
            pooled = np.sqrt(0.5 * (pos[:, j].var() + neg[:, j].var()))
            assert abs(pos[:, j].mean() - neg[:, j].mean()) >= 3.0 * pooled


def test_lane_change_rows_drift_left_with_short_headway():
    ds = synth_lane_change(200, seed=1)
    pos = ds.features[ds.labels == 1]
    neg = ds.features[ds.labels == -1]
    assert pos[:, 0].mean() < -0.5  # decisive leftward lateral velocity
    assert pos[:, 1].mean() < neg[:, 1].mean()  # shorter headway before a change


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_centers_and_scales():
    ds = normalize(synth_lane_change(40, seed=3))
    assert ds.normalized
    assert np.abs(ds.features.mean(axis=0)).max() < 1e-9
    assert np.abs(ds.features.std(axis=0) - 1.0).max() < 1e-9
    # statistics still describe the raw columns
    raw = synth_lane_change(40, seed=3)
    assert ds.mean == pytest.approx(raw.features.mean(axis=0))


def test_normalize_is_idempotent():
    ds = normalize(synth_lane_change(8, seed=0))
    assert normalize(ds) is ds


def test_two_point_feature_normalizes_to_unit_values():
    ds = Dataset(np.array([[1.0, 1.0], [3.0, 3.0]]), np.array([1.0, -1.0]))
    out = normalize(ds)
    assert out.features[:, 0] == pytest.approx([-1.0, 1.0])
    assert out.features[:, 1] == pytest.approx([-1.0, 1.0])


def test_constant_feature_is_degenerate():
    ds = Dataset(np.array([[0.5, 10.0], [0.5, 20.0]]), np.array([1.0, -1.0]))
    with pytest.raises(DegenerateFeature, match="lateral_velocity"):
        normalize(ds)


def test_overflowing_feature_is_degenerate(tmp_path):
    # the std of these headways overflows to inf; no RuntimeWarning may escape either
    text = "lateral_velocity,space_headway,label\n-0.7,1e308,1\n-0.1,-1e308,-1\n0.05,1e308,-1\n"
    ds = load_csv(write(tmp_path, text))
    assert not np.isfinite(ds.std[1])
    with pytest.raises(DegenerateFeature, match="'space_headway' has a non-finite mean or std"):
        normalize(ds)


def test_denormalize_round_trip():
    rng = np.random.default_rng(7)
    ds = synth_lane_change(30, seed=9)
    norm = normalize(ds)
    assert np.abs(denormalize(norm.features, norm) - ds.features).max() < 1e-10
    single = rng.normal(size=2)
    back = (denormalize(single, norm) - norm.mean) / norm.std
    assert back == pytest.approx(single, abs=1e-10)
    with pytest.raises(DimensionMismatch):
        denormalize(np.zeros(3), norm)


# ---------------------------------------------------------------------------
# unit carriers for attack parameters
# ---------------------------------------------------------------------------


def test_normalized_box_maps_each_feature():
    ds = normalize(synth_lane_change(40, seed=5))
    lo, hi = normalized_box([-1.5, 10.0], [0.5, 60.0], ds)
    assert lo == pytest.approx((np.array([-1.5, 10.0]) - ds.mean) / ds.std)
    assert hi == pytest.approx((np.array([0.5, 60.0]) - ds.mean) / ds.std)
    assert np.all(lo < hi)
    with pytest.raises(ValueError):
        normalized_box([1.0, 0.0], [0.0, 1.0], ds)
    with pytest.raises(DimensionMismatch):
        normalized_box([0.0], [1.0], ds)


def test_normalized_budget_is_conservative():
    ds = normalize(synth_lane_change(40, seed=5))
    delta_raw = 2.0
    delta_norm = normalized_budget(delta_raw, ds)
    rng = np.random.default_rng(0)
    for _ in range(100):
        step = rng.normal(size=2)
        step *= delta_norm / np.linalg.norm(step)
        raw_step = step * ds.std  # displacement in raw units
        assert np.linalg.norm(raw_step) <= delta_raw * (1 + 1e-12)
    with pytest.raises(ValueError):
        normalized_budget(-1.0, ds)


def test_stats_sidecar(tmp_path):
    ds = normalize(synth_lane_change(12, seed=2))
    path = tmp_path / "stats.json"
    write_stats_json(ds, path)
    doc = json.loads(path.read_text())
    assert [f["name"] for f in doc["features"]] == ["lateral_velocity", "space_headway"]
    assert doc["features"][0]["mean"] == pytest.approx(ds.mean[0])
    assert doc["features"][1]["std"] == pytest.approx(ds.std[1])
    assert doc["rows"] == 12
    assert doc["normalized"] is True
