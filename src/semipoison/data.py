"""Lane-change datasets: CSV ingestion, synthesis, and standardization.

A dataset is a table of driving observations, one row per vehicle: the
lateral velocity in m/s, the space headway to the preceding vehicle in
m, and a binary label (+1 lane change, -1 lane keep).  Learning and
attacks run in z-scored feature space; the helpers at the bottom carry
budgets and box bounds between raw and normalized units.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadLabel, DegenerateFeature, DimensionMismatch, ParseError

FEATURE_NAMES = ("lateral_velocity", "space_headway")
CSV_HEADER = FEATURE_NAMES + ("label",)
MIN_FEATURE_STD = 1e-12

LANE_CHANGE_LATVEL = (-0.8, 0.15)  # mean m/s, std
LANE_CHANGE_HEADWAY = (18.0, 4.0)  # mean m, std
KEEP_LANE_LATVEL = (0.0, 0.15)
KEEP_LANE_HEADWAY = (45.0, 4.0)


@dataclass(eq=False)
class Dataset:
    """Feature table with labels and the statistics used for z-scoring.

    mean and std always describe the raw feature columns; features holds
    raw values when normalized is False and z-scores otherwise.  The
    standard deviation is the population (n-denominator) one.
    """

    features: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) in {-1, +1}
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    seed: int | None = None
    normalized: bool = False

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.features.shape[1] != len(FEATURE_NAMES):
            raise DimensionMismatch(
                f"features must have shape (n, {len(FEATURE_NAMES)}), got {self.features.shape}"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatch("labels must have one entry per feature row")
        if self.features.shape[0] == 0:
            raise ValueError("a dataset needs at least one row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        bad = np.flatnonzero(~np.isin(self.labels, (-1.0, 1.0)))
        if bad.size:
            raise BadLabel(f"labels must be -1 or +1; offending data row {int(bad[0]) + 1}")
        # statistics that overflow come out non-finite, which normalize rejects
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.features.mean(axis=0) if self.mean is None else self.mean
            std = self.features.std(axis=0) if self.std is None else self.std
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def stats_dict(self) -> dict:
        return {
            "features": [
                {"name": name, "mean": float(m), "std": float(s)}
                for name, m, s in zip(FEATURE_NAMES, self.mean, self.std)
            ],
            "rows": self.n_rows,
            "normalized": self.normalized,
            "seed": self.seed,
        }


def load_csv(path) -> Dataset:
    """Parse a dataset file and compute its normalization statistics.

    The file must start with the exact header
    ``lateral_velocity,space_headway,label``, after an optional UTF-8 BOM;
    LF and CRLF endings parse identically.  Row numbers count the header as
    row 1.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if tuple(cell.strip() for cell in header) != CSV_HEADER:
            raise ParseError(
                f"{path}: row 1: expected header {','.join(CSV_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        features = []
        labels = []
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore trailing blank lines
            if len(row) != 3:
                raise ParseError(f"{path}: row {row_no}: expected 3 fields, got {len(row)}")
            values = []
            for col, cell in zip(CSV_HEADER, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_no}: column {col!r}: not a number: {cell.strip()!r}"
                    ) from None
            if values[2] not in (-1.0, 1.0):
                raise BadLabel(f"{path}: row {row_no}: label must be -1 or +1, got {row[2].strip()!r}")
            features.append(values[:2])
            labels.append(values[2])
    if not features:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(features), np.array(labels))


def write_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the load_csv schema (values as stored)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), int(label)])


def write_stats_json(dataset: Dataset, path) -> None:
    """Normalization sidecar: per-feature name, mean, and std."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset.stats_dict(), fh, indent=2)
        fh.write("\n")


def synth_lane_change(n: int, seed: int) -> Dataset:
    """Two-Gaussian stand-in for a real lane-change extract.

    n/2 lane-change rows (decisive leftward drift, short headway) and
    n/2 keep-lane rows (no drift, long headway), deterministic in seed.
    The class-conditional feature means sit more than three pooled
    standard deviations apart, so the classes are linearly separable
    with slack at any reasonable n.
    """
    if n < 4 or n % 2:
        raise ValueError("n must be an even number of at least 4")
    rng = np.random.default_rng(seed)
    half = n // 2
    lane = np.column_stack([
        rng.normal(*LANE_CHANGE_LATVEL, half),
        rng.normal(*LANE_CHANGE_HEADWAY, half),
    ])
    keep = np.column_stack([
        rng.normal(*KEEP_LANE_LATVEL, half),
        rng.normal(*KEEP_LANE_HEADWAY, half),
    ])
    features = np.vstack([lane, keep])
    labels = np.concatenate([np.ones(half), -np.ones(half)])
    return Dataset(features, labels, seed=seed)


def normalize(dataset: Dataset) -> Dataset:
    """Z-scored copy of the dataset, statistics carried along."""
    if dataset.normalized:
        return dataset
    for name, mean, std in zip(FEATURE_NAMES, dataset.mean, dataset.std):
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise DegenerateFeature(
                f"feature {name!r} has a non-finite mean or std and cannot be standardized"
            )
        if std <= MIN_FEATURE_STD:
            raise DegenerateFeature(
                f"feature {name!r} has (near-)zero variance and cannot be standardized"
            )
    return Dataset(
        (dataset.features - dataset.mean) / dataset.std,
        dataset.labels.copy(),
        mean=dataset.mean.copy(),
        std=dataset.std.copy(),
        seed=dataset.seed,
        normalized=True,
    )


def denormalize(x, dataset: Dataset) -> np.ndarray:
    """Map z-scored feature values back to raw units.

    Accepts anything whose last axis runs over the 2 features: a single
    (2,) observation or an (n, 2) table.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != len(FEATURE_NAMES):
        raise DimensionMismatch(f"last axis must have length {len(FEATURE_NAMES)}")
    return x * dataset.std + dataset.mean


def normalized_box(lo_raw, hi_raw, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature raw box bounds expressed in z-score units."""
    lo_raw = np.asarray(lo_raw, dtype=float)
    hi_raw = np.asarray(hi_raw, dtype=float)
    if lo_raw.shape != (2,) or hi_raw.shape != (2,):
        raise DimensionMismatch("box bounds must hold one (lo, hi) pair per feature")
    if np.any(lo_raw > hi_raw):
        raise ValueError("box lower bounds exceed upper bounds")
    return (lo_raw - dataset.mean) / dataset.std, (hi_raw - dataset.mean) / dataset.std


def normalized_budget(delta_raw: float, dataset: Dataset) -> float:
    """Largest z-score ball radius guaranteed to respect a raw-unit budget.

    Scaling back to raw units multiplies each coordinate by its feature
    std, so dividing by the largest std is conservative for the
    Euclidean norm.
    """
    if delta_raw < 0:
        raise ValueError("delta must be nonnegative")
    return float(delta_raw / dataset.std.max())
