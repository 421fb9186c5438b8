"""The constrained input domain and dataset handling.

Model inputs live on X = {x : ||x||_2 = 1, x_d = 1/2}: a sphere of radius
sqrt(3)/2 in the first d-1 coordinates with the last coordinate pinned to 1/2.
This module owns ingestion/normalization onto X, synthetic well-separated
data, and separability measurement.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

HEAD_RADIUS = math.sqrt(3.0) / 2.0
DOMAIN_ATOL = 1e-9


class SeparabilityError(Exception):
    """The dataset violates the separation the construction relies on."""


def validate_domain(X: np.ndarray) -> None:
    X = np.atleast_2d(X)
    norms = np.linalg.norm(X, axis=1)
    # written as `not x <= atol` so that a NaN point fails
    if not np.all(np.abs(norms - 1.0) <= DOMAIN_ATOL):
        raise ValueError(f"points must have unit norm within {DOMAIN_ATOL}")
    if not np.all(np.abs(X[:, -1] - 0.5) <= DOMAIN_ATOL):
        raise ValueError("last coordinate must equal 1/2")


@dataclass
class Dataset:
    """Labelled points on the domain X."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D array of row points")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("labels must be a vector of length n")
        if self.X.shape[0] and np.max(np.abs(self.y)) > 1.0 + 1e-12:
            raise ValueError("labels must satisfy |y_i| <= 1")
        validate_domain(self.X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SeparabilityReport:
    delta: float
    gamma: float
    per_point_delta: np.ndarray
    rho: float


def pad_and_normalize(raw, d_out: int) -> np.ndarray:
    """Embed raw vectors into the domain X with d_out coordinates.

    The whole collection is rescaled by a single factor (sqrt(3)/2 over the
    max norm, only if that max exceeds sqrt(3)/2) so relative geometry is
    preserved, then each vector gets a fill coordinate raising the head norm
    to exactly sqrt(3)/2 and the constant last coordinate 1/2.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    if raw.size == 0:
        raise ValueError("empty input")
    n, d_in = raw.shape
    if d_out < d_in + 2:
        raise ValueError(f"d_out must be at least raw dimension + 2 = {d_in + 2}")
    max_norm = float(np.max(np.linalg.norm(raw, axis=1)))
    scaled = raw * (HEAD_RADIUS / max_norm) if max_norm > HEAD_RADIUS else raw.copy()
    out = np.zeros((n, d_out))
    out[:, :d_in] = scaled
    head_sq = np.sum(scaled**2, axis=1)
    out[:, d_out - 2] = np.sqrt(np.maximum(0.75 - head_sq, 0.0))
    out[:, d_out - 1] = 0.5
    # renormalize exactly onto the sphere (fill coordinate absorbs roundoff)
    head = out[:, : d_out - 1]
    norms = np.linalg.norm(head, axis=1, keepdims=True)
    np.divide(head, norms, out=head, where=norms > 0)
    head *= HEAD_RADIUS
    return out


def separability(ds: Dataset, rho: float) -> SeparabilityReport:
    """Exact O(n^2) pairwise separation and the derived margin gamma.

    gamma = delta * (delta - 2 rho) may come out non-positive; callers that
    need separation must treat that as a violation.  rho = 0 asks for plain
    separation; a negative (or NaN) rho is a ValueError, since it would
    raise gamma above delta^2.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho!r}")
    if ds.n < 2:
        raise ValueError("separability needs at least two points")
    dm = np.linalg.norm(ds.X[:, None] - ds.X[None], axis=-1)
    np.fill_diagonal(dm, np.inf)
    per_point = dm.min(axis=1)
    delta = float(per_point.min())
    return SeparabilityReport(
        delta=delta,
        gamma=delta * (delta - 2.0 * rho),
        per_point_delta=per_point,
        rho=rho,
    )


def delta_histogram(report: SeparabilityReport):
    """Counts of per-point nearest-neighbour distances over 50 uniform bins."""
    top = float(report.per_point_delta.max())
    counts, edges = np.histogram(report.per_point_delta, bins=50, range=(0.0, top))
    return counts, edges


def synth_separated(
    n: int,
    d: int,
    delta_min: float,
    seed: int,
    max_attempts: int = 200_000,
) -> Dataset:
    """Rejection-sample n domain points with pairwise distance >= delta_min.

    Heads are uniform on the radius-sqrt(3)/2 sphere in the first d-1
    coordinates; a candidate is kept only if far enough from all accepted
    points.  Labels alternate +-1.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if not 0.0 < delta_min < math.sqrt(3.0):
        raise ValueError("delta_min must be in (0, sqrt(3))")
    rng = stream(seed, "synth")
    accepted: list[np.ndarray] = []
    attempts = 0
    while len(accepted) < n:
        attempts += 1
        if attempts > max_attempts:
            raise SeparabilityError(
                f"could not pack {n} points at separation {delta_min} "
                f"within {max_attempts} attempts"
            )
        head = rng.standard_normal(d - 1)
        norm = np.linalg.norm(head)
        if norm == 0.0:
            continue
        x = np.append(head * (HEAD_RADIUS / norm), 0.5)
        if all(np.linalg.norm(x - p) >= delta_min for p in accepted):
            accepted.append(x)
    y = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    return Dataset(np.vstack(accepted), y)


def uniform_domain_sample(count: int, d: int, rng) -> np.ndarray:
    """count points uniform on X: heads uniform on the sqrt(3)/2 sphere."""
    heads = rng.standard_normal((count, d - 1))
    heads *= HEAD_RADIUS / np.linalg.norm(heads, axis=1, keepdims=True)
    return np.hstack([heads, np.full((count, 1), 0.5)])


def load_csv(path) -> Dataset:
    """Read `f0,...,f{k-1},label` rows and pad/normalize onto the domain."""
    rows = []
    labels = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)  # None for an empty file
        if not header or header[-1].strip().lower() != "label":
            raise ValueError(f"{path}: expected a header row f0,...,label")
        for rec in reader:
            if not rec:
                continue
            rows.append([float(v) for v in rec[:-1]])
            labels.append(float(rec[-1]))
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    raw = np.asarray(rows, dtype=float)
    return Dataset(pad_and_normalize(raw, raw.shape[1] + 2), np.asarray(labels))
