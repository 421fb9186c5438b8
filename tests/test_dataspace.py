"""Tests for domain handling, ingestion and separability."""

import math

import numpy as np
import pytest

from robust_overparam.dataspace import (
    Dataset,
    SeparabilityError,
    delta_histogram,
    load_csv,
    pad_and_normalize,
    separability,
    synth_separated,
    uniform_domain_sample,
    validate_domain,
)
from robust_overparam.rng import stream

R = math.sqrt(3.0) / 2.0


class TestPadAndNormalize:
    def test_zero_vector(self):
        out = pad_and_normalize(np.zeros((1, 3)), d_out=5)
        assert np.allclose(out[0], [0, 0, 0, R, 0.5])

    def test_unit_vector_hand_case(self):
        out = pad_and_normalize(np.array([[0.6, 0.8]]), d_out=4)
        # collection max norm 1 > sqrt(3)/2, so rescaled onto the head sphere
        assert np.allclose(out[0, :2], np.array([0.6, 0.8]) * R, atol=1e-12)
        assert abs(out[0, 2]) <= 1e-8
        assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-9

    def test_domain_invariants_random(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((50, 7)) * 3.0
        out = pad_and_normalize(raw, d_out=10)
        validate_domain(out)

    def test_no_rescale_when_small(self):
        raw = np.array([[0.1, 0.2], [0.0, 0.3]])
        out = pad_and_normalize(raw, d_out=4)
        assert np.allclose(out[:, :2], raw, atol=1e-12)

    def test_collection_rescale_preserves_geometry(self):
        raw = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = pad_and_normalize(raw, d_out=4)
        # relative geometry: both rescaled by the same factor
        assert np.isclose(np.linalg.norm(out[0, :2]), np.linalg.norm(out[1, :2]))

    def test_errors(self):
        with pytest.raises(ValueError):
            pad_and_normalize(np.zeros((0, 2)), d_out=4)
        with pytest.raises(ValueError):
            pad_and_normalize(np.zeros((2, 3)), d_out=4)


class TestSeparability:
    def test_hand_case(self):
        X = np.array([[R, 0.0, 0.5], [-R, 0.0, 0.5]])
        rep = separability(Dataset(X, np.array([1.0, -1.0])), rho=0.05)
        assert rep.delta == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert rep.gamma == pytest.approx(math.sqrt(3.0) * (math.sqrt(3.0) - 0.1), abs=1e-12)

    def test_duplicate_point_flagged(self):
        X = np.array([[R, 0.0, 0.5], [R, 0.0, 0.5], [-R, 0.0, 0.5]])
        rep = separability(Dataset(X, np.array([1.0, 1.0, -1.0])), rho=0.05)
        assert rep.delta == 0.0
        assert rep.gamma <= 0.0

    def test_report_invariants(self):
        ds = synth_separated(12, 6, 0.5, seed=4)
        rep = separability(ds, rho=0.1)
        assert rep.delta == pytest.approx(rep.per_point_delta.min())
        assert rep.gamma <= rep.delta**2

    def test_rho_zero_and_negative(self):
        ds = synth_separated(6, 6, 0.8, seed=4)
        rep = separability(ds, rho=0.0)
        assert rep.gamma == rep.delta**2
        for rho in (-0.5, math.nan):
            with pytest.raises(ValueError, match="rho must be >= 0"):
                separability(ds, rho=rho)

    def test_needs_two_points(self):
        ds = Dataset(np.array([[R, 0.0, 0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            separability(ds, rho=0.05)

    def test_histogram_descriptive(self):
        # desk-scale nearest-neighbour distance distribution; no asserted
        # values beyond shape, the output is descriptive
        ds = synth_separated(500, 32, 0.1, seed=9)
        rep = separability(ds, rho=0.05)
        counts, edges = delta_histogram(rep)
        assert counts.sum() == ds.n
        assert len(edges) == 51


class TestSynthSeparated:
    def test_self_check(self):
        ds = synth_separated(20, 10, 0.8, seed=7)
        assert separability(ds, rho=0.05).delta >= 0.8

    def test_deterministic(self):
        a = synth_separated(10, 8, 0.6, seed=3)
        b = synth_separated(10, 8, 0.6, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_alternating_labels(self):
        ds = synth_separated(5, 4, 0.3, seed=1)
        assert np.array_equal(ds.y, [1.0, -1.0, 1.0, -1.0, 1.0])

    def test_domain_invariants(self):
        validate_domain(synth_separated(15, 6, 0.4, seed=2).X)

    def test_packing_budget_exhausted(self):
        with pytest.raises(SeparabilityError):
            synth_separated(50, 3, 1.7, seed=0, max_attempts=2000)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            synth_separated(1, 4, 0.3, seed=0)
        with pytest.raises(ValueError):
            synth_separated(4, 4, 2.0, seed=0)


class TestDataset:
    def test_rejects_off_domain(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))

    def test_rejects_nan_point(self):
        with pytest.raises(ValueError):
            validate_domain(np.array([[math.nan, math.nan, math.nan]]))
        with pytest.raises(ValueError):
            validate_domain(np.array([[R, 0.0, 0.5], [R, math.nan, 0.5]]))
        with pytest.raises(ValueError):
            Dataset(np.array([[math.nan, math.nan, math.nan]]), np.array([1.0]))

    def test_rejects_big_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[R, 0.0, 0.5]]), np.array([2.0]))

    def test_rejects_nan_label(self):
        # `max |y| > 1` is False for a NaN label
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.array([[R, 0.0, 0.5], [0.0, R, 0.5]]), np.array([1.0, math.nan]))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.6,0.8,1\n-0.1,0.2,-0.5\n")
        ds = load_csv(path)
        assert ds.n == 2 and ds.d == 4
        validate_domain(ds.X)
        assert np.array_equal(ds.y, [1.0, -0.5])

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,target\n0.1,0.2,1\n")
        with pytest.raises(ValueError):
            load_csv(path)

    @pytest.mark.parametrize("text", ["", "f0,label\n"], ids=["empty", "header-only"])
    def test_no_rows_rejected(self, text, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_csv(path)


def test_uniform_domain_sample():
    pts = uniform_domain_sample(200, 9, stream(5, "t"))
    validate_domain(pts)
