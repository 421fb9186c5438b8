"""Tests for the CLI surface: exit codes, file formats, determinism."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from robust_overparam import harness, network
from robust_overparam.harness import build_parser, run, write_outputs
from robust_overparam.polyapprox import CertificationError


def _read(path):
    with open(path) as fh:
        return fh.read()


def _env_with_src():
    """os.environ with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestPolyCommand:
    def test_certified_run(self, tmp_path):
        out = tmp_path / "coeffs.json"
        code = run(["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.01", "--emit", str(out)])
        assert code == 0
        doc = json.loads(_read(out))
        assert doc["certification"]["pass"] is True
        assert doc["basis"] == "chebyshev"
        assert len(doc["coefficients"]) == doc["degree"] + 1
        assert doc["meta"]["version"]

    def test_missing_flag_is_usage_error(self, capsys):
        assert run(["poly", "--delta", "0.8", "--rho", "0.05"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_overlapping_balls_exit_one(self, tmp_path, capsys):
        code = run(["poly", "--delta", "0.2", "--rho", "0.2", "--eps1", "0.1"])
        assert code == 1
        assert "SeparabilityError" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1", "10000"])
    def test_cert_grid_is_unrecognized(self, grid, capsys):
        # the certification grid is the constant CERT_GRID, not a flag
        code = run(["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.01", "--cert-grid", grid])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and f"unrecognized arguments: --cert-grid {grid}" in err["message"]

    def test_cert_grid_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"delta": 0.8, "rho": 0.05, "eps1": 0.01, "cert_grid": 10000}))
        assert run(["poly", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "unknown config keys: ['cert_grid']" in err["message"]


class TestSeparabilityCommand:
    def test_synth_report_and_hist(self, tmp_path):
        out, hist = tmp_path / "rep.json", tmp_path / "hist.csv"
        code = run([
            "separability", "--synth", "n=30,d=8,delta=0.5", "--rho", "0.05",
            "--out", str(out), "--hist", str(hist), "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(_read(out))
        assert doc["separable"] is True and doc["delta"] >= 0.5
        lines = _read(hist).strip().split("\n")
        assert lines[0].startswith("# meta ")
        assert lines[1] == "bin_lo,bin_hi,count"

    def test_csv_input(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("f0,f1,label\n0.6,0.8,1\n-0.6,0.8,-1\n")
        out = tmp_path / "rep.json"
        assert run(["separability", "--input", str(data), "--rho", "0.01", "--out", str(out)]) == 0
        assert json.loads(_read(out))["n"] == 2

    @pytest.mark.parametrize("rho,code", [("-0.5", 2), ("0", 0)])
    def test_negative_rho_is_usage_error(self, rho, code, tmp_path, capsys):
        # rho = 0 asks for plain separation; rho < 0 would report gamma above delta^2
        out = tmp_path / "s.json"
        assert run(["separability", "--synth", "n=6,d=6,delta=0.8", "--rho", rho, "--out", str(out)]) == code
        if code:
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage" and "rho" in lines[0]
            assert not out.exists()
        else:
            doc = json.loads(_read(out))
            assert doc["separable"] is True and doc["gamma"] == doc["delta"] ** 2

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["separability", "--synth", "n=10,d=6,delta=0.5", "--rho", "0.05", "--seed", "4"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert _read(a) == _read(b)


class TestTrainCommand:
    ARGS = [
        "train", "--synth", "n=6,d=6,delta=0.8", "--rho", "0.05", "--m", "256",
        "--eps", "0.5", "--R", "1", "--attack", "worst", "--seed", "5",
    ]

    def test_outputs(self, tmp_path):
        trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
        code = run(self.ARGS + ["--trace", str(trace), "--summary", str(summary)])
        assert code == 0
        lines = _read(trace).strip().split("\n")
        assert lines[1] == "t,robust_loss,standard_loss,drift_2inf,grad_21,coupling_sample"
        assert len(lines) == 2 + 4  # meta + header + T=4 rows
        doc = json.loads(_read(summary))
        assert doc["invariant_violations"] == []
        assert doc["hp"]["T"] == 4

    def test_byte_identical_rerun(self, tmp_path):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        run(self.ARGS + ["--trace", str(t1)])
        run(self.ARGS + ["--trace", str(t2)])
        assert _read(t1) == _read(t2)

    def test_non_separable_data_exit_one(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("f0,f1,label\n0.6,0.8,1\n0.6,0.8,-1\n")
        code = run([
            "train", "--data", str(data), "--rho", "0.05", "--m", "64",
            "--eps", "0.5", "--R", "1", "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 1
        assert "SeparabilityError" in capsys.readouterr().err

    def test_synth_missing_key_is_usage_error(self, tmp_path, capsys):
        code = run([
            "train", "--synth", "n=20,d=10", "--rho", "0.05", "--m", "64", "--eps", "0.5",
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "delta" in err["message"]

    @pytest.mark.parametrize(
        "spec, named", [("n=6,d=6,delta=0.8,dleta=3", "dleta"), ("n=6,d=6,delta", "'delta'")]
    )
    def test_synth_bad_part_is_usage_error(self, spec, named, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run(["separability", "--synth", spec, "--rho", "0.05", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and named in err["message"]
        assert not out.exists()


class TestAnticoncCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "ac.csv"
        code = run([
            "anticonc", "--d", "8", "--t-grid", "0.05,0.1",
            "--trials", "20000", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[1] == "t,estimate,exact,stderr,envelope"
        assert len(lines) == 4

    def test_negative_threshold_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = run(["anticonc", "--t-grid=-0.1,0.05", "--trials", "10000", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and ">= 0" in err["message"]
        assert not out.exists()


class TestFitCommand:
    def test_fit_json(self, tmp_path):
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--n", "6", "--d", "6", "--delta", "0.8", "--rho", "0.05",
            "--eps", "0.3", "--m", "512", "--pert-per-point", "5",
            "--seed", "6", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(_read(out))
        assert doc["sample_size"] == 6 + 6 * 5
        assert doc["max_error"] >= 0.0 and doc["r_star"] > 0.0

    def test_degenerate_features_exit_one(self, tmp_path, capsys):
        # the single unit is inactive on every sample point
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--n", "4", "--d", "6", "--delta", "0.8", "--m", "1",
            "--pert-per-point", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FitDegenerateError"
        assert not out.exists()

    def test_negative_pert_per_point_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--n", "6", "--d", "6", "--m", "256", "--pert-per-point", "-5", "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--pert-per-point" in err["message"]
        assert not out.exists()

    def test_independent_of_process_blas_threads(self, tmp_path):
        # the Gram product rounds differently on one and two BLAS threads, so
        # this holds only because every command runs on one
        controls = network._openblas_threads()
        saved = [get() for get, _ in controls]
        files = []
        try:
            for threads in (1, 2):
                for _, set_ in controls:
                    set_(threads)
                out = tmp_path / f"fit{threads}.json"
                assert run([
                    "fit", "--n", "10", "--d", "8", "--m", "2048", "--seed", "1", "--out", str(out),
                ]) == 0
                files.append(out.read_bytes())
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)
        assert files[0] == files[1]


class TestSweepCommand:
    BASE = [
        "sweep", "fit", "--repeats", "2", "--seed", "6", "--n", "6", "--d", "6",
        "--delta", "0.8", "--rho", "0.05", "--eps", "0.3", "--pert-per-point", "5",
    ]

    def test_single_cell_matches_single_run(self, tmp_path):
        out = tmp_path / "agg.csv"
        assert run(self.BASE[:2] + ["--m-list", "512", "--repeats", "1"] + self.BASE[4:] + ["--out", str(out)]) == 0
        lines = _read(out).strip().split("\n")
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        single = tmp_path / "single.json"
        run([
            "fit", "--n", "6", "--d", "6", "--delta", "0.8", "--rho", "0.05",
            "--eps", "0.3", "--m", "512", "--pert-per-point", "5",
            "--seed", "6", "--out", str(single),
        ])
        doc = json.loads(_read(single))
        assert float(row["max_error_median"]) == doc["max_error"]
        assert float(row["r_star_median"]) == doc["r_star"]

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.BASE + ["--m-list", "256,512", "--out", str(a)])
        run(self.BASE + ["--m-list", "256,512", "--out", str(b)])
        assert _read(a) == _read(b)

    def test_fit_rows_independent_of_pool_size(self, tmp_path, monkeypatch):
        # every command runs on one BLAS thread, so the worker count cannot
        # move the fit's Gram product
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv(harness.THREADS_ENV, threads)
            out = tmp_path / f"s{threads}.csv"
            assert run([
                "sweep", "fit", "--m-list", "512,1024", "--repeats", "1", "--n", "10", "--d", "8",
                "--seed", "1", "--out", str(out),
            ]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_no_temp_leftovers(self, tmp_path):
        out = tmp_path / "agg.csv"
        run(self.BASE + ["--m-list", "256", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["agg.csv"]

    def test_train_sweep_over_delta(self, tmp_path):
        out = tmp_path / "tr.csv"
        code = run([
            "sweep", "train", "--m-list", "128", "--delta-list", "0.5,0.8",
            "--repeats", "2", "--seed", "4", "--n", "6", "--d", "6",
            "--rho", "0.05", "--eps", "0.5", "--R", "1", "--out", str(out),
        ])
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[1].startswith("m,delta,best_robust_loss_median")
        assert len(lines) == 4  # meta + header + 2 cells
        assert all(ln.split(",")[-1] == "0.0" for ln in lines[2:])  # no violations

    def test_fit_sweep_cell_uses_its_delta(self, tmp_path):
        out, single = tmp_path / "agg.csv", tmp_path / "single.json"
        assert run(self.BASE[:2] + ["--m-list", "256", "--delta-list", "0.5", "--repeats", "1"]
                   + self.BASE[4:] + ["--out", str(out)]) == 0
        row = dict(zip(*(ln.split(",") for ln in _read(out).strip().split("\n")[1:])))
        assert run([
            "fit", "--n", "6", "--d", "6", "--delta", "0.5", "--rho", "0.05", "--eps", "0.3",
            "--m", "256", "--pert-per-point", "5", "--seed", "6", "--out", str(single),
        ]) == 0
        assert float(row["max_error_median"]) == json.loads(_read(single))["max_error"]

    def test_meta_records_attack_flags(self, tmp_path):
        metas = []
        for steps in ("1", "5"):
            out = tmp_path / f"tr{steps}.csv"
            assert run([
                "sweep", "train", "--m-list", "64", "--repeats", "1", "--n", "4", "--d", "6",
                "--eps", "0.5", "--R", "1", "--attack-steps", steps, "--out", str(out),
            ]) == 0
            metas.append(_read(out).split("\n")[0])
        assert metas[0] != metas[1]


    def test_negative_pert_per_point_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(self.BASE[:-1] + ["-5", "--m-list", "64,128", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--pert-per-point" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("m_list", ["512,0", "-4"])
    def test_width_below_one_is_usage_error_before_any_cell(self, m_list, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "_sweep_cell_fit", lambda *cell: cells.append(cell))
        out = tmp_path / "w.csv"
        code = run(self.BASE + ["--m-list", m_list, "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and cells == [] and not out.exists()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage" and "--m-list" in lines[0]

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_is_usage_error(self, repeats, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run([
            "sweep", "fit", "--m-list", "64", "--repeats", repeats, "--n", "4", "--d", "6",
            "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--repeats" in err["message"]
        assert not out.exists()


class TestCouplingCommand:
    def test_small_sweep(self, tmp_path):
        out, grad = tmp_path / "c.csv", tmp_path / "g.csv"
        code = run([
            "coupling", "--m-list", "256,1024", "--R", "2", "--samples", "2000",
            "--d", "8", "--seeds", "2", "--seed", "1",
            "--out", str(out), "--grad-out", str(grad),
        ])
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[1] == "m,R,gap_median,gap_max,flip_fraction"
        rows = [ln.split(",") for ln in lines[2:]]
        assert float(rows[1][2]) < float(rows[0][2])  # gap shrinks with width
        glines = _read(grad).strip().split("\n")
        assert glines[1] == "m,R,grad_ratio_median"

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_is_usage_error(self, seeds, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code = run([
            "coupling", "--m-list", "64", "--samples", "100", "--d", "6", "--seeds", seeds,
            "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--seeds" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_is_usage_error(self, samples, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code = run([
            "coupling", "--m-list", "64", "--samples", samples, "--d", "6", "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--samples" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("m_list", ["65536,0", "-4"])
    def test_width_below_one_is_usage_error_before_any_cell(self, m_list, tmp_path, capsys, monkeypatch):
        # refused at parse time: a 0 after 65536 once ran the whole 65536 cell
        # before init_network refused the 0
        cells = []
        monkeypatch.setattr(harness, "_coupling_cell", lambda *cell: cells.append(cell))
        out = tmp_path / "z.csv"
        code = run(["coupling", "--m-list", m_list, "--samples", "100", "--d", "6", "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and cells == [] and not out.exists()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage" and "--m-list" in lines[0]

    @pytest.mark.parametrize("R,code", [("-2", 2), ("0", 0)])
    def test_negative_R_is_usage_error(self, R, code, tmp_path, capsys):
        # a negative R would be a radius-|R| deviation with its directions flipped
        out = tmp_path / "z.csv"
        assert run([
            "coupling", "--m-list", "64", "--samples", "50", "--d", "6", "--seeds", "1", "--R", R,
            "--out", str(out),
        ]) == code
        if code:
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage" and "R must" in lines[0]
            assert not out.exists()
        else:
            row = _read(out).strip().split("\n")[2].split(",")
            assert row[1] == "0.0" and row[4] == "0.0"  # W = W0: no unit flips

    def test_cell_memory(self, monkeypatch):
        # W0 and W, the gradient ratio's tile buffers and norm vectors: about
        # 2.49 d x m arrays, where fresh gradient blocks in the ratio took
        # 2.55, its two 20 x m bool masks 2.86, its full-width 20 x m forward
        # workspace 4.2 and full-width gradients 7.3.  The cell runs pinned,
        # as in the CLI
        monkeypatch.setenv(harness.THREADS_ENV, "2")
        m, d = 65536, 16
        with network._blas_single_threaded():
            tracemalloc.start()
            try:
                harness._coupling_cell(m, d, 2.0, 1000, 20, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.53 * d * m * 8

    def test_sample_released_before_gradient_ratio(self, monkeypatch):
        # the ratio sets the cell's peak, so it must not run beside the
        # samples x d sample: 16000 more rows would add 0.98 d x m (2 MB) here
        monkeypatch.setenv(harness.THREADS_ENV, "1")
        m, d = 16384, 16
        held = []

        def probe(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return 0.0

        monkeypatch.setattr(harness, "gradient_coupling_ratio", probe)
        tracemalloc.start()
        try:
            for samples in (4000, 20000):
                harness._coupling_cell(m, d, 2.0, samples, 20, 1)
        finally:
            tracemalloc.stop()
        assert abs(held[1] - held[0]) < 0.05 * d * m * 8

    def test_outputs_independent_of_pool_size(self, tmp_path, monkeypatch):
        # one worker or two, every cell runs on one BLAS thread
        files = {}
        for threads in ("1", "2"):
            monkeypatch.setenv(harness.THREADS_ENV, threads)
            out, grad = tmp_path / f"c{threads}.csv", tmp_path / f"g{threads}.csv"
            assert run([
                "coupling", "--m-list", "2048,300", "--R", "2", "--samples", "700",
                "--d", "8", "--seeds", "2", "--out", str(out), "--grad-out", str(grad),
            ]) == 0
            files[threads] = (out.read_bytes(), grad.read_bytes())
        assert files["1"] == files["2"]

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_threads_variable_is_usage_error(self, threads, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV, threads)
        out = tmp_path / "z.csv"
        code = run([
            "coupling", "--m-list", "64,128", "--samples", "50", "--d", "6", "--seeds", "1",
            "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and harness.THREADS_ENV in err["message"]
        assert not out.exists()

    def test_rows_follow_m_list_order(self, tmp_path):
        flags = ["--samples", "300", "--d", "6", "--seeds", "2", "--seed", "4"]

        def rows(m_list, name):
            out, grad = tmp_path / f"{name}.csv", tmp_path / f"{name}_g.csv"
            assert run(["coupling", "--m-list", m_list] + flags
                       + ["--out", str(out), "--grad-out", str(grad)]) == 0
            # drop the meta line, which records --m-list
            return _read(out).split("\n")[2:-1], _read(grad).split("\n")[2:-1]

        both, both_g = rows("4096,1024", "both")
        wide, wide_g = rows("4096", "wide")
        narrow, narrow_g = rows("1024", "narrow")
        assert [r.split(",")[0] for r in both] == ["4096", "1024"]
        assert both == wide + narrow
        assert both_g == wide_g + narrow_g


class TestBlasPin:
    # every command runs inside one pin site, harness.run; these tests swap a
    # command's handler for a probe and read the counts around it
    POLY = ["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.01"]

    @pytest.fixture(autouse=True)
    def two_blas_threads(self, monkeypatch):
        # start every test from 2 threads, so a count left at 1 shows
        monkeypatch.setenv(harness.THREADS_ENV, "2")
        controls = network._openblas_threads()
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield
        for (_, set_), count in zip(controls, saved):
            set_(count)

    def _counts(self):
        return [get() for get, _ in network._openblas_threads()]

    def _run_with(self, monkeypatch, handler):
        monkeypatch.setattr(harness, "cmd_poly", handler)
        return run(self.POLY)

    def test_every_loaded_openblas_found(self):
        # a build exporting none of _BLAS_SYMBOLS would run its commands unpinned
        try:
            with open("/proc/self/maps") as fh:
                loaded = {ln.split(None, 5)[5].strip() for ln in fh if "openblas" in ln}
        except OSError:
            loaded = set()
        assert len(network._openblas_threads()) == len(loaded)

    def test_pinned_inside_command_and_restored(self, monkeypatch):
        before = self._counts()
        seen = []

        def handler(args):
            seen.append(self._counts())
            seen.extend(harness._pool_map(lambda _: self._counts(), range(4)))
            return {}

        assert self._run_with(monkeypatch, handler) == 0
        assert seen == [[1] * len(before)] * 5
        assert self._counts() == before

    @pytest.mark.parametrize(
        "exc, code", [(CertificationError("bad"), 1), (ValueError("bad"), 2)], ids=["exit1", "exit2"]
    )
    def test_restored_after_error_exit(self, exc, code, monkeypatch, capsys):
        before = self._counts()

        def handler(args):
            assert self._counts() == [1] * len(before)
            raise exc

        assert self._run_with(monkeypatch, handler) == code
        assert json.loads(capsys.readouterr().err)["message"] == "bad"
        assert self._counts() == before

    def test_restored_when_a_cell_raises(self, monkeypatch):
        before = self._counts()

        def cell(i):
            if i == 2:
                raise RuntimeError("cell failed")
            return i

        with pytest.raises(RuntimeError, match="cell failed"):
            self._run_with(monkeypatch, lambda args: harness._pool_map(cell, range(4)))
        assert self._counts() == before

    def test_no_symbol_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(network, "_BLAS_SYMBOLS", (("no_such_get", "no_such_set"),))
        monkeypatch.setattr(network, "_blas_controls", None)  # the pin's lookup, made again
        assert network._openblas_threads() == []

        def handler(args):
            assert harness._pool_map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]
            return {}

        assert self._run_with(monkeypatch, handler) == 0


class TestWithoutScipy:
    # a None entry in sys.modules makes every `import scipy...` raise
    SCRIPT = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from robust_overparam.harness import run\n"
        "print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))\n"
    )

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        commands = [
            ["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.01", "--emit", "p.json"],
            ["separability", "--synth", "n=6,d=6,delta=0.8", "--rho", "0.05", "--out", "s.json"],
            ["anticonc", "--d", "8", "--t-grid", "0.05,0.1", "--trials", "20000",
             "--out", "a.csv"],
            ["fit", "--n", "6", "--d", "6", "--m", "256", "--pert-per-point", "2", "--out", "f.json"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
            cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0, 0, 0], proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "f.json", "p.json", "s.json"]


# small runs whose config keys the --config tests vary
SMALL_COUPLING = ["coupling", "--samples", "100", "--d", "6"]
SMALL_TRAIN = ["train", "--synth", "n=4,d=6,delta=0.8", "--rho", "0.05", "--eps", "0.5"]
# the flag a bad config value's message names: the key's flag as typed
TYPED_FLAG = {"seeds": "--seeds", "m_list": "--m-list", "R": "--R", "attack": "--attack", "m": "--m",
              "c_eta": "--c-eta", "eps": "--eps"}


class TestConfigFile:
    def test_defaults_from_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.8, "rho": 0.05, "eps1": 0.1}))
        out = tmp_path / "coeffs.json"
        code = run(["poly", "--config", str(cfg), "--emit", str(out)])
        assert code == 0
        assert json.loads(_read(out))["meta"]["config"]["delta"] == 0.8

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.8, "rho": 0.05, "eps1": 0.1}))
        out = tmp_path / "coeffs.json"
        code = run(["poly", "--config", str(cfg), "--eps1", "0.2", "--emit", str(out)])
        assert code == 0
        assert json.loads(_read(out))["meta"]["config"]["eps1"] == 0.2

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run(["poly", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_list_flag_parsed_as_on_command_line(self, tmp_path):
        argv = SMALL_COUPLING + ["--seeds", "1"]
        flag_out = tmp_path / "flag.csv"
        assert run(argv + ["--m-list", "64", "--out", str(flag_out)]) == 0
        for i, value in enumerate([64, [64], "64"]):
            cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"z{i}.csv"
            cfg.write_text(json.dumps({"m_list": value}))
            assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 0
            assert _read(out) == _read(flag_out)

    @pytest.mark.parametrize("flag", [["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--conf={}"]])
    def test_every_config_spelling_applies(self, flag, tmp_path):
        # argparse accepts all four spellings, so each must load the file
        cfg, out = tmp_path / "s.json", tmp_path / "z.csv"
        cfg.write_text(json.dumps({"seeds": 1}))
        argv = SMALL_COUPLING + ["--m-list", "64"] + [f.format(cfg) for f in flag] + ["--out", str(out)]
        assert run(argv) == 0
        meta = json.loads(_read(out).splitlines()[0][len("# meta "):])
        assert meta["config"]["seeds"] == 1

    def test_equals_form_required_flags_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.8, "rho": 0.05, "eps1": 0.1}))
        out = tmp_path / "coeffs.json"
        assert run(["poly", f"--config={cfg}", "--emit", str(out)]) == 0
        assert json.loads(_read(out))["meta"]["config"]["delta"] == 0.8

    @pytest.mark.parametrize("flag", [["--config", "missing.json"], ["--config=missing.json"], ["--config"]])
    def test_missing_config_is_usage_error(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "z.csv"
        assert run(SMALL_COUPLING + ["--m-list", "64", "--out", str(out)] + flag) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "bad --config" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,cfg_value", [
        (SMALL_COUPLING + ["--m-list", "64"], {"seeds": 0}),
        (SMALL_COUPLING, {"m_list": [64, "x"]}),
        (SMALL_TRAIN + ["--m", "64"], {"R": "two"}),
        (SMALL_TRAIN + ["--m", "64"], {"attack": "nope"}),
        (SMALL_TRAIN, {"m": None}),  # null keeps the default: a required flag is missing
    ])
    def test_bad_config_value_is_usage_error(self, argv, cfg_value, tmp_path, capsys):
        # a config value is parsed as its flag typed by hand, so the message names the flag
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(cfg_value))
        out_flag = "--out" if argv[0] == "coupling" else "--summary"
        assert run(argv + ["--config", str(cfg), out_flag, str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and TYPED_FLAG[next(iter(cfg_value))] in err["message"]
        assert not out.exists()


POLY = ["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.1"]
SEP_SYNTH = ["separability", "--synth", "n=6,d=6,delta=0.8", "--rho", "0.05"]
NAN_LABEL_CSV = b"f0,f1,label\n0.6,0.1,1\n-0.2,0.7,nan\n0.1,-0.6,1\n"


class TestUsageErrorsNotTracebacks:
    """Bad input files, bad --config contents and unwritable outputs exit 2 with one JSON line.

    A command whose later output is a directory writes none of its outputs
    and makes no parent directory, and a file that was there keeps its bytes.
    """

    # case: (argv, {file made before the run: bytes}); every case runs in a
    # directory holding `adir`
    CASES = {
        "empty-csv": (["separability", "--input", "e.csv", "--rho", "0.05", "--out", "s.json"], {"e.csv": b""}),
        "header-only-csv": (
            ["separability", "--input", "h.csv", "--rho", "0.05", "--out", "s.json"], {"h.csv": b"f0,label\n"}
        ),
        # a NaN label is refused as a label above 1 is (`max |y| > 1` is False for NaN)
        "nan-label-separability": (
            ["separability", "--input", "n.csv", "--rho", "0.05", "--out", "s.json"], {"n.csv": NAN_LABEL_CSV}
        ),
        "nan-label-train": (
            ["train", "--data", "n.csv", "--rho", "0.05", "--eps", "0.5", "--m", "64", "--R", "1",
             "--attack-steps", "2", "--trace", "t.csv"],
            {"n.csv": NAN_LABEL_CSV},
        ),
        "config-number": (POLY + ["--config", "c.json"], {"c.json": b"5"}),
        "config-null": (POLY + ["--config", "c.json"], {"c.json": b"null"}),
        "config-list": (POLY + ["--config", "c.json"], {"c.json": b"[1, 2]"}),
        "config-directory": (POLY + ["--config", "adir"], {}),
        "config-not-utf8": (POLY + ["--config", "c.json"], {"c.json": b'{"delta": "\xff"}'}),
        "emit-directory": (POLY + ["--emit", "adir"], {}),
        "out-directory": (SEP_SYNTH + ["--out", "adir"], {}),
        "hist-directory": (SEP_SYNTH + ["--out", "s.json", "--hist", "adir"], {"s.json": b"old\n"}),
        "summary-directory": (
            SMALL_TRAIN + ["--m", "64", "--R", "1", "--attack-steps", "2", "--trace", "t.csv", "--summary", "adir"],
            {},
        ),
        "train-no-output": (SMALL_TRAIN + ["--m", "64", "--R", "1", "--attack-steps", "2"], {}),
        "grad-out-directory": (
            SMALL_COUPLING + ["--m-list", "64", "--seeds", "1", "--out", "sub/z.csv", "--grad-out", "adir"], {}
        ),
        "anticonc-d1": (["anticonc", "--d", "1", "--trials", "10000", "--out", "a.csv"], {}),
    }
    # this case goes through the console entry point in a fresh interpreter
    ENTRY_POINT_CASE = "empty-csv"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_json_line(self, case, tmp_path, capsys, monkeypatch):
        argv, files = self.CASES[case]
        (tmp_path / "adir").mkdir()
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        before = sorted(os.listdir(tmp_path))
        if case == self.ENTRY_POINT_CASE:
            proc = subprocess.run(
                [sys.executable, "-m", "robust_overparam.cli", *argv],
                cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True, timeout=120,
            )
            code, err = proc.returncode, proc.stderr
        else:
            monkeypatch.chdir(tmp_path)
            code, err = run(argv), capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        if case.startswith("config"):
            assert "bad --config" in lines[0]
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "adir") == []
        for name, data in files.items():
            assert (tmp_path / name).read_bytes() == data


class TestOutputsNameOneFile:
    """Two output flags that resolve to one file are refused before the command runs."""

    @pytest.mark.parametrize("argv", [
        ["separability", "--synth", "n=6,d=6,delta=0.8", "--rho", "0.05", "--out", "r.out", "--hist", "r.out"],
        ["separability", "--synth", "n=6,d=6,delta=0.8", "--rho", "0.05", "--out", "r.out", "--hist", "./r.out"],
        SMALL_COUPLING + ["--m-list", "64", "--seeds", "1", "--out", "c.csv", "--grad-out", "c.csv"],
        SMALL_COUPLING + ["--m-list", "64", "--seeds", "1", "--out", "c.csv", "--grad-out", "./c.csv"],
    ])
    def test_exit_two_and_no_file(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        flags = ("--out", "--hist") if argv[0] == "separability" else ("--out", "--grad-out")
        assert err["error"] == "usage" and all(flag in err["message"] for flag in flags)
        assert os.listdir(tmp_path) == []


class TestOutputNamesAnInput:
    """An output flag that names the input or --config file is refused, and that file keeps its bytes."""

    DATA = b"f0,f1,label\n0.6,0.1,1\n-0.2,0.7,-1\n0.1,-0.6,1\n"
    CONFIG = b'{"m": 64, "R": 1, "attack_steps": 2}'

    @pytest.mark.parametrize("argv,name,data,flags", [
        (["separability", "--input", "d.csv", "--rho", "0.05", "--out", "d.csv"], "d.csv", DATA, ("--input", "--out")),
        (
            ["train", "--data", "d.csv", "--rho", "0.05", "--eps", "0.5", "--m", "64", "--R", "1",
             "--attack-steps", "2", "--trace", "./d.csv"],
            "d.csv", DATA, ("--data", "--trace"),
        ),
        (SMALL_TRAIN + ["--config", "c.json", "--summary", "c.json"], "c.json", CONFIG, ("--config", "--summary")),
    ], ids=["separability-input-out", "train-data-trace", "train-config-summary"])
    def test_exit_two_and_input_kept(self, argv, name, data, flags, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(data)
        assert run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and all(flag in err["message"] for flag in flags)
        assert os.listdir(tmp_path) == [name]
        assert (tmp_path / name).read_bytes() == data


class TestOneDataSource:
    """A CSV input and --synth together are refused, also when one of them comes from --config."""

    DATA = b"f0,f1,label\n0.6,0.1,1\n-0.2,0.7,-1\n0.1,-0.6,1\n"
    SYNTH = "n=5,d=4,delta=0.5"
    SEPARABILITY = ["separability", "--rho", "0.01", "--out", "r.json"]
    TRAIN = ["train", "--rho", "0.05", "--eps", "0.5", "--m", "64", "--R", "1", "--summary", "s.json"]

    @pytest.mark.parametrize("argv,config,input_flag", [
        (SEPARABILITY + ["--input", "d.csv", "--synth", SYNTH], None, "--input"),
        (SEPARABILITY + ["--input", "d.csv"], {"synth": SYNTH}, "--input"),
        (TRAIN + ["--data", "d.csv", "--synth", SYNTH], None, "--data"),
        (TRAIN + ["--synth", SYNTH], {"input": "d.csv"}, "--data"),
    ], ids=["separability-flags", "separability-config", "train-flags", "train-config"])
    def test_exit_two_with_one_usage_line(self, argv, config, input_flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_bytes(self.DATA)
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = argv + ["--config", "c.json"]
        assert run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and input_flag in err["message"] and "--synth" in err["message"]
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "s.json").exists()


class TestUnallocatableSize:
    """A size past the address space exits 2 with numpy's message, not a traceback.

    numpy refuses these shapes before it allocates anything.
    """

    @pytest.mark.parametrize("argv", [
        ["coupling", "--m-list", "100000000000000", "--samples", "10", "--d", "6", "--seeds", "1", "--out", "c.csv"],
        ["anticonc", "--trials", "100000000000000", "--out", "a.csv"],
    ])
    def test_exit_two_with_numpy_message(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "usage" and "Unable to allocate" in doc["message"]
        assert os.listdir(tmp_path) == []


class TestNonFiniteFloats:
    """NaN and infinite floats are usage errors, from the command line and from --config."""

    COUPLING = SMALL_COUPLING + ["--m-list", "64", "--seeds", "1"]
    TRAIN = SMALL_TRAIN + ["--m", "64", "--R", "1", "--attack-steps", "2"]

    @pytest.mark.parametrize("argv,flag,value", [
        (COUPLING, "--R", "nan"),
        (COUPLING, "--R", "inf"),
        (TRAIN, "--c-eta", "nan"),
        (TRAIN, "--rho", "-inf"),
        (["anticonc", "--d", "4", "--trials", "10"], "--t-grid", "0.1,nan"),
    ])
    def test_flag_is_usage_error(self, argv, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        out_flag = "--summary" if argv[0] == "train" else "--out"
        assert run(argv + [f"{flag}={value}", out_flag, str(out)]) == 2  # "=" lets "-inf" through as a value
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and flag in err["message"] and "finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,cfg_value", [
        (COUPLING, {"R": float("nan")}),
        (TRAIN, {"c_eta": float("nan")}),
        (TRAIN, {"eps": float("inf")}),
        (SMALL_COUPLING + ["--seeds", "1"], {"m_list": [64], "R": float("-inf")}),
    ])
    def test_config_value_is_usage_error(self, argv, cfg_value, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(cfg_value))  # NaN / Infinity tokens, which json.load accepts
        out_flag = "--summary" if argv[0] == "train" else "--out"
        assert run(argv + ["--config", str(cfg), out_flag, str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        bad_key = [k for k, v in cfg_value.items() if isinstance(v, float)][0]
        assert err["error"] == "usage" and TYPED_FLAG[bad_key] in err["message"] and "finite" in err["message"]
        assert not out.exists()


class TestAnticoncDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["anticonc", "--d", "8", "--t-grid", "0.1",
                "--trials", "20000", "--seed", "9"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert _read(a) == _read(b)


# flags that name output files; with --config they are the only flags kept
# out of the embedded meta
OUTPUT_FLAGS = {"out", "emit", "hist", "trace", "summary", "grad_out"}

PROVENANCE_RUNS = {
    "poly": (["--delta", "0.8", "--rho", "0.05", "--eps1", "0.1", "--emit"], "json"),
    "separability": (["--synth", "n=6,d=6,delta=0.5", "--rho", "0.05", "--out"], "json"),
    "coupling": (["--m-list", "64", "--samples", "100", "--d", "6", "--seeds", "1", "--out"], "csv"),
    "anticonc": (["--d", "8", "--t-grid", "0.1", "--trials", "10000", "--out"], "csv"),
    "fit": (["--n", "6", "--d", "6", "--m", "128", "--pert-per-point", "2", "--out"], "json"),
    "train": (["--synth", "n=4,d=6,delta=0.8", "--rho", "0.05", "--m", "64", "--eps", "0.5",
               "--R", "1", "--attack-steps", "1", "--summary"], "json"),
    "sweep": (["fit", "--m-list", "128", "--repeats", "1", "--n", "6", "--d", "6",
               "--pert-per-point", "2", "--out"], "csv"),
}


def _meta_of(path, kind):
    text = _read(path)
    return json.loads(text)["meta"] if kind == "json" else json.loads(text.split("\n")[0][len("# meta "):])


class TestProvenance:
    @pytest.mark.parametrize("command", sorted(PROVENANCE_RUNS))
    def test_meta_holds_every_resolved_flag(self, command, tmp_path):
        flags, kind = PROVENANCE_RUNS[command]
        out = tmp_path / f"out.{kind}"
        assert run([command] + flags + [str(out)]) == 0
        meta = _meta_of(out, kind)
        _, commands = build_parser()
        dests = {a.dest for a in commands[command]._actions} - {"help", "config"} - OUTPUT_FLAGS
        assert set(meta["config"]) == dests | {"command"}
        assert meta["config"]["command"] == command

    @pytest.mark.parametrize("command", sorted(PROVENANCE_RUNS))
    def test_config_of_meta_reruns_byte_identical(self, command, tmp_path):
        # every resolved value, nulls and lists included, passed back through --config
        flags, kind = PROVENANCE_RUNS[command]
        out, rerun, cfg = tmp_path / f"out.{kind}", tmp_path / f"rerun.{kind}", tmp_path / "cfg.json"
        assert run([command] + flags + [str(out)]) == 0
        values = dict(_meta_of(out, kind)["config"])
        del values["command"]
        target = [values.pop("target")] if command == "sweep" else []
        cfg.write_text(json.dumps(values))
        assert run([command] + target + ["--config", str(cfg), flags[-1], str(rerun)]) == 0
        assert _read(rerun) == _read(out)


class TestConfigValuesAsFlags:
    """A config value is the token its flag would be typed as: `--flag=value`, lists comma-joined."""

    FIT = ["fit", "--n", "6", "--d", "6", "--pert-per-point", "2"]

    @pytest.mark.parametrize("values", [{"ridge": None, "m": 128}, {"m": [128]}], ids=["null-ridge", "m-list-of-one"])
    def test_same_bytes_as_flags(self, values, tmp_path):
        # null keeps the flag's default; a one-element list is joined to its one value
        flag_out, cfg_out, cfg = tmp_path / "flag.json", tmp_path / "cfg.json", tmp_path / "c.json"
        assert run(self.FIT + ["--m", "128", "--out", str(flag_out)]) == 0
        cfg.write_text(json.dumps(values))
        assert run(self.FIT + ["--config", str(cfg), "--out", str(cfg_out)]) == 0
        assert _read(cfg_out) == _read(flag_out)

    def test_sweep_target_is_unknown_key(self, tmp_path, capsys):
        # sweep's target is a positional and comes from the command line alone
        cfg, out = tmp_path / "c.json", tmp_path / "s.csv"
        cfg.write_text(json.dumps({"target": "fit", "m_list": [128]}))
        assert run(["sweep", "fit", "--config", str(cfg), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and "unknown config keys: ['target']" in err["message"]
        assert not out.exists()


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_outputs({str(target): "new\ud800"})  # a lone surrogate cannot be encoded
        assert _read(target) == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        write_outputs({str(atomic): "x"})
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
