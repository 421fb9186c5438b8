"""Tests for the CLI surface: exit codes, file formats, determinism."""

import json
import stat

import numpy as np
import pytest

from robust_overparam.harness import atomic_write_text, build_parser, run


def _read(path):
    with open(path) as fh:
        return fh.read()


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

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_cert_grid_below_two_is_usage_error(self, grid, capsys):
        # one grid point per plateau certifies nothing
        code = run(["poly", "--delta", "0.8", "--rho", "0.05", "--eps1", "0.01", "--cert-grid", grid])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


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
            "--eps", "0.5", "--R", "1",
        ])
        assert code == 1
        assert "SeparabilityError" in capsys.readouterr().err

    def test_synth_missing_key_is_usage_error(self, capsys):
        code = run(["train", "--synth", "n=20,d=10", "--rho", "0.05", "--m", "64", "--eps", "0.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "delta" in err["message"]


class TestAnticoncCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "ac.csv"
        code = run([
            "anticonc", "--m", "64", "--d", "8", "--t-grid", "0.05,0.1",
            "--trials", "20000", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[1] == "t,estimate,exact,stderr,envelope"
        assert len(lines) == 4


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


class TestSnapshotRoundtrip:
    def test_save_load(self, tmp_path):
        from robust_overparam.network import init_network, load_state, save_state

        st = init_network(64, 5, seed=77)
        W = st.W + 0.01
        path = tmp_path / "state.npz"
        save_state(st.with_weights(W), str(path))
        back = load_state(str(path))
        assert back.init.m == 64 and back.init.d == 5 and back.init.seed == 77
        assert np.array_equal(back.W, W)
        assert np.array_equal(back.init.W0, st.init.W0)


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


class TestAnticoncDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["anticonc", "--m", "64", "--d", "8", "--t-grid", "0.1",
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
    "anticonc": (["--m", "64", "--d", "8", "--t-grid", "0.1", "--trials", "10000", "--out"], "csv"),
    "fit": (["--n", "6", "--d", "6", "--m", "128", "--pert-per-point", "2", "--out"], "json"),
    "train": (["--synth", "n=4,d=6,delta=0.8", "--rho", "0.05", "--m", "64", "--eps", "0.5",
               "--R", "1", "--attack-steps", "1", "--summary"], "json"),
    "sweep": (["fit", "--m-list", "128", "--repeats", "1", "--n", "6", "--d", "6",
               "--pert-per-point", "2", "--out"], "csv"),
}


class TestProvenance:
    @pytest.mark.parametrize("command", sorted(PROVENANCE_RUNS))
    def test_meta_holds_every_resolved_flag(self, command, tmp_path):
        flags, kind = PROVENANCE_RUNS[command]
        out = tmp_path / f"out.{kind}"
        assert run([command] + flags + [str(out)]) == 0
        if kind == "json":
            meta = json.loads(_read(out))["meta"]
        else:
            meta = json.loads(_read(out).split("\n")[0][len("# meta "):])
        _, commands = build_parser()
        dests = {a.dest for a in commands[command]._actions} - {"help", "config"} - OUTPUT_FLAGS
        assert set(meta["config"]) == dests | {"command"}
        assert meta["config"]["command"] == command


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(target), "new\ud800")  # a lone surrogate cannot be encoded
        assert _read(target) == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        atomic_write_text(str(atomic), "x")
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
