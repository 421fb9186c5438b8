"""The benchmark's workloads: seeded inputs, the timed work, and its checks.

`prepare` is input generation (part of set-up), `execute` is the timed
work, `check` runs after the process counters are read.  The program sees
only flags and generated inputs; every size below is fixed here, and only
the seed varies between runs.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

# The acceptance `train` config with R = 1: every iteration has the shapes of
# the R = 2 run (20 x 8192 blocks, 20-step 3-restart PGA), but T = 12
# instead of 45, so a benchmark run holds several repetitions.
TRAIN = {"n": 20, "d": 10, "delta": 0.8, "rho": 0.05, "m": 8192, "eps": 0.3, "R": 1.0, "steps": 20, "restarts": 3}

# The acceptance widths with one seed and 4000 samples instead of three seeds
# and 20000: every cell keeps its 256 x m chunks, with a fifth of them.
COUPLING = {"m_list": (1024, 4096, 16384, 65536), "R": 2.0, "samples": 4000, "d": 16, "seeds": 1, "batch_n": 20}

# The acceptance spec with delta = 0.95 instead of 0.8, so the step
# polynomial has degree 247 instead of 367 and its exact expansion takes
# about 3.5 s instead of 33 s: a run then holds several operations and
# reports their median.  The step polynomial uses the delta synth_separated
# guarantees, so its degree and the cost of its exact expansion are the same
# at every seed; the fit uses the measured delta.
INTERP = {"n": 20, "d": 10, "delta": 0.95, "rho": 0.05, "eps": 0.3, "m": 8192, "pert_per_point": 20}
PLATEAU_GRID = 100_001
EXACT_POINTS = 3


def _run_cli(argv) -> None:
    from robust_overparam import harness

    code = harness.run(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with code {code}")


class TrainPGA:
    name = "train-pga"
    default_seed = 7
    min_reps = 2
    outputs = ("trace.csv", "summary.json")

    def __init__(self, cfg=TRAIN):
        self.cfg = cfg

    def prepare(self, seed: int, out: Path):
        c = self.cfg
        return [
            "train", "--synth", f"n={c['n']},d={c['d']},delta={c['delta']}", "--rho", str(c["rho"]),
            "--m", str(c["m"]), "--eps", str(c["eps"]), "--R", str(c["R"]), "--attack", "worst",
            "--attack-steps", str(c["steps"]), "--attack-restarts", str(c["restarts"]),
            "--seed", str(seed), "--trace", str(out / "trace.csv"), "--summary", str(out / "summary.json"),
        ]

    def execute(self, argv):
        _run_cli(argv)

    def check(self, seed: int, out: Path, argv, result) -> list[str]:
        from robust_overparam import init_network, synth_separated

        c = self.cfg
        ds = synth_separated(c["n"], c["d"], c["delta"], seed)
        init = init_network(c["m"], c["d"], seed).init
        ref = {"m": c["m"], "eps": c["eps"], "R": c["R"], "X": ds.X, "y": ds.y, "W0": init.W0, "b0": init.b0, "a0": init.a0}
        return checks.check_train((out / "trace.csv").read_text(), (out / "summary.json").read_text(), ref)


class CouplingSweep:
    name = "coupling-sweep"
    default_seed = 1
    min_reps = 2
    outputs = ("coupling.csv", "grad.csv")

    def __init__(self, cfg=COUPLING):
        self.cfg = cfg

    def prepare(self, seed: int, out: Path):
        c = self.cfg
        return [
            "coupling", "--m-list", ",".join(str(m) for m in c["m_list"]), "--R", str(c["R"]),
            "--samples", str(c["samples"]), "--d", str(c["d"]), "--seeds", str(c["seeds"]),
            "--batch-n", str(c["batch_n"]), "--seed", str(seed),
            "--out", str(out / "coupling.csv"), "--grad-out", str(out / "grad.csv"),
        ]

    def execute(self, argv):
        _run_cli(argv)

    def check(self, seed: int, out: Path, argv, result) -> list[str]:
        from robust_overparam.dataspace import synth_separated, uniform_domain_sample
        from robust_overparam.network import init_network, perturbed_state
        from robust_overparam.rng import stream

        c = self.cfg
        m = c["m_list"][0]  # the narrowest cell, recomputed unchunked
        state = init_network(m, c["d"], seed)
        pert = perturbed_state(state, c["R"], seed)
        X = uniform_domain_sample(c["samples"], c["d"], stream(seed, "coupling-sample"))
        batch = synth_separated(c["batch_n"], c["d"], 0.8, seed)
        init = state.init
        cell = checks.coupling_reference(init.W0, init.b0, init.a0, pert.W, X, batch.X, batch.y)
        ref = {"m": m, "cell": cell}
        return checks.check_coupling(
            (out / "coupling.csv").read_text(), (out / "grad.csv").read_text(), c["m_list"], ref
        )


class Interpolant:
    name = "interpolant"
    default_seed = 7
    min_reps = 3
    outputs = ()

    def __init__(self, cfg=INTERP):
        self.cfg = cfg

    def prepare(self, seed: int, out: Path):
        import robust_overparam as ro

        c = self.cfg
        ds = ro.synth_separated(c["n"], c["d"], c["delta"], seed)
        return {"seed": seed, "separation": ro.separability(ds, c["rho"]).delta}

    def execute(self, inputs):
        import robust_overparam as ro
        from robust_overparam import harness

        c, seed = self.cfg, inputs["seed"]
        spec = ro.StepSpec(rho=c["rho"], delta=c["delta"], eps1=c["eps"] / (3.0 * c["n"]))
        q = ro.step_poly(spec)
        exact = q.exact_monomial
        complexity = ro.complexity_measures(q, spec.eps1)
        _, target, sample = harness.build_fit_instance(
            c["n"], c["d"], c["delta"], c["rho"], c["eps"], seed, c["pert_per_point"]
        )
        init = ro.init_network(c["m"], c["d"], seed).init
        fit = ro.fit_pseudo_to_target(init, target, sample)
        return {"spec": spec, "q": q, "exact": exact, "complexity": complexity,
                "target": target, "sample": sample, "init": init, "fit": fit}

    def check(self, seed: int, out: Path, inputs, res) -> list[str]:
        spec, q, init = res["spec"], res["q"], res["init"]
        rng = np.random.default_rng(seed)
        points = [Fraction(-1), Fraction(1)] + [Fraction(int(k), 1024) for k in rng.integers(-1023, 1024, EXACT_POINTS)]
        ref = {
            "rho": spec.rho, "delta": spec.delta, "eps1": spec.eps1, "eps": self.cfg["eps"], "points": points,
            "sample": res["sample"], "W0": init.W0, "b0": init.b0, "a0": init.a0,
        }
        grid_one = np.linspace(1.0 - spec.rho**2 / 2.0, 1.0, PLATEAU_GRID)
        grid_zero = np.linspace(-1.0, 1.0 - (spec.delta - spec.rho) ** 2 / 2.0, PLATEAU_GRID)
        out_data = {
            "degree": q.degree,
            "plateau_one": q(grid_one),
            "plateau_zero": q(grid_zero),
            "exact": res["exact"],
            "float_at": q(np.array([float(z) for z in points])),
            "c_plain": res["complexity"].c_plain,
            "fit_max_error": res["fit"].max_error,
            "fit_coeffs": res["fit"].coeffs,
            "target_values": res["target"](res["sample"]),
        }
        bad = checks.check_interpolant(out_data, ref)
        if inputs["separation"] < spec.delta:
            bad.append(f"data separation {inputs['separation']!r} below the spec's delta {spec.delta}")
        return bad


WORKLOADS = {w.name: w for w in (TrainPGA(), CouplingSweep(), Interpolant())}
