"""Time the PGA attack and the `train` command, and write BENCH_attack.json.

Usage:

    python scripts/bench_attack.py [--tree LABEL=SRC ...] [--out BENCH_attack.json]

Each --tree names a package source directory (default: change=<this repo>/src)
to measure under LABEL; give two to compare trees, for example a checkout of
the parent commit beside this one.  For every tree it records:

- attack_ms: attack_batch at m = 1024, 8192 and 65536 on the acceptance batch
  (n = 20, d = 10, delta 0.8, rho 0.05, seed 7, 20-step 3-restart PGA), in
  a fresh process on one BLAS thread, one untimed call then REPS timed ones;
- train_s: the wall time of the `train` command at the `train-pga` benchmark
  config (the acceptance run at R = 1, T = 12), where the attack gathers
  each cap's unstable units, and at the same config with rho = 0.35, where
  about half the units are unstable and it evaluates every unit; REPS runs
  each, a fresh interpreter per run, the trees alternating run by run.

Each entry holds the median, the quartiles and the run count.  The file also
records the machine, the numpy and BLAS build, and each tree's git sha, whether
its src differs from that commit, and a sha256 of its .py files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPS = 9
WIDTHS = (1024, 8192, 65536)
TRAIN = (
    "train --synth n=20,d=10,delta=0.8 --m 8192 --eps 0.3 --R 1.0 --attack worst "
    "--attack-steps 20 --attack-restarts 3 --seed 7"
).split()
TRAINS = {"train-pga": [*TRAIN, "--rho", "0.05"], "train-pga at rho 0.35": [*TRAIN, "--rho", "0.35"]}


def _stats(times) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "n": len(times)}


def _attack_child() -> None:
    """Print {m: [ms per call]} for the package on sys.path."""
    from robust_overparam import init_network, make_loss, synth_separated
    from robust_overparam.adversary import AttackConfig, attack_batch

    ds = synth_separated(20, 10, 0.8, 7)
    loss = make_loss("absolute")
    cfg = AttackConfig(rho=0.05, steps=20, restarts=3, seed=7)
    out = {}
    for m in WIDTHS:
        st = init_network(m, 10, 7)
        attack_batch(st, ds.X, ds.y, loss, cfg)
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            attack_batch(st, ds.X, ds.y, loss, cfg)
            times.append(1e3 * (time.perf_counter() - start))
        out[m] = times
    print(json.dumps(out))


def _git(src: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True, check=True).stdout.strip()


def _tree_id(src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git(src, "rev-parse", "HEAD"),
        "src_differs_from_commit": bool(_git(src, "status", "--porcelain", "--", ".")),
        "src_sha256": digest.hexdigest(),
    }


def _env(src: Path) -> dict:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": 1,
    }


def main(argv=None) -> None:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="package source to measure (repeatable)")
    parser.add_argument("--out", type=Path, default=repo / "BENCH_attack.json")
    parser.add_argument("--attack-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.attack_child:
        return _attack_child()
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={repo / 'src'}"])
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    report = {label: _tree_id(src) for label, src in trees.items()}
    for label, src in trees.items():
        child = subprocess.run(
            [sys.executable, __file__, "--attack-child"],
            env=_env(src), capture_output=True, text=True, check=True,
        )
        report[label]["attack_ms"] = {m: _stats(t) for m, t in json.loads(child.stdout).items()}
    train_times = {label: {name: [] for name in TRAINS} for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = ["--trace", f"{tmp}/trace.csv", "--summary", f"{tmp}/summary.json"]
        for name, argv in TRAINS.items():
            for _ in range(REPS):
                for label, src in trees.items():
                    start = time.perf_counter()
                    subprocess.run(
                        [sys.executable, "-m", "robust_overparam.cli", *argv, *outputs], env=_env(src), check=True
                    )
                    train_times[label][name].append(time.perf_counter() - start)
    for label, times in train_times.items():
        report[label]["train_s"] = {name: _stats(t) for name, t in times.items()}
    doc = {
        "machine": _machine(),
        "attack": "attack_batch, n = 20, d = 10, delta 0.8, rho 0.05, seed 7, 20 steps, 3 restarts, at init",
        "train": {name: " ".join(argv) for name, argv in TRAINS.items()},
        "trees": report,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, r in report.items():
        attack = ", ".join(f"m={m} {s['median']:.1f} ms" for m, s in r["attack_ms"].items())
        train = ", ".join(f"{name} {s['median']:.3f} s" for name, s in r["train_s"].items())
        print(f"{label}: attack {attack}; train {train}")


if __name__ == "__main__":
    main()
