"""Measure package source trees side by side in fresh processes, and write a BENCH_*.json.

Usage:

    python scripts/bench.py [--tree LABEL=SRC ...] --out BENCH_name.json

Each --tree names a package source directory (default: change=<this repo>/src)
to measure under LABEL; give two to compare trees, for example a checkout of
the parent commit beside this one.  Every child is a fresh interpreter with
the caller's environment minus OpenBLAS's thread variables and the pool size,
so both are the package's defaults.  Per tree it records:

- wall_s, cpu_s (user + sys) and rss_mb (peak RSS), from one wait4 on each
  of these commands:
  - import: `import robust_overparam`;
  - train: `train` at the `train-pga` benchmark flags (the acceptance run at
    R = 1, T = 12, 20-step 3-restart PGA at m = 8192), where the attack
    gathers each cap's unstable units;
  - train rho 0.35: the same at rho = 0.35, where about half the units are
    unstable and the attack evaluates every unit;
  - fit: `fit` at the `interpolant` flags (m = 8192, delta 0.95);
  - coupling: `coupling` at the `coupling-sweep` flags;
- from one probe child, which imports the package before numpy and runs
  every call inside the package's BLAS pin, as the commands do:
  - attack_ms: attack_batch on the acceptance batch (n = 20, d = 10,
    delta 0.8, rho 0.05, seed 7, 20-step 3-restart PGA) at m = 1024, 8192
    and 65536, the minimum of ATTACK_CALLS timed calls after one untimed
    call (one timed call per process read about 4/10/90 ms in some
    processes and 6/14/105 ms in others);
  - traced_mb: the tracemalloc peak of one call, after one untraced call, of
    fit_pseudo_to_target on the `interpolant` instance (420 points) at
    m = 8192 and 65536 (fit_8192, fit_65536), of gradient_coupling_ratio at
    m = 65536, d = 16, R = 2 on the `coupling` command's 20-point batch
    (ratio_65536), and of one `coupling` cell at m = 65536, d = 16, R = 2
    with 4000 and 20000 samples (cell_4000, cell_20000).

Each of REPS rounds runs every command and then the probe for every tree back
to back, and the tree that goes first alternates by round.  Each quantity
holds the median, the quartiles, the IQR and the run count.  With two trees,
`pairs` counts the rounds in which the second tree's value was lower and
higher than the first's; ties count for neither.  The file also records the
machine, the numpy and BLAS build, and each tree's git sha, whether its src
differs from that commit, and a sha256 of its .py files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO / "src"))

import numpy as np  # noqa: E402

from robust_overparam import _OPENBLAS_START_VARS  # noqa: E402
from robust_overparam.harness import THREADS_ENV  # noqa: E402

REPS = 10
MB = 1e6
ATTACK_WIDTHS = (1024, 8192, 65536)
ATTACK_CALLS = 5
TRAIN = (
    "train --synth n=20,d=10,delta=0.8 --m 8192 --eps 0.3 --R 1.0 --attack worst "
    "--attack-steps 20 --attack-restarts 3 --seed 7 --trace trace.csv --summary summary.json"
).split()
FIT = "fit --n 20 --d 10 --delta 0.95 --rho 0.05 --eps 0.3 --m 8192 --seed 7 --out fit.json".split()
COUPLING = (
    "coupling --m-list 1024,4096,16384,65536 --R 2 --samples 4000 --d 16 --seeds 1 --batch-n 20 "
    "--out coupling.csv --grad-out grad.csv"
).split()
# interpreter arguments of each child; the outputs go to its working directory
COMMANDS = {
    "import": ["-c", "import robust_overparam"],
    "train": ["-m", "robust_overparam.cli", *TRAIN, "--rho", "0.05"],
    "train rho 0.35": ["-m", "robust_overparam.cli", *TRAIN, "--rho", "0.35"],
    "fit": ["-m", "robust_overparam.cli", *FIT],
    "coupling": ["-m", "robust_overparam.cli", *COUPLING],
}
# the probe imports the package before this script's numpy, as the commands do
PROBE = ["-c", "import robust_overparam, bench; bench._probe()"]


def _probe() -> None:
    """Print {"attack_ms": {m: ms}, "traced_mb": {name: MB}} for the package on sys.path."""
    import tracemalloc

    from robust_overparam import harness, network
    from robust_overparam.adversary import AttackConfig, attack_batch
    from robust_overparam.dataspace import synth_separated
    from robust_overparam.training import fit_pseudo_to_target, make_loss

    loss = make_loss("absolute")
    ds = synth_separated(20, 10, 0.8, 7)
    cfg = AttackConfig(rho=0.05, steps=20, restarts=3, seed=7)
    states = {m: network.init_network(m, 10, 7) for m in ATTACK_WIDTHS}
    _, target, sample = harness.build_fit_instance(20, 10, 0.95, 0.05, 0.3, 7, 20)
    vals = target(sample)
    pert = network.perturbed_state(network.init_network(65536, 16, 1), 2.0, 1)
    batch = synth_separated(20, 16, delta_min=0.8, seed=1)
    traced = {
        "fit_8192": lambda: fit_pseudo_to_target(states[8192].init, vals, sample),
        "fit_65536": lambda: fit_pseudo_to_target(states[65536].init, vals, sample),
        "ratio_65536": lambda: network.gradient_coupling_ratio(pert, batch.X, batch.y, loss),
        "cell_4000": lambda: harness._coupling_cell(65536, 16, 2.0, 4000, 20, 1),
        "cell_20000": lambda: harness._coupling_cell(65536, 16, 2.0, 20000, 20, 1),
    }
    out = {"attack_ms": {}, "traced_mb": {}}
    with network._blas_single_threaded():
        for m, st in states.items():
            attack_batch(st, ds.X, ds.y, loss, cfg)
            times = []
            for _ in range(ATTACK_CALLS):
                start = time.perf_counter()
                attack_batch(st, ds.X, ds.y, loss, cfg)
                times.append(time.perf_counter() - start)
            out["attack_ms"][m] = 1e3 * min(times)
        for name, call in traced.items():
            call()
            tracemalloc.start()
            try:
                call()
                out["traced_mb"][name] = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()
    print(json.dumps(out))


def _env(src: Path) -> dict:
    drop = {*_OPENBLAS_START_VARS, THREADS_ENV}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    return {**env, "PYTHONPATH": os.pathsep.join([str(src), str(REPO / "scripts")])}


def _child(args, env, cwd) -> tuple[dict, str]:
    """({wall_s, cpu_s, rss_mb}, stdout) of one child interpreter."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.PIPE, text=True) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args)
    cost = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / MB,  # KiB on Linux
    }
    return cost, stdout


def _stats(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "n": len(values)}


def _pairs(first, second) -> dict:
    """Rounds in which second's value was lower and higher than first's; ties count for neither."""
    rounds = list(zip(first, second))
    return {"lower": sum(b < a for a, b in rounds), "higher": sum(b > a for a, b in rounds)}


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
        "blas_threads": "OpenBLAS thread variables unset",
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="package source to measure (repeatable)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={REPO / 'src'}"])
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    labels = list(trees)
    # runs[label][quantity][name]: one value per round
    runs = {label: defaultdict(lambda: defaultdict(list)) for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPS):
            order = labels if rep % 2 == 0 else labels[::-1]
            for name, child in {**COMMANDS, "probe": PROBE}.items():
                for label in order:
                    cost, stdout = _child(child, _env(trees[label]), tmp)
                    values = json.loads(stdout) if name == "probe" else {q: {name: v} for q, v in cost.items()}
                    for quantity, by_name in values.items():
                        for key, value in by_name.items():
                            runs[label][quantity][key].append(value)
    report = {label: _tree_id(src) for label, src in trees.items()}
    for label, by_quantity in runs.items():
        for quantity, by_name in by_quantity.items():
            report[label][quantity] = {name: _stats(values) for name, values in by_name.items()}
    doc = {
        "machine": _machine(),
        "commands": {name: shlex.join(["python", *child]) for name, child in COMMANDS.items()},
        "probe": "attack_ms and traced_mb of the package's kernels; see scripts/bench.py's docstring",
        "trees": report,
    }
    if len(labels) == 2:
        first, second = (runs[label] for label in labels)
        counts = {q: {name: _pairs(first[q][name], second[q][name]) for name in first[q]} for q in first}
        doc["pairs"] = {f"{labels[1]} against {labels[0]}": {**counts, "n": REPS}}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, by_quantity in report.items():
        for quantity in runs[label]:
            cells = ", ".join(f"{name} {s['median']:.3f}" for name, s in by_quantity[quantity].items())
            print(f"{label} {quantity}: {cells}")


if __name__ == "__main__":
    main()
