"""Time the package's start-up and two commands in fresh interpreters, and write BENCH_startup.json.

Usage:

    python scripts/bench_startup.py [--tree LABEL=SRC ...] [--out BENCH_startup.json]

Each --tree names a package source directory (default: change=<this repo>/src)
to measure under LABEL; give two to compare trees, for example a checkout of
the parent commit beside this one.  Every run is a fresh interpreter with
OpenBLAS's thread variables unset, so OpenBLAS starts as the package leaves it:

- import: `python -c "import robust_overparam"`;
- train: the `train` command at the `train-pga` benchmark flags (the
  acceptance run at R = 1, T = 12, 20-step 3-restart PGA at m = 8192);
- fit: the `fit` command on the acceptance instance (n = 20, d = 10,
  m = 8192, seed 7).

For each it records the wall time around the child process and the child's
CPU time (user + sys, from getrusage), as the median, the quartiles and the
run count.  The trees alternate run by run, and the first tree of each round
alternates too.  With two trees, `pairs` counts the rounds in which the
second tree's run took less than the first's.  The file also records the
machine, the numpy and BLAS build, and each tree's git sha, whether its src
differs from that commit, and a sha256 of its .py files.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_attack import TRAIN, _machine, _stats, _tree_id

REPS = 15
# the variables OpenBLAS reads for its thread count when it loads
OPENBLAS_START_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")
METRICS = ("wall_s", "cpu_s")
FIT = "fit --n 20 --d 10 --delta 0.8 --rho 0.05 --eps 0.3 --m 8192 --seed 7".split()
# interpreter arguments of each child; the outputs go to its working directory
COMMANDS = {
    "import": ["-c", "import robust_overparam"],
    "train": ["-m", "robust_overparam.cli", *TRAIN, "--rho", "0.05", "--trace", "trace.csv", "--summary", "summary.json"],
    "fit": ["-m", "robust_overparam.cli", *FIT, "--out", "fit.json"],
}


def _env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in OPENBLAS_START_VARS}
    return {**env, "PYTHONPATH": str(src)}


def _measure(args, env, cwd) -> tuple[float, float]:
    """(wall s, CPU s) of one child interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main(argv=None) -> None:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="package source to measure (repeatable)")
    parser.add_argument("--out", type=Path, default=repo / "BENCH_startup.json")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={repo / 'src'}"])
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    labels = list(trees)
    runs = {label: {name: [] for name in COMMANDS} for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPS):
            for name, child in COMMANDS.items():
                for label in labels if rep % 2 == 0 else labels[::-1]:
                    runs[label][name].append(_measure(child, _env(trees[label]), tmp))
    report = {label: _tree_id(src) for label, src in trees.items()}
    for label, by_name in runs.items():
        for k, metric in enumerate(METRICS):
            report[label][metric] = {name: _stats([r[k] for r in rs]) for name, rs in by_name.items()}
    machine = _machine()
    machine["blas_threads"] = "OpenBLAS thread variables unset"
    doc = {
        "machine": machine,
        "commands": {name: shlex.join(["python", *child]) for name, child in COMMANDS.items()},
        "trees": report,
    }
    if len(labels) == 2:
        first, second = (runs[label] for label in labels)
        lower = {}
        for name in COMMANDS:
            pairs = list(zip(first[name], second[name]))
            lower[name] = {metric: sum(b[k] < a[k] for a, b in pairs) for k, metric in enumerate(METRICS)}
            lower[name]["n"] = len(pairs)
        doc["pairs"] = {f"{labels[1]} below {labels[0]}": lower}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, r in report.items():
        cells = ", ".join(
            f"{name} {r['wall_s'][name]['median']:.3f} s wall / {r['cpu_s'][name]['median']:.3f} s cpu" for name in COMMANDS
        )
        print(f"{label}: {cells}")


if __name__ == "__main__":
    main()
