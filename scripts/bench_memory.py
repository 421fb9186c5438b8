"""Measure the memory of the fit, the gradient coupling ratio and the coupling cell, and write BENCH_memory.json.

Usage:

    python scripts/bench_memory.py [--tree LABEL=SRC ...] [--out BENCH_memory.json]

Each --tree names a package source directory (default: change=<this repo>/src)
to measure under LABEL; give two to compare trees, for example a checkout of
the parent commit beside this one.  Every run is a fresh interpreter with
OpenBLAS's thread variables and the pool size unset, so both are the
package's defaults.  Each run records:

- traced_mb: the tracemalloc peak of one call, after one untraced call, of
  - fit_8192: fit_pseudo_to_target on the `interpolant` instance
    (build_fit_instance(20, 10, 0.95, 0.05, 0.3, 7, 20), 420 points) at
    m = 8192, seed 7;
  - fit_65536: the same at m = 65536;
  - ratio_65536: gradient_coupling_ratio at m = 65536, d = 16, R = 2 on the
    `coupling` command's 20-point batch, absolute loss;
  - cell_4000 and cell_20000: one `coupling` cell (harness._coupling_cell)
    at m = 65536, d = 16, R = 2 with 4000 and 20000 samples, pinned as in
    the CLI;
- rss_mb: the peak RSS of a whole process (ru_maxrss from wait4) that runs
  - fit: the `fit` command at the `interpolant` flags (m = 8192, delta 0.95);
  - coupling: the `coupling` command at the `coupling-sweep` flags.

Each entry holds the median, the quartiles and the run count.  The trees
alternate run by run, and the first tree of each round alternates too.  With
two trees, `pairs` counts the rounds in which the second tree's value was
lower than the first's.  The file also records the machine, the numpy and
BLAS build, and each tree's git sha, whether its src differs from that
commit, and a sha256 of its .py files.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_attack import _machine, _stats, _tree_id
from bench_startup import OPENBLAS_START_VARS

REPS = 9
MB = 1e6
FIT = "fit --n 20 --d 10 --delta 0.95 --rho 0.05 --eps 0.3 --m 8192 --seed 7".split()
COUPLING = "coupling --m-list 1024,4096,16384,65536 --R 2 --samples 4000 --d 16 --seeds 1 --batch-n 20".split()
# interpreter arguments of each child whose peak RSS is read; the outputs go to its working directory
COMMANDS = {
    "fit": ["-m", "robust_overparam.cli", *FIT, "--out", "fit.json"],
    "coupling": ["-m", "robust_overparam.cli", *COUPLING, "--out", "coupling.csv", "--grad-out", "grad.csv"],
}
TRACED = ("fit_8192", "fit_65536", "ratio_65536", "cell_4000", "cell_20000")
# the traced child imports the package before this script's numpy, as the commands do
TRACED_CHILD = ["-c", "import robust_overparam, bench_memory; bench_memory._traced_child()"]


def _traced_child() -> None:
    """Print {name: traced peak in MB} for the package on sys.path."""
    import tracemalloc

    from robust_overparam import harness, network
    from robust_overparam.dataspace import synth_separated
    from robust_overparam.training import fit_pseudo_to_target, make_loss

    _, target, sample = harness.build_fit_instance(20, 10, 0.95, 0.05, 0.3, 7, 20)
    vals = target(sample)
    inits = {m: network.init_network(m, 10, 7).init for m in (8192, 65536)}
    pert = network.perturbed_state(network.init_network(65536, 16, 1), 2.0, 1)
    batch = synth_separated(20, 16, delta_min=0.8, seed=1)
    calls = {
        "fit_8192": lambda: fit_pseudo_to_target(inits[8192], vals, sample),
        "fit_65536": lambda: fit_pseudo_to_target(inits[65536], vals, sample),
        "ratio_65536": lambda: network.gradient_coupling_ratio(pert, batch.X, batch.y, make_loss("absolute")),
        "cell_4000": lambda: harness._coupling_cell(65536, 16, 2.0, 4000, 20, 1),
        "cell_20000": lambda: harness._coupling_cell(65536, 16, 2.0, 20000, 20, 1),
    }
    out = {}
    with network._blas_single_threaded():
        for name in TRACED:
            calls[name]()
            tracemalloc.start()
            try:
                calls[name]()
                out[name] = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()
    print(json.dumps(out))


def _env(src: Path) -> dict:
    drop = {*OPENBLAS_START_VARS, "ROBUST_OVERPARAM_THREADS"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    return {**env, "PYTHONPATH": str(src)}


def _peak_rss_mb(args, env, cwd) -> float:
    """Peak RSS of one child interpreter, in MB."""
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args)
    return usage.ru_maxrss * 1024 / MB  # KiB on Linux


def main(argv=None) -> None:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="package source to measure (repeatable)")
    parser.add_argument("--out", type=Path, default=repo / "BENCH_memory.json")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={repo / 'src'}"])
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    labels = list(trees)
    runs = {label: {name: [] for name in (*TRACED, *COMMANDS)} for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPS):
            for label in labels if rep % 2 == 0 else labels[::-1]:
                env = _env(trees[label])
                child = subprocess.run(
                    [sys.executable, *TRACED_CHILD],
                    env={**env, "PYTHONPATH": os.pathsep.join([env["PYTHONPATH"], str(Path(__file__).parent)])},
                    capture_output=True, text=True, check=True,
                )
                for name, peak in json.loads(child.stdout).items():
                    runs[label][name].append(peak)
                for name, cmd in COMMANDS.items():
                    runs[label][name].append(_peak_rss_mb(cmd, env, tmp))
    report = {label: _tree_id(src) for label, src in trees.items()}
    for label, by_name in runs.items():
        report[label]["traced_mb"] = {name: _stats(by_name[name]) for name in TRACED}
        report[label]["rss_mb"] = {name: _stats(by_name[name]) for name in COMMANDS}
    machine = _machine()
    machine["blas_threads"] = "OpenBLAS thread variables unset"
    doc = {
        "machine": machine,
        "traced": "tracemalloc peak of one call in MB (1e6 bytes), after one untraced call; see the script's docstring",
        "commands": {name: shlex.join(["python", *cmd]) for name, cmd in COMMANDS.items()},
        "trees": report,
    }
    if len(labels) == 2:
        first, second = (runs[label] for label in labels)
        lower = {name: sum(b < a for a, b in zip(first[name], second[name])) for name in first}
        doc["pairs"] = {f"{labels[1]} below {labels[0]}": {**lower, "n": REPS}}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, r in report.items():
        cells = [f"{name} {s['median']:.2f}" for name, s in {**r["traced_mb"], **r["rss_mb"]}.items()]
        print(f"{label}: traced MB {', '.join(cells[: len(TRACED)])}; peak RSS MB {', '.join(cells[len(TRACED):])}")


if __name__ == "__main__":
    main()
