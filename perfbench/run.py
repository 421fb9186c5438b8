"""Benchmark entry point.

    python3 perfbench/run.py --workload train-pga|coupling-sweep|interpolant|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs from a source checkout; no install is needed.  Each operation is a fresh
interpreter (perfbench/child.py) that imports `robust_overparam` from
`src/`, generates its inputs from the seed, does the workload's timed work
and checks the outputs.  A run first starts SETUP_PROBES processes that stop
after set-up, then repeats the operation while another one is expected to
end within `--seconds` (the median operation so far), and at least the
workload's minimum number of operations.  With `--trace 1`
every operation is an untraced and a traced process, and the per-layer
metrics come from the traced ones.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0


def spawn(workload: str, seed: int, mode: str, out: Path, deadline: float) -> dict:
    """Run one child process and return its result record."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--out", str(out),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        subprocess.run(cmd + ["--spawned", repr(time.monotonic())], stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process killed after {timeout:.0f} s"}
    try:
        return json.loads((out / "result.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {"error": f"{mode} process left no result"}


def _median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    base = OUT / wl.name
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [spawn(wl.name, seed, "probe", base / f"probe{i}", deadline) for i in range(SETUP_PROBES)]
    reps, traced, lengths = [], [], []
    start = time.monotonic()
    min_reps = 1 if trace else wl.min_reps
    # An operation starts only if the median one so far would end in time,
    # so a run lasts about `seconds`, not up to one operation longer.
    while len(reps) < min_reps or time.monotonic() - start + statistics.median(lengths) <= seconds:
        began = time.monotonic()
        reps.append(spawn(wl.name, seed, "run", base / f"rep{len(reps)}", deadline))
        if trace:
            traced.append(spawn(wl.name, seed, "trace", base / f"trace{len(traced)}", deadline))
        lengths.append(time.monotonic() - began)
        if time.monotonic() >= deadline:
            break

    ops = [(base / f"rep{i}", r) for i, r in enumerate(reps)] + [(base / f"trace{i}", r) for i, r in enumerate(traced)]
    done = [(d, r) for d, r in ops if not r.get("error")]
    failures = [f"{d.name}: {f}" for d, r in done for f in r.get("failures", [])]
    for d, r in ops:
        if r.get("error"):
            print(f"{wl.name} {d.name} failed: {r['error']}", file=sys.stderr)
    # repetitions of one seed must write byte-identical files, traced or not
    for name in wl.outputs:
        blobs = [(d, (d / name).read_bytes() if (d / name).is_file() else None) for d, _ in done]
        failures += [f"{name} differs between {blobs[0][0].name} and {d.name}" for d, b in blobs[1:] if b != blobs[0][1]]

    clean = [r for r in reps if not r.get("error")]
    e2e = {}
    if clean:
        e2e = {
            "wall_s": _median_metric([r["wall_s"] for r in clean], "s"),
            "setup_s": _median_metric([r["setup_s"] for r in probes + clean if "setup_s" in r], "s"),
            "cpu_s": _median_metric([r["user_s"] + r["sys_s"] for r in clean], "s"),
            "peak_rss_mb": _median_metric([r["peak_rss_mb"] for r in clean], "MB"),
        }
    layers = per_layer(base, traced, clean) if trace and clean else {}
    return {"workload": wl.name, "seed": seed, "attempted": len(ops), "failed": len(ops) - len(done),
            "failures": failures, "end_to_end": e2e, "per_layer": layers}


def per_layer(base: Path, traced, clean) -> dict:
    from tracer import PER_LAYER, layer_metrics

    runs, walls, absent = [], [], set()
    for i, r in enumerate(traced):
        if r.get("error"):
            continue
        data = json.loads((base / f"trace{i}" / "spans.json").read_text())
        runs.append(layer_metrics(data["spans"], data["counts"]))
        walls.append(r["wall_s"])
        absent.update(data["absent"])
    if not runs:
        return {}
    for name in sorted(absent):
        print(f"layer {name} is absent from the program; its metrics read 0", file=sys.stderr)
    values = {k: [run[k] for run in runs] for k in runs[0]}
    values["proc.user_s"] = [r["user_s"] for r in clean]
    values["proc.sys_s"] = [r["sys_s"] for r in clean]
    values["proc.minor_faults"] = [float(r["minor_faults"]) for r in clean]
    overhead = statistics.median(walls) - statistics.median(r["wall_s"] for r in clean)
    values["trace.overhead_s"] = [overhead]
    return {name: _median_metric(values[name], unit) for name, unit in PER_LAYER}


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable table and return the result line's object."""
    metrics = result["per_layer"] if trace else result["end_to_end"]
    print(f"workload {result['workload']} seed {result['seed']}: attempted {result['attempted']}, "
          f"failed {result['failed']}, check failures {len(result['failures'])}")
    for f in result["failures"]:
        print(f"  FAIL {f}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<6} median of {m['samples']}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "robust_overparam" / "__init__.py").is_file():
        print(f"no robust_overparam sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        lines[name] = report(measure(wl, seed, args.seconds, bool(args.trace)), bool(args.trace))
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}.{k}": m for n, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
