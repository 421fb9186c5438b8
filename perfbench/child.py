"""One measured process: interpreter start, import, inputs, timed work, checks.

    python3 perfbench/child.py --workload NAME --seed N --mode run|probe|trace \
        --out DIR --spawned MONOTONIC

Writes DIR/result.json.  `probe` stops after set-up; `trace` installs the
span wrappers right after the import and writes DIR/spans.json.  The
process counters are read before the checks run, so checks cost nothing in
cpu_s or peak_rss_mb.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Importing every module is part of set-up, and lets the tracer find them.
from robust_overparam import adversary, dataspace, harness, network, polyapprox, rng, training  # noqa: E402,F401


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "probe", "trace"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)

    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = wl.prepare(args.seed, out)
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned}
    if args.mode != "probe":
        try:
            res = wl.execute(inputs)
            error = None
        except Exception:  # recorded as a failed operation, never hidden
            error = traceback.format_exc()
        done = time.monotonic()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=done - ready,
            user_s=ru.ru_utime,
            sys_s=ru.ru_stime,
            minor_faults=ru.ru_minflt,
            peak_rss_mb=ru.ru_maxrss / 1024.0,
            error=error,
        )
        if tracer is not None:
            tracer.enabled = False
            spans = {"spans": tracer.spans, "counts": dict(tracer.counts), "absent": tracer.absent}
            (out / "spans.json").write_text(json.dumps(spans))
        if error is None:
            try:
                result["failures"] = wl.check(args.seed, out, inputs, res)
            except Exception:  # output too malformed to check counts as wrong
                result["failures"] = [traceback.format_exc()]
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
