"""Experiment orchestration and the command-line surface.

Every command resolves its full configuration and runs the relevant module
operations, then returns its output set: a dict from path to body, where a
body is a JSON payload (a dict) or a CSV table ((header, rows)).  `run`
renders every body with the tool version, resolved config and seed embedded,
so reruns with the same flags are byte-identical, and commits the set as a
whole through write_outputs: a command that fails changes none of its
targets.  `fit`'s max_error is in-sample, the largest miss on the fit sample
itself; with 420 sample points and m >= 1024 features the fit interpolates.
Exit codes: 0 success, 1 certification, separability or degenerate-fit
failure, 2 usage error (a size too large to allocate is one); failures also
emit one machine-readable JSON line on stderr.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import errno
import json
import math
import os
import statistics
import sys
import tempfile

import numpy as np

from . import __version__
from .adversary import ADVERSARIES, Adversary, AttackConfig, _random_cap_batch
from .dataspace import (
    Dataset,
    SeparabilityError,
    delta_histogram,
    load_csv,
    separability,
    synth_separated,
    uniform_domain_sample,
)
from .network import (
    anti_concentration_check,
    coupling_scan,
    drift_2inf,
    gradient_coupling_ratio,
    init_network,
    perturbed_state,
)
from .polyapprox import CertificationError, StepSpec, robust_interpolant, step_poly
from .rng import stream
from .training import (
    FitDegenerateError,
    adversarial_train,
    fit_pseudo_to_target,
    make_loss,
    schedule,
)

THREADS_ENV = "ROBUST_OVERPARAM_THREADS"


# ---------------------------------------------------------------------------
# Reproducible output sets, written all or nothing
# ---------------------------------------------------------------------------

_OUTPUTS = ("out", "emit", "hist", "trace", "summary", "grad_out")
# parsed attributes that are not configuration: the handler, the --config
# file (its values are already resolved into the flags) and the output paths
_NOT_CONFIG = frozenset({"func", "config", *_OUTPUTS})

# the mode a plain open(path, "w") gives a new file under this umask
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def _meta(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    return {"version": __version__, "config": config, "seed": getattr(args, "seed", None)}


def _render(body, meta: dict) -> str:
    """One output's text: a JSON payload with meta added, or a CSV table after a `# meta` line."""
    if isinstance(body, dict):
        return json.dumps({"meta": meta, **body}, indent=2, sort_keys=True) + "\n"
    header, rows = body
    lines = ["# meta " + json.dumps(meta, sort_keys=True), ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_outputs(texts: dict) -> None:
    """Write every {path: text} of a set, or change none of the paths.

    A set with a target that is an existing directory is refused before
    anything is made.  Every text then goes to a temp file beside its
    target, and only when all of them are written are the temps renamed
    over their targets.  Any temp left behind is removed.
    """
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = {}
    try:
        for path, text in texts.items():
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            prefix = os.path.basename(path) + "."
            fd, temps[path] = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(temps[path], _FILE_MODE)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> dict:
    spec = StepSpec(rho=args.rho, delta=args.delta, eps1=args.eps1)
    q = step_poly(spec)
    cert = q.meta["certification"]
    payload = {
        "degree": q.degree,
        "basis": "chebyshev",
        "coefficients": [float(c) for c in q.chebyshev_coeffs],
        "certification": {
            "interval": cert["intervals"],
            "max_error": cert["max_error"],
            "tolerance": cert["tolerance"],
            "pass": cert["pass"],
        },
    }
    if args.emit is None:
        print(json.dumps({k: payload[k] for k in ("degree", "basis", "certification")}, sort_keys=True))
    return {args.emit: payload}


def _dataset_from_args(args) -> Dataset:
    if getattr(args, "input", None):
        return load_csv(args.input)
    if getattr(args, "synth", None):
        kv = {}
        for part in args.synth.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"--synth part {part!r} is not key=value; expected n=..,d=..,delta=..")
            kv[key] = value
        unknown = sorted(set(kv) - {"n", "d", "delta"})
        if unknown:
            raise ValueError(f"--synth has unknown keys {unknown}; expected n=..,d=..,delta=..")
        try:
            n, d, delta = int(kv["n"]), int(kv["d"]), float(kv["delta"])
        except KeyError as exc:
            raise ValueError(f"--synth is missing {exc}; expected n=..,d=..,delta=..") from None
        return synth_separated(n=n, d=d, delta_min=delta, seed=args.seed)
    raise ValueError("provide --input data.csv or --synth n=..,d=..,delta=..")


def cmd_separability(args) -> dict:
    ds = _dataset_from_args(args)
    rep = separability(ds, args.rho)
    payload = {
        "n": ds.n,
        "d": ds.d,
        "rho": args.rho,
        "delta": rep.delta,
        "gamma": rep.gamma,
        "separable": rep.gamma > 0,
        "per_point_delta": [float(v) for v in rep.per_point_delta],
    }
    counts, edges = delta_histogram(rep)
    rows = [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))]
    return {args.out: payload, args.hist: (("bin_lo", "bin_hi", "count"), rows)}


def _coupling_cell(m: int, d: int, R: float, samples: int, batch_n: int, seed: int):
    """One (width, seed) cell: sup-sample gap, flip fraction, gradient ratio."""
    pert = perturbed_state(init_network(m, d, seed), R, seed)
    sample = uniform_domain_sample(samples, d, stream(seed, "coupling-sample"))
    gap, flipped = coupling_scan(pert, sample, map=_pool_map)
    flips = float(flipped.sum()) / m
    ds = synth_separated(batch_n, d, delta_min=0.8, seed=seed)
    ratio = gradient_coupling_ratio(pert, ds.X, ds.y, make_loss("absolute"))
    return gap, flips, ratio


def cmd_coupling(args) -> dict:
    rows = []
    grad_rows = []
    seeds = range(args.seed, args.seed + args.seeds)
    # the cells run in turn, and each spreads its row blocks over the pool
    for m in args.m_list:
        cells = [_coupling_cell(m, args.d, args.R, args.samples, args.batch_n, s) for s in seeds]
        gaps, flips, ratios = zip(*cells)
        rows.append((m, args.R, statistics.median(gaps), max(gaps), statistics.median(flips)))
        grad_rows.append((m, args.R, statistics.median(ratios)))
    return {
        args.out: (("m", "R", "gap_median", "gap_max", "flip_fraction"), rows),
        args.grad_out: (("m", "R", "grad_ratio_median"), grad_rows),
    }


def cmd_anticonc(args) -> dict:
    rows = anti_concentration_check(args.d, args.t_grid, args.trials, args.seed)
    header = ("t", "estimate", "exact", "stderr", "envelope")
    return {args.out: (header, [(r.t, r.estimate, r.exact, r.stderr, r.envelope) for r in rows])}


def build_fit_instance(n, d, delta_min, rho, eps, seed, pert_per_point):
    """Shared setup for fit runs: dataset, interpolant, and the fit sample."""
    if pert_per_point < 0:
        raise ValueError(f"--pert-per-point must be >= 0, got {pert_per_point}")
    ds = synth_separated(n, d, delta_min, seed)
    rep = separability(ds, rho)
    spec = StepSpec(rho=rho, delta=rep.delta, eps1=eps / (3.0 * n))
    target = robust_interpolant(ds, spec)
    rngs = [stream(seed, "fit-sample", i, j) for i in range(n) for j in range(pert_per_point)]
    perts = _random_cap_batch(np.repeat(ds.X, pert_per_point, axis=0), rho, rngs)
    return ds, target, np.vstack([ds.X, perts])


def _run_fit(args, m: int, delta: float, seed: int):
    """The fit shared by `fit` and `sweep fit`: (target, sample, FitResult)."""
    _, target, sample = build_fit_instance(
        args.n, args.d, delta, args.rho, args.eps, seed, args.pert_per_point
    )
    state = init_network(m, args.d, seed)
    return target, sample, fit_pseudo_to_target(state.init, target, sample, ridge=args.ridge)


def cmd_fit(args) -> dict:
    target, sample, fit = _run_fit(args, args.m, args.delta, args.seed)
    payload = {
        "m": args.m,
        "sample_size": int(len(sample)),
        "target_degree": target.degree,
        "max_error": fit.max_error,
        "two_inf": fit.two_inf,
        "r_star": fit.r_star,
        "ridge": fit.ridge,
    }
    return {args.out: payload}


def _run_train(args, ds, m: int, seed: int):
    """The run shared by `train` and `sweep train`: (state, TrainingResult).

    Raises SeparabilityError when the caps around the training points overlap.
    """
    rep = separability(ds, args.rho)
    if rep.gamma <= 0:
        raise SeparabilityError(
            f"training set not separable for rho={args.rho}: delta={rep.delta:.4g}"
        )
    cfg = AttackConfig(rho=args.rho, steps=args.attack_steps, restarts=args.attack_restarts, seed=seed)
    adv = Adversary(args.attack, cfg)
    hp = schedule(args.eps, args.R, m, c_T=args.c_T, c_eta=args.c_eta)
    state = init_network(m, ds.d, seed)
    return state, adversarial_train(state, ds, adv, make_loss(args.loss), hp)


def cmd_train(args) -> dict:
    if args.trace is None and args.summary is None:
        raise ValueError("train needs --trace or --summary")
    state, result = _run_train(args, _dataset_from_args(args), args.m, args.seed)
    summary = {
        "best_t": result.best_t,
        "best_robust_loss": result.best_robust_loss,
        "final_drift_2inf": drift_2inf(result.final_W, state.init.W0),
        "hp": dataclasses.asdict(result.hp),
        "invariant_violations": result.violations,
    }
    return {args.trace: (result.trace.COLUMNS, list(result.trace.rows())), args.summary: summary}


def _sweep_cell_fit(args, m: int, delta: float, seed: int) -> dict:
    _, _, fit = _run_fit(args, m, delta, seed)
    return {"max_error": fit.max_error, "two_inf": fit.two_inf, "r_star": fit.r_star}


def _sweep_cell_train(args, m: int, delta: float, seed: int) -> dict:
    _, result = _run_train(args, synth_separated(args.n, args.d, delta, seed), m, seed)
    return {
        "best_robust_loss": result.best_robust_loss,
        "best_t": float(result.best_t),
        "violations": float(len(result.violations)),
    }


def cmd_sweep(args) -> dict:
    cell_fn = _sweep_cell_fit if args.target == "fit" else _sweep_cell_train
    cells = [(m, delta) for m in args.m_list for delta in (args.delta_list or [args.delta])]
    results = _pool_map(
        lambda cell: [cell_fn(args, *cell, args.seed + rep) for rep in range(args.repeats)], cells
    )
    keys = sorted(results[0][0].keys())
    header = ["m", "delta"] + [f"{k}_median" for k in keys]
    rows = [
        tuple([m, delta] + [statistics.median(o[k] for o in outs) for k in keys])
        for (m, delta), outs in zip(cells, results)
    ]
    return {args.out: (header, rows)}


def _pool_map(fn, items):
    """[fn(item) for item in items], on THREADS_ENV (default min(4, cores)) worker threads.

    fn must not call _pool_map: a worker that waits on its own pool can deadlock it.
    """
    text = os.environ.get(THREADS_ENV)
    if text and not (text.isdecimal() and int(text) >= 1):
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {text!r}")
    workers = int(text) if text else min(4, os.cpu_count() or 1)
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# (get, set) thread-count symbols of an OpenBLAS build; numpy's wheels bundle
# scipy-openblas, which prefixes them, and 64-bit-integer builds add a suffix
_BLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_threads() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    The libraries are found in /proc/self/maps, so the list is empty where
    that file does not exist or no OpenBLAS exporting _BLAS_SYMBOLS is loaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            # a mapping's path is its sixth field
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def _blas_single_threaded():
    """One OpenBLAS thread inside the block, each library's old count after it."""
    controls = _openblas_threads()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def float_list(text: str) -> list[float]:
    return [finite_float(v) for v in text.split(",")]


def _fit_flags(parser) -> None:
    """Flags shared by `fit` and `sweep`."""
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--delta", type=finite_float, default=0.8)
    parser.add_argument("--rho", type=finite_float, default=0.05)
    parser.add_argument("--eps", type=finite_float, default=0.3)
    parser.add_argument("--pert-per-point", type=int, default=20)
    parser.add_argument("--ridge", type=finite_float, default=None)


def _train_flags(parser) -> None:
    """Flags shared by `train` and `sweep`."""
    parser.add_argument("--R", type=finite_float, default=2.0)
    parser.add_argument("--c-T", dest="c_T", type=finite_float, default=1.0)
    parser.add_argument("--c-eta", dest="c_eta", type=finite_float, default=1.0)
    parser.add_argument("--attack", choices=ADVERSARIES, default="worst")
    parser.add_argument("--attack-steps", type=int, default=20)
    parser.add_argument("--attack-restarts", type=int, default=3)
    parser.add_argument("--loss", choices=("absolute", "huber"), default="absolute")


def build_parser():
    """The CLI parser and its per-command subparsers, keyed by command name."""
    p = _Parser(prog="robust-overparam")
    sub = p.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="build and certify a step polynomial")
    poly.add_argument("--delta", type=finite_float, required=True)
    poly.add_argument("--rho", type=finite_float, required=True)
    poly.add_argument("--eps1", type=finite_float, required=True)
    poly.add_argument("--emit", type=str, default=None, help="write coeffs JSON here")
    poly.set_defaults(func=cmd_poly)

    sep = sub.add_parser("separability", help="measure pairwise separation")
    sep.add_argument("--input", type=str, default=None)
    sep.add_argument("--synth", type=str, default=None, help="n=..,d=..,delta=..")
    sep.add_argument("--rho", type=finite_float, required=True)
    sep.add_argument("--out", type=str, required=True)
    sep.add_argument("--hist", type=str, default=None)
    sep.add_argument("--seed", type=int, default=0)
    sep.set_defaults(func=cmd_separability)

    cpl = sub.add_parser("coupling", help="network vs pseudo-network width sweep")
    cpl.add_argument("--m-list", type=int_list, required=True)
    cpl.add_argument("--R", type=finite_float, default=2.0)
    cpl.add_argument("--samples", type=positive_int, default=20_000)
    cpl.add_argument("--d", type=int, default=16)
    cpl.add_argument("--seeds", type=positive_int, default=3)
    cpl.add_argument("--seed", type=int, default=1)
    cpl.add_argument("--batch-n", type=int, default=20)
    cpl.add_argument("--out", type=str, required=True)
    cpl.add_argument("--grad-out", type=str, default=None)
    cpl.set_defaults(func=cmd_coupling)

    ac = sub.add_parser("anticonc", help="anti-concentration Monte Carlo check")
    ac.add_argument("--d", type=int, default=16)
    ac.add_argument("--t-grid", type=float_list, default="0.01,0.05,0.1,0.5")
    ac.add_argument("--trials", type=int, default=100_000)
    ac.add_argument("--seed", type=int, default=1)
    ac.add_argument("--out", type=str, required=True)
    ac.set_defaults(func=cmd_anticonc)

    fit = sub.add_parser("fit", help="fit a pseudo-network to the robust interpolant")
    _fit_flags(fit)
    fit.add_argument("--m", type=int, required=True)
    fit.add_argument("--seed", type=int, default=7)
    fit.add_argument("--out", type=str, required=True)
    fit.set_defaults(func=cmd_fit)

    tr = sub.add_parser("train", help="adversarial training run")
    tr.add_argument("--data", dest="input", type=str, default=None)
    tr.add_argument("--synth", type=str, default=None, help="n=..,d=..,delta=..")
    tr.add_argument("--rho", type=finite_float, required=True)
    tr.add_argument("--m", type=int, required=True)
    tr.add_argument("--eps", type=finite_float, required=True)
    _train_flags(tr)
    tr.add_argument("--seed", type=int, default=1)
    tr.add_argument("--trace", type=str, default=None)
    tr.add_argument("--summary", type=str, default=None)
    tr.set_defaults(func=cmd_train)

    sw = sub.add_parser("sweep", help="cartesian sweep over m/delta lists")
    sw.add_argument("target", choices=("fit", "train"))
    sw.add_argument("--m-list", type=int_list, required=True)
    sw.add_argument("--delta-list", type=float_list, default=None)
    sw.add_argument("--repeats", type=positive_int, default=3)
    sw.add_argument("--seed", type=int, default=1)
    _fit_flags(sw)
    _train_flags(sw)
    sw.add_argument("--out", type=str, required=True)
    sw.set_defaults(func=cmd_sweep)

    for parser in sub.choices.values():
        parser.add_argument("--config", type=str, default=None, help="JSON file with flag defaults")
    return p, sub.choices


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _config_path(argv) -> str | None:
    """The --config file named in argv, in every spelling argparse accepts.

    `--config c.json`, `--config=c.json` and abbreviations such as `--conf`
    all reach the subcommand's --config, so all of them must load the file.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def _flags(parser) -> dict:
    """{dest: first option string} of every option flag of parser but --help."""
    return {a.dest: a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"}


def _check_distinct_outputs(args, parser) -> None:
    """Refuse an output flag that names the file of another output, the input or --config.

    Only one of two output bodies would be kept, and an input would be
    overwritten.  Flags are named as parser spells them (--data for train).
    """
    flags = _flags(parser)
    dests = {}
    for dest in (d for d in ("input", "config", *_OUTPUTS) if getattr(args, d, None) is not None):
        other = dests.setdefault(os.path.realpath(getattr(args, dest)), dest)
        if other != dest and dest in _OUTPUTS:
            raise _UsageError(f"{flags[other]} and {flags[dest]} name the same file {getattr(args, dest)!r}")


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparser_map = build_parser()
    try:
        path = _config_path(argv)
        if path is not None:
            # each config value becomes the token its flag would be typed as,
            # right after the command, so explicit flags later in argv still win
            try:
                with open(path) as fh:
                    values = json.load(fh)
            except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8 or not JSON
                raise _UsageError(f"bad --config: {exc}") from None
            if not isinstance(values, dict):
                raise _UsageError(f"bad --config: {path} does not hold a JSON object")
            command = next((a for a in argv if not a.startswith("-")), None)
            if command not in subparser_map:
                raise _UsageError(f"unknown command for --config: {command!r}")
            flags = _flags(subparser_map[command])
            bad = set(values) - set(flags)
            if bad:
                raise _UsageError(f"unknown config keys: {sorted(bad)}")
            tokens = [
                f"{flags[key]}={','.join(map(str, value)) if isinstance(value, list) else value}"
                for key, value in values.items()
                if value is not None
            ]
            at = argv.index(command) + 1
            argv = [*argv[:at], *tokens, *argv[at:]]
        args = parser.parse_args(argv)
        _check_distinct_outputs(args, subparser_map[args.command])
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except argparse.ArgumentError as exc:
        _emit_error("usage", f"bad --config: {exc}")
        return 2
    try:
        # one BLAS thread per command: the pool's workers already fill the
        # cores, and outputs must not depend on the host's BLAS thread count
        with _blas_single_threaded():
            outputs = args.func(args)
        meta = _meta(args)
        # a None path is an output flag that was not given
        write_outputs({path: _render(body, meta) for path, body in outputs.items() if path is not None})
    except (CertificationError, SeparabilityError, FitDegenerateError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        _emit_error("usage", str(exc))
        return 2
    return 0
