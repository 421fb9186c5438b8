"""Outside-in spans around the library's layer functions.

`Tracer.install` replaces each listed function with a timing wrapper in
every module namespace of the package that holds it (for example
`forward_real` in `network`, `adversary` and `training`), so no file under
`src/` changes.  Parents are tracked per thread: the coupling cells run on
the harness's pool threads, and a shared stack would charge one thread's
spans to another thread's parent.  Spans stay in memory until the child
process writes them out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter

import numpy as np


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _after_attack_batch(counts, fn, args, kwargs, out):
    X = np.atleast_2d(np.asarray(_bind(fn, args, kwargs)["X"], dtype=float))
    counts["attack_batch.rows"] += len(X)
    counts["attack_batch.moved"] += int(np.any(np.asarray(out) != X, axis=1).sum())


def _after_adversarial_train(counts, fn, args, kwargs, out):
    rob, std = out.trace.robust_loss, out.trace.standard_loss
    counts["training.iterations"] += len(rob)
    counts["attack_gain.rows"] += len(rob)
    counts["attack_gain.sum"] += float(sum(r - s for r, s in zip(rob, std)))


def _after_atomic_write(counts, fn, args, kwargs, out):
    counts["harness.output_bytes"] += len(_bind(fn, args, kwargs)["text"].encode())


def _after_coupling_cell(counts, fn, args, kwargs, out):
    a = _bind(fn, args, kwargs)
    counts["coupling.unit_samples"] += int(a["m"]) * int(a["samples"])


def _cell_name(fn, args, kwargs):
    return f"harness.coupling_cell.m{int(_bind(fn, args, kwargs)['m'])}"


# (span name or naming function, module, attribute, after-hook).  An
# attribute "Class.prop" names a property.  Private helpers are reached
# here because the layers they implement have no public entry point.
LAYERS = [
    ("harness.run", "harness", "run", None),
    ("harness.pool", "harness", "_pool_map", None),
    (_cell_name, "harness", "_coupling_cell", _after_coupling_cell),
    ("harness.atomic_write_text", "harness", "atomic_write_text", _after_atomic_write),
    ("training.adversarial_train", "training", "adversarial_train", _after_adversarial_train),
    ("training.fit_pseudo_to_target", "training", "fit_pseudo_to_target", None),
    ("adversary.attack_batch", "adversary", "attack_batch", _after_attack_batch),
    ("adversary.input_gradient", "adversary", "_input_gradient_batch", None),
    ("adversary.project_cap", "adversary", "_project_cap_batch", None),
    ("adversary.random_cap_point", "adversary", "random_cap_point", None),
    ("network.forward_real", "network", "forward_real", None),
    ("network.grad_loss_real", "network", "grad_loss_real", None),
    ("network.grad_loss_pseudo", "network", "grad_loss_pseudo", None),
    ("network.coupling_gap", "network", "coupling_gap", None),
    ("network.init_network", "network", "init_network", None),
    ("network.perturbed_state", "network", "perturbed_state", None),
    ("polyapprox.step_poly", "polyapprox", "step_poly", None),
    ("polyapprox.robust_interpolant", "polyapprox", "robust_interpolant", None),
    ("polyapprox.complexity_measures", "polyapprox", "complexity_measures", None),
    ("polyapprox.exact_monomial", "polyapprox", "Polynomial.exact_monomial", None),
    ("polyapprox.sign_series_exact", "polyapprox", "_sign_series_exact", None),
    ("polyapprox.expand_w_cheb_series", "polyapprox", "_expand_w_cheb_series", None),
    ("polyapprox.expand_w_power_series", "polyapprox", "_expand_w_power_series", None),
    ("polyapprox.affine_substitute_exact", "polyapprox", "_affine_substitute_exact", None),
    ("dataspace.synth_separated", "dataspace", "synth_separated", None),
    ("dataspace.separability", "dataspace", "separability", None),
    ("dataspace.uniform_domain_sample", "dataspace", "uniform_domain_sample", None),
    ("rng.stream", "rng", "stream", None),
]


class Tracer:
    """Collects [name, start, end, parent index, thread id] spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(fn, args, kwargs) if callable(name) else name
            stack = self._stack()
            with self._lock:
                idx = len(self.spans)
                self.spans.append([label, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                with self._lock:
                    after(self.counts, fn, args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "robust_overparam", layers=LAYERS) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for name, module, attr, after in layers:
            label = name if isinstance(name, str) else f"{module}.{attr}"
            mod = sys.modules.get(f"{package}.{module}")
            owner_name, _, prop = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                found = owner is not None and isinstance(owner.__dict__.get(prop), property)
                if not found:
                    self.absent.append(label)
                    continue
                setattr(owner, prop, property(self.wrap(name, owner.__dict__[prop].fget, after)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(label)
                continue
            wrapped = self.wrap(name, fn, after)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)


def summarize(spans) -> dict:
    """calls, total_s and self_s per span name.

    total_s counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice; self_s is each span's duration
    minus the durations of its direct children on the same thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, total, own = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        own[name] += dur - child[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            total[name] += dur
    return {"calls": calls, "total_s": total, "self_s": own}


CELL_WIDTHS = (1024, 4096, 16384, 65536)

# (metric, unit): the per-layer metrics a traced run reports, in the order
# BENCHMARK.json lists them.
PER_LAYER = (
    [(f"network.forward_real.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"network.grad_loss_real.{k}", u) for k, u in (("calls", "count"), ("total_s", "s"))]
    + [(f"network.coupling_gap.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"network.{f}.total_s", "s") for f in ("grad_loss_pseudo", "init_network", "perturbed_state")]
    + [(f"adversary.attack_batch.{k}", u) for k, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [(f"adversary.input_gradient.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"adversary.project_cap.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"adversary.random_cap_point.{k}", u) for k, u in (("calls", "count"), ("total_s", "s"))]
    + [("adversary.attack_batch.moved_frac", "ratio"), ("adversary.attack_gain", "loss")]
    + [("rng.stream.calls", "count"), ("rng.stream.total_s", "s")]
    + [("training.adversarial_train.total_s", "s"), ("training.adversarial_train.self_s", "s")]
    + [("training.iterations", "count"), ("training.fit_pseudo_to_target.total_s", "s")]
    + [(f"polyapprox.{f}.total_s", "s") for f in ("step_poly", "robust_interpolant", "complexity_measures", "exact_monomial")]
    + [
        (f"polyapprox.{f}.self_s", "s")
        for f in ("sign_series_exact", "expand_w_cheb_series", "expand_w_power_series", "affine_substitute_exact")
    ]
    + [(f"dataspace.{f}.total_s", "s") for f in ("synth_separated", "separability", "uniform_domain_sample")]
    + [("harness.run.total_s", "s"), ("harness.atomic_write_text.total_s", "s"), ("harness.output_bytes", "bytes")]
    + [(f"harness.coupling_cell.m{m}.total_s", "s") for m in CELL_WIDTHS]
    + [("harness.coupling_cell.unit_samples_per_s", "1/s"), ("harness.pool.busy_frac", "ratio")]
    + [("proc.user_s", "s"), ("proc.sys_s", "s"), ("proc.minor_faults", "count")]
    + [("trace.overhead_s", "s")]
)


def layer_metrics(spans, counts) -> dict:
    """Span and counter metrics of one traced run (proc.* and trace.* excluded)."""
    agg = summarize(spans)
    out = {}
    for metric, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind in agg:
            out[metric] = float(agg[kind][layer])
    rows = counts.get("attack_batch.rows", 0)
    out["adversary.attack_batch.moved_frac"] = counts.get("attack_batch.moved", 0) / rows if rows else 0.0
    gain_rows = counts.get("attack_gain.rows", 0)
    out["adversary.attack_gain"] = counts.get("attack_gain.sum", 0.0) / gain_rows if gain_rows else 0.0
    out["training.iterations"] = float(counts.get("training.iterations", 0))
    out["harness.output_bytes"] = float(counts.get("harness.output_bytes", 0))
    cells = [s for s in spans if s[0].startswith("harness.coupling_cell.")]
    cell_s = sum(end - start for _, start, end, _, _ in cells)
    out["harness.coupling_cell.unit_samples_per_s"] = counts.get("coupling.unit_samples", 0) / cell_s if cell_s else 0.0
    pool_s = agg["total_s"]["harness.pool"]
    workers = len({s[4] for s in cells})
    out["harness.pool.busy_frac"] = cell_s / (pool_s * workers) if pool_s and workers else 0.0
    return out
