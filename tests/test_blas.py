"""Tests for the one-BLAS-thread contract: the start-up default and the library's pin."""

import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

from robust_overparam import _OPENBLAS_START_VARS, network
from robust_overparam.adversary import Adversary, AttackConfig, attack_batch, input_gradient
from robust_overparam.dataspace import synth_separated, uniform_domain_sample
from robust_overparam.network import (
    _blas_single_threaded,
    grad_loss_real,
    gradient_coupling_ratio,
    init_network,
    perturbed_state,
)
from robust_overparam.rng import stream
from robust_overparam.training import HyperParams, adversarial_train, fit_pseudo_to_target, make_loss

SRC = os.path.dirname(os.path.dirname(network.__file__))

# reads every loaded OpenBLAS's thread count without importing the package,
# so a script can take it before and after `import robust_overparam`
_COUNTS = """
import ctypes, json, os
def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split(None, 5)[5].strip() for ln in fh if "openblas" in ln})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                found.append(get())
                break
    return found
def tasks():
    return len(os.listdir("/proc/self/task"))
"""


def _run_script(body: str, thread_env: dict | None = None) -> dict:
    """Run _COUNTS + body in a fresh interpreter with only thread_env of OpenBLAS's thread variables set; its JSON line."""
    env = {k: v for k, v in os.environ.items() if k not in _OPENBLAS_START_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(thread_env or {})
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTS + body], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(proc.stdout)
    if not out["counts"]:
        pytest.skip("no OpenBLAS thread control found")
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
class TestStartupDefault:
    """Importing the package first starts OpenBLAS on one thread and leaves the environment as it was."""

    def test_package_first_starts_one_thread(self):
        body = """
import robust_overparam
print(json.dumps({"counts": counts(), "tasks": tasks(), "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""
        out = _run_script(body)
        assert out["counts"] == [1] * len(out["counts"])
        assert out["tasks"] == 1  # no parked OpenBLAS worker beside the main thread
        assert out["env"] is None

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_caller_value_kept(self, var):
        body = """
import robust_overparam
print(json.dumps({"counts": counts(), "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}))
"""
        out = _run_script(body, {var: "2"})
        assert out["counts"] == [2] * len(out["counts"])
        assert out["env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, var: "2"}

    def test_numpy_first_left_as_it_was(self):
        body = """
import numpy
before, tasks_before = counts(), tasks()
import robust_overparam
print(json.dumps({"before": before, "counts": counts(), "tasks_before": tasks_before, "tasks_after": tasks(),
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""
        out = _run_script(body)
        assert out["counts"] == out["before"]
        assert out["tasks_after"] == out["tasks_before"]
        assert out["env"] is None


class TestLibraryPin:
    """The pin around the library's kernels: nested, on several threads, restored after."""

    @pytest.fixture(autouse=True)
    def two_blas_threads(self):
        # start every test from 2 threads, so a count left at 1 shows
        controls = network._openblas_threads()
        if not controls:
            pytest.skip("no OpenBLAS thread control found")
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        # OpenBLAS started on one thread under tests/conftest.py, and can still start a second
        assert self._counts() == [2] * len(controls)
        yield
        for (_, set_), count in zip(controls, saved):
            set_(count)

    def _counts(self):
        return [get() for get, _ in network._openblas_threads()]

    def test_nested_pins_restore_at_the_outermost_exit(self):
        with _blas_single_threaded():
            with _blas_single_threaded():
                inner = self._counts()
            between = self._counts()
        assert inner == between == [1] * len(inner)
        assert self._counts() == [2] * len(inner)

    def test_pins_on_two_threads(self):
        # thread b enters while a is pinned and exits after a: the count
        # stays at 1 until b, the last one open, exits
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with _blas_single_threaded():
                a_in.set()
                b_in.wait()
            a_out.set()

        def b():
            a_in.wait()
            with _blas_single_threaded():
                b_in.set()
                a_out.wait()
                seen["after a"] = self._counts()

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert seen["after a"] == [1] * len(seen["after a"])
        assert self._counts() == [2] * len(seen["after a"])

    def test_many_threads_under_contention(self):
        # more threads than cores, switching every microsecond: a lost update
        # of the depth count would restore the counts while a pin is open, or
        # leave them at 1 after the last one closes
        gets = [get for get, _ in network._openblas_threads()]
        inside = []

        def pin_repeatedly():
            for _ in range(200):
                with _blas_single_threaded():
                    inside.append(tuple(get() for get in gets))

        threads = [threading.Thread(target=pin_repeatedly) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert set(inside) == {(1,) * len(gets)} and len(inside) == 1600
        assert self._counts() == [2] * len(gets)

    def test_restored_after_a_raise(self):
        with pytest.raises(RuntimeError):
            with _blas_single_threaded():
                raise RuntimeError("inside")
        assert self._counts() == [2] * len(self._counts())

    def test_outermost_pins_look_the_libraries_up_once(self, monkeypatch):
        # a lookup reads /proc/self/maps and loads every OpenBLAS again, about
        # 0.25 ms, or 25 one-point forward_real calls inside a pin
        controls, calls, inside = network._openblas_threads(), [], []

        def lookup():
            calls.append(None)
            return controls

        monkeypatch.setattr(network, "_openblas_threads", lookup)
        monkeypatch.setattr(network, "_blas_controls", None)
        for _ in range(2):
            with _blas_single_threaded():
                inside.append([get() for get, _ in controls])
            assert [get() for get, _ in controls] == [2] * len(controls)
        assert len(calls) == 1
        assert inside == [[1] * len(controls)] * 2

    def test_fit_runs_pinned(self):
        seen = []

        def target(X):
            seen.append(self._counts())
            return np.ones(len(X))

        st = init_network(64, 4, seed=3)
        fit_pseudo_to_target(st.init, target, uniform_domain_sample(10, 4, stream(3, "s")))
        assert seen == [[1] * len(seen[0])]
        assert self._counts() == [2] * len(seen[0])

    def test_gradient_ratio_runs_pinned(self):
        seen = []
        loss = make_loss("absolute")

        def slope(f, y):
            seen.append(self._counts())
            return loss.slope(f, y)

        st = perturbed_state(init_network(64, 4, seed=3), 2.0, 3)
        ds = synth_separated(6, 4, 0.8, seed=3)
        gradient_coupling_ratio(st, ds.X, ds.y, types.SimpleNamespace(slope=slope))
        assert seen == [[1] * len(seen[0])] * 2
        assert self._counts() == [2] * len(seen[0])

    @pytest.mark.parametrize("entry", ["grad_loss_real", "input_gradient", "attack_batch", "adversarial_train"])
    def test_entry_point_runs_pinned(self, entry):
        seen = []
        loss = make_loss("absolute")

        def slope(f, y):
            seen.append(self._counts())
            return loss.slope(f, y)

        probe = types.SimpleNamespace(value=loss.value, slope=slope)
        st = init_network(64, 4, seed=3)
        ds = synth_separated(6, 4, 0.8, seed=3)
        cfg = AttackConfig(rho=0.05, steps=2, restarts=2, seed=3)
        calls = {
            "grad_loss_real": lambda: grad_loss_real(st, ds.X, ds.y, probe),
            "input_gradient": lambda: input_gradient(st, ds.X, ds.y, probe),
            "attack_batch": lambda: attack_batch(st, ds.X, ds.y, probe, cfg),
            "adversarial_train": lambda: adversarial_train(
                st, ds, Adversary("identity", cfg), probe, HyperParams(T=2, eta=0.01, R=1.0, eps=0.3)
            ),
        }
        calls[entry]()
        assert seen and all(counts == [1] * len(counts) for counts in seen)
        assert self._counts() == [2] * len(seen[0])

    def test_library_forward_and_gradient_independent_of_blas_threads(self):
        # numpy loads first on two threads, so only the pins inside
        # forward_real and grad_loss_real keep their bits; unpinned, every
        # output here but forward_real's at m = 300 moved
        body = """
import hashlib
import numpy as np
from robust_overparam import network
from robust_overparam.dataspace import uniform_domain_sample
from robust_overparam.rng import stream
from robust_overparam.training import make_loss
X = uniform_domain_sample(700, 10, stream(5, "batch"))
y = np.where(X[:, 0] >= 0, 1.0, -1.0)
loss = make_loss("absolute")
states = {m: network.init_network(m, 10, 5) for m in (300, 4097, 8192)}
digests = {}
for threads in (1, 2):
    for _, set_ in network._openblas_threads():
        set_(threads)
    digests[threads] = {
        f"{name} m={m}": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for m, st in states.items()
        for name, out in (("forward_real", network.forward_real(st, X)),
                          ("grad_loss_real", network.grad_loss_real(st, X, y, loss)))
    }
print(json.dumps({"digests": digests, "counts": counts()}))
"""
        out = _run_script(body, {"OPENBLAS_NUM_THREADS": "2"})
        assert out["counts"] == [2] * len(out["counts"])  # the calls restored the caller's count
        assert out["digests"]["1"] == out["digests"]["2"]

    def test_library_fit_independent_of_blas_threads(self):
        # numpy loads first on two threads, so only the pin inside the fit
        # keeps its bits; unpinned, max_error moved in its 9th digit
        body = """
import numpy as np
from robust_overparam import _OPENBLAS_START_VARS, network
from robust_overparam.harness import build_fit_instance
from robust_overparam.training import fit_pseudo_to_target
_, target, sample = build_fit_instance(10, 8, 0.8, 0.05, 0.3, 1, 20)
init = network.init_network(2048, 8, 1).init
fits = {}
for threads in (1, 2):
    for _, set_ in network._openblas_threads():
        set_(threads)
    fit = fit_pseudo_to_target(init, target, sample)
    fits[threads] = [fit.max_error.hex(), fit.coeffs.tobytes().hex()]
print(json.dumps({"fits": fits, "counts": counts()}))
"""
        out = _run_script(body, {"OPENBLAS_NUM_THREADS": "2"})
        assert out["counts"] == [2] * len(out["counts"])  # the fit restored the caller's count
        assert out["fits"]["1"] == out["fits"]["2"]

    def test_pooled_scan_independent_of_blas_threads(self):
        # numpy loads first on two threads; the pin around coupling_scan puts
        # every block on its 2 workers on one, whatever the caller's count
        body = """
import numpy as np
from robust_overparam import network
from robust_overparam.dataspace import uniform_domain_sample
from robust_overparam.rng import stream
st = network.perturbed_state(network.init_network(4096, 16, 5), 2.0, 5)
X = uniform_domain_sample(1000, 16, stream(5, "scan"))
inside, scans = [], {}
scan_block = network._scan_block
def block(*args):
    inside.append(counts())
    return scan_block(*args)
network._scan_block = block
for threads in (1, 2):
    for _, set_ in network._openblas_threads():
        set_(threads)
    gap, flipped = network.coupling_scan(st, X, workers=2)
    scans[threads] = [gap.hex(), flipped.tobytes().hex()]
print(json.dumps({"scans": scans, "inside": inside, "counts": counts()}))
"""
        out = _run_script(body, {"OPENBLAS_NUM_THREADS": "2"})
        assert len(out["inside"]) == 8 and all(c == [1] * len(out["counts"]) for c in out["inside"])
        assert out["counts"] == [2] * len(out["counts"])  # the scan restored the caller's count
        assert out["scans"]["1"] == out["scans"]["2"]


@pytest.mark.skipif(
    any(v in os.environ for v in _OPENBLAS_START_VARS), reason="the caller set OpenBLAS's thread count"
)
def test_suite_runs_on_one_thread():
    # tests/conftest.py imports the package before any test module imports
    # numpy, so the calls the suite makes outside a pin run as the CLI's do
    controls = network._openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    assert [get() for get, _ in controls] == [1] * len(controls)
