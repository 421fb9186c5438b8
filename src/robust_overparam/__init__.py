"""Certified step-polynomial constructions and adversarial training for wide
two-layer ReLU networks on the constrained sphere domain."""

import os
import sys

# Every command runs its BLAS work on one thread (network._blas_single_threaded),
# so OpenBLAS starts on one: it reads its thread variables only when numpy
# loads it, and with OPENBLAS_NUM_THREADS=1 starts no worker thread to park.
# The variable is removed again, so child processes see the caller's
# environment.  Any thread variable the caller set is kept (OPENBLAS_NUM_THREADS
# would override the others), and a numpy already imported is left as it is.
_OPENBLAS_START_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")
if not any(v in os.environ for v in _OPENBLAS_START_VARS) and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

from .adversary import Adversary, AttackConfig, input_gradient
from .dataspace import (
    Dataset,
    SeparabilityError,
    SeparabilityReport,
    pad_and_normalize,
    separability,
    synth_separated,
)
from .network import (
    InitSnapshot,
    NetworkState,
    anti_concentration_check,
    coupling_scan,
    drift_2inf,
    forward_real,
    grad_loss_real,
    gradient_coupling_ratio,
    init_network,
)
from .polyapprox import (
    CertificationError,
    ComplexityReport,
    Polynomial,
    StepSpec,
    complexity_measures,
    compressed_power,
    compressed_sign_poly,
    robust_interpolant,
    step_poly,
)
from .training import (
    AbsoluteLoss,
    HuberLoss,
    HyperParams,
    adversarial_train,
    fit_pseudo_to_target,
    make_loss,
    robust_loss,
    schedule,
)
