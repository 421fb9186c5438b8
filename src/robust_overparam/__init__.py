"""Certified step-polynomial constructions and adversarial training for wide
two-layer ReLU networks on the constrained sphere domain."""

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
