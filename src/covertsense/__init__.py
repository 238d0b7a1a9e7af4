"""Entanglement-enhanced covert sensing simulator.

Gaussian-state engine, protocol sources and receivers, adversary
detection bounds, quantum Fisher information limits, a truncated
Fock-space test oracle, and a deterministic Monte Carlo experiment
runner.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    ModeError,
    StateError,
    photon_covariance,
    photon_mean,
    photon_variance,
    difference_stats,
    thermal,
    vacuum,
)
from .protocol import (
    ProtocolVariant,
    SensingScenario,
    build_receiver_inputs,
    split_thermal,
    tmsv,
    willie_brightnesses,
)
from .receivers import (
    CalibrationError,
    ReceiverStats,
    cosine_estimator,
    hr_stats,
    pcr_stats,
    receiver_stats,
    stacked_receiver_stats,
)
from .adversary import (
    CovertnessReport,
    DetectionTest,
    covertness_report,
    epsilon_of,
    pe_lower_bound,
    pe_optimal_counting,
    solve_ns_for_epsilon,
    sqrt_law_schedule,
    thermal_rel_entropy,
)
from .metrology import (
    ConvergenceError,
    QfiResult,
    gaussian_fidelity,
    qfi_of_family,
    qfi_phase,
    receiver_fisher,
)
from .montecarlo import (
    CltGuardError,
    EstimationResult,
    simulate,
)

__all__ = [
    "__version__",
    "GaussianState",
    "ModeError",
    "StateError",
    "photon_covariance",
    "photon_mean",
    "photon_variance",
    "difference_stats",
    "thermal",
    "vacuum",
    "ProtocolVariant",
    "SensingScenario",
    "build_receiver_inputs",
    "split_thermal",
    "tmsv",
    "willie_brightnesses",
    "CalibrationError",
    "ReceiverStats",
    "cosine_estimator",
    "hr_stats",
    "pcr_stats",
    "receiver_stats",
    "stacked_receiver_stats",
    "CovertnessReport",
    "DetectionTest",
    "covertness_report",
    "epsilon_of",
    "pe_lower_bound",
    "pe_optimal_counting",
    "solve_ns_for_epsilon",
    "sqrt_law_schedule",
    "thermal_rel_entropy",
    "ConvergenceError",
    "QfiResult",
    "gaussian_fidelity",
    "qfi_of_family",
    "qfi_phase",
    "receiver_fisher",
    "CltGuardError",
    "EstimationResult",
    "simulate",
]
