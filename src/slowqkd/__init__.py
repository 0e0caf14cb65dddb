"""Secret-key rates and simulations for QKD with slow basis choice.

A sequence groups M blocks of L pulses under a single basis choice.
``keyrate`` holds the analytic model (detection rate, error rates,
tagging bound, key rate per pulse slot), ``optimizer`` searches the
protocol parameters (mu, nu_th, M), ``montecarlo`` validates the model
event by event, and ``attacksim`` demonstrates why sequences with
multiple detections must be discarded.
"""

from .attacksim import (
    DEFAULT_SCENARIO,
    AttackScenario,
    AttackStats,
    HonestStats,
    analytic_success,
    honest_baseline,
    run_attack,
)
from .keyrate import (
    Detector,
    KeyRateResult,
    ProtocolParams,
    binary_entropy,
    bit_error_rate,
    detection_rate_Q,
    e_mB,
    e_src,
    e_src_slow,
    key_rate,
    phase_error_pnr,
    phase_error_threshold,
)
from .montecarlo import (
    McComparison,
    McConfig,
    McMode,
    McStats,
    binomial_stderr,
    compare_to_analytic,
    simulate,
)
from .optimizer import (
    M_CANDIDATES_DEFAULT,
    CurveSpec,
    Optimum,
    heuristic_M,
    mu_grid,
    optimize_point,
    optimize_with_M,
    sweep_curves,
)

__version__ = "0.1.0"

__all__ = [
    "Detector",
    "ProtocolParams",
    "KeyRateResult",
    "binary_entropy",
    "e_src",
    "e_src_slow",
    "detection_rate_Q",
    "bit_error_rate",
    "e_mB",
    "phase_error_pnr",
    "phase_error_threshold",
    "key_rate",
    "Optimum",
    "CurveSpec",
    "M_CANDIDATES_DEFAULT",
    "mu_grid",
    "optimize_point",
    "optimize_with_M",
    "heuristic_M",
    "sweep_curves",
    "McMode",
    "McConfig",
    "McStats",
    "McComparison",
    "binomial_stderr",
    "simulate",
    "compare_to_analytic",
    "AttackScenario",
    "AttackStats",
    "HonestStats",
    "DEFAULT_SCENARIO",
    "analytic_success",
    "run_attack",
    "honest_baseline",
    "__version__",
]
