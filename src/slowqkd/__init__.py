"""Secret-key rates and simulations for QKD with slow basis choice.

A sequence groups M blocks of L pulses under a single basis choice.
``keyrate`` holds the analytic model (detection rate, error rates,
tagging bound, key rate per pulse slot), ``optimizer`` searches the
protocol parameters (mu, nu_th, M), ``montecarlo`` validates the model
event by event, and ``attacksim`` demonstrates why sequences with
multiple detections must be discarded.  The package exports each of
the four modules' ``__all__``.
"""

from . import attacksim, keyrate, montecarlo, optimizer
from .attacksim import *  # noqa: F401,F403
from .keyrate import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *keyrate.__all__, *optimizer.__all__, *montecarlo.__all__, *attacksim.__all__, "__version__"
]
