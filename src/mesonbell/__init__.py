"""Entangled neutral-meson pairs: quantum joint flavor-tag probabilities,
a Selleri-type local-realistic model with hidden-state-dependent detection
efficiency, weight fitting, Clauser-Horne tooling and a seeded event oracle.

The package re-exports each submodule's ``__all__``, the one list of its public names.
"""

from . import constants, quantum, lrm, fitting, bell, montecarlo
from .constants import *
from .quantum import *
from .lrm import *
from .fitting import *
from .bell import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = ["__version__", *constants.__all__, *quantum.__all__, *lrm.__all__,
           *fitting.__all__, *bell.__all__, *montecarlo.__all__]
