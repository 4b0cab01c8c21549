"""Discrete networks of bounded in-degree over an ordered variable set:
exact and empirical independence queries, structure recovery from small
tuple marginals, and VC-dimension bounds with sample-size solvers.

Each module's ``__all__`` is its public API; the package re-exports them.
"""

__version__ = "0.1.0"

# Kernel implementation name; benchmark run metadata reports it.
BACKEND = "python"

from . import model, oracle, estimation, recovery, vcbounds, experiment
from .model import *
from .oracle import *
from .estimation import *
from .recovery import *
from .vcbounds import *
from .experiment import *

__all__ = [
    "BACKEND",
    "__version__",
    *model.__all__,
    *oracle.__all__,
    *estimation.__all__,
    *recovery.__all__,
    *vcbounds.__all__,
    *experiment.__all__,
]
