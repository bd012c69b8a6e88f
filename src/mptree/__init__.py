"""Generalized binomial trees for option pricing and inference.

The step model carries separate up/down drifts (gamma, delta), a base up
probability g with slope v (p = g + v*sqrt(dt)), and volatility sigma.
CRR, Jarrow-Rudd, and Tian are parameter choices inside the family; with
gamma = delta and v = 0 the one-step gross-return moments reproduce those
of a geometric Brownian motion. The subpackages cover risk-neutral
lattice pricing, convergence diagnostics against the lognormal limit,
least-squares chain calibration, and estimation of the up probability
from return data.
"""

# Each module's __all__ is the one list of its public names.
from . import (calibration, convergence, errors, market_io, model, optimize,
               pricing, stats)
from .errors import *
from .model import *
from .pricing import *
from .convergence import *
from .calibration import *
from .optimize import *
from .stats import *
from .market_io import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, model, pricing, convergence, calibration,
                               optimize, stats, market_io)
           for name in module.__all__] + ["__version__"]
