"""Secret-key rate bounds for one-mode Gaussian bosonic channels.

Conventions used throughout: quadrature ordering (q1, p1, ..., qn, pn),
vacuum variance 1 (so a covariance matrix V is physical when
V + i*Omega >= 0 with Omega the standard symplectic form), and all
entropies and rates in bits.

The package splits into a small linear-algebra core (`symplectic`), the
canonical one-mode channel forms and their two-mode dilations (`channels`),
closed-form rate bounds (`rates`), finite-squeezing numerical engines that
converge to those bounds (`engines`), security-threshold curves over the
channel parameter plane (`thresholds`), and a seeded Monte Carlo of the
homodyne reverse-reconciliation protocol (`sim`).
"""

from . import channels, engines, errors, rates, sim, symplectic, thresholds
from .channels import *
from .engines import *
from .errors import *
from .rates import *
from .sim import *
from .symplectic import *
from .thresholds import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# republishes them all.
__all__ = [
    name
    for module in (channels, engines, errors, rates, sim, symplectic, thresholds)
    for name in module.__all__
]
