"""Secret-key rate bounds for one-mode Gaussian bosonic channels.

Conventions used throughout: quadrature ordering (q1, p1, ..., qn, pn),
vacuum variance 1 (so a covariance matrix V is physical when
V + i*Omega >= 0 with Omega the standard symplectic form), and all
entropies and rates in bits.

The package splits into the canonical one-mode channels and their
closed-form rate bounds (`rates`), security-threshold curves over the
channel parameter plane (`thresholds`), a small linear-algebra core
(`symplectic`), the channels' covariance action and two-mode dilations
(`channels`), finite-squeezing numerical engines that converge to the
closed forms (`engines`), and a seeded Monte Carlo of the homodyne
reverse-reconciliation protocol (`sim`).

`errors`, `rates` and `thresholds` are pure `math` and load with the
package.  The numpy-backed modules load on the first use of any other name.
"""

import importlib

from . import errors, rates, thresholds
from .errors import *
from .rates import *
from .thresholds import *

__version__ = "0.1.0"

_MODULES = ("channels", "engines", "errors", "rates", "sim", "symplectic", "thresholds")


def __getattr__(name: str):
    # First miss (PEP 562): load every module and bind all of their public
    # names at once, as star-imports would.  Each module's __all__ is the one
    # list of its public names; the package republishes them all.
    names = globals()
    if "__all__" not in names:
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        for module in modules:
            names.update((n, getattr(module, n)) for n in module.__all__)
        names["__all__"] = [n for module in modules for n in module.__all__]
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
