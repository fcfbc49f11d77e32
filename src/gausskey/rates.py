"""Canonical one-mode channels and their closed-form secret-key-rate bounds.

A channel is fixed by its transmission ``tau`` (tau != 1) and the mean photon
number ``nbar`` of its effective thermal environment.  Class labels: "A1"
(tau = 0, thermal replacement), "C_att" (0 < tau < 1, attenuating), "C_amp"
(tau > 1, amplifying), "D" (tau < 0, phase conjugating).  The additive-noise
family at tau = 1 (classes B1/B2) is rejected everywhere.

Three bounds, all in bits per channel use, all clipped at zero:

* ``e_r``    reverse coherent information of the channel, which lower-bounds
             the reverse-reconciliation secret-key capacity;
* ``q1g``    single-use coherent information over Gaussian inputs (the
             direct-reconciliation benchmark);
* ``r_rev``  asymptotic rate of the reverse homodyne protocol in which the
             receiver mixes the channel output with vacuum on a balanced
             beam splitter and homodynes one port.

The signed pre-clip values ("interiors") are exposed as well: the clipped
rates are identically zero past their security threshold and therefore carry
no sign information for root finding.

With d = |1 - tau|, w = 2 nbar + 1 and g the thermal entropy function:

    e_r interior    = log2(1/d) - g(nbar)
    q1g interior    = log2(|tau|/d) - g(nbar)          (-inf at tau = 0)
    r_rev interior  = (1/2) log2(lambda/d) + g(sqrt(w/(4 lambda)) - 1/2)
                      - g(nbar),   lambda = (d + w) / (1 + d w).

Everything here is pure ``math``, so the closed-form layer loads without numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .errors import DomainError, UnsupportedChannelError, _float, _shown

__all__ = [
    "CanonicalChannel",
    "make_canonical",
    "entropy_g",
    "RateReport",
    "e_r",
    "e_r_interior",
    "q1g",
    "q1g_interior",
    "r_rev",
    "r_rev_interior",
    "mixing_lambda",
    "rate_report",
]

_MAX = sys.float_info.max
_HALF_MAX = _MAX / 2.0  # largest nbar with a finite w = 2 nbar + 1
_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class CanonicalChannel:
    """Canonical one-mode Gaussian channel."""

    tau: float
    nbar: float

    def __post_init__(self):
        tau, nbar = self.tau, self.nbar
        # One chain of comparisons keeps the common case cheap: it is false
        # for NaN, inf and anything but a Python float.
        if (type(tau) is float and type(nbar) is float and -_MAX <= tau <= _MAX and tau != 1.0
                and 0.0 <= nbar <= _HALF_MAX and 2.0 * nbar * abs(1.0 - tau) <= _MAX):
            return
        t, n = _float(tau), _float(nbar)
        if not -_MAX <= t <= _MAX:
            raise DomainError(f"transmission must be a finite real, got {_shown(tau)}", "tau")
        if t == 1.0:
            raise UnsupportedChannelError("classes B1/B2 (tau=1) unsupported", field="tau")
        if not (0.0 <= n <= _HALF_MAX and 2.0 * n * abs(1.0 - t) <= _MAX):
            raise DomainError(
                "temperature nbar must be a finite real >= 0, with finite w and eps, "
                f"got {_shown(nbar)}", "nbar"
            )
        object.__setattr__(self, "tau", t)  # stored as Python floats
        object.__setattr__(self, "nbar", n)

    @property
    def class_label(self) -> str:
        if self.tau == 0.0:
            return "A1"
        if self.tau < 0.0:
            return "D"
        return "C_att" if self.tau < 1.0 else "C_amp"

    @property
    def eps(self) -> float:
        """Scaled thermal noise 2 nbar |1 - tau| (additive noise variance)."""
        return 2.0 * self.nbar * abs(1.0 - self.tau)

    @property
    def w(self) -> float:
        """Environment quadrature variance 2 nbar + 1."""
        return 2.0 * self.nbar + 1.0


def make_canonical(
    tau: float, nbar: float | None = None, eps: float | None = None
) -> CanonicalChannel:
    """Build a canonical channel from ``tau`` and exactly one noise parameter.

    Noise may be given as the environment temperature ``nbar`` or as the
    scaled noise ``eps`` = 2 nbar |1 - tau|; both must be finite and
    non-negative, and neither w nor eps may overflow.
    """
    if (nbar is None) == (eps is None):
        raise DomainError("exactly one of nbar and eps must be given", field="nbar/eps")
    if eps is None:
        return CanonicalChannel(tau, nbar)
    if type(tau) is not float or type(eps) is not float:  # the threshold search passes floats
        tau, eps = _float(tau), _float(eps)
    if tau == 1.0:  # guards the division below
        raise UnsupportedChannelError("classes B1/B2 (tau=1) unsupported", field="tau")
    nbar = eps / (2.0 * abs(1.0 - tau))
    if not 0.0 <= eps <= _MAX or nbar > _HALF_MAX:
        raise DomainError(
            f"scaled noise eps must be finite and >= 0, with finite w = 2 nbar + 1, got {eps}",
            field="eps",
        )
    return CanonicalChannel(tau, nbar)


def entropy_g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``.

    g(x) = (x + 1) log2(x + 1) - x log2(x), extended continuously to
    g(0) = 0.  Strictly increasing for finite x >= 0; any other x raises.
    Evaluated as [log1p(x) + x log(1 + 1/x)] / ln 2, which has no
    cancellation at large x; below x = 1 the second logarithm is
    log1p(x) - log(x), since 1/x overflows for subnormal x.
    """
    if type(x) is not float:
        x = _float(x)  # refused below as +-inf or NaN if not a real
    if not 0.0 <= x < math.inf:
        raise DomainError(f"entropy_g requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    head = math.log1p(x)
    tail = math.log1p(1.0 / x) if x >= 1.0 else head - math.log(x)
    return (head + x * tail) / _LN2


def e_r_interior(ch: CanonicalChannel) -> float:
    """Reverse coherent information before clipping: log2(1/|1-tau|) - g(nbar)."""
    return -math.log2(abs(1.0 - ch.tau)) - entropy_g(ch.nbar)


def e_r(ch: CanonicalChannel) -> float:
    """Reverse coherent-information rate bound (bits per use, >= 0)."""
    return max(0.0, e_r_interior(ch))


def q1g_interior(ch: CanonicalChannel) -> float:
    """Single-use coherent information before clipping; -inf at tau = 0."""
    if ch.tau == 0.0:
        return -math.inf
    return math.log2(abs(ch.tau / (1.0 - ch.tau))) - entropy_g(ch.nbar)


def q1g(ch: CanonicalChannel) -> float:
    """Single-use Gaussian coherent-information rate (bits per use, >= 0)."""
    return max(0.0, q1g_interior(ch))


def mixing_lambda(ch: CanonicalChannel) -> float:
    """Conditional-noise parameter (|1-tau| + w) / (1 + |1-tau| w).

    Equals 1 at nbar = 0 and approaches w from below as |1-tau| -> 0.
    """
    return _lambda(abs(1.0 - ch.tau), ch.w)


def _lambda(d: float, w: float) -> float:
    return (d + w) / (1.0 + d * w)


def r_rev_interior(ch: CanonicalChannel) -> float:
    """Reverse homodyne-protocol rate before clipping at zero.

    The log terms are kept separate so that at nbar = 0 (lambda = 1) the
    value reduces to exactly half of the ``e_r`` interior.
    """
    d = abs(1.0 - ch.tau)
    w = ch.w
    lam = _lambda(d, w)
    arg = max(0.0, math.sqrt(w / (4.0 * lam)) - 0.5)
    return (
        0.5 * (math.log2(lam) - math.log2(d))
        + entropy_g(arg)
        - entropy_g(ch.nbar)
    )


def r_rev(ch: CanonicalChannel) -> float:
    """Reverse homodyne-protocol rate bound (bits per use, >= 0)."""
    return max(0.0, r_rev_interior(ch))


@dataclass(frozen=True)
class RateReport:
    """All three clipped rates plus shared intermediates at one channel point.

    ``lam`` is the conditional-noise parameter; it is emitted under the key
    ``"lambda"`` in JSON output (the bare word is reserved in Python).
    """

    tau: float
    nbar: float
    eps: float
    e_r: float
    q1g: float
    r_rev: float
    lam: float
    w: float

    def as_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


def rate_report(ch: CanonicalChannel) -> RateReport:
    """Bundle the three clipped rates with their shared intermediates."""
    return RateReport(
        tau=ch.tau,
        nbar=ch.nbar,
        eps=ch.eps,
        e_r=e_r(ch),
        q1g=q1g(ch),
        r_rev=r_rev(ch),
        lam=mixing_lambda(ch),
        w=ch.w,
    )
