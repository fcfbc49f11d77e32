"""Closed-form secret-key-rate bounds for canonical one-mode channels.

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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .channels import CanonicalChannel
from .symplectic import entropy_g

__all__ = [
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
    d = abs(1.0 - ch.tau)
    return (d + ch.w) / (1.0 + d * ch.w)


def r_rev_interior(ch: CanonicalChannel) -> float:
    """Reverse homodyne-protocol rate before clipping at zero.

    The log terms are kept separate so that at nbar = 0 (lambda = 1) the
    value reduces to exactly half of the ``e_r`` interior.
    """
    d = abs(1.0 - ch.tau)
    lam = mixing_lambda(ch)
    arg = max(0.0, math.sqrt(ch.w / (4.0 * lam)) - 0.5)
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
