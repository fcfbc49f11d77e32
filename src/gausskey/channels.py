"""One-mode Gaussian channels in canonical form, with environment dilations.

A channel is fixed by its transmission ``tau`` (tau != 1) and the mean photon
number ``nbar`` of its effective thermal environment.  On covariance matrices
it acts on the targeted mode as

    V  ->  X V X^T + Y,

    X = sqrt(tau) I2        for tau > 0,
        0                   for tau = 0,
        sqrt(-tau) diag(1,-1) for tau < 0 (phase conjugation),
    Y = |1 - tau| (2 nbar + 1) I2.

Class labels: "A1" (tau = 0, thermal replacement), "C_att" (0 < tau < 1,
attenuating), "C_amp" (tau > 1, amplifying), "D" (tau < 0, phase
conjugating).  The additive-noise family at tau = 1 (classes B1/B2) is
rejected everywhere.

The attenuating and amplifying classes admit a two-mode environment model:
the signal is coupled by a beam splitter of transmissivity tau (or a
two-mode squeezer of gain tau) to one arm of a two-mode squeezed vacuum of
variance w = 2 nbar + 1, whose second arm purifies the thermal noise.  An
eavesdropper holding both environment output modes holds a purification of
everything leaking out of the channel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedChannelError
from .symplectic import (
    CovMat,
    _congruence,
    _quadratures,
    apply_symplectic,
    beam_splitter,
    tensor,
    tmsv,
    two_mode_squeezer,
)

__all__ = [
    "CanonicalChannel",
    "Dilation",
    "make_canonical",
    "apply_channel",
    "dilate",
    "apply_dilation",
]

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])

_MAX = sys.float_info.max
_HALF_MAX = _MAX / 2.0  # largest nbar with a finite w = 2 nbar + 1


@dataclass(frozen=True)
class CanonicalChannel:
    """Canonical one-mode Gaussian channel."""

    tau: float
    nbar: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise DomainError(f"transmission must be finite, got {self.tau}", field="tau")
        if self.tau == 1.0:
            raise UnsupportedChannelError("classes B1/B2 (tau=1) unsupported", field="tau")
        # Also rejects NaN and inf: one chained comparison keeps this cheap.
        if not (0.0 <= self.nbar <= _HALF_MAX and 2.0 * self.nbar * abs(1.0 - self.tau) <= _MAX):
            raise DomainError(
                f"temperature nbar must be finite and >= 0, with finite w and eps, got {self.nbar}",
                field="nbar",
            )

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
    tau = float(tau)
    if (nbar is None) == (eps is None):
        raise DomainError("exactly one of nbar and eps must be given", field="nbar/eps")
    if eps is not None:
        if tau == 1.0:  # guards the division below
            raise UnsupportedChannelError("classes B1/B2 (tau=1) unsupported", field="tau")
        eps = float(eps)
        nbar = eps / (2.0 * abs(1.0 - tau))
        if not 0.0 <= eps <= _MAX or nbar > _HALF_MAX:
            raise DomainError(
                f"scaled noise eps must be finite and >= 0, with finite w = 2 nbar + 1, got {eps}",
                field="eps",
            )
    return CanonicalChannel(tau=tau, nbar=float(nbar))


def _channel_x(ch: CanonicalChannel) -> np.ndarray:
    if ch.tau > 0.0:
        return math.sqrt(ch.tau) * I2
    if ch.tau == 0.0:
        return np.zeros((2, 2))
    return math.sqrt(-ch.tau) * Z2


def apply_channel(state: CovMat, ch: CanonicalChannel, mode: int = 0) -> CovMat:
    """Send one mode of ``state`` through the channel (covariance action).

    The targeted 2x2 diagonal block becomes X B X^T + Y and every cross block
    with the other modes is multiplied by X^T on the channel side.
    """
    idx = _quadratures([mode], state.n_modes)
    out = _congruence(state.entries, _channel_x(ch), idx)
    out[idx, idx] += abs(1.0 - ch.tau) * ch.w  # Y is a multiple of I2
    return CovMat(out)


@dataclass(frozen=True)
class Dilation:
    """Two-mode environment model of an attenuating or amplifying channel.

    ``coupling`` is a 4x4 symplectic acting on (signal mode, first
    environment mode); ``environment`` is the two-mode squeezed vacuum of
    variance w whose second mode purifies the thermal noise.  The
    eavesdropper keeps both environment output modes.  Use
    :func:`apply_dilation` to couple a state to the environment; it appends
    the environment modes after the input modes and returns their indices.
    """

    channel: CanonicalChannel
    coupling: np.ndarray
    environment: CovMat


def dilate(ch: CanonicalChannel) -> Dilation:
    """Environment dilation for the attenuating and amplifying classes."""
    if ch.class_label == "C_att":
        coupling = beam_splitter(ch.tau)
    elif ch.class_label == "C_amp":
        coupling = two_mode_squeezer(ch.tau)
    else:
        raise UnsupportedChannelError(
            f"dilation unsupported for class {ch.class_label}; only the "
            "attenuating and amplifying classes have the two-mode environment model"
        )
    return Dilation(channel=ch, coupling=coupling, environment=tmsv(ch.w))


def apply_dilation(
    state: CovMat, dilation: Dilation, mode: int = 0
) -> tuple[CovMat, tuple[int, int]]:
    """Couple ``mode`` of ``state`` to the dilation environment.

    Returns the joint output state over (input modes, environment modes) and
    the indices of the eavesdropper's two environment modes.  Tracing the
    environment back out reproduces :func:`apply_channel` on the input.
    """
    n = state.n_modes
    joint = tensor(state, dilation.environment)
    out = apply_symplectic(joint, dilation.coupling, (mode, n))
    return out, (n, n + 1)
