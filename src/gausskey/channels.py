"""Covariance action of the canonical one-mode channels, with environment dilations.

The channel record (``CanonicalChannel``, built by ``make_canonical``) lives
in the numpy-free ``rates`` module and is re-exported here.  On covariance
matrices a channel acts on the targeted mode as

    V  ->  X V X^T + Y,

    X = sqrt(tau) I2        for tau > 0,
        0                   for tau = 0,
        sqrt(-tau) diag(1,-1) for tau < 0 (phase conjugation),
    Y = |1 - tau| (2 nbar + 1) I2.

The attenuating and amplifying classes admit a two-mode environment model:
the signal is coupled by a beam splitter of transmissivity tau (or a
two-mode squeezer of gain tau) to one arm of a two-mode squeezed vacuum of
variance w = 2 nbar + 1, whose second arm purifies the thermal noise.  An
eavesdropper holding both environment output modes holds a purification of
everything leaking out of the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedChannelError
from .rates import CanonicalChannel, make_canonical
from .symplectic import (
    CovMat,
    _quadratures,
    _result,
    apply_symplectic,
    beam_splitter,
    tensor,
    tmsv,
    two_mode_squeezer,
)

__all__ = [
    "Dilation",
    "apply_channel",
    "dilate",
    "apply_dilation",
]

def apply_channel(state: CovMat, ch: CanonicalChannel, mode: int = 0) -> CovMat:
    """Send one mode of ``state`` through the channel (covariance action).

    X is sqrt|tau| times I2, or times diag(1, -1) for tau < 0, so
    X V X^T + Y is a diagonal update in Python floats: the mode's two rows
    and two columns are scaled by sqrt|tau| (the p row and column negated
    for tau < 0), and |1 - tau| w is added to its two variances.  Every
    other entry is unchanged, and the result is exactly symmetric.
    """
    q = _quadratures([mode], state.n_modes, "mode")[0]
    s = math.sqrt(abs(ch.tau))
    scales = ((q, s), (q + 1, -s if ch.tau < 0.0 else s))
    rows = state.entries.tolist()
    for j, f in scales:  # columns first: V X^T
        for r in rows:
            r[j] *= f
    for j, f in scales:  # then rows: X (V X^T), and Y on the diagonal
        rows[j] = [f * x for x in rows[j]]
        rows[j][j] += abs(1.0 - ch.tau) * ch.w
    return _result(rows, "channel output")


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
    _quadratures([mode], n, "mode")  # a mode of the input, not of the environment
    joint = tensor(state, dilation.environment)
    out = apply_symplectic(joint, dilation.coupling, (mode, n))
    return out, (n, n + 1)
