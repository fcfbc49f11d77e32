"""Finite-squeezing engines: first-principles cross-checks of the closed forms.

Two entropy engines send one arm of a two-mode squeezed vacuum of variance
``mu`` through a channel and evaluate coherent information from symplectic
spectra; both converge to the matching closed-form interior as mu grows (the
gap scales like 1/mu).

A third engine rebuilds the reverse homodyne-protocol rate from the explicit
environment dilation.  The five-mode pure state

    mode 0  Alice's retained source arm
    mode 1  Bob's kept port of the balanced beam splitter
    mode 2  environment output (the arm that interacted with the signal)
    mode 3  environment purifier
    mode 4  Bob's discarded beam-splitter port

is assembled, and the rate is the Gaussian mutual information between matched
homodyne outcomes on modes 0 and 1 minus the eavesdropper's Holevo
information about Bob's outcome.  Two readings of the discarded port are
implemented: ``"trusted"`` leaves mode 4 out of the eavesdropper's hands
(the detection noise is trusted), ``"untrusted"`` grants it to her.  The
trusted reading is the one that converges to the closed-form ``r_rev``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import CanonicalChannel, apply_channel, apply_dilation, dilate
from .errors import DomainError, NumericError, UnsupportedChannelError
from .rates import e_r_interior, q1g_interior, r_rev_interior
from .symplectic import (
    CovMat,
    apply_symplectic,
    beam_splitter,
    homodyne_condition,
    partial_trace,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)

__all__ = [
    "ConvergenceRow",
    "ENGINES",
    "PORT_MODELS",
    "rci_finite_mu",
    "ci_finite_mu",
    "protocol_rate_numeric",
    "protocol_holevo_information",
    "convergence_table",
]

ENGINES = ("rci", "ci", "protocol")
PORT_MODELS = ("trusted", "untrusted")

# Conditioning on Bob's outcome involves variance ratios that degenerate as
# the source approaches vacuum, so the protocol engine refuses mu at or below
# this bound.
MIN_PROTOCOL_MU = 1.0 + 1e-9

# V_A|y = V_A - c^2 / V_y cancels digits as mu grows: its rounding error is
# about ulp(1) * V_A, so the mutual-information term (1/2) log2(V_A / V_A|y)
# is off by about ulp(1) * V_A / V_A|y bits.  Past this bound the protocol
# engine raises instead of returning a wrong rate (at tau 0.5, nbar 0.1 the
# bound is crossed between mu = 1e10 and 1e12; mu = 1e16 would give 0.381
# bits against a closed form of 0.263).
_MAX_MI_ROUNDING_BITS = 1e-6


def rci_finite_mu(ch: CanonicalChannel, mu: float) -> float:
    """Reverse coherent information S(A) - S(AB) at source variance ``mu``.

    May be negative at small mu; non-decreasing in mu and never above the
    closed-form interior it converges to.
    """
    joint = _source_through_channel(ch, mu)
    return von_neumann_entropy(partial_trace(joint, (0,))) - von_neumann_entropy(joint)


def ci_finite_mu(ch: CanonicalChannel, mu: float) -> float:
    """Forward coherent information S(B) - S(AB) at source variance ``mu``."""
    joint = _source_through_channel(ch, mu)
    return von_neumann_entropy(partial_trace(joint, (1,))) - von_neumann_entropy(joint)


def _source_through_channel(ch: CanonicalChannel, mu: float) -> CovMat:
    mu = float(mu)
    if mu < 1.0:
        raise DomainError(f"source variance mu must be >= 1, got {mu}")
    return apply_channel(tmsv(mu), ch, mode=1)


def _check_protocol_args(ch: CanonicalChannel, mu: float, port_model: str, basis: str):
    if port_model not in PORT_MODELS:
        raise DomainError(f"port_model must be one of {PORT_MODELS}, got {port_model!r}")
    if basis not in ("q", "p"):
        raise DomainError(f"basis must be 'q' or 'p', got {basis!r}")
    if ch.class_label not in ("C_att", "C_amp"):
        raise UnsupportedChannelError(
            f"protocol engine needs an attenuating or amplifying channel, "
            f"got class {ch.class_label}"
        )
    if float(mu) < MIN_PROTOCOL_MU:
        raise DomainError(
            f"mu must exceed {MIN_PROTOCOL_MU} for stable conditioning, got {mu}"
        )


def _protocol_state(ch: CanonicalChannel, mu: float) -> CovMat:
    """Five-mode pure state (Alice, kept port, env out, env purifier, discarded)."""
    state, _ = apply_dilation(tmsv(mu), dilate(ch), mode=1)
    state = tensor(state, vacuum(1))
    return apply_symplectic(state, beam_splitter(0.5), (1, 4))


def _eve_modes(port_model: str) -> tuple[int, ...]:
    return (2, 3) if port_model == "trusted" else (2, 3, 4)


def _holevo(state: CovMat, eve: tuple[int, ...], basis: str) -> float:
    before = von_neumann_entropy(partial_trace(state, eve))
    conditioned = homodyne_condition(state, measured_mode=1, quadrature=basis)
    after = von_neumann_entropy(partial_trace(conditioned, tuple(m - 1 for m in eve)))
    return before - after


def protocol_holevo_information(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Holevo information chi(E : y) = S(E) - S(E | y) about Bob's outcome.

    Conditioning uses the outcome-independent homodyne update, so this is the
    exact Gaussian Holevo quantity, not a sampled estimate.
    """
    _check_protocol_args(ch, mu, port_model, basis)
    state = _protocol_state(ch, float(mu))
    return _holevo(state, _eve_modes(port_model), basis)


def protocol_rate_numeric(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Reverse homodyne-protocol rate I(x_A : y) - chi(E : y) at finite ``mu``.

    The mutual information uses the variance-ratio form
    (1/2) log2(V_A / V_{A|y}).  V_{A|y} = V_A - c^2 / V_y loses digits as mu
    grows, so this raises :class:`NumericError` (float precision limit) once
    that rounding could move the rate by more than 1e-6 bits.  Results in
    the q and p bases agree to float noise.
    """
    _check_protocol_args(ch, mu, port_model, basis)
    state = _protocol_state(ch, float(mu))
    row = 0 if basis == "q" else 1
    va = float(state.entries[row, row])
    vb = float(state.entries[2 + row, 2 + row])
    c = float(state.entries[row, 2 + row])
    cond = va - c * c / vb
    rounding = math.ulp(1.0) * va / cond if 0.0 < cond < math.inf else math.inf
    if rounding > _MAX_MI_ROUNDING_BITS:
        raise NumericError(
            f"conditional variance V_A|y = {cond} at mu = {mu} is lost to cancellation "
            f"against V_A = {va}: rounding error above {_MAX_MI_ROUNDING_BITS} bits "
            "(float precision limit)"
        )
    mi = 0.5 * math.log2(va / cond)
    return mi - _holevo(state, _eve_modes(port_model), basis)


@dataclass(frozen=True)
class ConvergenceRow:
    """One engine evaluation against its closed-form target (gap = target - value)."""

    mu: float
    value: float
    target: float
    gap: float


def convergence_table(
    ch: CanonicalChannel,
    mu_values,
    engine: str = "rci",
    port_model: str = "trusted",
) -> list[ConvergenceRow]:
    """Evaluate one engine over ``mu_values`` against its closed-form interior.

    Targets: ``rci`` against the reverse coherent-information interior,
    ``ci`` against the single-use coherent-information interior, and
    ``protocol`` against the homodyne-protocol interior.
    """
    if engine not in ENGINES:
        raise DomainError(f"engine must be one of {ENGINES}, got {engine!r}")
    mu_list = [float(m) for m in mu_values]
    if not mu_list:
        raise DomainError("mu_values must not be empty")
    if engine == "rci":
        target = e_r_interior(ch)
        values = [rci_finite_mu(ch, m) for m in mu_list]
    elif engine == "ci":
        target = q1g_interior(ch)
        values = [ci_finite_mu(ch, m) for m in mu_list]
    else:
        target = r_rev_interior(ch)
        values = [protocol_rate_numeric(ch, m, port_model=port_model) for m in mu_list]
    return [
        ConvergenceRow(mu=m, value=v, target=target, gap=target - v)
        for m, v in zip(mu_list, values)
    ]
