"""Finite-squeezing engines: first-principles cross-checks of the closed forms.

Two entropy engines send one arm of a two-mode squeezed vacuum of variance
``mu`` through a channel and evaluate coherent information from symplectic
spectra; both converge to the matching closed-form interior as mu grows (the
gap scales like 1/mu).  Every engine takes any ``mu`` that ``tmsv`` takes.

A third engine rebuilds the reverse homodyne-protocol rate.  Bob's balanced
beam splitter mixes the channel output B' with a vacuum port, giving the
three-mode state (A, B, D): Alice's retained source arm, Bob's kept
(homodyned) port and his discarded port.  The rate is the Gaussian mutual
information between matched homodyne outcomes on A and B minus the
eavesdropper's Holevo information about Bob's outcome y, both read from one
homodyne update of (A, B, D).  Her environment E purifies (A, B, D), and
(A, D, E) stays pure given y, so each of her entropies is that of the
complementary modes: no dilation is built, and every channel class is
covered.  The ``"trusted"`` port model keeps D from her (the detection noise
is trusted: S(E) = S(A B'), S(E | y) = S(A D | y)) and is the one that
converges to the closed-form ``r_rev``; ``"untrusted"`` grants it to her
(S(E D) = S(A B), S(E D | y) = S(A | y)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import CanonicalChannel, apply_channel
from .errors import DomainError, NumericError, _choice, _float, _shown
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
    joint = apply_channel(tmsv(mu), ch, mode=1)
    return von_neumann_entropy(partial_trace(joint, (0,))) - von_neumann_entropy(joint)


def ci_finite_mu(ch: CanonicalChannel, mu: float) -> float:
    """Forward coherent information S(B) - S(AB) at source variance ``mu``."""
    joint = apply_channel(tmsv(mu), ch, mode=1)
    return von_neumann_entropy(partial_trace(joint, (1,))) - von_neumann_entropy(joint)


def _protocol_state(ch: CanonicalChannel, mu: float) -> tuple[CovMat, CovMat]:
    """Channel output (A, B') and the state (A, B, D) after Bob's balanced beam splitter."""
    joint = apply_channel(tmsv(mu), ch, mode=1)
    return joint, apply_symplectic(tensor(joint, vacuum(1)), beam_splitter(0.5), (1, 2))


def _conditioned(ch: CanonicalChannel, mu: float, port_model: str, basis: str) -> tuple:
    """Channel output (A, B'), the state (A, B, D) and its modes (A, D) given Bob's outcome y."""
    _choice(port_model, PORT_MODELS, "port_model")
    _choice(basis, ("q", "p"), "basis")
    joint, state = _protocol_state(ch, mu)
    return joint, state, homodyne_condition(state, measured_mode=1, quadrature=basis)


def _holevo(joint: CovMat, state: CovMat, conditioned: CovMat, port_model: str) -> float:
    if port_model == "trusted":  # S(E) = S(A B'), S(E | y) = S(A D | y)
        return von_neumann_entropy(joint) - von_neumann_entropy(conditioned)
    # S(E D) = S(A B), S(E D | y) = S(A | y)
    before = von_neumann_entropy(partial_trace(state, (0, 1)))
    return before - von_neumann_entropy(partial_trace(conditioned, (0,)))


def protocol_holevo_information(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Holevo information chi(E : y) = S(E) - S(E | y) about Bob's outcome.

    Conditioning uses the outcome-independent homodyne update, so this is the
    exact Gaussian Holevo quantity, not a sampled estimate.
    """
    return _holevo(*_conditioned(ch, mu, port_model, basis), port_model)


def protocol_rate_numeric(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Reverse homodyne-protocol rate I(x_A : y) - chi(E : y) at finite ``mu``.

    The mutual information (1/2) log2(V_A / V_{A|y}) reads V_{A|y} from the
    homodyne update.  V_{A|y} = V_A - c^2 / V_y loses digits as mu grows, so
    this raises :class:`NumericError` (float precision limit) once that
    rounding could move the rate by more than 1e-6 bits.  Results in the q
    and p bases agree to float noise.
    """
    joint, state, conditioned = _conditioned(ch, mu, port_model, basis)
    row = 0 if basis == "q" else 1
    va, cond = float(state.entries[row, row]), float(conditioned.entries[row, row])
    rounding = math.ulp(1.0) * va / cond if 0.0 < cond < math.inf else math.inf
    if rounding > _MAX_MI_ROUNDING_BITS:
        raise NumericError(
            f"conditional variance V_A|y = {cond} at mu = {mu} is lost to cancellation "
            f"against V_A = {va}: rounding error above {_MAX_MI_ROUNDING_BITS} bits "
            "(float precision limit)"
        )
    return 0.5 * math.log2(va / cond) - _holevo(joint, state, conditioned, port_model)


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
    _choice(engine, ENGINES, "engine")
    _choice(port_model, PORT_MODELS, "port_model")
    try:
        mu_list = [_float(m) for m in mu_values]
    except TypeError:  # not iterable
        mu_list = []
    if not mu_list:
        raise DomainError(f"mu_values must not be empty, got {_shown(mu_values)}")
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
