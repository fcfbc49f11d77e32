"""Finite-squeezing engines: first-principles cross-checks of the closed forms.

Two entropy engines send one arm of a two-mode squeezed vacuum of variance
``mu`` through a channel and evaluate coherent information from symplectic
spectra; both converge to the matching closed-form interior as mu grows (the
gap scales like 1/mu).  Every engine takes any ``mu`` that ``tmsv`` takes.

A third engine rebuilds the reverse homodyne-protocol rate: the Gaussian
mutual information of matched homodyne outcomes on Alice's retained source
arm A and Bob's kept port B, minus the eavesdropper's Holevo information chi
about Bob's outcome y.  Bob's balanced beam splitter mixes the channel output
B' with a vacuum port into B and a discarded port D.  Her environment E
purifies (A, B, D), and (A, D, E) stays pure given y, so each of her
entropies is that of the complementary modes: no dilation is built, and
every channel class is covered.  The ``"trusted"`` port model keeps D from
her (S(E) = S(A B'), S(E | y) = S(A D | y)) and converges to the closed-form
``r_rev``; (A, D)|y comes from (A, B') in one closed-form update, with no
three-mode (A, B, D) built.  ``"untrusted"`` grants D to her (S(E D) =
S(A B), S(E D | y) = S(A | y)); D traced out of the beam splitter leaves the
pure-loss channel of transmissivity 1/2, so (A, B) is two modes.  A warm call
validates 2 states (trusted) or 3 (untrusted), none of more than two modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import CanonicalChannel, apply_channel
from .errors import DomainError, NumericError, _choice, _float, _shown
from .rates import e_r_interior, q1g_interior, r_rev_interior
from .symplectic import CovMat, _result, homodyne_condition, partial_trace, tmsv
from .symplectic import von_neumann_entropy

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
_HALF_LOSS = CanonicalChannel(0.5, 0.0)  # Bob's beam splitter with D traced out


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


def _conditioned(ch: CanonicalChannel, mu: float, port_model: str, basis: str) -> tuple:
    """Eve's complement before and after y: (A, B'), (A, D)|y trusted; (A, B), A|y untrusted."""
    _choice(port_model, PORT_MODELS, "port_model")
    _choice(basis, ("q", "p"), "basis")
    joint = apply_channel(tmsv(mu), ch, mode=1)
    if port_model == "trusted":
        return joint, _trusted_port(joint, basis)
    state = apply_channel(joint, _HALF_LOSS, mode=1)
    return state, homodyne_condition(state, measured_mode=1, quadrature=basis)


def _trusted_port(joint: CovMat, basis: str) -> CovMat:
    """(A, D)|y: Bob mixes B' with a vacuum port D on his balanced splitter and homodynes B.

    That measures x_k + z_k (x = B', z the vacuum, k the quadrature, o the other).
    With u column k of V = (A, B') and w = u / (u_k + 1), (A, B') given y is
    Sigma = V - u w^T with row and column k exactly w (Gaussian conditioning;
    Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  D, up to a pi phase,
    is sqrt(2) x_k and (x_o - z_o) / sqrt(2): (A, D)|y = M Sigma M^T + e_o e_o^T / 2.
    D_k's variance 2 u_k / (u_k + 1) keeps the vacuum's 1 at every scale.
    """
    v = joint.entries.tolist()
    k = 2 if basis == "q" else 3
    o, u, r = 5 - k, v[k], math.sqrt(2.0)
    w = [x / (u[k] + 1.0) for x in u]
    pairs = ((0, 0), (0, 1), (1, 1), (0, o), (1, o), (o, o))
    a00, a01, a11, a0o, a1o, aoo = [v[i][j] - u[i] * w[j] for i, j in pairs]
    dk = (r * w[0], r * w[1], 2.0 * w[k])  # D_k's entries with A_q and A_p, its variance
    do = (a0o / r, a1o / r, 0.5 * (aoo + 1.0))
    q, p = (dk, do) if k == 2 else (do, dk)
    out = [[a00, a01, q[0], p[0]], [a01, a11, q[1], p[1]], [q[0], q[1], q[2], w[o]]]
    return _result(out + [[p[0], p[1], w[o], p[2]]], "homodyne update")


def protocol_holevo_information(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Holevo information chi(E : y) = S(E) - S(E | y) about Bob's outcome.

    Both port models read it from the modes complementary to Eve and their
    outcome-independent homodyne update, so this is the exact Gaussian
    Holevo quantity, not a sampled estimate.
    """
    before, after = _conditioned(ch, mu, port_model, basis)
    return von_neumann_entropy(before) - von_neumann_entropy(after)


def protocol_rate_numeric(
    ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q"
) -> float:
    """Reverse homodyne-protocol rate I(x_A : y) - chi(E : y) at finite ``mu``.

    The mutual information (1/2) log2(V_A / V_{A|y}) reads V_A and V_{A|y}
    from mode 0 of the two states chi is read from.  V_{A|y} = V_A - c^2 / V_y
    loses digits as mu grows, so this raises :class:`NumericError` (float
    precision limit) once that rounding could move the rate by more than
    1e-6 bits.  Results in the q and p bases agree to float noise.
    """
    before, after = _conditioned(ch, mu, port_model, basis)
    row = 0 if basis == "q" else 1
    va, cond = float(before.entries[row, row]), float(after.entries[row, row])
    # cond is 0.0 where CovMat's eigh band let a zero variance through (trusted
    # port at tau 0.5, nbar 0.1, mu 1e17): va / cond would divide by zero.
    rounding = math.ulp(1.0) * va / cond if 0.0 < cond < math.inf else math.inf
    if rounding > _MAX_MI_ROUNDING_BITS:
        raise NumericError(
            f"conditional variance V_A|y = {cond} at mu = {mu} is lost to cancellation "
            f"against V_A = {va}: rounding error above {_MAX_MI_ROUNDING_BITS} bits "
            "(float precision limit)"
        )
    chi = von_neumann_entropy(before) - von_neumann_entropy(after)
    return 0.5 * math.log2(va / cond) - chi


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
        mu_list = [] if isinstance(mu_values, (str, bytes)) else [_float(m) for m in mu_values]
    except TypeError:  # not iterable
        mu_list = []
    if not mu_list:
        raise DomainError(f"mu_values must not be empty or a string, got {_shown(mu_values)}")
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
