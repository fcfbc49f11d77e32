"""The protocol state built from the explicit environment dilation: a second route.

The protocol engine reads the eavesdropper's entropies from the modes
complementary to hers.  This module keeps the construction that holds her
modes explicitly, so tests can check that identity and compare the two
routes.  The five-mode pure state is

    mode 0  Alice's retained source arm
    mode 1  Bob's kept port of the balanced beam splitter
    mode 2  environment output (the arm that interacted with the signal)
    mode 3  environment purifier
    mode 4  Bob's discarded beam-splitter port

It exists only for the attenuating and amplifying classes, the two with a
two-mode dilation.
"""

import math

from gausskey import (
    CanonicalChannel,
    CovMat,
    apply_symplectic,
    beam_splitter,
    dilate,
    homodyne_condition,
    partial_trace,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)


def _protocol_state(ch: CanonicalChannel, mu: float) -> CovMat:
    """Five-mode pure state (Alice, kept port, env out, env purifier, discarded).

    The vacuum port joins the product before either coupling, so only three
    five-mode states are validated; its cross blocks stay exact zeros, so
    the array is the same as when it joins after the dilation.
    """
    dilation = dilate(ch)
    state = tensor(tmsv(mu), dilation.environment, vacuum(1))
    state = apply_symplectic(state, dilation.coupling, (1, 2))
    return apply_symplectic(state, beam_splitter(0.5), (1, 4))


def _eve_modes(port_model: str) -> tuple[int, ...]:
    return (2, 3) if port_model == "trusted" else (2, 3, 4)


def _rate(ch: CanonicalChannel, mu: float, port_model: str = "trusted", basis: str = "q") -> float:
    """Protocol rate I(x_A : y) - chi(E : y) with the eavesdropper's modes held explicitly."""
    state = _protocol_state(ch, mu)
    row = 0 if basis == "q" else 1
    va = float(state.entries[row, row])
    vb = float(state.entries[2 + row, 2 + row])
    c = float(state.entries[row, 2 + row])
    mi = 0.5 * math.log2(va / (va - c * c / vb))
    eve = _eve_modes(port_model)
    before = von_neumann_entropy(partial_trace(state, eve))
    conditioned = homodyne_condition(state, measured_mode=1, quadrature=basis)
    after = von_neumann_entropy(partial_trace(conditioned, tuple(m - 1 for m in eve)))
    return mi - (before - after)
