"""Property tests of the protocol engine over every channel class (hypothesis)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import gausskey as gk  # noqa: E402

# tau in [-3, 3] away from the unsupported tau = 1; log-uniform mu in [1, 1e4]
TAUS = st.floats(-3.0, 3.0).filter(lambda t: abs(t - 1.0) >= 1e-3)
NBARS = st.floats(0.0, 10.0)
MUS = st.floats(0.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(tau=TAUS, nbar=NBARS, mu=MUS)
def test_protocol_engine_properties(tau, nbar, mu):
    ch = gk.make_canonical(tau, nbar=nbar)
    rate = {}
    for port_model in gk.PORT_MODELS:
        chi = gk.protocol_holevo_information(ch, mu, port_model=port_model)
        assert chi >= -1e-9
        rq = gk.protocol_rate_numeric(ch, mu, port_model=port_model, basis="q")
        rp = gk.protocol_rate_numeric(ch, mu, port_model=port_model, basis="p")
        assert math.isfinite(rq) and abs(rq - rp) <= 1e-10
        rate[port_model] = rq
    # A finite source never beats the mu -> infinity limit, and granting the
    # eavesdropper the discarded port never helps the key.
    assert rate["trusted"] <= gk.r_rev_interior(ch) + 1e-9
    assert rate["untrusted"] <= rate["trusted"] + 1e-12
