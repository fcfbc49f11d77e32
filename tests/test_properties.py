"""Property tests (hypothesis): the protocol engine over every channel class,
and the simulator's exact moment sums over any float list."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

import gausskey as gk  # noqa: E402
from gausskey import sim  # noqa: E402

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


FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=80)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(values=FLOATS, cuts=st.lists(st.integers(0, 80), max_size=5))
def test_exact_accumulator_sums_any_split_to_fsum(values, cuts):
    scale = 1 << sim._SCALE_BITS
    parts = np.split(np.array(values, dtype=float), sorted(min(c, len(values)) for c in cuts))
    total = sum(sim._scaled_sum(part) for part in parts)
    assert total == sum(map(Fraction, values)) * scale
    try:
        want = math.fsum(values)
    except OverflowError:  # an intermediate sum left float range
        return
    assert total / scale == want
