"""Independent oracles: mpmath engine values, the PLOB bounds and the
entanglement-breaking boundary.

None of them shares code with ``rates.py`` or the engines.  The PLOB bounds
(Pirandola, Laurenza, Ottaviani & Banchi, Nat. Commun. 8, 15043 (2017)) cap
every secret-key rate of the thermal-loss and thermal-amplifier channels.
Where a channel is entanglement breaking (Holevo, Probl. Inf. Transm. 44, 171
(2008)) no key survives: thermal loss for eps >= 2 tau, that is
nbar >= tau / (1 - tau); the thermal amplifier for eps >= 2, that is
nbar >= 1 / (tau - 1); and phase conjugation (tau < 0) and complete
replacement (tau = 0) at every noise.
"""

import math

import pytest

import gausskey as gk

RATES = (gk.e_r, gk.q1g, gk.r_rev)
TAUS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.01, 1.5, 2.0, 5.0, 30.0)
NBARS = (0.0, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0)


def _g(n):
    return (n + 1) * math.log2(n + 1) - n * math.log2(n) if n > 0 else 0.0


def _plob(tau, nbar):
    """PLOB bound in bits per use, or None where the channel is entanglement breaking."""
    if tau < 1:
        if nbar >= tau / (1 - tau):
            return None
        return -math.log2((1 - tau) * tau**nbar) - _g(nbar)
    if nbar >= 1 / (tau - 1):
        return None
    return math.log2(tau ** (nbar + 1) / (tau - 1)) - _g(nbar)


@pytest.mark.parametrize("tau", TAUS)
def test_no_rate_exceeds_the_plob_bound(tau):
    for nbar in NBARS:
        ch = gk.make_canonical(tau, nbar=nbar)
        bound = _plob(tau, nbar)
        for rate in RATES:
            if bound is None:
                assert rate(ch) == 0.0, (rate.__name__, tau, nbar)
            else:
                assert rate(ch) <= bound + 1e-12, (rate.__name__, tau, nbar)


@pytest.mark.parametrize("tau", TAUS)
def test_pure_loss_and_pure_amplifier_meet_the_plob_bound(tau):
    # At nbar = 0, E_R reaches the loss bound -log2(1 - tau) and Q1G the
    # amplifier bound log2(tau / (tau - 1)).
    ch = gk.make_canonical(tau, nbar=0.0)
    rate = gk.e_r(ch) if tau < 1 else gk.q1g(ch)
    assert rate == pytest.approx(_plob(tau, 0.0), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("tau", (-3.0, -1.0, -0.5, -0.01, 0.0))
def test_entanglement_breaking_classes_give_no_rate(tau):
    for nbar in NBARS:
        ch = gk.make_canonical(tau, nbar=nbar)
        for rate in RATES:
            assert rate(ch) == 0.0, (rate.__name__, tau, nbar)
        for rate_id in gk.RATE_IDS:
            assert gk.threshold_eps(rate_id, tau) == 0.0


@pytest.mark.parametrize("tau", TAUS)
def test_thresholds_lie_below_the_entanglement_breaking_boundary(tau):
    boundary = 2 * tau if tau < 1 else 2.0
    for rate_id in gk.RATE_IDS:
        assert gk.threshold_eps(rate_id, tau) < boundary


ORACLE_TAUS = (-2.0, -0.5, 0.0, 0.1, 0.5, 0.9, 1.5, 5.0, 30.0)


@pytest.mark.parametrize("port_model", gk.PORT_MODELS)
@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_protocol_rate_matches_the_mpmath_oracle(tau, port_model):
    # Worst case over this grid: 2.9e-10 bits (tau 0.9, nbar 0, mu 1e4, trusted).
    pytest.importorskip("mpmath")
    from mp_oracle import protocol_rate

    for nbar in (0.0, 0.1, 10.0):
        ch = gk.make_canonical(tau, nbar=nbar)
        for mu in (10.0, 1e2, 1e4):
            exact = protocol_rate(tau, nbar, mu, port_model)
            value = gk.protocol_rate_numeric(ch, mu, port_model=port_model)
            assert abs(value - float(exact)) <= 1e-9, (nbar, mu)


@pytest.mark.parametrize("port_model", gk.PORT_MODELS)
def test_protocol_rate_matches_the_mpmath_oracle_at_high_gain(port_model):
    # A strong amplifier at large mu: the engine is 5.0e-10 (trusted) and
    # 2.4e-11 bits (untrusted) off.  The five-mode route in five_mode.py is
    # 5.9e-9 and 3.95e-5 bits off here.
    pytest.importorskip("mpmath")
    from mp_oracle import protocol_rate

    exact = protocol_rate(30.0, 10.0, 1e6, port_model)
    value = gk.protocol_rate_numeric(gk.make_canonical(30.0, nbar=10.0), 1e6, port_model)
    assert abs(value - float(exact)) <= 1e-9


@pytest.mark.parametrize("port_model", gk.PORT_MODELS)
@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_protocol_rate_matches_the_mpmath_oracle_near_vacuum(tau, port_model):
    # The engine takes every mu that tmsv takes; mu = 1 sends vacuum.  Worst
    # case over this grid: 8.6e-13 bits (tau 30, nbar 10, mu 1 + 1e-9, trusted).
    pytest.importorskip("mpmath")
    from mp_oracle import protocol_rate

    for nbar in (0.0, 0.1, 10.0):
        ch = gk.make_canonical(tau, nbar=nbar)
        for mu in (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.5):
            exact = protocol_rate(tau, nbar, mu, port_model)
            value = gk.protocol_rate_numeric(ch, mu, port_model=port_model)
            assert abs(value - float(exact)) <= 1e-11, (nbar, mu)


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_coherent_information_matches_the_mpmath_oracle(tau):
    # Worst case over this grid: 3.3e-10 bits at nbar <= 10 (tau 0.9, nbar 0,
    # mu 1e4), 5.7e-14 bits beyond.  Taking nu_- as (|a| - |b|) / 2 put the
    # engines 9e-4 bits off at nbar 1e13 and 14 bits off from nbar 1e20.
    pytest.importorskip("mpmath")
    from mp_oracle import ci, rci

    for nbar in (0.0, 0.1, 10.0, 1e6, 1e13, 1e20, 1e100):
        ch = gk.make_canonical(tau, nbar=nbar)
        for mu in (1.0, 10.0, 1e2, 1e4):
            assert abs(gk.rci_finite_mu(ch, mu) - float(rci(tau, nbar, mu))) <= 1e-9, (nbar, mu)
            assert abs(gk.ci_finite_mu(ch, mu) - float(ci(tau, nbar, mu))) <= 1e-9, (nbar, mu)


@pytest.mark.parametrize("tau", (-0.5, 0.5, 1.5))
def test_trusted_port_matches_the_mpmath_oracle_at_large_noise(tau):
    # Holding Bob's ports as (beta +- 1) / 2 lost the vacuum port's unit
    # variance once beta's ulp neared it: the trusted rate was 0.0028, 0.5,
    # 33.7 and 166 bits off at nbar 1e14, 1e16, 1e20 and 1e100, and nbar
    # 1e160 was refused.  Worst case over this grid: 1.1e-13 bits (nbar 1e160).
    pytest.importorskip("mpmath")
    from mp_oracle import protocol_rate

    for nbar in (1e12, 1e14, 1e16, 1e17, 1e20, 1e100, 1e160):
        ch = gk.make_canonical(tau, nbar=nbar)
        for basis in ("q", "p"):
            exact = protocol_rate(tau, nbar, 10.0, "trusted", basis)
            value = gk.protocol_rate_numeric(ch, 10.0, "trusted", basis)
            assert abs(value - float(exact)) <= 1e-12, (nbar, basis)


def test_protocol_oracle_scales_its_precision_with_the_entries():
    # At a fixed 50 digits the oracle read +3.762 bits here, where 900 digits
    # give -166.096; a caller's higher precision is kept.
    mpmath = pytest.importorskip("mpmath")
    from mp_oracle import protocol_rate

    value = protocol_rate(0.5, 1e100, 10.0)
    with mpmath.mp.workdps(900):
        exact = protocol_rate(0.5, 1e100, 10.0)
        assert abs(value - exact) < mpmath.mpf("1e-40")
    assert float(exact) == pytest.approx(-166.0964047443681, abs=1e-12)
