"""Finite-squeezing engines against closed forms: convergence, monotonicity,
protocol bookkeeping."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import random_state
from five_mode import _eve_modes, _protocol_state, _rate

import gausskey.engines
import gausskey.symplectic
from gausskey import (
    ConvergenceRow,
    DomainError,
    NumericError,
    analytic_moments,
    apply_dilation,
    apply_symplectic,
    beam_splitter,
    ci_finite_mu,
    convergence_table,
    dilate,
    e_r_interior,
    homodyne_condition,
    make_canonical,
    partial_trace,
    protocol_holevo_information,
    protocol_rate_numeric,
    q1g_interior,
    r_rev,
    r_rev_interior,
    rci_finite_mu,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)

# mpmath, 50 digits: E_R and Q1G interiors at (tau, nbar) = (0.9, 0.1), and
# the homodyne-protocol interior at (0.5, 0.25).
E_R_09_01 = 2.8384814092736977139
Q1G_09_01 = 2.686478315828647729
R_REV_05_025 = 0.077937357430282119618


def test_vacuum_source_gives_zero_information():
    ch = make_canonical(0.5, nbar=0.0)
    assert rci_finite_mu(ch, 1.0) == 0.0
    assert ci_finite_mu(ch, 1.0) == 0.0
    for port_model in ("trusted", "untrusted"):
        assert protocol_rate_numeric(ch, 1.0, port_model) == 0.0
        assert protocol_holevo_information(ch, 1.0, port_model) == 0.0


def test_rci_converges_to_reverse_interior():
    ch = make_canonical(0.5, nbar=0.0)
    assert abs(rci_finite_mu(ch, 1e4) - 1.0) <= 1e-3
    ch = make_canonical(0.9, nbar=0.1)
    assert abs(rci_finite_mu(ch, 1e4) - E_R_09_01) <= 1e-3


def test_ci_converges_to_forward_interior():
    ch = make_canonical(0.9, nbar=0.1)
    assert abs(ci_finite_mu(ch, 1e4) - Q1G_09_01) <= 1e-3


def test_ci_stays_nonpositive_where_interior_is_nonpositive():
    # At tau = 1/2 the forward interior is -g(nbar) <= 0 for every nbar, so
    # the finite-mu value must not poke above zero beyond float noise.
    for nbar in (0.0, 0.3, 1.0):
        ch = make_canonical(0.5, nbar=nbar)
        assert ci_finite_mu(ch, 1e4) <= 1e-6


LADDER_MUS = (1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4)


@pytest.mark.parametrize("tau,nbar", [(0.5, 0.0), (0.9, 0.1), (1.2, 0.1)])
def test_rci_nondecreasing_in_mu(tau, nbar):
    ch = make_canonical(tau, nbar=nbar)
    values = [rci_finite_mu(ch, m) for m in LADDER_MUS]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


@pytest.mark.parametrize("tau,nbar", [(0.9, 0.0), (0.9, 0.1), (1.2, 0.1), (1.8, 0.0)])
def test_ci_nondecreasing_in_mu_on_positive_interior_channels(tau, nbar):
    # Forward coherent information starts at exactly zero (vacuum source) and
    # descends toward a negative interior, so the ladder is climbed only where
    # the interior is positive.
    ch = make_canonical(tau, nbar=nbar)
    assert q1g_interior(ch) > 0.0
    values = [ci_finite_mu(ch, m) for m in LADDER_MUS]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


@pytest.mark.parametrize("tau,nbar", [(0.35, 0.0), (0.5, 0.25), (0.9, 0.1), (1.8, 1.0)])
def test_rci_never_exceeds_interior(tau, nbar):
    ch = make_canonical(tau, nbar=nbar)
    target = e_r_interior(ch)
    gaps = [target - rci_finite_mu(ch, m) for m in LADDER_MUS]
    for gap in gaps:
        assert gap >= -1e-6
    for wide, tight in zip(gaps, gaps[1:]):
        assert tight <= wide + 1e-12


def test_rci_gap_scales_like_inverse_mu():
    ch = make_canonical(0.9, nbar=0.0)
    gap4 = e_r_interior(ch) - rci_finite_mu(ch, 1e4)
    gap5 = e_r_interior(ch) - rci_finite_mu(ch, 1e5)
    assert gap5 <= 3e-4
    assert gap5 <= 0.2 * gap4


def test_ci_slow_corner_still_inverse_mu():
    # (tau, nbar) = (0.2, 1.0) has the largest 1/mu constant on the test grid;
    # one decade of mu buys one decade of gap.
    ch = make_canonical(0.2, nbar=1.0)
    gap4 = abs(q1g_interior(ch) - ci_finite_mu(ch, 1e4))
    gap5 = abs(q1g_interior(ch) - ci_finite_mu(ch, 1e5))
    assert gap5 <= 3e-4
    assert gap5 <= 0.2 * gap4


def test_protocol_rate_matches_closed_form_pure_loss():
    ch = make_canonical(0.5, nbar=0.0)
    assert abs(protocol_rate_numeric(ch, 1e3) - 0.5) <= 1e-2


def test_protocol_rate_matches_closed_form_thermal():
    ch = make_canonical(0.5, nbar=0.25)
    assert abs(protocol_rate_numeric(ch, 1e3) - R_REV_05_025) <= 1e-2


@pytest.mark.parametrize("tau,nbar", [(0.5, 0.0), (0.5, 0.25), (0.8, 0.1), (1.5, 0.2)])
def test_protocol_rate_basis_independent(tau, nbar):
    ch = make_canonical(tau, nbar=nbar)
    rq = protocol_rate_numeric(ch, 50.0, basis="q")
    rp = protocol_rate_numeric(ch, 50.0, basis="p")
    assert abs(rq - rp) <= 1e-10


@pytest.mark.parametrize("port_model", ["trusted", "untrusted"])
def test_holevo_information_nonnegative(port_model):
    for tau, nbar in [(0.5, 0.0), (0.5, 0.25), (0.9, 0.1), (1.5, 0.0)]:
        ch = make_canonical(tau, nbar=nbar)
        chi = protocol_holevo_information(ch, 200.0, port_model=port_model)
        assert chi >= -1e-10


def test_untrusted_port_model_grants_eve_at_least_as_much():
    for tau, nbar in [(0.5, 0.0), (0.5, 0.25), (0.9, 0.1)]:
        ch = make_canonical(tau, nbar=nbar)
        chi_t = protocol_holevo_information(ch, 200.0, port_model="trusted")
        chi_u = protocol_holevo_information(ch, 200.0, port_model="untrusted")
        assert chi_u >= chi_t - 1e-12


def test_protocol_state_is_pure_and_balanced():
    # The five-mode dilation is globally pure, so any bipartition has matching
    # entropies; that equality is what makes S(E) computable either way.
    for tau, nbar in [(0.5, 0.25), (1.5, 0.1)]:
        ch = make_canonical(tau, nbar=nbar)
        state = _protocol_state(ch, 40.0)
        assert von_neumann_entropy(state) <= 1e-9
        for port_model in ("trusted", "untrusted"):
            eve = _eve_modes(port_model)
            rest = tuple(m for m in range(5) if m not in eve)
            s_eve = von_neumann_entropy(partial_trace(state, eve))
            s_rest = von_neumann_entropy(partial_trace(state, rest))
            assert abs(s_eve - s_rest) <= 1e-9


@pytest.mark.parametrize(
    "tau, nbar, mu_gap",
    [(-0.5, 0.0, 0.2725), (-2.0, 0.0, 0.521), (-0.05, 0.0, 0.0399), (0.0, 0.3, 0.0)],
)
def test_protocol_rate_converges_on_channels_without_two_mode_dilation(tau, nbar, mu_gap):
    # Classes D (tau < 0) and A1 (tau = 0) have no two-mode dilation, but the
    # engine needs only the channel's covariance action: mu * gap is steady
    # over the decades, and neither class gives a key.
    ch = make_canonical(tau, nbar=nbar)
    target = r_rev_interior(ch)
    assert r_rev(ch) == 0.0
    for mu in (1e2, 1e3, 1e4):
        value = protocol_rate_numeric(ch, mu)
        assert value <= 0.0
        assert mu * (target - value) == pytest.approx(mu_gap, rel=5e-3, abs=2e-8)


def test_protocol_rate_refuses_cancelled_conditional_variance():
    ch = make_canonical(0.5, nbar=0.1)
    # mu = 1e10 keeps ~7e-7 bits of rounding in V_A|y; mu = 1e12 would be
    # 3.4e-5 bits off the closed form and is refused
    assert protocol_rate_numeric(ch, 1e10) == pytest.approx(r_rev(ch), abs=1e-6)
    with pytest.raises(NumericError, match="float precision limit") as info:
        protocol_rate_numeric(ch, 1e12)
    assert info.value.field is None


@pytest.mark.parametrize(
    "engine, port_model, calls, warm_calls, largest",
    [
        (rci_finite_mu, None, 3, 2, (4, 4)),
        (ci_finite_mu, None, 3, 2, (4, 4)),
        (protocol_rate_numeric, "trusted", 3, 2, (4, 4)),
        (protocol_rate_numeric, "untrusted", 4, 3, (4, 4)),
    ],
    ids=[
        "rci_finite_mu-3",
        "ci_finite_mu-3",
        "protocol_rate_numeric-trusted-3",
        "protocol_rate_numeric-untrusted-4",
    ],
)
def test_engine_diagonalises_each_state_once(
    monkeypatch, engine, port_model, calls, warm_calls, largest
):
    # The first call builds the source state tmsv; the second reuses it.
    # No engine builds a three-mode state: the trusted port's (A, B') and
    # (A, D) | y and the untrusted port's (A, B'), (A, B) and A | y all take
    # the closed-form spectra.
    gausskey.symplectic._tmsv.cache_clear()
    gausskey.symplectic._vacuum.cache_clear()
    seen = []
    spectrum = gausskey.symplectic._symplectic_eigenvalues

    def counting(flat, m):
        seen.append(m.shape)
        return spectrum(flat, m)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(gausskey.symplectic, "_symplectic_eigenvalues", counting)
    if largest == (4, 4):  # every spectrum from a closed form
        for name in ("cholesky", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
    args = (make_canonical(0.5, nbar=0.1), 100.0) + ((port_model,) if port_model else ())
    engine(*args)
    assert len(seen) == calls
    assert max(seen) == largest
    seen.clear()
    engine(*args)
    assert len(seen) == warm_calls
    assert max(seen) == largest


def test_engine_argument_validation():
    ch = make_canonical(0.5, nbar=0.0)
    with pytest.raises(DomainError, match="mu must be >= 1"):
        rci_finite_mu(ch, 0.5)
    with pytest.raises(DomainError, match="port_model"):
        protocol_rate_numeric(ch, 10.0, port_model="adversarial")
    with pytest.raises(DomainError, match="basis"):
        protocol_rate_numeric(ch, 10.0, basis="x")
    with pytest.raises(DomainError, match="engine"):
        convergence_table(ch, [2.0], engine="closed_form")
    with pytest.raises(DomainError, match="must not be empty"):
        convergence_table(ch, [], engine="rci")
    for text in ("12", b"12"):  # iterated as the values 1 and 2 (or 49 and 50)
        with pytest.raises(DomainError, match="or a string"):
            convergence_table(ch, text, engine="rci")


def test_convergence_table_rows_match_direct_calls():
    ch = make_canonical(0.9, nbar=0.1)
    mus = [2.0, 10.0, 100.0]
    for engine, target_fn, value_fn in [
        ("rci", e_r_interior, rci_finite_mu),
        ("ci", q1g_interior, ci_finite_mu),
        ("protocol", r_rev_interior, protocol_rate_numeric),
    ]:
        rows = convergence_table(ch, mus, engine=engine)
        assert len(rows) == len(mus)
        for row, mu in zip(rows, mus):
            assert isinstance(row, ConvergenceRow)
            assert row.mu == mu
            assert row.target == target_fn(ch)
            assert row.value == value_fn(ch, mu)
            assert row.gap == row.target - row.value


def test_convergence_table_gaps_shrink():
    ch = make_canonical(0.5, nbar=0.25)
    rows = convergence_table(ch, [5.0, 50.0, 500.0], engine="protocol")
    gaps = [abs(r.gap) for r in rows]
    assert gaps[2] < gaps[1] < gaps[0]


@pytest.mark.parametrize("mu", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda mu: convergence_table(make_canonical(0.5, nbar=0.1), [mu], engine="rci"),
        lambda mu: convergence_table(make_canonical(0.5, nbar=0.1), [mu], engine="ci"),
        lambda mu: convergence_table(make_canonical(0.5, nbar=0.1), [mu], engine="protocol"),
        lambda mu: protocol_holevo_information(make_canonical(0.5, nbar=0.1), mu),
        lambda mu: tmsv(mu),
        lambda mu: analytic_moments(0.5, 0.1, mu),
    ],
    ids=["rci", "ci", "protocol", "holevo", "tmsv", "analytic_moments"],
)
def test_non_finite_source_variance_is_a_domain_error(call, mu):
    # NaN passes a bare `mu < 1` test and inf overflows the cross block to
    # inf * 0 = nan; both must be refused before any state is built.
    with pytest.raises(DomainError, match="finite, got") as info:
        call(mu)
    assert info.value.field is None


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9, 1.5, 2.0, 10.0])
def test_protocol_state_matches_the_dilation_construction(tau):
    # One five-mode product and two couplings give the same array, bit for
    # bit, as coupling the four-mode state and appending the vacuum port:
    # the vacuum's cross blocks are exact zeros in every congruence.
    ch = make_canonical(tau, nbar=0.1)
    for mu in (1.5, 10.0, 1e2, 1e3, 1e4):
        state, _ = apply_dilation(tmsv(mu), dilate(ch), mode=1)
        state = apply_symplectic(tensor(state, vacuum(1)), beam_splitter(0.5), (1, 4))
        assert np.array_equal(_protocol_state(ch, mu).entries, state.entries)


@pytest.mark.parametrize(
    "port_model, near, far", [("trusted", 1e-12, 5e-9), ("untrusted", 1e-10, 5e-8)]
)
def test_protocol_engine_matches_the_five_mode_route(port_model, near, far):
    # The engine reads the eavesdropper's entropies from the complementary
    # modes; the five-mode route holds her modes.  Worst cases on this grid:
    # 2.7e-13 (trusted) and 3.6e-11 bits (untrusted) at mu <= 10, 1.7e-9 and
    # 1.8e-8 at mu = 1e4, where the mpmath oracle sides with the engine.
    for tau in (0.01, 0.2, 0.5, 0.9, 0.99, 1.01, 1.5, 2.0, 5.0, 30.0):
        for nbar in (0.0, 0.1, 1.0, 10.0):
            ch = make_canonical(tau, nbar=nbar)
            for basis in ("q", "p"):
                for mu, bound in ((1.5, near), (10.0, near), (1e4, far)):
                    value = protocol_rate_numeric(ch, mu, port_model, basis)
                    assert abs(value - _rate(ch, mu, port_model, basis)) <= bound, (tau, nbar, mu)


@pytest.mark.parametrize("basis", ["q", "p"])
def test_trusted_port_update_matches_the_public_composition(basis):
    # The closed-form (A, D) | y against the route it replaces: a vacuum port,
    # Bob's balanced splitter on (B', D) and his homodyne on B.  D comes out
    # with the opposite sign, a pi phase that changes no spectrum.
    rng = np.random.default_rng(41)
    for _ in range(300):
        joint = random_state(rng, 2)[0]
        got = gausskey.engines._trusted_port(joint, basis)
        split = apply_symplectic(tensor(joint, vacuum(1)), beam_splitter(0.5), (1, 2))
        cond = homodyne_condition(split, 1, basis)
        assert got._nu == pytest.approx(cond._nu, rel=1e-13)
        want, atol = cond.entries, 1e-13 * np.abs(cond.entries).max()
        np.testing.assert_allclose(got.entries[:2, :2], want[:2, :2], rtol=0.0, atol=atol)
        np.testing.assert_allclose(got.entries[2:, 2:], want[2:, 2:], rtol=0.0, atol=atol)
        np.testing.assert_allclose(got.entries[:2, 2:], -want[:2, 2:], rtol=0.0, atol=atol)


def test_engines_avoid_the_slow_array_constructors(monkeypatch):
    # np.kron, np.block and np.ix_ cost several times the 4x4 eigensolve each
    # state's validation needs; the engine path builds its arrays directly.
    def refuse(*args, **kwargs):
        raise AssertionError("slow array constructor called")

    for name in ("kron", "block", "ix_"):
        monkeypatch.setattr(np, name, refuse)
    for ch in (make_canonical(0.5, nbar=0.1), make_canonical(2.0, nbar=0.1)):
        assert math.isfinite(rci_finite_mu(ch, 100.0))
        assert math.isfinite(ci_finite_mu(ch, 100.0))
        assert math.isfinite(protocol_rate_numeric(ch, 100.0))
        before, after = gausskey.engines._conditioned(ch, 100.0, "trusted", "q")
        assert (before.n_modes, after.n_modes) == (2, 2)
        assert _protocol_state(ch, 100.0).n_modes == 5


def test_engines_validate_every_state_without_eigh(monkeypatch):
    # Cholesky is the positive-definiteness test; eigh is reserved for the
    # numerically singular arrays Cholesky refuses, which no state at these
    # mu values is.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for ch in (make_canonical(0.5, nbar=0.1), make_canonical(2.0, nbar=0.1)):
        for mu in (10.0, 1e2, 1e3, 1e4):
            assert math.isfinite(rci_finite_mu(ch, mu))
            assert math.isfinite(ci_finite_mu(ch, mu))
            assert math.isfinite(protocol_rate_numeric(ch, mu))


def _direct_rate(ch, mu):
    """Direct-reconciliation rate I(x_A : y) - chi(E : x_A) on the trusted protocol state.

    Alice's q outcome is the key; the eavesdropper holds the environment
    modes (2, 3), and S(E | x_A) comes from homodyning mode 0.
    """
    state = _protocol_state(ch, mu)
    va, vb, c = state.entries[0, 0], state.entries[2, 2], state.entries[0, 2]
    mi = 0.5 * math.log2(vb / (vb - c * c / va))
    s_e = von_neumann_entropy(partial_trace(state, (2, 3)))
    given_a = homodyne_condition(state, 0, "q")
    return mi - (s_e - von_neumann_entropy(partial_trace(given_a, (1, 2))))


def test_direct_rate_vanishes_where_reverse_rate_survives():
    # The paper's headline contrast: no direct key on antidegradable channels
    # (tau <= 1/2), while the reverse protocol still gives one at low noise.
    reverse_only = 0
    for k in range(1, 51):
        for nbar in (0.0, 0.01, 0.1, 1.0):
            ch = make_canonical(k / 100, nbar=nbar)
            for mu in (10.0, 1e2, 1e3, 1e4):
                direct = _direct_rate(ch, mu)
                assert direct <= 0.0, (ch, mu, direct)
                reverse_only += protocol_rate_numeric(ch, mu) > 0.0
    assert reverse_only > 0


@pytest.mark.parametrize("tau, low", [(0.7, 0.16), (0.9, 1.43)])
def test_direct_rate_is_positive_above_half_transmission(tau, low):
    assert _direct_rate(make_canonical(tau, nbar=0.0), 1e4) > low


# sha256 of the float.hex of every engine value on bench/refs/engines.json
# (rci, ci and the protocol engine under both port models) at the refs' mus,
# one value per line.  A change that moves an engine value by a single bit
# changes it; a deliberate accuracy change updates it and says so.
_ENGINE_VALUE_BITS = "c5eba6d4709ea1a5f9d6bd210a07387650098f02f772d311b690231a35a5f96a"


def test_engine_values_keep_their_bits():
    refs = json.loads((Path(__file__).parents[1] / "bench" / "refs" / "engines.json").read_text())
    digest = hashlib.sha256()
    for e in refs["entries"]:
        rows = convergence_table(make_canonical(e["tau"], nbar=e["nbar"]), refs["mus"],
                                 e["engine"], e["port"])
        for row in rows:
            digest.update(row.value.hex().encode() + b"\n")
    assert digest.hexdigest() == _ENGINE_VALUE_BITS
