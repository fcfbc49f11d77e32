"""Canonical channel forms, their covariance action, and class-C dilations."""

import math

import numpy as np
import pytest
from conftest import random_state

import gausskey as gk
from gausskey.errors import DomainError, UnsupportedChannelError


def test_make_canonical_classes():
    assert gk.make_canonical(0.5, nbar=0.0).class_label == "C_att"
    assert gk.make_canonical(1.7, nbar=0.0).class_label == "C_amp"
    assert gk.make_canonical(0.0, nbar=0.3).class_label == "A1"
    assert gk.make_canonical(-0.5, nbar=0.1).class_label == "D"


def test_make_canonical_noise_representations():
    ch = gk.make_canonical(0.5, nbar=0.0)
    assert ch.eps == 0.0 and ch.w == 1.0
    ch = gk.make_canonical(0.5, eps=0.3)
    assert ch.nbar == pytest.approx(0.3, abs=1e-15)
    ch = gk.make_canonical(-0.5, nbar=0.1)
    assert ch.eps == pytest.approx(0.3, abs=1e-15)  # 2 * 0.1 * 1.5
    assert ch.w == pytest.approx(1.2)


def test_eps_nbar_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tau = float(rng.uniform(-2.0, 3.0))
        if abs(tau - 1.0) < 1e-3:
            continue
        nbar = float(rng.uniform(0.0, 2.0))
        eps = gk.make_canonical(tau, nbar=nbar).eps
        assert gk.make_canonical(tau, eps=eps).nbar == pytest.approx(nbar, abs=1e-12)


def test_make_canonical_rejections():
    with pytest.raises(UnsupportedChannelError, match=r"classes B1/B2 \(tau=1\) unsupported"):
        gk.make_canonical(1.0, nbar=0.0)
    with pytest.raises(DomainError):
        gk.make_canonical(0.5, nbar=-0.1)
    with pytest.raises(DomainError):
        gk.make_canonical(0.5, eps=-0.1)
    with pytest.raises(DomainError):
        gk.make_canonical(0.5, nbar=0.1, eps=0.1)
    with pytest.raises(DomainError):
        gk.make_canonical(0.5)


def test_apply_channel_vacuum_fixed_point():
    ch = gk.make_canonical(0.5, nbar=0.0)
    out = gk.apply_channel(gk.vacuum(1), ch)
    np.testing.assert_allclose(out.entries, np.eye(2), atol=1e-15)


def test_apply_channel_on_tmsv_blocks():
    mu = 5.0
    ch = gk.make_canonical(0.5, nbar=0.0)
    out = gk.apply_channel(gk.tmsv(mu), ch, mode=1)
    np.testing.assert_allclose(out.mode_block(0, 0), mu * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(out.mode_block(1, 1), 0.5 * (mu + 1.0) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        out.mode_block(0, 1),
        math.sqrt((mu * mu - 1.0) / 2.0) * np.diag([1.0, -1.0]),
        atol=1e-12,
    )


def test_apply_channel_complete_replacement():
    ch = gk.make_canonical(0.0, nbar=0.4)
    out = gk.apply_channel(gk.tmsv(9.0), ch, mode=1)
    np.testing.assert_allclose(out.mode_block(1, 1), 1.8 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(out.mode_block(0, 1), np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(out.mode_block(0, 0), 9.0 * np.eye(2), atol=1e-14)


def test_phase_conjugation_flips_p_correlation():
    mu = 4.0
    att = gk.apply_channel(gk.tmsv(mu), gk.make_canonical(0.5, nbar=0.0), mode=1)
    conj = gk.apply_channel(gk.tmsv(mu), gk.make_canonical(-0.5, nbar=0.0), mode=1)
    c_att = att.mode_block(0, 1)
    c_conj = conj.mode_block(0, 1)
    assert c_att[0, 0] > 0 and c_att[1, 1] < 0
    assert c_conj[0, 0] > 0 and c_conj[1, 1] > 0
    np.testing.assert_allclose(np.abs(c_conj), np.abs(c_att), atol=1e-12)


def test_apply_channel_preserves_validity_on_random_grid():
    rng = np.random.default_rng(19)
    count = 0
    while count < 200:
        tau = float(rng.uniform(-2.0, 3.0))
        if abs(tau - 1.0) < 1e-3:
            continue
        nbar = float(rng.uniform(0.0, 2.0))
        state, _ = random_state(rng, 2)
        out = gk.apply_channel(state, gk.make_canonical(tau, nbar=nbar), mode=int(rng.integers(0, 2)))
        assert min(gk.symplectic_spectrum(out).values) >= 1.0 - 1e-9
        count += 1


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_balanced_splitter_with_its_output_port_traced_out_is_pure_loss(n_modes):
    # A vacuum port mixed in by a beam splitter of transmissivity 1/2 and then
    # discarded leaves the pure-loss channel of tau = 1/2 on the mixed mode;
    # the untrusted-port protocol engine builds only that channel's output.
    rng = np.random.default_rng(25 + n_modes)
    half_loss = gk.make_canonical(0.5, nbar=0.0)
    for _ in range(20):
        state, _ = random_state(rng, n_modes)
        rest = tuple(range(n_modes))
        for k in rest:
            split = gk.apply_symplectic(
                gk.tensor(state, gk.vacuum(1)), gk.beam_splitter(0.5), (k, n_modes)
            )
            direct = gk.apply_channel(state, half_loss, mode=k)
            ulp = np.spacing(np.abs(direct.entries).max())
            assert np.abs(gk.partial_trace(split, rest).entries - direct.entries).max() <= 4 * ulp
            if n_modes == 1:
                continue
            # tracing the port out before or after homodyning mode k
            for quadrature in ("q", "p"):
                after = gk.partial_trace(
                    gk.homodyne_condition(split, k, quadrature), tuple(range(n_modes - 1))
                )
                before = gk.homodyne_condition(direct, k, quadrature)
                ulp = np.spacing(np.abs(before.entries).max())
                assert np.abs(after.entries - before.entries).max() <= 4 * ulp


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_apply_channel_is_the_exact_congruence(n_modes):
    # X V X^T + Y with the full X and Y built here; == treats -0.0 as 0.0,
    # the only difference the diagonal update may make (at tau = 0).
    rng = np.random.default_rng(27 + n_modes)
    size = 2 * n_modes
    for _ in range(5):
        state, _ = random_state(rng, n_modes)
        for k in range(n_modes):
            for tau in (-2.0, -0.5, 0.0, 0.3, 0.9, 1.5, 30.0):
                for nbar in (0.0, 0.1, 10.0):
                    ch = gk.make_canonical(tau, nbar=nbar)
                    block = slice(2 * k, 2 * k + 2)
                    x_full, y_full = np.eye(size), np.zeros((size, size))
                    x_full[block, block] = math.sqrt(abs(tau)) * (
                        np.diag([1.0, -1.0]) if tau < 0.0 else np.eye(2)
                    )
                    y_full[block, block] = abs(1.0 - tau) * ch.w * np.eye(2)
                    expected = x_full @ state.entries @ x_full.T + y_full
                    out = gk.apply_channel(state, ch, mode=k)
                    assert (out.entries == expected).all(), (tau, nbar, k)


def test_apply_dilation_refuses_an_environment_mode():
    # mode 2 of the three-mode joint state is an environment mode, not an input one
    with pytest.raises(DomainError) as info:
        gk.apply_dilation(gk.vacuum(1), gk.dilate(gk.make_canonical(0.5, nbar=0.1)), mode=2)
    assert info.value.field == "mode"


def test_dilate_couplings():
    att = gk.dilate(gk.make_canonical(0.6, nbar=0.2))
    np.testing.assert_allclose(att.coupling, gk.beam_splitter(0.6), atol=1e-15)
    np.testing.assert_allclose(att.environment.entries, gk.tmsv(1.4).entries, atol=1e-15)
    amp = gk.dilate(gk.make_canonical(1.7, nbar=0.0))
    np.testing.assert_allclose(amp.coupling, gk.two_mode_squeezer(1.7), atol=1e-15)


def test_dilate_unsupported_classes():
    for tau in (0.0, -0.5):
        with pytest.raises(UnsupportedChannelError, match="dilation unsupported"):
            gk.dilate(gk.make_canonical(tau, nbar=0.1))


@pytest.mark.parametrize("tau,nbar", [(0.6, 0.2), (0.3, 0.0), (1.7, 0.3), (1.2, 0.0)])
def test_dilation_reduction_matches_channel(tau, nbar):
    ch = gk.make_canonical(tau, nbar=nbar)
    state = gk.tmsv(5.0)
    global_state, env_modes = gk.apply_dilation(state, gk.dilate(ch), mode=1)
    kept = tuple(i for i in range(global_state.n_modes) if i not in env_modes)
    reduced = gk.partial_trace(global_state, kept)
    direct = gk.apply_channel(state, ch, mode=1)
    np.testing.assert_allclose(reduced.entries, direct.entries, atol=1e-10)


@pytest.mark.parametrize("tau,nbar", [(0.6, 0.2), (1.7, 0.3)])
def test_dilation_global_purity(tau, nbar):
    global_state, _ = gk.apply_dilation(gk.tmsv(6.0), gk.dilate(gk.make_canonical(tau, nbar=nbar)), mode=1)
    assert global_state.n_modes == 4
    spec = gk.symplectic_spectrum(global_state).values
    np.testing.assert_allclose(spec, np.ones(4), atol=1e-9)


@pytest.mark.parametrize("tau,nbar", [(0.6, 0.2), (0.35, 0.8), (1.7, 0.3), (1.1, 1.5)])
def test_eve_entropy_equals_output_entropy(tau, nbar):
    ch = gk.make_canonical(tau, nbar=nbar)
    global_state, env_modes = gk.apply_dilation(gk.tmsv(6.0), gk.dilate(ch), mode=1)
    kept = tuple(i for i in range(global_state.n_modes) if i not in env_modes)
    s_eve = gk.von_neumann_entropy(gk.partial_trace(global_state, env_modes))
    s_out = gk.von_neumann_entropy(gk.partial_trace(global_state, kept))
    assert s_eve == pytest.approx(s_out, abs=1e-9)
    assert s_out == pytest.approx(
        gk.von_neumann_entropy(gk.apply_channel(gk.tmsv(6.0), ch, mode=1)), abs=1e-9
    )


def test_channel_immutability():
    ch = gk.make_canonical(0.5, nbar=0.0)
    with pytest.raises(AttributeError):
        ch.tau = 0.7
