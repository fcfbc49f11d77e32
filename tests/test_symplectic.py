"""Core linear algebra: builders, spectra, entropy, conditioning."""

import math
import sys

import numpy as np
import pytest
from conftest import (
    random_state,
    random_symplectic,
    spectrum_two_mode_closed_form,
    spectrum_via_iomega,
)

import gausskey as gk
from gausskey.errors import (
    DegenerateMeasurementError,
    DomainError,
    InvalidStateError,
)

# independent high-precision evaluations (mpmath, 50 digits)
G_QUARTER = 0.90241011860920293484


def test_entropy_g_anchors():
    assert gk.entropy_g(0.0) == 0.0
    assert gk.entropy_g(1.0) == 2.0
    assert gk.entropy_g(0.25) == pytest.approx(G_QUARTER, abs=1e-15)


def test_entropy_g_domain_and_monotonicity():
    for x in (-1e-12, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            gk.entropy_g(x)
    xs = np.linspace(0.0, 8.0, 400)
    vals = [gk.entropy_g(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entropy_g_matches_mpmath_over_the_float_range():
    mpmath = pytest.importorskip("mpmath")
    xs = [5e-324, 1e-320, sys.float_info.min, 0.5, 1.0, 2.0, sys.float_info.max]
    xs += [m * 10.0**k for k in range(-323, 308) for m in (1.0, 3.7)]
    xs += [float(x) for x in np.linspace(0.01, 4.0, 200)]
    with mpmath.workdps(50):
        for x in xs:
            x_mp = mpmath.mpf(x)
            want = (mpmath.log1p(x_mp) + x_mp * mpmath.log1p(1 / x_mp)) / mpmath.log(2)
            # Two ulps of relative error, or two subnormal steps where g(x)
            # is itself subnormal.
            assert abs(gk.entropy_g(x) - want) <= 4.5e-16 * want + 1e-323, x


def test_symplectic_form():
    omega = gk.symplectic_form(3)
    assert omega.shape == (6, 6)
    np.testing.assert_allclose(omega @ omega, -np.eye(6))
    np.testing.assert_array_equal(omega[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DomainError):
        gk.symplectic_form(0)


def test_vacuum_thermal_builders():
    np.testing.assert_array_equal(gk.vacuum(2).entries, np.eye(4))
    np.testing.assert_array_equal(gk.thermal(1.5).entries, 1.5 * np.eye(2))
    assert gk.symplectic_spectrum(gk.thermal(1.5)).values == (1.5,)
    assert gk.von_neumann_entropy(gk.thermal(3.0)) == pytest.approx(gk.entropy_g(1.0))
    with pytest.raises(DomainError):
        gk.thermal(0.99)


def test_tmsv_builder():
    np.testing.assert_array_equal(gk.tmsv(1.0).entries, np.eye(4))
    t = gk.tmsv(5.0)
    np.testing.assert_allclose(t.mode_block(0, 0), 5.0 * np.eye(2))
    np.testing.assert_allclose(t.mode_block(0, 1), math.sqrt(24.0) * np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        gk.tmsv(0.5)


@pytest.mark.parametrize("mu", [1.0, 5.0, 100.0, 1e4])
def test_tmsv_pure_at_any_mu(mu):
    spec = gk.symplectic_spectrum(gk.tmsv(mu)).values
    assert spec == pytest.approx((1.0, 1.0), abs=1e-7)
    assert gk.von_neumann_entropy(gk.tmsv(mu)) <= 2e-7


def test_spectrum_identity_and_thermal():
    assert gk.symplectic_spectrum(gk.vacuum(3)).values == (1.0, 1.0, 1.0)
    state = gk.tensor(gk.thermal(2.0), gk.thermal(4.0))
    assert gk.symplectic_spectrum(state).values == pytest.approx((4.0, 2.0))


def test_spectrum_matches_iomega_oracle_and_construction():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        state, nus = random_state(rng, n)
        got = np.array(gk.symplectic_spectrum(state).values)
        np.testing.assert_allclose(got, nus, atol=1e-9)
        np.testing.assert_allclose(got, spectrum_via_iomega(state), atol=1e-9)


def test_two_mode_closed_form_matches_oracle_1000_states():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        state, _ = random_state(rng, 2)
        closed = spectrum_two_mode_closed_form(state)
        np.testing.assert_allclose(closed, spectrum_via_iomega(state), atol=1e-9)
        np.testing.assert_allclose(
            closed, np.array(gk.symplectic_spectrum(state).values), atol=1e-9
        )


def test_spectrum_supports_four_and_five_modes():
    rng = np.random.default_rng(31)
    for n in (4, 5):
        state, nus = random_state(rng, n)
        np.testing.assert_allclose(
            np.array(gk.symplectic_spectrum(state).values), nus, atol=1e-9
        )


def test_spectrum_symplectic_invariance():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        state, _ = random_state(rng, n)
        s = random_symplectic(rng, n)
        moved = gk.CovMat(s @ state.entries @ s.T)
        np.testing.assert_allclose(
            gk.symplectic_spectrum(moved).values,
            gk.symplectic_spectrum(state).values,
            atol=1e-9,
        )


def test_spectrum_product_equals_det():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        state, _ = random_state(rng, n)
        prod = np.prod(np.square(gk.symplectic_spectrum(state).values))
        det = np.linalg.det(state.entries)
        assert prod == pytest.approx(det, rel=1e-9)


def test_purity_bipartition_entropies_equal():
    rng = np.random.default_rng(17)
    for n, keep in [(2, (0,)), (3, (0,)), (3, (0, 2)), (3, (1,))]:
        state, _ = random_state(rng, n, pure=True)
        rest = tuple(i for i in range(n) if i not in keep)
        s_keep = gk.von_neumann_entropy(gk.partial_trace(state, keep))
        s_rest = gk.von_neumann_entropy(gk.partial_trace(state, rest))
        assert s_keep == pytest.approx(s_rest, abs=1e-9)


def test_tmsv_marginal_entropy():
    mu = 7.0
    reduced = gk.partial_trace(gk.tmsv(mu), (0,))
    np.testing.assert_allclose(reduced.entries, mu * np.eye(2))
    assert gk.von_neumann_entropy(reduced) == pytest.approx(
        gk.entropy_g((mu - 1.0) / 2.0), abs=1e-12
    )


def test_partial_trace_product_state():
    a, b = gk.thermal(2.0), gk.tmsv(3.0)
    joint = gk.tensor(a, b)
    np.testing.assert_array_equal(gk.partial_trace(joint, (0,)).entries, a.entries)
    np.testing.assert_array_equal(gk.partial_trace(joint, (1, 2)).entries, b.entries)
    with pytest.raises(DomainError):
        gk.partial_trace(joint, ())
    with pytest.raises(DomainError):
        gk.partial_trace(joint, (3,))


def test_apply_symplectic_identity_and_validation():
    state, _ = random_state(np.random.default_rng(3), 2)
    same = gk.apply_symplectic(state, np.eye(4), (0, 1))
    np.testing.assert_allclose(same.entries, state.entries, atol=1e-14)
    with pytest.raises(DomainError, match="not symplectic"):
        gk.apply_symplectic(state, 2.0 * np.eye(4), (0, 1))
    with pytest.raises(DomainError):
        gk.apply_symplectic(state, np.eye(4), (0, 0))


def test_symplectic_check_scales_with_the_matrix():
    # gain 1e6 has entries ~1e3, so float rounding alone leaves a defect of
    # ~1e-10 in S Omega S^T, above an absolute 1e-10 bound
    squeezer = gk.two_mode_squeezer(1e6)
    out = gk.apply_symplectic(gk.vacuum(2), squeezer, (0, 1))
    np.testing.assert_allclose(out.entries, gk.tmsv(2e6 - 1.0).entries, rtol=1e-12)
    perturbed = squeezer.copy()
    perturbed[0, 0] *= 1.0 + 1e-6
    for bad in (2.0 * np.eye(4), perturbed):
        with pytest.raises(DomainError, match="not symplectic"):
            gk.apply_symplectic(gk.vacuum(2), bad, (0, 1))


def test_beam_splitter_on_vacuum_is_vacuum():
    out = gk.apply_symplectic(gk.vacuum(2), gk.beam_splitter(0.3), (0, 1))
    np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("b", [1.0, 2.0, 5.0, 11.0])
def test_balanced_beam_splitter_port_variances(b):
    state = gk.tensor(gk.thermal(b), gk.vacuum(1))
    out = gk.apply_symplectic(state, gk.beam_splitter(0.5), (0, 1))
    want = (b + 1.0) / 2.0
    np.testing.assert_allclose(out.mode_block(0, 0), want * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(out.mode_block(1, 1), want * np.eye(2), atol=1e-12)


def test_two_mode_squeezer_generates_tmsv():
    gain = 4.0
    out = gk.apply_symplectic(gk.vacuum(2), gk.two_mode_squeezer(gain), (0, 1))
    np.testing.assert_allclose(out.entries, gk.tmsv(2.0 * gain - 1.0).entries, atol=1e-12)
    with pytest.raises(DomainError):
        gk.two_mode_squeezer(0.9)


def test_homodyne_tmsv_closed_form():
    mu = 6.0
    left_q = gk.homodyne_condition(gk.tmsv(mu), measured_mode=1, quadrature="q")
    np.testing.assert_allclose(left_q.entries, np.diag([1.0 / mu, mu]), atol=1e-12)
    assert np.linalg.det(left_q.entries) == pytest.approx(1.0, rel=1e-12)
    left_p = gk.homodyne_condition(gk.tmsv(mu), measured_mode=1, quadrature="p")
    np.testing.assert_allclose(left_p.entries, np.diag([mu, 1.0 / mu]), atol=1e-12)


def test_homodyne_product_state_leaves_other_factor():
    joint = gk.tensor(gk.thermal(2.5), gk.thermal(4.0))
    out = gk.homodyne_condition(joint, measured_mode=1, quadrature="q")
    np.testing.assert_allclose(out.entries, 2.5 * np.eye(2), atol=1e-14)


def test_homodyne_outputs_stay_physical():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        state, _ = random_state(rng, n)
        mode = int(rng.integers(0, n))
        for quad in ("q", "p"):
            out = gk.homodyne_condition(state, measured_mode=mode, quadrature=quad)
            assert min(gk.symplectic_spectrum(out).values) >= 1.0 - 1e-9


def test_homodyne_validation():
    with pytest.raises(DomainError):
        gk.homodyne_condition(gk.thermal(2.0), measured_mode=0, quadrature="q")
    with pytest.raises(DomainError):
        gk.homodyne_condition(gk.tmsv(2.0), measured_mode=0, quadrature="x")
    squeezed = gk.CovMat(np.diag([1e-13, 1e13, 1.0, 1.0]))
    with pytest.raises(DegenerateMeasurementError):
        gk.homodyne_condition(squeezed, measured_mode=0, quadrature="q")


def test_spectrum_is_computed_once_at_validation(monkeypatch):
    rng = np.random.default_rng(17)
    states = [random_state(rng, n)[0] for n in (1, 2, 3, 4)] + [gk.tmsv(1e4)]
    spectra = [gk.symplectic_spectrum(s) for s in states]
    entropies = [gk.von_neumann_entropy(s) for s in states]

    def fail(m):
        raise AssertionError("spectrum recomputed after validation")

    monkeypatch.setattr(gk.symplectic, "_symplectic_eigenvalues", fail)
    assert [gk.symplectic_spectrum(s) for s in states] == spectra
    assert [gk.von_neumann_entropy(s) for s in states] == entropies


def test_covmat_validation():
    with pytest.raises(InvalidStateError):
        gk.CovMat(np.eye(3))
    with pytest.raises(InvalidStateError):
        gk.CovMat(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidStateError):
        gk.CovMat(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidStateError):
        gk.CovMat(0.5 * np.eye(2))  # violates the uncertainty bound
    with pytest.raises(InvalidStateError):
        gk.CovMat(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(InvalidStateError):
        gk.CovMat(np.diag([4.0, 0.1]))  # nu < 1



def test_indefinite_two_mode_matrices_are_invalid_states():
    # Symmetric but indefinite: the positive-definiteness check must name
    # the fault, whatever sign the two-mode discriminant happens to take.
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=(4, 4))
        with pytest.raises(InvalidStateError, match="not positive definite"):
            gk.CovMat(a + a.T)

def test_covmat_entries_read_only():
    state = gk.vacuum(1)
    with pytest.raises(ValueError):
        state.entries[0, 0] = 9.0


def test_tensor_entropy_additive():
    a, b = gk.thermal(3.0), gk.thermal(5.0)
    joint = gk.tensor(a, b)
    assert gk.von_neumann_entropy(joint) == pytest.approx(
        gk.von_neumann_entropy(a) + gk.von_neumann_entropy(b), abs=1e-12
    )
