"""Core linear algebra: builders, spectra, entropy, conditioning."""

import math
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from conftest import (
    random_state,
    random_symplectic,
    spectrum_two_mode_closed_form,
    spectrum_via_eigh_root,
    spectrum_via_iomega,
)
from five_mode import _protocol_state

import gausskey as gk
from gausskey.errors import (
    DegenerateMeasurementError,
    DomainError,
    InvalidStateError,
    NumericError,
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


def test_cholesky_spectrum_matches_eigh_root_oracle():
    # Both routes round V at eps * max|V|, and a strongly squeezed state's
    # spectrum amplifies that by up to max|V| again: they agree with each
    # other, and the pure protocol states with their exact spectrum (all
    # ones), to a small multiple of eps * max(1, max|V|)^2.
    rng = np.random.default_rng(41)
    mixed = [random_state(rng, n)[0] for n in (2, 3, 4, 5) for _ in range(50)]
    channels = [gk.make_canonical(0.5, nbar=0.1), gk.make_canonical(2.0, nbar=0.0),
                gk.make_canonical(5.0, nbar=0.1)]
    protocol = [_protocol_state(ch, mu) for ch in channels for mu in (10.0, 1e2, 1e3, 1e4)]
    pure = protocol + [gk.tmsv(mu) for mu in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)]
    pairs = [gk.partial_trace(s, keep) for s in protocol for keep in combinations(range(5), 2)]

    def bound(state):
        return 1e-14 * max(1.0, float(np.abs(state.entries).max())) ** 2

    for state in mixed + pure + pairs:
        oracle = spectrum_via_eigh_root(state.entries)
        np.testing.assert_allclose(state._nu, oracle, rtol=0, atol=bound(state))
    for state in pure:
        np.testing.assert_allclose(state._nu, 1.0, rtol=0, atol=bound(state))


def _refuse_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("cholesky", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)


def test_two_mode_validation_calls_no_linalg(monkeypatch):
    # Non-singular two-mode arrays get their spectrum from the closed form
    # in Python floats; numpy.linalg is left to larger and singular arrays.
    rng = np.random.default_rng(43)
    arrays = [random_state(rng, 2)[0].entries for _ in range(200)]
    arrays += [gk.tmsv(mu).entries for mu in (1.0, 1.5, 10.0, 1e3, 1e6)]
    channels = [gk.make_canonical(t, nbar=0.1) for t in (-0.5, 0.0, 0.5, 2.0)]
    joints = [gk.apply_channel(gk.tmsv(100.0), ch, mode=1) for ch in channels]
    arrays += [s.entries for s in joints]
    arrays += [gk.partial_trace(_protocol_state(channels[2], 100.0), (2, 3)).entries]
    expected = [gk.CovMat(m)._nu for m in arrays]
    _refuse_linalg(monkeypatch)
    assert [gk.CovMat(m)._nu for m in arrays] == expected
    for ch in channels:
        assert math.isfinite(gk.rci_finite_mu(ch, 100.0))
        assert math.isfinite(gk.ci_finite_mu(ch, 100.0))


def test_two_mode_arrays_without_a_cholesky_pivot_take_the_numpy_route(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def spy(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    with pytest.raises(InvalidStateError, match="not positive definite"):
        gk.CovMat(np.diag([2.0, 1.0, -1.0, 1.0]))
    assert calls == [(4, 4)]
    # sqrt(mu^2 - 1) rounds to mu, so the array is singular and its third
    # pivot rounds to 0 or below: the eigh band decides.  At mu = 1e8 that band
    # still refuses the state (ROADMAP open item 1); at 1e9 it admits it.
    for mu in (1e8, 1e9):
        calls.clear()
        try:
            assert gk.tmsv(mu)._nu == (1.0, 1.0)
        except InvalidStateError:
            assert mu == 1e8
        assert calls == [(4, 4)]


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
    np.testing.assert_array_equal(gk.partial_trace(joint, [2, 1]).entries, b.entries)
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
    with pytest.raises(DomainError, match="must be 2 x 2 for 1 modes, got"):
        gk.apply_symplectic(state, np.eye(4), (1,))


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
    # A squeezed but positive variance is measured: mode 1 is left in vacuum.
    squeezed = gk.CovMat(np.diag([1e-13, 1e13, 1.0, 1.0]))
    out = gk.homodyne_condition(squeezed, measured_mode=0, quadrature="q")
    assert out.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_homodyne_of_a_strongly_squeezed_tmsv_arm():
    # Mode 0 of tmsv(2) squeezed by e^-15 has V_q = 1.87e-13; measuring it
    # leaves mode 1 with diag(mu - (mu^2 - 1) / mu, mu) = diag(0.5, 2).
    s = np.diag([math.exp(-15.0), math.exp(15.0), 1.0, 1.0])
    state = gk.CovMat(s @ gk.tmsv(2.0).entries @ s.T)
    assert 0.0 < state.entries[0, 0] < 1e-12
    out = gk.homodyne_condition(state, measured_mode=0, quadrature="q")
    np.testing.assert_allclose(out.entries, np.diag([0.5, 2.0]), rtol=0.0, atol=1e-12)


def test_homodyne_refuses_the_zero_variance_covmat_lets_through():
    # CovMat's eigh band accepts (A, D)|y of the trusted port at mu 1e17
    # with V_A = 0.0; conditioning on that quadrature divides by zero.
    state = gk.engines._conditioned(gk.make_canonical(0.5, nbar=0.1), 1e17, "trusted", "q")[1]
    assert state.entries[0, 0] == 0.0
    with pytest.raises(DegenerateMeasurementError, match="variance 0.0 is not positive"):
        gk.homodyne_condition(state, measured_mode=0, quadrature="q")


def test_spectrum_is_computed_once_at_validation(monkeypatch):
    rng = np.random.default_rng(17)
    states = [random_state(rng, n)[0] for n in (1, 2, 3, 4)] + [gk.tmsv(1e4)]
    spectra = [gk.symplectic_spectrum(s) for s in states]
    entropies = [gk.von_neumann_entropy(s) for s in states]

    def fail(flat, m):
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



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_non_finite_entries_are_invalid_states(bad, size, where):
    m = np.eye(size)
    m[where] = bad
    with pytest.raises(InvalidStateError, match="non-finite"):
        gk.CovMat(m)


def _numpy_rule(entries):
    """CovMat's rule stated with numpy reductions: the stored array and spectrum, or raise."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0 or m.shape[0] % 2:
        raise InvalidStateError("shape")
    peak = float(np.abs(m).max())
    if not math.isfinite(peak):
        raise InvalidStateError("non-finite")
    halved = peak > sys.float_info.max / 2
    if halved:
        m, peak = 0.5 * m, 0.5 * peak
    if float(np.abs(m - m.T).max()) > gk.symplectic.SYMMETRY_ATOL * max(1.0, peak):
        raise InvalidStateError("not symmetric")
    m = m + m.T if halved else 0.5 * (m + m.T)
    return m, gk.symplectic._symplectic_eigenvalues(m.ravel().tolist(), m)


def _validation_cases():
    rng = np.random.default_rng(27)
    tol = gk.symplectic.SYMMETRY_ATOL
    for n_modes in (1, 2, 3, 4):
        for _ in range(10):
            s = random_symplectic(rng, n_modes)
            v = s @ np.diag(np.repeat(1.0 + rng.exponential(0.7, n_modes), 2)) @ s.T
            yield v  # asymmetric by rounding only
            for factor in (0.5, 2.0):
                w = v.copy()
                w[0, 1] += factor * tol * max(1.0, np.abs(v).max())
                yield w
    for size in (2, 4, 6):
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(size):
                for j in range(size):
                    m = np.eye(size)
                    m[i, j] = bad
                    yield m
    big = sys.float_info.max
    for peak in (0.6 * big, 0.9 * big, big):
        for off in (0.0, 1e-13 * peak, 3e-12 * peak):
            yield [[peak, off], [0.0, peak]]
            yield np.kron([[peak, 0.5 * peak], [0.5 * peak + off, peak]], np.eye(2))
    for n_modes in (1, 2, 3):  # the largest diagonal entry at 2**510 and one ulp past it
        v = random_state(rng, n_modes)[0].entries
        for edge in (2.0**510, np.nextafter(2.0**510, math.inf)):
            yield v / v.diagonal().max() * edge
    yield [[2.0, 5e-324], [5e-324, 2.0]]  # exactly symmetric, subnormal off-diagonal
    yield np.kron([[3.0, 1e-310], [1e-310, 3.0]], np.eye(2))
    yield np.eye(4, dtype=int) * 3
    yield np.array([[5, 2], [2, 5]])
    yield [[2, 1], [1, 2]]
    yield [[2.0, 1.0], [0.0, 2.0]]
    yield [[0.5, 0.0], [0.0, 0.5]]  # unphysical
    yield [[1.0, 2.0, 3.0]]
    yield np.eye(3)


def test_validation_matches_the_numpy_rule():
    # Each array is accepted or refused alike, with the same exception type;
    # an accepted one stores the same bits and the same spectrum.
    for entries in _validation_cases():
        try:
            expected = _numpy_rule(entries)
        except gk.GaussKeyError as error:
            with pytest.raises(type(error)):
                gk.CovMat(entries)
            continue
        state = gk.CovMat(entries)
        assert state.entries.tobytes() == expected[0].tobytes()
        assert state._nu == expected[1]


_NOT_REAL_ARRAYS = {
    "complex": np.eye(2) * (1 + 1j),
    "complex_list": [[2.0, 1j], [1j, 2.0]],
    "str": "ab",
    "str_entries": [["a", "0"], ["0", "b"]],
    "ragged": [[1.0, 0.0], [0.0]],
    "huge_int": [[10**400, 0], [0, 1]],
    "none_entry": [[None, 0.0], [0.0, 1.0]],
}


@pytest.mark.parametrize("entries", _NOT_REAL_ARRAYS.values(), ids=_NOT_REAL_ARRAYS.keys())
def test_covariance_entries_must_be_real(entries):
    # complex entries were dropped to their real part with a ComplexWarning,
    # and the others escaped as a bare ValueError or OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStateError):
            gk.CovMat(entries)
        with pytest.raises(DomainError):
            gk.apply_symplectic(gk.tmsv(2.0), entries, (0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j])
def test_symplectic_matrix_entries_must_be_finite_reals(bad):
    s = np.eye(4, dtype=type(bad))
    s[0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            gk.apply_symplectic(gk.tmsv(2.0), s, (0, 1))


def test_bool_int_and_float_arrays_convert_without_a_per_entry_call(monkeypatch):
    def fail(x):
        raise AssertionError("entry converted one by one")

    bs, state = gk.beam_splitter(0.5), gk.tmsv(2.0)
    monkeypatch.setattr(gk.symplectic, "_float", fail)
    for entries in (np.eye(2, dtype=bool), np.eye(2, dtype=np.int64) * 3, [[2, 0], [0, 2]],
                    np.eye(4, dtype=np.float32), [[2.0, 0.5], [0.5, 2.0]]):
        assert gk.CovMat(entries).entries.dtype == np.float64
    assert gk.CovMat([[2.0, 1.0], [1.0, 2.0]])._nu == (math.sqrt(3.0),)
    for s in (np.eye(4, dtype=int), np.eye(2, dtype=bool), bs):
        gk.apply_symplectic(state, s, (0, 1) if len(s) == 4 else (1,))


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


def test_tmsv_and_vacuum_share_one_instance_per_parameter():
    assert gk.tmsv(10) is gk.tmsv(10.0) is gk.tmsv(np.float64(10))
    assert gk.tmsv(10.0) is not gk.tmsv(11.0)
    assert gk.vacuum(1) is gk.vacuum(1) is gk.vacuum() is gk.vacuum(1.0)
    assert gk.vacuum(2) is not gk.vacuum(1)
    # the shared states are the ones a fresh build gives
    assert np.array_equal(gk.tmsv(10.0).entries, gk.symplectic._tmsv.__wrapped__(10.0).entries)
    assert gk.tmsv(10.0)._nu == gk.symplectic._tmsv.__wrapped__(10.0)._nu


_CH = gk.make_canonical(0.5, nbar=0.1)
_STATES = {
    "vacuum": lambda: gk.vacuum(1),
    "vacuum3": lambda: gk.vacuum(3),
    "tmsv": lambda: gk.tmsv(10.0),
    "thermal": lambda: gk.thermal(3.0),
    "covmat": lambda: gk.CovMat(np.diag([2.0, 3.0])),
    "tensor": lambda: gk.tensor(gk.tmsv(10.0), gk.vacuum(1)),
    "partial_trace": lambda: gk.partial_trace(gk.tmsv(10.0), (1,)),
    "apply_symplectic": lambda: gk.apply_symplectic(gk.tmsv(10.0), gk.beam_splitter(0.3), (0, 1)),
    "apply_channel": lambda: gk.apply_channel(gk.tmsv(10.0), _CH, mode=1),
    "homodyne": lambda: gk.homodyne_condition(gk.tmsv(10.0), 0, "q"),
    "dilation_environment": lambda: gk.dilate(_CH).environment,
    "protocol": lambda: _protocol_state(_CH, 10.0),
    "huge": lambda: gk.thermal(1.7e308),
}


@pytest.mark.parametrize("kind", _STATES)
def test_no_state_can_be_made_writable(kind):
    state = _STATES[kind]()
    before = state.entries.copy()
    with pytest.raises(ValueError):
        state.entries.flags.writeable = True
    with pytest.raises(ValueError):
        state.entries[0, 0] = 9.0
    assert not state.entries.flags.writeable
    assert np.array_equal(state.entries, before)


def test_covmat_never_stores_the_callers_array():
    given = np.diag([2.0, 3.0])
    state = gk.CovMat(given)
    given[0, 0] = 0.5
    assert state.entries[0, 0] == 2.0
    assert given.flags.writeable


@pytest.mark.parametrize(
    "mu, error",
    [
        (0.5, DomainError),
        (math.nan, DomainError),
        (math.inf, DomainError),
        ("x", DomainError),
        # the stored sqrt(mu^2 - 1) makes the array unphysical (ROADMAP open item 1)
        (1.8e7, InvalidStateError),
    ],
)
def test_invalid_source_variance_raises_on_every_call(mu, error):
    before = gk.symplectic._tmsv.cache_info().currsize
    for _ in range(3):
        with pytest.raises(error):
            gk.tmsv(mu)
    assert gk.symplectic._tmsv.cache_info().currsize == before


def test_one_mode_spectrum_past_the_square_root_of_float_max():
    # det V = 1e320 overflows; the spectrum sqrt(det V) = 1e160 does not
    state = gk.thermal(1e160)
    assert state._nu == (1e160,)
    assert gk.von_neumann_entropy(state) == gk.entropy_g((1e160 - 1.0) / 2.0)
    assert gk.von_neumann_entropy(state) == pytest.approx(531.95, abs=0.01)
    skewed = gk.CovMat([[1e300, 1e299], [1e299, 1e300]])
    assert skewed._nu[0] == pytest.approx(1e300 * math.sqrt(0.99), rel=1e-15)


@pytest.mark.parametrize("peak", [9e307, 1.7e308, sys.float_info.max])
def test_entries_past_half_the_float_range_stay_finite(peak):
    # 0.5 * (m + m.T) overflowed to inf for these representable arrays
    for state in (gk.CovMat(np.eye(2) * peak), gk.thermal(peak)):
        assert np.array_equal(state.entries, peak * np.eye(2))
        assert state._nu == (peak,)
    assert gk.CovMat(np.eye(4) * peak)._nu == pytest.approx((peak, peak), rel=1e-15)
    assert gk.CovMat(np.eye(6) * peak)._nu == pytest.approx((peak,) * 3, rel=1e-15)


def test_large_two_mode_spectra_come_from_the_scaled_array(monkeypatch):
    # nu = m +- c: 0.7 * float max stays finite, though a + b in the closed
    # form overflows on the unscaled array
    _refuse_linalg(monkeypatch)
    big = sys.float_info.max
    m, c = 0.4 * big, 0.3 * big
    v = np.array([[m, 0, c, 0], [0, m, 0, c], [c, 0, m, 0], [0, c, 0, m]])
    assert gk.CovMat(v)._nu == pytest.approx((0.7 * big, 0.1 * big), rel=1e-14)


def test_mixed_scale_two_mode_spectra_keep_the_smaller_eigenvalue():
    # nu_- = det L / nu_+: (|a| - |b|) / 2 read 0 (clamped to 1) for the
    # first state, and the product of the four pivots overflows for the second
    assert gk.tensor(gk.thermal(1e20), gk.thermal(3.0))._nu == pytest.approx((1e20, 3.0), rel=1e-15)
    assert gk.tensor(gk.thermal(1e160), gk.thermal(1e160))._nu == (1e160, 1e160)


@pytest.mark.parametrize("n_modes", [2, 3])
def test_spectrum_past_the_float_range_is_a_numeric_error(monkeypatch, n_modes):
    if n_modes == 2:
        _refuse_linalg(monkeypatch)
    big = sys.float_info.max
    m, c = 0.9 * big, 0.8 * big  # nu_+ = 1.7 * float max
    v = np.eye(2 * n_modes)
    v[:4, :4] = [[m, 0, c, 0], [0, m, 0, c], [c, 0, m, 0], [0, c, 0, m]]
    with pytest.raises(NumericError, match="float range limit") as info:
        gk.CovMat(v)
    assert info.value.field is None


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_spectra_past_2_to_the_510_scale_exactly_by_powers_of_four(n_modes):
    # A large array is divided by a power of four (exact), so scaling a state
    # by one scales its spectrum by the same factor, bit for bit.
    rng = np.random.default_rng(510 + n_modes)
    for _ in range(1500):
        v = random_state(rng, n_modes)[0]
        k = int(rng.integers(0, 250))
        f = 4.0 ** (k + math.ceil((510 - math.log2(np.abs(v.entries).max())) / 2))
        assert gk.CovMat(f * v.entries)._nu == tuple(f * x for x in v._nu)


def _mp_spectrum(m):
    """Symplectic spectrum of the float array m to 80 digits: |eigenvalues| of Omega V."""
    from mpmath import mp

    with mp.workdps(80):
        n = m.shape[0] // 2
        om = mp.zeros(2 * n, 2 * n)
        for k in range(n):
            om[2 * k, 2 * k + 1], om[2 * k + 1, 2 * k] = 1, -1
        eig = mp.eig(om * mp.matrix(m.tolist()), left=False, right=False)
        return [float(x) for x in sorted((abs(e) for e in eig), reverse=True)[::2]]


@pytest.mark.parametrize("n_modes, ulps", [(1, 8), (2, 8), (3, 32)])
def test_spectra_past_2_to_the_510_match_mpmath(n_modes, ulps):
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(1020 + n_modes)
    for _ in range(16):
        v = random_state(rng, n_modes)[0].entries
        m = v * 10.0 ** rng.uniform(154.0, 305.0)  # not a power of two
        got, want = gk.CovMat(m)._nu, _mp_spectrum(m)
        for g, w in zip(got, want):
            assert abs(g - w) <= ulps * math.ulp(w), (m, got, want)


@pytest.mark.parametrize("x", [1e160, 1e200, 2.0**750])
def test_pure_squeezed_spectra_past_2_to_the_510_stay_exact(x):
    # V / f is taken with the least power of four f that brings the largest
    # entry below 2**480, so 1 / x stays a normal float up to x ~ 2**751:
    # an f that brought it into [1/2, 4) left 1e-160 / f with ten significant
    # bits and 1e-200 / f zero.
    assert gk.CovMat(np.diag([x, 1.0 / x]))._nu == (1.0,)
    assert gk.CovMat(np.diag([x, 1.0 / x, x, 1.0 / x]))._nu == (1.0, 1.0)
    assert gk.von_neumann_entropy(gk.CovMat(np.diag([x, 1.0 / x]))) == 0.0


def test_squeezed_one_mode_spectra_past_2_to_the_510_match_mpmath():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(766)
    for _ in range(50):
        v = random_state(rng, 1)[0].entries
        g = 10.0 ** rng.uniform(0.0, 60.0)  # squeezing: entries from ~1e34 to ~1e305
        m = v * 10.0 ** rng.uniform(154.0, 305.0 - 2.0 * math.log10(g))
        m *= [[g * g, 1.0], [1.0, 1.0 / (g * g)]]
        got, want = gk.CovMat(m)._nu, _mp_spectrum(m)
        assert abs(got[0] - want[0]) <= 8 * math.ulp(want[0]), (m, got, want)


def test_symplectic_check_past_the_float_range_refuses():
    # max|S|^2 overflowed to an infinite bound that no residual exceeds, and
    # det S = 1e100 passed for symplectic; sums of S Omega S^T that overflow
    # are refused with no numpy warning.
    a = 1.2e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="float range limit"):
            gk.apply_symplectic(gk.CovMat(np.diag([1e-150, 1e150])), np.diag([1e200, 1e-100]), (0,))
        with pytest.raises(DomainError, match="not symplectic"):
            gk.apply_symplectic(gk.vacuum(1), np.array([[a, a], [a, -a]]), (0,))


def test_symmetric_entries_are_stored_as_given():
    # Exactly symmetric entries are kept at every scale, subnormal ones too:
    # no halving rounds them away past half the float maximum.
    for peak in (2.0, 1e300, sys.float_info.max):
        v = np.array([[peak, 5e-324], [5e-324, peak]])
        assert gk.CovMat(v).entries.tobytes() == v.tobytes()


def test_representable_operation_results_stay_finite():
    # 0.5 * (out + out.T) overflowed past half the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gk.apply_channel(gk.thermal(1.7e308), gk.make_canonical(0.9, nbar=0.0))
    assert out._nu == pytest.approx((0.9 * 1.7e308 + 0.1,), rel=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gk.apply_channel(gk.thermal(1e308), gk.make_canonical(2.0, nbar=0.1)),
        lambda: gk.apply_symplectic(
            gk.tensor(gk.thermal(1e308), gk.vacuum(1)), gk.two_mode_squeezer(10.0), (0, 1)
        ),
        lambda: gk.homodyne_condition(
            gk.CovMat(np.kron([[1e160, 5e159], [5e159, 1e160]], np.eye(2))), 1, "q"
        ),
        lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=1e160), 10.0),
        lambda: gk.tmsv(1e155),
        # exactly symplectic; max|S|^2 in its check overflowed as a bare OverflowError
        lambda: gk.apply_symplectic(gk.vacuum(2), np.diag([1e200, 1e-200, 1.0, 1.0]), (0, 1)),
    ],
    ids=["channel", "squeezer", "homodyne", "protocol", "tmsv", "symplectic_past_sqrt_max"],
)
def test_operation_results_past_the_float_range_are_numeric_errors(call):
    # They overflowed with a numpy RuntimeWarning and were refused as
    # InvalidStateError ("non-finite entries").
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="float range limit") as info:
            call()
    assert info.value.field is None


def test_ordinary_one_mode_spectra_keep_their_bits():
    rng = np.random.default_rng(19)
    for _ in range(200):
        state = random_state(rng, 1)[0]
        (a, b), (c, d) = state.entries.tolist()
        assert state._nu[0] == max(1.0, math.sqrt(a * d - b * c))


def test_tensor_entropy_additive():
    a, b = gk.thermal(3.0), gk.thermal(5.0)
    joint = gk.tensor(a, b)
    assert gk.von_neumann_entropy(joint) == pytest.approx(
        gk.von_neumann_entropy(a) + gk.von_neumann_entropy(b), abs=1e-12
    )
    with pytest.raises(DomainError, match="at least one state"):
        gk.tensor()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.5])
@pytest.mark.parametrize(
    "build", [gk.thermal, gk.tmsv, gk.two_mode_squeezer], ids=["thermal", "tmsv", "squeezer"]
)
def test_variance_arguments_must_be_finite_and_at_least_one(build, value):
    # NaN passes a bare `< 1` test and inf turns inf * 0 into NaN with a
    # RuntimeWarning; both must be refused before any matrix is built.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be >= 1 and finite"):
            build(value)


_BS = gk.beam_splitter(0.5)
_CH = gk.make_canonical(0.5, nbar=0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.mode_block(-1, -1),
        lambda s: s.mode_block(5, 0),
        lambda s: s.mode_block(0, 3),
        lambda s: s.mode_block(0.5, 0),
        lambda s: gk.partial_trace(s, (0.5,)),
        lambda s: gk.partial_trace(s, (-1, 0)),
        lambda s: gk.partial_trace(s, [[0]]),
        lambda s: gk.partial_trace(s, (1, 1)),
        lambda s: gk.apply_symplectic(s, _BS, (0, 3)),
        lambda s: gk.apply_symplectic(s, _BS, (1.5, 0)),
        lambda s: gk.apply_symplectic(s, _BS, (2, 2)),
        lambda s: gk.homodyne_condition(s, measured_mode=-1, quadrature="q"),
        lambda s: gk.homodyne_condition(s, measured_mode=0.5, quadrature="p"),
        lambda s: gk.apply_channel(s, _CH, mode=3),
        lambda s: gk.apply_channel(s, _CH, mode=-1),
        lambda s: gk.apply_channel(s, _CH, mode=math.nan),
    ],
    ids=[
        "block_negative", "block_past_end", "block_column_past_end", "block_fraction",
        "trace_fraction", "trace_negative", "trace_unhashable", "trace_repeated",
        "symplectic_past_end", "symplectic_fraction",
        "symplectic_repeated", "homodyne_negative", "homodyne_fraction",
        "channel_past_end", "channel_negative", "channel_nan",
    ],
)
def test_every_mode_argument_is_checked(call):
    with pytest.raises(DomainError, match="invalid mode list"):
        call(gk.tensor(gk.tmsv(3.0), gk.vacuum(1)))


def _embedding_oracle(state, s, modes):
    """S V S^T the direct way: S embedded in the identity on the listed modes."""
    embed = np.eye(2 * state.n_modes)
    idx = [j for k in modes for j in (2 * k, 2 * k + 1)]
    embed[np.ix_(idx, idx)] = s
    return embed @ state.entries @ embed.T


def test_apply_symplectic_matches_embedding_oracle():
    rng = np.random.default_rng(59)
    scattered = 0
    for _ in range(80):
        n = int(rng.integers(2, 6))
        modes = [int(k) for k in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        scattered += modes != list(range(modes[0], modes[0] + len(modes)))
        state, _ = random_state(rng, n)
        s = random_symplectic(rng, len(modes), strength=0.6)
        got = gk.apply_symplectic(state, s, modes).entries
        want = _embedding_oracle(state, s, modes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert scattered >= 40  # most lists are out of order or have gaps


def test_squeezer_round_trip_returns_the_input():
    # Entries near 2e3 leave rounding asymmetry above the CovMat input
    # tolerance; the update must still hand back a valid state.
    squeeze = gk.two_mode_squeezer(1e3)
    undo = squeeze.copy()
    undo[:2, 2:] *= -1.0
    undo[2:, :2] *= -1.0
    state = gk.tensor(gk.thermal(1.5), gk.vacuum(2))
    there = gk.apply_symplectic(state, squeeze, (2, 1))
    back = gk.apply_symplectic(there, undo, (2, 1))
    np.testing.assert_allclose(back.entries, state.entries, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("gain", [1e4, 1e5])
def test_finite_unphysical_operation_result_is_an_invalid_state(gain):
    # Undoing a strong squeezer leaves finite entries whose rounding puts a
    # symplectic eigenvalue below 1: the operation's result is refused as
    # unphysical, not as a float range limit, which is for non-finite entries.
    squeeze = gk.two_mode_squeezer(gain)
    undo = squeeze.copy()
    undo[:2, 2:] *= -1.0
    undo[2:, :2] *= -1.0
    there = gk.apply_symplectic(gk.vacuum(2), squeeze, (0, 1))
    with pytest.raises(InvalidStateError, match="unphysical") as info:
        gk.apply_symplectic(there, undo, (0, 1))
    assert not isinstance(info.value, NumericError)


def test_builders_match_their_block_forms():
    i2, z2 = np.eye(2), np.diag([1.0, -1.0])
    rng = np.random.default_rng(10)
    for mu in [1.0, 2.0, 1e4, *(1.0 + rng.exponential(50.0, 5))]:
        c = math.sqrt(mu * mu - 1.0)
        old = np.block([[mu * i2, c * z2], [c * z2, mu * i2]])
        assert np.array_equal(gk.tmsv(mu).entries, old)
    for eta in [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, 5)]:
        t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
        old = np.block([[t * i2, r * i2], [-r * i2, t * i2]])
        assert np.array_equal(gk.beam_splitter(eta), old)
    for gain in [1.0, 2.0, 1e6, *(1.0 + rng.exponential(50.0, 5))]:
        ch, sh = math.sqrt(gain), math.sqrt(gain - 1.0)
        old = np.block([[ch * i2, sh * z2], [sh * z2, ch * i2]])
        assert np.array_equal(gk.two_mode_squeezer(gain), old)


@pytest.mark.parametrize("n", range(1, 7))
def test_symplectic_form_matches_kron_and_is_fresh(n):
    omega = gk.symplectic_form(n)
    assert np.array_equal(omega, np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]))
    assert omega.flags.writeable
    omega[0, 1] = 7.0
    assert gk.symplectic_form(n)[0, 1] == 1.0


@pytest.mark.parametrize("n", range(1, 6))
def test_times_omega_is_right_multiplication_by_omega(n):
    rng = np.random.default_rng(100 + n)
    for rows in (2 * n, 3):
        x = rng.normal(size=(rows, 2 * n)) * 10.0 ** rng.integers(-8, 9, size=(rows, 2 * n))
        assert np.array_equal(gk.symplectic._times_omega(x), x @ gk.symplectic_form(n))
