"""Error fields: every argument check names the argument at fault."""

import math
import pickle

import numpy as np
import pytest

import gausskey as gk
from gausskey.errors import (
    DomainError,
    EmptyStatisticsError,
    GaussKeyError,
    InvalidStateError,
    NumericError,
    UnsupportedChannelError,
)

_SIM = dict(tau=0.5, nbar=0.1, mu=5.0, rounds=10, seed=0, mode="memory")


def _sim(**changes):
    return gk.SimConfig(**{**_SIM, **changes})


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: gk.CanonicalChannel(math.nan, 0.1), DomainError, "tau"),
        (lambda: gk.CanonicalChannel(1.0, 0.1), UnsupportedChannelError, "tau"),
        (lambda: gk.CanonicalChannel(0.5, -0.1), DomainError, "nbar"),
        (lambda: gk.CanonicalChannel(0.5, math.inf), DomainError, "nbar"),
        (lambda: gk.CanonicalChannel(0.5, math.nan), DomainError, "nbar"),
        # w = 2 nbar + 1 overflows
        (lambda: gk.CanonicalChannel(0.5, 1e308), DomainError, "nbar"),
        # w is finite but eps = 2 nbar |1 - tau| overflows
        (lambda: gk.make_canonical(-5.0, nbar=8e307), DomainError, "nbar"),
        (lambda: gk.make_canonical(math.inf, nbar=0.1), DomainError, "tau"),
        (lambda: gk.make_canonical(1.0, nbar=0.1), UnsupportedChannelError, "tau"),
        (lambda: gk.make_canonical(1.0, eps=0.1), UnsupportedChannelError, "tau"),
        (lambda: gk.make_canonical(math.nan, eps=0.1), DomainError, "tau"),
        (lambda: gk.make_canonical(0.5, nbar=0.1, eps=0.1), DomainError, "nbar/eps"),
        (lambda: gk.make_canonical(0.5, eps=-0.1), DomainError, "eps"),
        (lambda: gk.make_canonical(0.5, eps=math.inf), DomainError, "eps"),
        (lambda: gk.make_canonical(0.5, eps=math.nan), DomainError, "eps"),
        # nbar = eps / (2 |1 - tau|) = 1e308 overflows w
        (lambda: gk.make_canonical(0.5, eps=1e308), DomainError, "eps"),
        (lambda: _sim(tau=1.0), UnsupportedChannelError, "tau"),
        (lambda: _sim(nbar=math.inf), DomainError, "nbar"),
        (lambda: _sim(mu=0.5), DomainError, "mu"),
        (lambda: _sim(mu=math.nan), DomainError, "mu"),
        (lambda: _sim(mu=math.inf), DomainError, "mu"),
        (lambda: _sim(rounds=0), DomainError, "rounds"),
        (lambda: _sim(seed=-1), DomainError, "seed"),
        (lambda: _sim(seed=2**64), DomainError, "seed"),
        (lambda: _sim(mode="batch"), DomainError, "mode"),
        (lambda: gk.sweep(0.2, 0.8, 0), DomainError, "steps"),
        (lambda: gk.sweep(0.2, 0.8, 5, tol=0.0), DomainError, "tol"),
        (lambda: gk.sweep(0.8, 0.2, 5), DomainError, "tau_min/tau_max"),
        (lambda: gk.sweep(-math.inf, 0.2, 5), DomainError, "tau_min/tau_max"),
        (lambda: gk.sweep(0.2, math.nan, 5), DomainError, "tau_min/tau_max"),
        (lambda: gk.sweep(0.9999995, 1.0000005, 3), DomainError, "tau_min/tau_max"),
        (lambda: gk.threshold_eps("e_r", 0.5, tol=-1.0), DomainError, "tol"),
        (lambda: gk.sweep(0.2, 0.8, 3, tol=math.inf), DomainError, "tol"),
        # a bracket of one ulp cannot reach |interior| <= 1e-17
        (lambda: gk.threshold_eps("e_r", 0.5, tol=1e-17), NumericError, "tol"),
        (lambda: gk.sweep(0.2, 0.8, 3, tol=1e-17), NumericError, "tol"),
        (lambda: gk.threshold_eps("k_rev", 0.5), DomainError, "rate_id"),
        # integers too large for a float once escaped as a bare OverflowError
        (lambda: gk.make_canonical(10**400, nbar=0.1), DomainError, "tau"),
        (lambda: gk.make_canonical(-(10**400), eps=0.1), DomainError, "tau"),
        (lambda: gk.make_canonical(0.5, nbar=10**400), DomainError, "nbar"),
        (lambda: gk.make_canonical(0.5, eps=10**400), DomainError, "eps"),
        (lambda: gk.CanonicalChannel(10**400, 0.1), DomainError, "tau"),
        (lambda: gk.threshold_eps("e_r", 10**400), DomainError, "tau"),
        (lambda: gk.classify(10**400, 0.1), DomainError, "tau"),
        (lambda: gk.classify(0.5, 10**400), DomainError, "eps"),
        (lambda: gk.analytic_moments(10**400, 0.1, 5.0), DomainError, "tau"),
        (lambda: gk.sweep(-(10**400), 0.5, 3), DomainError, "tau_min/tau_max"),
        (lambda: gk.sweep(10**400, 10**400, 3), DomainError, "tau_min/tau_max"),
        (lambda: _sim(mu=10**400), DomainError, "mu"),
        (lambda: gk.threshold_eps("e_r", 0.5, tol=10**400), DomainError, "tol"),
        # explicit ids keep the ids of the single "steps" and "rounds" rows above
        pytest.param(lambda: gk.sweep(0.2, 0.8, 10**400), DomainError, "steps", id="huge-steps"),
        pytest.param(lambda: _sim(rounds=10**400), DomainError, "rounds", id="huge-rounds"),
        # these checks name no field, whatever their argument
        (lambda: gk.entropy_g(10**400), DomainError, None),
        (lambda: gk.tmsv(10**400), DomainError, None),
        (lambda: gk.thermal(10**400), DomainError, None),
        (lambda: gk.two_mode_squeezer(10**400), DomainError, None),
        (lambda: gk.beam_splitter(10**400), DomainError, None),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=0.1), 10**400), DomainError,
         None),
        (lambda: gk.convergence_table(gk.make_canonical(0.5, nbar=0.1), [10**400]), DomainError,
         None),
        # a complex transmission once passed as a channel: e_r_interior gave -1.483
        pytest.param(lambda: gk.CanonicalChannel(1 + 2j, 0.1), DomainError, "tau", id="complex-tau"),
        pytest.param(lambda: gk.CanonicalChannel(0.5 + 0j, 0.1), DomainError, "tau",
                     id="real-complex-tau"),
        pytest.param(lambda: gk.CanonicalChannel(0.5, 1 + 2j), DomainError, "nbar",
                     id="complex-nbar"),
        # numpy's complex scalars compare like reals and float() drops their
        # imaginary part with a warning; a one-element array was stored as is
        pytest.param(lambda: gk.CanonicalChannel(np.complex128(1 + 2j), 0.1), DomainError, "tau",
                     id="numpy-complex-tau"),
        pytest.param(lambda: gk.CanonicalChannel(np.complex64(0.5), 0.1), DomainError, "tau",
                     id="numpy-complex64-tau"),
        pytest.param(lambda: gk.CanonicalChannel(0.5, np.complex128(0.1)), DomainError, "nbar",
                     id="numpy-complex-nbar"),
        pytest.param(lambda: gk.CanonicalChannel(np.array([0.5]), 0.1), DomainError, "tau",
                     id="one-element-array-tau"),
        pytest.param(lambda: gk.CanonicalChannel(0.5, np.array([0.1])), DomainError, "nbar",
                     id="one-element-array-nbar"),
        pytest.param(lambda: gk.make_canonical(np.complex128(0.5 + 1j), nbar=0.1), DomainError,
                     "tau", id="make-canonical-numpy-complex-tau"),
        pytest.param(lambda: gk.make_canonical(np.complex128(0.5 + 1j), eps=0.1), DomainError,
                     "tau", id="make-canonical-numpy-complex-tau-eps"),
        pytest.param(lambda: gk.make_canonical(0.5, eps=np.complex128(0.1)), DomainError, "eps",
                     id="make-canonical-numpy-complex-eps"),
        pytest.param(lambda: gk.make_canonical(np.array([0.5]), eps=0.1), DomainError, "tau",
                     id="make-canonical-one-element-array-tau"),
    ],
)
def test_argument_checks_name_their_field(call, error, field):
    with pytest.raises(error) as info:
        call()
    assert info.value.field == field
    assert len(info.value.args) == 1


_CH = gk.make_canonical(0.5, nbar=0.1)

# Every public numeric, count and choice argument, with the field its NaN or
# 10**400 refusal names (None where the check names no field).
_SLOTS = {
    "channel_tau": (lambda x: gk.CanonicalChannel(x, 0.1), "tau"),
    "channel_nbar": (lambda x: gk.CanonicalChannel(0.5, x), "nbar"),
    "make_canonical_tau": (lambda x: gk.make_canonical(x, nbar=0.1), "tau"),
    "make_canonical_nbar": (lambda x: gk.make_canonical(0.5, nbar=x), "nbar"),
    "make_canonical_eps": (lambda x: gk.make_canonical(0.5, eps=x), "eps"),
    "entropy_g": (lambda x: gk.entropy_g(x), None),
    "threshold_rate_id": (lambda x: gk.threshold_eps(x, 0.5), "rate_id"),
    "threshold_tau": (lambda x: gk.threshold_eps("e_r", x), "tau"),
    "threshold_tol": (lambda x: gk.threshold_eps("e_r", 0.5, tol=x), "tol"),
    "sweep_tau_min": (lambda x: gk.sweep(x, 0.8, 3), "tau_min/tau_max"),
    "sweep_tau_max": (lambda x: gk.sweep(0.2, x, 3), "tau_min/tau_max"),
    "sweep_steps": (lambda x: gk.sweep(0.2, 0.8, x), "steps"),
    "sweep_tol": (lambda x: gk.sweep(0.2, 0.8, 3, tol=x), "tol"),
    "classify_tau": (lambda x: gk.classify(x, 0.1), "tau"),
    "classify_eps": (lambda x: gk.classify(0.5, x), "eps"),
    "symplectic_form": (lambda x: gk.symplectic_form(x), "n_modes"),
    "vacuum": (lambda x: gk.vacuum(x), "n_modes"),
    "thermal": (lambda x: gk.thermal(x), None),
    "tmsv": (lambda x: gk.tmsv(x), None),
    "beam_splitter": (lambda x: gk.beam_splitter(x), None),
    "two_mode_squeezer": (lambda x: gk.two_mode_squeezer(x), None),
    "partial_trace": (lambda x: gk.partial_trace(gk.vacuum(2), x), "keep"),
    "apply_symplectic": (lambda x: gk.apply_symplectic(gk.vacuum(2), gk.beam_splitter(0.5), x),
                         "modes"),
    "homodyne_mode": (lambda x: gk.homodyne_condition(gk.vacuum(2), x, "q"), "measured_mode"),
    "homodyne_quadrature": (lambda x: gk.homodyne_condition(gk.vacuum(2), 0, x), None),
    "mode_block": (lambda x: gk.vacuum(2).mode_block(0, x), "j"),
    "apply_channel": (lambda x: gk.apply_channel(gk.vacuum(2), _CH, mode=x), "mode"),
    "apply_dilation": (lambda x: gk.apply_dilation(gk.vacuum(1), gk.dilate(_CH), mode=x), "mode"),
    "rci_mu": (lambda x: gk.rci_finite_mu(_CH, x), None),
    "ci_mu": (lambda x: gk.ci_finite_mu(_CH, x), None),
    "protocol_mu": (lambda x: gk.protocol_rate_numeric(_CH, x), None),
    "protocol_port_model": (lambda x: gk.protocol_rate_numeric(_CH, 10.0, x), None),
    "protocol_basis": (lambda x: gk.protocol_rate_numeric(_CH, 10.0, basis=x), None),
    "holevo_mu": (lambda x: gk.protocol_holevo_information(_CH, x), None),
    "convergence_mu_values": (lambda x: gk.convergence_table(_CH, x), None),
    "convergence_engine": (lambda x: gk.convergence_table(_CH, [10.0], engine=x), None),
    "convergence_port_model": (lambda x: gk.convergence_table(_CH, [10.0], "protocol", x), None),
    "sim_tau": (lambda x: _sim(tau=x), "tau"),
    "sim_nbar": (lambda x: _sim(nbar=x), "nbar"),
    "sim_mu": (lambda x: _sim(mu=x), "mu"),
    "sim_rounds": (lambda x: _sim(rounds=x), "rounds"),
    "sim_seed": (lambda x: _sim(seed=x), "seed"),
    "sim_mode": (lambda x: _sim(mode=x), "mode"),
    "moments_tau": (lambda x: gk.analytic_moments(x, 0.1, 5.0), "tau"),
    "moments_nbar": (lambda x: gk.analytic_moments(0.5, x, 5.0), "nbar"),
    "moments_mu": (lambda x: gk.analytic_moments(0.5, 0.1, x), None),
    "moments_basis": (lambda x: gk.analytic_moments(0.5, 0.1, 5.0, x), None),
    "kept_rounds": (lambda x: gk.moment_standard_errors(np.eye(2), x), None),
}
_WRONG_TYPES = {
    "none": None, "str": "x", "list": [0.5], "dict": {}, "complex": 1 + 2j,
    "array": np.array([0.5, 0.6]), "numpy_complex": np.complex128(1 + 2j),
    "one_element_array": np.array([0.5]),
}


@pytest.mark.parametrize("value", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
@pytest.mark.parametrize("slot", _SLOTS)
def test_wrong_typed_arguments_are_refused_with_their_field(slot, value):
    call, field = _SLOTS[slot]
    if value is None and slot in ("make_canonical_nbar", "make_canonical_eps"):
        field = "nbar/eps"  # None means "not given": the other noise argument is missing too
    with pytest.raises(GaussKeyError) as info:
        call(value)
    assert info.value.field == field


@pytest.mark.parametrize(
    "call, field",
    [
        # memory mode once reported sift_ratio 0.995 for rounds=100.5
        (lambda: _sim(rounds=100.5), "rounds"),
        (lambda: _sim(rounds=math.nan), "rounds"),
        (lambda: _sim(rounds=math.inf), "rounds"),
        # a fractional seed was keyed as its integer part
        (lambda: _sim(seed=1.7), "seed"),
        (lambda: _sim(seed=math.nan), "seed"),
        (lambda: _sim(seed=math.inf), "seed"),
        # steps=2.5 gave 2 rows
        (lambda: gk.sweep(0.2, 0.8, 2.5), "steps"),
        (lambda: gk.sweep(0.2, 0.8, math.nan), "steps"),
        (lambda: gk.sweep(0.2, 0.8, math.inf), "steps"),
    ],
    ids=[
        "rounds_fraction", "rounds_nan", "rounds_inf", "seed_fraction", "seed_nan", "seed_inf",
        "steps_fraction", "steps_nan", "steps_inf",
    ],
)
def test_counts_must_be_finite_whole_numbers(call, field):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.field == field


_HUGE = 10**5000  # past Python's int-to-str digit limit: str() of it raises


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: gk.CanonicalChannel(_HUGE, 0.1), "tau"),
        (lambda: gk.CanonicalChannel(0.5, _HUGE), "nbar"),
        (lambda: gk.CanonicalChannel(0.5, -_HUGE), "nbar"),
        (lambda: gk.sweep(0.2, 0.8, _HUGE), "steps"),
        (lambda: gk.sweep(0.2, 0.8, 3, tol=_HUGE), "tol"),
        (lambda: gk.threshold_eps("e_r", 0.5, tol=_HUGE), "tol"),
        (lambda: _sim(rounds=_HUGE), "rounds"),
        (lambda: _sim(seed=_HUGE), "seed"),
        (lambda: _sim(mode=_HUGE), "mode"),
        (lambda: gk.vacuum(_HUGE), "n_modes"),
        (lambda: gk.symplectic_form(_HUGE), "n_modes"),
        (lambda: gk.partial_trace(gk.vacuum(2), [_HUGE]), "keep"),
        (lambda: gk.vacuum(2).mode_block(0, _HUGE), "j"),
        (lambda: gk.vacuum(2).mode_block(_HUGE, 0), "i"),
        (lambda: gk.apply_symplectic(gk.vacuum(2), gk.beam_splitter(0.5), (0, _HUGE)), "modes"),
        (lambda: gk.homodyne_condition(gk.vacuum(2), _HUGE, "q"), "measured_mode"),
        (lambda: gk.apply_channel(gk.vacuum(2), _CH, mode=_HUGE), "mode"),
        (lambda: gk.apply_dilation(gk.vacuum(1), gk.dilate(_CH), mode=_HUGE), "mode"),
        (lambda: gk.homodyne_condition(gk.vacuum(2), 0, _HUGE), None),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=0.1), _HUGE), None),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=0.1), 10.0, _HUGE), None),
        (lambda: gk.moment_standard_errors(np.eye(2), -_HUGE), None),
    ],
    ids=[
        "tau", "nbar", "nbar_negative", "steps", "sweep_tol", "threshold_tol", "rounds", "seed",
        "mode", "vacuum", "form", "mode_list", "mode_block", "mode_block_i", "symplectic_modes",
        "measured_mode", "channel_mode", "dilation_mode", "quadrature", "mu", "port_model",
        "kept_rounds",
    ],
)
def test_integers_too_long_to_print_are_refused_with_their_field(call, field):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.field == field
    assert "integer" in str(info.value)


@pytest.mark.parametrize("build", [gk.symplectic_form, gk.vacuum], ids=["form", "vacuum"])
@pytest.mark.parametrize(
    "n_modes",
    [1.5, math.nan, math.inf, "2", 0, -1, None],
    ids=["fraction", "nan", "inf", "string", "zero", "negative", "none"],
)
def test_mode_counts_must_be_whole_numbers(build, n_modes):
    with pytest.raises(DomainError) as info:
        build(n_modes)
    assert info.value.field == "n_modes"


def test_whole_float_mode_counts_stay_accepted():
    assert np.array_equal(gk.symplectic_form(2.0), gk.symplectic_form(2))
    assert gk.vacuum(2.0).n_modes == 2


def test_whole_float_counts_stay_accepted():
    assert gk.simulate(_sim(rounds=1e3, seed=7.0)).sift_ratio == 1.0
    assert _sim(seed=2**64 - 1).seed == 2**64 - 1
    assert len(gk.sweep(0.2, 0.8, 3.0).rows) == 3


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: gk.CovMat(np.diag([0.5, 0.5])), InvalidStateError),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=0.0), 0.5), DomainError),
        (lambda: gk.dilate(gk.make_canonical(-0.5, nbar=0.0)), UnsupportedChannelError),
        (lambda: gk.simulate(_sim(rounds=1)), EmptyStatisticsError),
    ],
)
def test_engine_internal_errors_carry_no_field(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.value.field is None


@pytest.mark.parametrize(
    "tau, nbar",
    [(np.float32(0.5), 0.1), (np.float64(0.5), np.float32(0.1)), (np.int64(0), 0), (2, True)],
    ids=["float32-tau", "float32-nbar", "numpy-int", "int-and-bool"],
)
def test_channel_fields_are_stored_as_python_floats(tau, nbar):
    # a float32 field once overflowed casting float max to float32, with a RuntimeWarning
    ch = gk.CanonicalChannel(tau, nbar)
    assert type(ch.tau) is float and type(ch.nbar) is float
    assert (ch.tau, ch.nbar) == (float(tau), float(nbar))
    assert ch == gk.CanonicalChannel(float(tau), float(nbar))
    assert gk.rate_report(ch) == gk.rate_report(gk.CanonicalChannel(float(tau), float(nbar)))


def test_largest_finite_temperature_stays_valid():
    ch = gk.make_canonical(0.5, nbar=8.9e307)
    assert math.isfinite(ch.w) and math.isfinite(ch.eps)
    assert gk.make_canonical(0.0, nbar=8.9e307).eps == 2.0 * 8.9e307


def test_field_survives_pickling():
    exc = DomainError("temperature nbar must be finite and >= 0", field="nbar")
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, GaussKeyError)
    assert (back.args, back.field) == (exc.args, "nbar")
