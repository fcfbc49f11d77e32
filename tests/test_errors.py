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
    ],
)
def test_argument_checks_name_their_field(call, error, field):
    with pytest.raises(error) as info:
        call()
    assert info.value.field == field
    assert len(info.value.args) == 1


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: gk.CovMat(np.diag([0.5, 0.5])), InvalidStateError),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(0.5, nbar=0.0), 1.0), DomainError),
        (lambda: gk.protocol_rate_numeric(gk.make_canonical(-0.5, nbar=0.0), 10.0),
         UnsupportedChannelError),
        (lambda: gk.simulate(_sim(rounds=1)), EmptyStatisticsError),
    ],
)
def test_engine_internal_errors_carry_no_field(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.value.field is None


def test_largest_finite_temperature_stays_valid():
    ch = gk.make_canonical(0.5, nbar=8.9e307)
    assert math.isfinite(ch.w) and math.isfinite(ch.eps)
    assert gk.make_canonical(0.0, nbar=8.9e307).eps == 2.0 * 8.9e307


def test_field_survives_pickling():
    exc = DomainError("temperature nbar must be finite and >= 0", field="nbar")
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, GaussKeyError)
    assert (back.args, back.field) == (exc.args, "nbar")
