"""Closed-form rate bounds and the RateReport aggregate."""

import math

import numpy as np
import pytest

import gausskey as gk
from gausskey.rates import e_r_interior, q1g_interior, r_rev_interior

# independent high-precision evaluations (mpmath, 50 digits)
E_R_09_01 = 2.8384814092736977139
Q1G_09_01 = 2.686478315828647729
R_REV_05_025 = 0.077937357430282119618
Q1G_3_0 = 0.58496250072115618145
LAMBDA_09_01 = 1.1607142857142857143


def ch(tau, nbar):
    return gk.make_canonical(tau, nbar=nbar)


def test_e_r_anchors():
    assert gk.e_r(ch(0.5, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert gk.e_r(ch(0.9, 0.1)) == pytest.approx(E_R_09_01, abs=1e-12)
    for nbar in (0.0, 0.3, 2.0):
        assert gk.e_r(ch(2.0, nbar)) == 0.0
    assert gk.e_r(ch(3.0, 0.0)) == 0.0


def test_q1g_anchors():
    for nbar in (0.0, 0.1, 1.0):
        assert gk.q1g(ch(0.5, nbar)) == 0.0
    assert gk.q1g(ch(-0.7, 0.0)) == 0.0
    assert gk.q1g(ch(0.9, 0.1)) == pytest.approx(Q1G_09_01, abs=1e-12)
    assert gk.q1g(ch(3.0, 0.0)) == pytest.approx(Q1G_3_0, abs=1e-12)


def test_q1g_tau_zero_convention():
    assert gk.q1g(ch(0.0, 0.5)) == 0.0
    assert q1g_interior(ch(0.0, 0.5)) == -math.inf


def test_r_rev_anchors():
    assert gk.r_rev(ch(0.5, 0.25)) == pytest.approx(R_REV_05_025, abs=1e-12)
    assert gk.r_rev(ch(2.0, 0.0)) == 0.0
    assert gk.r_rev(ch(-1.0, 0.0)) == 0.0


@pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 1.2, 1.5, 1.9])
def test_r_rev_noiseless_is_half_e_r_exactly(tau):
    # at w = 1, lambda = 1 and the split logs make the halving exact in floats
    c = ch(tau, 0.0)
    assert gk.r_rev(c) == 0.5 * gk.e_r(c)
    assert gk.r_rev(c) == pytest.approx(0.5 * math.log2(1.0 / abs(1.0 - tau)), abs=1e-12)


def test_mixing_lambda():
    assert gk.mixing_lambda(ch(0.9, 0.1)) == pytest.approx(LAMBDA_09_01, abs=1e-15)
    assert gk.mixing_lambda(ch(0.3, 0.0)) == 1.0


def test_rate_report_bundles():
    rep = gk.rate_report(ch(0.5, 0.0))
    assert (rep.e_r, rep.q1g, rep.r_rev) == (1.0, 0.0, 0.5)
    assert rep.w == 1.0 and rep.lam == 1.0 and rep.eps == 0.0
    rep = gk.rate_report(ch(3.0, 0.0))
    assert rep.q1g > 0.0 and rep.e_r == 0.0 and rep.r_rev == 0.0
    rep = gk.rate_report(ch(-1.0, 0.0))
    assert rep.e_r == rep.q1g == rep.r_rev == 0.0


def test_rate_report_as_dict_uses_lambda_key():
    d = gk.rate_report(ch(0.9, 0.1)).as_dict()
    assert set(d) == {"tau", "nbar", "eps", "e_r", "q1g", "r_rev", "lambda", "w"}
    assert d["lambda"] == pytest.approx(LAMBDA_09_01)
    assert d["e_r"] == pytest.approx(E_R_09_01, abs=1e-12)



def test_rate_report_as_dict_key_order():
    d = gk.rate_report(ch(0.9, 0.1)).as_dict()
    assert list(d) == ["tau", "nbar", "eps", "e_r", "q1g", "r_rev", "lambda", "w"]

def test_rates_nonnegative_and_clipping():
    rng = np.random.default_rng(29)
    for _ in range(200):
        tau = float(rng.uniform(-2.0, 3.0))
        if abs(tau - 1.0) < 1e-3:
            continue
        c = ch(tau, float(rng.uniform(0.0, 2.0)))
        for rate in (gk.e_r, gk.q1g, gk.r_rev):
            assert rate(c) >= 0.0


def test_interiors_monotone_in_nbar():
    # e_r and q1g drop as -g(nbar); r_rev is measured, not assumed (see below)
    nbars = np.linspace(0.0, 2.0, 100)
    for tau in (0.2, 0.5, 0.8, 1.3, 1.9, -0.5):
        if tau == 0.0:
            continue
        e_vals = [e_r_interior(ch(tau, float(nb))) for nb in nbars]
        q_vals = [q1g_interior(ch(tau, float(nb))) for nb in nbars]
        assert all(b <= a for a, b in zip(e_vals, e_vals[1:]))
        assert all(b <= a for a, b in zip(q_vals, q_vals[1:]))


def test_r_rev_interior_monotone_in_nbar_measured():
    # not provable from the closed form alone; verified numerically and flagged
    taus = np.linspace(0.02, 1.98, 100)
    nbars = np.linspace(0.0, 2.0, 100)
    violations = 0
    for tau in taus:
        if abs(tau - 1.0) < 1e-6:
            continue
        vals = [r_rev_interior(ch(float(tau), float(nb))) for nb in nbars]
        violations += sum(b > a + 1e-12 for a, b in zip(vals, vals[1:]))
    print(f"[flag] r_rev interior monotonicity in nbar: {violations} violations on 10^4-point grid")
    assert violations == 0


def test_e_r_dominates_q1g_inside_unit_interval():
    for tau in (0.2, 0.5, 0.8, -0.3, -0.9):
        for nbar in (0.0, 0.4):
            assert e_r_interior(ch(tau, nbar)) >= q1g_interior(ch(tau, nbar))
    for tau in (1.3, 2.5, -1.5):
        for nbar in (0.0, 0.4):
            assert e_r_interior(ch(tau, nbar)) <= q1g_interior(ch(tau, nbar))


def test_e_r_positivity_boundary():
    for tau in (0.3, 0.7, 1.4):
        d = abs(1.0 - tau)
        edge = math.log2(1.0 / d)
        below = ch(tau, 0.0)
        assert (gk.e_r(below) > 0.0) == (gk.entropy_g(0.0) < edge)
        # a channel just past the boundary noise gives zero
        nbar_hi = 5.0
        assert gk.entropy_g(nbar_hi) > edge
        assert gk.e_r(ch(tau, nbar_hi)) == 0.0
