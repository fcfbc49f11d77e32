"""Security-threshold solver: pinned roots, root-quality properties, sweep
grids, CSV schema, region classification."""

import math
import sys
import warnings

import numpy as np
import pytest

import gausskey.thresholds
from gausskey import (
    RATE_IDS,
    DomainError,
    NumericError,
    ThresholdCurve,
    ThresholdRow,
    UnsupportedChannelError,
    classify,
    curve_to_csv,
    e_r_interior,
    entropy_g,
    make_canonical,
    q1g_interior,
    r_rev_interior,
    sweep,
    threshold_eps,
)

# mpmath, 50 digits: noise thresholds at tau = 1/2 for the reverse bound and
# the homodyne-protocol bound.
EPS_STAR_E_R_05 = 0.29381537334041549
EPS_STAR_REV_05 = 0.33384110858971122

_INTERIORS = {"e_r": e_r_interior, "q1g": q1g_interior, "r_rev": r_rev_interior}


def test_threshold_zero_when_rate_never_positive():
    assert threshold_eps("q1g", 0.5) == 0.0
    assert threshold_eps("e_r", 2.0) == 0.0


def test_reverse_threshold_at_half_transmission():
    eps = threshold_eps("e_r", 0.5)
    assert abs(eps - EPS_STAR_E_R_05) <= 1e-9
    # At tau = 1/2 the root condition collapses to g(eps) = 1.
    assert abs(entropy_g(eps) - 1.0) <= 1e-8


def test_forward_threshold_closed_form_point():
    # At tau = 0.8 the forward interior is 2 - g(2.5 eps), and g(1) = 2
    # exactly, so the threshold is 0.4.
    assert abs(threshold_eps("q1g", 0.8) - 0.4) <= 1e-9


def test_reverse_threshold_symmetric_about_unit_transmission():
    assert abs(threshold_eps("e_r", 1.5) - threshold_eps("e_r", 0.5)) <= 1e-9


def test_protocol_threshold_at_half_transmission():
    assert abs(threshold_eps("r_rev", 0.5) - EPS_STAR_REV_05) <= 1e-9


@pytest.mark.parametrize("tau", [0.3, 0.6, 1.5])
@pytest.mark.parametrize("rate_id", ["e_r", "q1g", "r_rev"])
def test_positive_thresholds_are_genuine_roots(rate_id, tau):
    tol = 1e-9
    expected_positive = {
        ("e_r", 0.3): True,
        ("q1g", 0.3): False,
        ("r_rev", 0.3): True,
        ("e_r", 0.6): True,
        ("q1g", 0.6): True,
        ("r_rev", 0.6): True,
        ("e_r", 1.5): True,
        ("q1g", 1.5): True,
        ("r_rev", 1.5): True,
    }[(rate_id, tau)]
    eps_star = threshold_eps(rate_id, tau, tol=tol)
    assert (eps_star > 0.0) == expected_positive
    if eps_star > 0.0:
        interior = _INTERIORS[rate_id]
        assert abs(interior(make_canonical(tau, eps=eps_star))) <= tol
        assert interior(make_canonical(tau, eps=eps_star - 10 * tol)) > 0.0


@pytest.mark.parametrize("tau", [1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-15])
@pytest.mark.parametrize("rate_id", ["e_r", "q1g", "r_rev"])
def test_thresholds_converge_next_to_unit_transmission(rate_id, tau):
    # Here nbar = eps / (2 |1 - tau|) is about 4e11 to 4e14: each interior is
    # a difference of two terms near 40 to 50 bits, known to about 1e-14, and
    # the false-position search must still meet its tolerance on it.
    tol = 1e-9
    eps_star = threshold_eps(rate_id, tau, tol=tol)
    assert eps_star > 0.0
    assert abs(_INTERIORS[rate_id](make_canonical(tau, eps=eps_star))) <= tol


@pytest.mark.parametrize("tau", [0.3, 0.6, 0.9, 1.5, 1.0 - 1e-12, 1.0 + 1e-12])
@pytest.mark.parametrize("rate_id", ["e_r", "q1g", "r_rev"])
def test_threshold_search_evaluation_budget(monkeypatch, rate_id, tau):
    # Anderson-Bjorck false position needs 9 or 10 interior evaluations per
    # positive threshold here and 9 to 11 next to tau = 1, bracketing
    # included, and reuses every value it has.
    seen = []
    interior = gausskey.thresholds._INTERIORS[rate_id]

    def counted(ch):
        seen.append(ch.eps)
        return interior(ch)

    monkeypatch.setitem(gausskey.thresholds._INTERIORS, rate_id, counted)
    threshold_eps(rate_id, tau)
    assert len(seen) <= 16
    assert len(set(seen)) == len(seen), "an eps was evaluated twice"


def test_threshold_search_budget_on_the_bench_lattice(monkeypatch):
    # tau = k/500 over [-1.2, 3], as in the threshold_curves benchmark.  The
    # Anderson-Bjorck weights give a mean of 9.97 and a maximum of 11 here;
    # the Illinois halving they replaced gave 11.27 and 13.
    counts = []
    for rate_id in RATE_IDS:
        interior = gausskey.thresholds._INTERIORS[rate_id]
        seen = []

        def counted(ch, interior=interior, seen=seen):
            seen.append(ch.eps)
            return interior(ch)

        monkeypatch.setitem(gausskey.thresholds._INTERIORS, rate_id, counted)
        for k in range(-600, 1501):
            tau = k / 500
            if abs(1.0 - tau) < 0.01:
                continue
            seen.clear()
            if threshold_eps(rate_id, tau, tol=1e-9) > 0.0:
                counts.append(len(seen))
    assert len(counts) > 3000
    assert max(counts) <= 11
    assert sum(counts) / len(counts) <= 10.2


def _count_interior_calls(monkeypatch) -> list:
    """Record the eps of every interior evaluation the threshold searches make."""
    seen = []
    for rate_id in RATE_IDS:
        interior = gausskey.thresholds._INTERIORS[rate_id]

        def counted(ch, interior=interior):
            seen.append(ch.eps)
            return interior(ch)

        monkeypatch.setitem(gausskey.thresholds._INTERIORS, rate_id, counted)
    return seen


def test_interiors_are_not_positive_at_unit_eps():
    # The search brackets every threshold by [0, 1] without doubling, so each
    # interior must be <= 0 at eps = 1: over |tau| from 1e-15 to 1e308 and
    # 1 - tau from +-1e-16 to +-1.  For e_r it is at most -log2(e/2) at any tau.
    mags = np.geomspace(1e-15, 1e308, 4000).tolist()
    near = np.geomspace(1e-16, 1.0, 3000).tolist()
    taus = [s * m for m in mags for s in (1, -1)] + [1 + s * d for d in near for s in (1, -1)]
    assert len(taus) == 14_000
    at_one = [t for t in taus if t == 1.0]
    assert 0 < len(at_one) < 20
    for tau in at_one:
        with pytest.raises(UnsupportedChannelError):
            make_canonical(tau, eps=1.0)
    e_r_bound = -math.log2(math.e / 2)
    for tau in taus:
        if tau == 1.0:
            continue
        ch = make_canonical(tau, eps=1.0)
        assert e_r_interior(ch) <= e_r_bound + 1e-12, tau
        assert q1g_interior(ch) <= 0.0, tau
        assert r_rev_interior(ch) <= 0.0, tau


def test_a_positive_interior_at_unit_eps_is_refused(monkeypatch):
    monkeypatch.setitem(gausskey.thresholds._INTERIORS, "e_r", lambda ch: 1.0 - ch.eps / 2)
    with pytest.raises(NumericError, match="positive at eps = 1"):
        threshold_eps("e_r", 0.5)


@pytest.mark.parametrize("tau", [0.3, 0.6, 1.5])
@pytest.mark.parametrize("rate_id", RATE_IDS)
def test_seeded_search_falls_back_to_the_cold_bracket(monkeypatch, rate_id, tau):
    # A seed that straddles the root is searched alone; one below or above it
    # narrows [0, 1] to [hi, 1] or [0, lo] with the value already computed.
    impl = gausskey.thresholds._threshold_impl
    tol = 1e-9
    cold = threshold_eps(rate_id, tau, tol=tol)
    seen = _count_interior_calls(monkeypatch)
    if cold == 0.0:
        assert impl(rate_id, tau, tol, (0.1, 0.2)) == 0.0
        assert seen == [0.1, 0.0]
        return
    impl(rate_id, tau, tol)
    cold_calls = len(seen)
    for seed in [
        (cold - 1e-3, cold + 1e-3),
        (cold / 4, cold / 2),
        (cold + (1 - cold) / 4, cold + (1 - cold) / 2),
    ]:
        seen.clear()
        eps = impl(rate_id, tau, tol, seed)
        assert abs(eps - cold) <= tol
        assert len(set(seen)) == len(seen), "an eps was evaluated twice"
        assert (seed[1] in seen) == (seed[0] < cold), seed
        assert (0.0 in seen) == (seed[0] > cold), seed
        assert (1.0 in seen) == (seed[1] < cold), seed
        if seed[0] < cold < seed[1]:
            assert len(seen) < cold_calls


@pytest.mark.parametrize(
    "tau_min, tau_max, steps, tol",
    [
        (-1.2, 3.0, 2101, 1e-9),  # tau = k/500: zero thresholds below 0 and above 2
        (-3.0, 3.0, 21, 1e-9),  # k/500 lattice with spacing m = 150; crosses 1 between points
        (0.0, 1.598, 800, 1e-9),  # spacing m = 1; skips the point at tau = 1
        (0.5, 1.5, 101, 1e-9),
        (0.9, 1.1, 20, 1e-9),
        (0.2, 0.8, 50, 1e-3),
        (0.2, 0.8, 50, 1e-12),
        (0.6, 0.6, 5, 1e-9),  # one tau repeated: the secant predicts no change
        (0.3, 0.6, 2, 1e-9),
        (0.5, 0.5, 1, 1e-9),
    ],
)
def test_sweep_rows_match_threshold_eps(tau_min, tau_max, steps, tol):
    curve = sweep(tau_min, tau_max, steps, tol=tol)
    for row in curve.rows:
        for rate_id, eps in zip(("q1g", "e_r", "r_rev"), row[1:]):
            cold = threshold_eps(rate_id, row.tau, tol=tol)
            assert (eps > 0.0) == (cold > 0.0), (rate_id, row.tau)
            assert abs(eps - cold) <= tol, (rate_id, row.tau)
            if eps > 0.0:
                assert abs(_INTERIORS[rate_id](make_canonical(row.tau, eps=eps))) <= tol


def test_sweep_continuation_budget_on_the_bench_lattice(monkeypatch):
    # tau = k/500 over [-1.2, 3].  Seeding each row from the previous two roots
    # of the same rate gives 10.3 interior evaluations per row (three rates);
    # solving every row from [0, 1], as threshold_eps does, takes 16.9.
    seen = _count_interior_calls(monkeypatch)
    curve = sweep(-1.2, 3.0, 2101)
    assert len(curve.rows) == 2100
    assert len(seen) / len(curve.rows) <= 10.6


def test_thresholds_land_well_inside_the_tolerance():
    # The search ends with a secant step across a bracket narrower than tol,
    # so roots sit about 1e-15 from the exact ones, not merely within tol.
    assert abs(threshold_eps("e_r", 0.5) - EPS_STAR_E_R_05) <= 1e-13
    assert abs(threshold_eps("r_rev", 0.5) - EPS_STAR_REV_05) <= 1e-13
    assert abs(threshold_eps("q1g", 0.8) - 0.4) <= 1e-13


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-12])
@pytest.mark.parametrize("tau", [0.6, 1.5])
@pytest.mark.parametrize("rate_id", ["e_r", "q1g", "r_rev"])
def test_tolerance_contract_holds_at_every_scale(rate_id, tau, tol):
    eps_star = threshold_eps(rate_id, tau, tol=tol)
    interior = _INTERIORS[rate_id]
    assert abs(interior(make_canonical(tau, eps=eps_star))) <= tol
    assert interior(make_canonical(tau, eps=eps_star - tol)) > 0.0


def test_r_rev_interior_non_increasing_in_eps():
    # Certifies the single-sign-change assumption that the threshold search
    # makes for r_rev (e_r and q1g are monotone through g alone).
    eps_grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 200)))
    for k in range(-300, 301):
        if k == 100:
            continue
        tau = k / 100
        vals = [r_rev_interior(make_canonical(tau, eps=float(e))) for e in eps_grid]
        rises = [i for i in range(len(vals) - 1) if vals[i + 1] > vals[i]]
        assert not rises, (tau, [float(eps_grid[i + 1]) for i in rises])


def test_threshold_argument_validation():
    with pytest.raises(DomainError, match="unknown rate id"):
        threshold_eps("holevo", 0.5)
    for rate_id in (["e_r"], {}, None):
        with pytest.raises(DomainError, match="unknown rate id") as exc:
            threshold_eps(rate_id, 0.5)
        assert exc.value.field == "rate_id"
    with pytest.raises(DomainError, match="tolerance"):
        threshold_eps("e_r", 0.5, tol=0.0)


def test_sweep_rows_and_metadata():
    curve = sweep(-0.5, 0.5, 3, tol=1e-9)
    assert isinstance(curve, ThresholdCurve)
    assert curve.tolerance == 1e-9
    taus = [row.tau for row in curve.rows]
    assert taus == [-0.5, 0.0, 0.5]
    # No reverse or forward strategy survives tau <= 0; at tau = 1/2 the
    # reverse bound tolerates real noise while the forward one never starts.
    for row in curve.rows[:2]:
        assert row == ThresholdRow(tau=row.tau, eps_q=0.0, eps_r=0.0, eps_rev=0.0)
    half = curve.rows[2]
    assert half.eps_q == 0.0
    assert half.eps_r > 0.0
    assert half.eps_rev > half.eps_r


def test_sweep_skips_unit_transmission():
    curve = sweep(0.5, 1.5, 3)
    assert [row.tau for row in curve.rows] == [0.5, 1.5]


def test_sweep_rejects_bad_grids():
    with pytest.raises(DomainError, match="steps"):
        sweep(0.2, 0.8, 0)
    with pytest.raises(DomainError, match="tau_max >= tau_min"):
        sweep(0.8, 0.2, 5)
    with pytest.raises(DomainError, match="grid is empty"):
        sweep(0.9999995, 1.0000005, 3)


def test_sweep_rejects_an_overflowing_span():
    # Both ends are finite but tau_max - tau_min is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="tau_max >= tau_min") as exc:
            sweep(-1e308, 1e308, 3)
    assert exc.value.field == "tau_min/tau_max"


def _hexes(values):
    return [float(v).hex() for v in values]


def _grid_cases(rng, per_family=4000):
    """Seeded (a, b, n) triples over every branch of ``numpy.linspace``."""
    tiny, big = 5e-324, sys.float_info.max
    for _ in range(per_family):
        n = int(rng.integers(1, 60)) if rng.random() < 0.95 else int(rng.integers(60, 2000))
        x, y = (float(v) for v in rng.uniform(-1e3, 1e3, 2))
        yield x, y, n  # mixed signs, either order
        yield -abs(x), -abs(y), n  # negative range
        yield x, x, n  # a == b
        k, j = (int(v) for v in rng.integers(-50, 50, 2))
        yield k * tiny, (k + abs(j)) * tiny, n  # subnormal span: step underflows
        centre, half = float(rng.uniform(-0.5, 0.5)) * big, float(rng.uniform(0.25, 0.5)) * big
        yield centre - half, centre + half, n  # span just below overflow


def test_grid_matches_numpy_linspace_bit_for_bit():
    grid = gausskey.thresholds._grid
    rng = np.random.default_rng(20261018)
    cases = [*_grid_cases(rng), (0.0, 0.0, 1), (-0.0, -0.0, 1), (-0.0, -0.0, 3), (-0.0, 1.0, 1)]
    assert len(cases) >= 20_000
    zero_steps = 0
    for a, b, n in cases:
        assert _hexes(grid(a, b, n)) == _hexes(np.linspace(a, b, n)), (a, b, n)
        zero_steps += n > 1 and a != b and (b - a) / (n - 1) == 0.0
    assert zero_steps > 100  # numpy's subnormal branch was exercised


def test_sweep_grid_on_the_bench_lattice_is_numpy_linspace():
    # The threshold_curves benchmark sweeps a/500 .. (a + (steps - 1) m)/500.
    grid = gausskey.thresholds._grid
    rng = np.random.default_rng(500)
    for _ in range(2000):
        steps = int(round(20 * 40 ** rng.random()))
        m = int(rng.integers(1, 3000 // (steps - 1) + 1))
        a = int(rng.integers(-1500, 1500 - (steps - 1) * m + 1))
        lo, hi = a / 500, (a + (steps - 1) * m) / 500
        assert _hexes(grid(lo, hi, steps)) == _hexes(np.linspace(lo, hi, steps)), (a, m, steps)
    for lo, hi, steps in [(-1.2, 1.0, 12), (0.1, 1.9, 25), (0.996, 1.004, 5)]:
        taus = [t for t in np.linspace(lo, hi, steps).tolist() if abs(t - 1.0) >= 1e-6]
        assert _hexes(row.tau for row in sweep(lo, hi, steps).rows) == _hexes(taus)


def test_threshold_order_below_unit_transmission():
    curve = sweep(0.55, 0.95, 9)
    for row in curve.rows:
        assert row.eps_r >= row.eps_q - 1e-9
        assert row.eps_rev > row.eps_r


def test_protocol_threshold_dominates_reverse_everywhere():
    curve = sweep(0.1, 1.9, 25)
    for row in curve.rows:
        assert row.eps_rev > row.eps_r > 0.0


def test_curves_have_no_spikes():
    # Adjacent-row increments on a smooth segment should all be of comparable
    # size; a bracketing or fallback bug shows up as one huge jump.
    curve = sweep(0.2, 0.8, 50)
    for field in ("eps_r", "eps_rev"):
        vals = np.array([getattr(row, field) for row in curve.rows])
        diffs = np.abs(np.diff(vals))
        assert diffs.max() <= 20.0 * np.median(diffs) + 1e-9


def test_csv_schema():
    text = curve_to_csv(sweep(0.4, 0.6, 3))
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "tau,eps_q,eps_r,eps_rev"
    assert len(lines) == 4
    row = sweep(0.4, 0.6, 3).rows[0]
    assert lines[1] == ",".join(f"{v:.12g}" for v in row)
    for line in lines[1:]:
        assert len(line.split(",")) == 4


def test_classify_reverse_beats_antidegradability():
    label = classify(0.4, 0.05)
    assert label.antidegradable
    assert label.e_r_positive
    assert label.r_rev_positive
    assert label.reverse_beats_antidegradability


def test_classify_protocol_only_window():
    # Between the reverse and protocol thresholds only the homodyne-protocol
    # bound stays positive.
    eps_mid = 0.2365
    assert threshold_eps("e_r", 0.4) < eps_mid < threshold_eps("r_rev", 0.4)
    label = classify(0.4, eps_mid)
    assert label.antidegradable
    assert not label.e_r_positive
    assert label.r_rev_positive
    assert label.reverse_beats_antidegradability


def test_classify_forward_only_amplifier():
    label = classify(3.0, 0.0)
    assert not label.antidegradable
    assert not label.e_r_positive
    assert label.q1g_positive
    assert not label.reverse_beats_antidegradability


def test_classify_consistent_with_threshold():
    eps_star = threshold_eps("e_r", 0.7)
    assert classify(0.7, eps_star - 1e-3).e_r_positive
    assert not classify(0.7, eps_star + 1e-3).e_r_positive
    # Every row sits where classify flips, for all three rates: positive just
    # below a positive threshold, and nowhere at or above it.
    curve = sweep(-3.0, 3.0, 3001)
    tol = curve.tolerance
    flags = (("eps_q", "q1g_positive"), ("eps_r", "e_r_positive"), ("eps_rev", "r_rev_positive"))
    for row in curve.rows:
        for column, flag in flags:
            eps_star = getattr(row, column)
            if eps_star == 0.0:
                assert not getattr(classify(row.tau, 0.0), flag), (row.tau, flag)
            else:
                assert getattr(classify(row.tau, eps_star - tol), flag), (row.tau, flag)
                assert not getattr(classify(row.tau, eps_star + tol), flag), (row.tau, flag)
