"""Monte Carlo of the reverse homodyne protocol: analytic moments against the
full state pipeline, determinism, statistics quality, CSV export."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import gausskey.sim as sim_module
from gausskey import (
    DomainError,
    EmptyStatisticsError,
    NumericError,
    SimConfig,
    SimStats,
    UnsupportedChannelError,
    analytic_moments,
    apply_channel,
    apply_symplectic,
    beam_splitter,
    gaussian_mutual_information,
    make_canonical,
    moment_standard_errors,
    protocol_rate_numeric,
    rounds_to_csv,
    simulate,
    tensor,
    tmsv,
    vacuum,
)
from gausskey.cli import cli
from gausskey.sim import RNG_DESCRIPTION

# (1/2) log2(5 / (5 - 6/2)) to 50 digits, rounded to float.
MI_05_0_5 = 0.66096404744368117


def test_analytic_moments_pure_loss_point():
    cov = analytic_moments(0.5, 0.0, 5.0)
    assert cov[0, 0] == 5.0
    assert abs(cov[1, 1] - 2.0) <= 1e-15
    assert abs(cov[0, 1] - math.sqrt(6.0)) <= 1e-15
    assert cov[0, 1] == cov[1, 0]
    assert abs(gaussian_mutual_information(cov) - MI_05_0_5) <= 1e-12


def test_analytic_moments_vacuum_source_uncorrelated():
    cov = analytic_moments(0.5, 0.1, 1.0)
    assert cov[0, 1] == 0.0
    assert cov[0, 0] == 1.0


@pytest.mark.parametrize("tau,nbar", [(0.5, 0.0), (0.5, 0.2), (1.5, 0.1), (-0.5, 0.0), (-0.8, 0.3)])
def test_analytic_moments_match_state_pipeline(tau, nbar):
    # Assemble the measured moments the long way: source arm through the
    # channel, output mixed with vacuum on a balanced beam splitter, read the
    # (mode 0, kept port) block.  Phase conjugation (tau < 0) swaps which
    # basis carries the sign flip, which is why the analytic form uses |tau|.
    mu = 7.0
    ch = make_canonical(tau, nbar=nbar)
    state = apply_channel(tmsv(mu), ch, mode=1)
    mixed = apply_symplectic(tensor(state, vacuum(1)), beam_splitter(0.5), (1, 2))
    v = mixed.entries
    for basis, row in (("q", 0), ("p", 1)):
        want = analytic_moments(tau, nbar, mu, basis=basis)
        got = np.array(
            [
                [v[row, row], v[row, 2 + row]],
                [v[2 + row, row], v[2 + row, 2 + row]],
            ]
        )
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)


def test_analytic_moments_validation():
    with pytest.raises(DomainError, match="mu must be >= 1"):
        analytic_moments(0.5, 0.0, 0.9)
    with pytest.raises(DomainError, match="basis"):
        analytic_moments(0.5, 0.0, 5.0, basis="x")
    with pytest.raises(UnsupportedChannelError):
        analytic_moments(1.0, 0.1, 5.0)


def test_mutual_information_rejects_degenerate_moments():
    with pytest.raises(DomainError, match="covariance"):
        gaussian_mutual_information(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DomainError, match="covariance"):
        gaussian_mutual_information(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_simulate_is_deterministic_in_config():
    cfg = SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=2000, seed=123, mode="sifted")
    first = simulate(cfg)
    second = simulate(cfg)
    assert first.kept_rounds == second.kept_rounds
    assert np.array_equal(first.empirical_cov, second.empirical_cov)
    assert first.mi_empirical == second.mi_empirical
    other = simulate(SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=2000, seed=124, mode="sifted"))
    assert not np.array_equal(first.empirical_cov, other.empirical_cov)
    assert np.array_equal(first.analytic_cov, other.analytic_cov)


def test_memory_mode_keeps_every_round():
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=500, seed=11))
    assert stats.sift_ratio == 1.0
    assert stats.kept_rounds == 500
    assert np.array_equal(stats.analytic_cov, analytic_moments(0.5, 0.0, 5.0))


def test_memory_mode_pools_bases_after_alignment():
    # Without the deterministic p-basis sign flip the pooled correlation
    # would average +c and -c to roughly zero.
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=20000, seed=7))
    assert stats.empirical_cov[0, 1] > 2.0


def test_sifted_run_within_standard_errors():
    cfg = SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=100000, seed=2, mode="sifted")
    stats = simulate(cfg)
    assert 0.49 < stats.sift_ratio < 0.51
    se = moment_standard_errors(stats.analytic_cov, stats.kept_rounds)
    assert np.all(np.abs(stats.empirical_cov - stats.analytic_cov) <= 5.0 * se)
    assert stats.mi_analytic == gaussian_mutual_information(stats.analytic_cov)


def test_per_basis_correlation_signs():
    # Raw (unaligned) per-basis correlations: q is positive either way, p is
    # negative only under attenuation, positive under phase conjugation.
    for tau, p_sign in ((0.5, -1.0), (-0.5, 1.0)):
        _, rec = simulate(
            SimConfig(tau=tau, nbar=0.0, mu=5.0, rounds=40000, seed=9), keep_rounds=True
        )
        for basis in ("q", "p"):
            sel = rec["basis_b"] == basis
            corr = np.corrcoef(rec["x_a"][sel], rec["x_b"][sel])[0, 1]
            want = analytic_moments(tau, 0.0, 5.0, basis=basis)[0, 1]
            assert abs(corr) > 0.5
            assert math.copysign(1.0, corr) == math.copysign(1.0, want)
            if basis == "p":
                assert math.copysign(1.0, want) == p_sign


def test_vacuum_source_shows_no_spurious_correlation():
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=1.0, rounds=10000, seed=5))
    corr = stats.empirical_cov[0, 1] / math.sqrt(
        stats.empirical_cov[0, 0] * stats.empirical_cov[1, 1]
    )
    assert abs(corr) <= 4.0 / math.sqrt(10000)


def test_mi_error_shrinks_with_rounds():
    small = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=10000, seed=3))
    large = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=1000000, seed=3))
    err_small = abs(small.mi_empirical - small.mi_analytic)
    err_large = abs(large.mi_empirical - large.mi_analytic)
    assert err_large < err_small
    assert err_large < 5e-3


def test_too_few_kept_rounds_raises():
    with pytest.raises(EmptyStatisticsError, match="rounds kept"):
        simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=1, seed=0))
    # Two kept rounds pin the sample correlation at +-1 (rank-1 sample
    # covariance), so they starve the estimators just like zero or one.
    with pytest.raises(EmptyStatisticsError, match="rounds kept"):
        simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=2, seed=15, mode="sifted"))
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=4, seed=15, mode="sifted"))
    assert stats.kept_rounds == 3


def test_rounds_csv_schema():
    cfg = SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=50, seed=21, mode="sifted")
    _, rec = simulate(cfg, keep_rounds=True)
    text = rounds_to_csv(rec)
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "basis_b,basis_a,kept,x_a,x_b"
    assert len(lines) == 51
    for line in lines[1:]:
        basis_b, basis_a, kept, x_a, x_b = line.split(",")
        assert basis_b in ("q", "p") and basis_a in ("q", "p")
        assert kept in ("0", "1")
        assert (kept == "1") == (basis_a == basis_b)
        float(x_a), float(x_b)


def test_config_validation():
    with pytest.raises(UnsupportedChannelError):
        SimConfig(tau=1.0, nbar=0.1, mu=5.0, rounds=10, seed=0)
    with pytest.raises(DomainError, match="mu must be >= 1"):
        SimConfig(tau=0.5, nbar=0.0, mu=0.5, rounds=10, seed=0)
    with pytest.raises(DomainError, match="rounds"):
        SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=0, seed=0)
    with pytest.raises(DomainError, match="seed"):
        SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=10, seed=-1)
    with pytest.raises(DomainError, match="seed"):
        SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=10, seed=2**64)
    with pytest.raises(DomainError, match="mode"):
        SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=10, seed=0, mode="raw")
    with pytest.raises(DomainError, match="nbar"):
        SimConfig(tau=0.5, nbar=-0.1, mu=5.0, rounds=10, seed=0)


def test_standard_error_formulas():
    cov = np.array([[5.0, math.sqrt(6.0)], [math.sqrt(6.0), 2.0]])
    se = moment_standard_errors(cov, 101)
    assert abs(se[0, 0] - 5.0 * math.sqrt(0.02)) <= 1e-15
    assert abs(se[1, 1] - 2.0 * math.sqrt(0.02)) <= 1e-15
    assert abs(se[0, 1] - 0.4) <= 1e-15
    assert se[0, 1] == se[1, 0]
    with pytest.raises(DomainError, match="kept_rounds"):
        moment_standard_errors(cov, 1)


def test_stats_as_dict_shape():
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=100, seed=4))
    assert isinstance(stats, SimStats)
    d = stats.as_dict()
    assert set(d) == {
        "kept_rounds",
        "empirical_cov",
        "analytic_cov",
        "mi_empirical",
        "mi_analytic",
        "sift_ratio",
        "rng",
    }
    assert d["rng"] == RNG_DESCRIPTION
    assert "philox" in d["rng"].lower()
    assert isinstance(d["empirical_cov"], list)
    assert all(isinstance(x, float) for row in d["empirical_cov"] for x in row)


# --------------------------------------------------------------------------
# Streaming in fixed chunks, exact accumulation, typed precision errors


def _stats_bits(stats):
    values = [*stats.empirical_cov.ravel(), *stats.analytic_cov.ravel()]
    values += [stats.mi_empirical, stats.mi_analytic, stats.sift_ratio]
    return stats.kept_rounds, [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "tau,mode", [(0.5, "memory"), (0.5, "sifted"), (-0.7, "memory"), (-0.7, "sifted")]
)
@pytest.mark.parametrize("chunk,rounds", [(1, 700), (7, 5000), (4096, 5000), (5000, 5000)])
def test_chunk_size_does_not_change_rounds_or_statistics(monkeypatch, tau, mode, chunk, rounds):
    cfg = SimConfig(tau=tau, nbar=0.1, mu=5.0, rounds=rounds, seed=31, mode=mode)
    want_stats, want_rec = simulate(cfg, keep_rounds=True)
    monkeypatch.setattr(sim_module, "_CHUNK_ROUNDS", chunk)
    got_stats, got_rec = simulate(cfg, keep_rounds=True)
    assert _stats_bits(got_stats) == _stats_bits(want_stats)
    assert _stats_bits(simulate(cfg)) == _stats_bits(want_stats)
    assert rounds_to_csv(got_rec) == rounds_to_csv(want_rec)


@pytest.mark.parametrize(
    "tau,mode,kept,cov_hex,mi_hex,csv_sha",
    [
        (
            0.5, "sifted", 34758,
            ["0x1.3e6e443b88bf6p+2", "0x1.37364fe86d8cbp+1", "0x1.37364fe86d8cbp+1", "0x1.04a1af205209dp+1"],
            "0x1.437c1fefd09bcp-1",
            "7c6e7b3f4385d70adf81e545e803713ec1dcc179d07fd47bbeb138e85607b4cb",
        ),
        (
            -0.7, "memory", 70000,
            ["0x1.3a7c533d460d5p+2", "0x1.6b03b87e9dd21p+1", "0x1.6b03b87e9dd21p+1", "0x1.9dc2de815e98bp+1"],
            "0x1.04bc2ab01114bp-1",
            "e296a28d7ca5b1fdca1605630562d68237547edbb66178e1d8f5332cc9f7e6f8",
        ),
    ],
)
def test_multi_chunk_run_matches_pinned_bits(tau, mode, kept, cov_hex, mi_hex, csv_sha):
    # 70000 rounds span two default chunks.  The pinned bits and CSV digest
    # are those of the whole-array simulator that drew every round at once
    # and summed with math.fsum.
    cfg = SimConfig(tau=tau, nbar=0.1, mu=5.0, rounds=70000, seed=42, mode=mode)
    stats, rec = simulate(cfg, keep_rounds=True)
    assert stats.kept_rounds == kept
    assert [float(v).hex() for v in stats.empirical_cov.ravel()] == cov_hex
    assert stats.mi_empirical.hex() == mi_hex
    assert hashlib.sha256(rounds_to_csv(rec).encode()).hexdigest() == csv_sha


def _oracle_arrays(rng: np.random.Generator):
    n = int(rng.integers(1, 400))
    mags = 10.0 ** rng.uniform(-320.0, 300.0, n)
    x = np.where(rng.random(n) < 0.5, -mags, mags)
    pieces = [
        x,
        rng.choice([0.0, -0.0], size=int(rng.integers(0, 4))),
        rng.integers(-(2**52), 2**52, size=int(rng.integers(0, 6))) * 5e-324,  # subnormals
        rng.standard_normal(int(rng.integers(0, 50))) * 10.0 ** rng.uniform(-5.0, 5.0),
    ]
    data = np.concatenate(pieces)
    if rng.random() < 0.5:
        data = np.concatenate([data, -rng.permutation(data)])  # exact cancellation
    return rng.permutation(data)


def test_exact_accumulator_equals_fsum_in_any_chunking():
    rng = np.random.default_rng(2024)
    scale = 1 << sim_module._SCALE_BITS
    for _ in range(200):
        data = _oracle_arrays(rng)
        cuts = np.sort(rng.integers(0, len(data) + 1, size=int(rng.integers(0, 6))))
        total = sum(sim_module._scaled_sum(part) for part in np.split(data, cuts))
        got = total / scale
        want = math.fsum(data.tolist())
        assert got.hex() == want.hex(), (got, want)
    for edge in ([-0.0], [-0.0, -0.0], [5e-324, -5e-324], [1.7976931348623157e308], [5e-324] * 3):
        assert (sim_module._scaled_sum(np.array(edge)) / scale).hex() == math.fsum(edge).hex()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_accumulator_rejects_non_finite(bad):
    with pytest.raises(NumericError, match="float precision limit"):
        sim_module._scaled_sum(np.array([1.0, bad]))


def test_rounds_csv_matches_row_by_row_formatting():
    rec = np.empty(8, dtype=sim_module._ROUND_DTYPE)
    rec["basis_b"] = list("qpqpqpqp")
    rec["basis_a"] = list("qqppqqpp")
    rec["kept"] = [1, 0, 0, 1, 1, 0, 0, 1]
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300]
    rec["x_a"] = specials
    rec["x_b"] = specials[::-1]
    want = ["basis_b,basis_a,kept,x_a,x_b"]
    for row in rec:
        want.append(
            f"{row['basis_b']},{row['basis_a']},{int(row['kept'])},"
            f"{row['x_a']:.12g},{row['x_b']:.12g}"
        )
    assert rounds_to_csv(rec) == "\n".join(want) + "\n"
    assert rounds_to_csv(rec[:0]) == "basis_b,basis_a,kept,x_a,x_b\n"


def test_memory_is_bounded_by_the_chunk_not_the_round_count():
    cfg = SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=10**6, seed=8, mode="sifted")
    simulate(SimConfig(tau=0.5, nbar=0.1, mu=5.0, rounds=10, seed=8))  # load scipy.special first
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


PRECISION_LIMITS = [
    # analytic moments overflow or lose the conditional variance
    (dict(tau=1e308, nbar=0.1, mu=5.0, rounds=100), "are not all finite and positive"),
    (dict(tau=0.5, nbar=0.1, mu=1e308, rounds=100), "are not all finite and positive"),
    (dict(tau=0.5, nbar=0.1, mu=1e17, rounds=100), "are not all finite and positive"),
    # finite moments, but squared outcomes overflow in some rounds
    (dict(tau=7e306, nbar=0.1, mu=5.0, rounds=10000), "is not finite"),
    # finite squares whose sum overflows
    (dict(tau=3e305, nbar=0.1, mu=5.0, rounds=1000), "moment sum .* overflows"),
    # the sample covariance is singular to float precision
    (dict(tau=0.5, nbar=0.1, mu=1.8987592529446564e16, rounds=4), "degenerate"),
]


@pytest.mark.parametrize("kwargs,match", PRECISION_LIMITS)
def test_precision_limits_raise_numeric_error(kwargs, match):
    cfg = SimConfig(seed=0, mode="memory", **kwargs)
    with pytest.raises(NumericError, match=match) as info:
        simulate(cfg)
    assert "float precision limit" in str(info.value)
    assert info.value.field is None


@pytest.mark.parametrize("kwargs,match", PRECISION_LIMITS)
def test_cli_reports_precision_limits_without_traceback(kwargs, match):
    args = ["simulate", "--seed", "0", "--mode", "memory", "--json"]
    for key, value in kwargs.items():
        args += [f"--{key}", repr(value)]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: --mu/--rounds: ")
    assert "float precision limit" in result.stderr


def test_protocol_rate_reports_lost_conditional_variance():
    with pytest.raises(NumericError, match="float precision limit"):
        protocol_rate_numeric(make_canonical(0.5, nbar=0.1), 1e17, port_model="trusted")
    result = CliRunner().invoke(
        cli, ["verify", "--tau", "0.5", "--nbar", "0.1", "--mu", "1e17", "--ports", "trusted"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "float precision limit" in result.stderr


def test_stats_as_dict_key_order():
    stats = simulate(SimConfig(tau=0.5, nbar=0.0, mu=5.0, rounds=100, seed=4))
    assert list(stats.as_dict()) == [
        "kept_rounds",
        "empirical_cov",
        "analytic_cov",
        "mi_empirical",
        "mi_analytic",
        "sift_ratio",
        "rng",
    ]
