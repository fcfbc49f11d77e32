"""Seeded Monte Carlo of the reverse homodyne protocol at outcome level.

For Gaussian states and homodyne detection the measurement outcomes are
exactly jointly Gaussian, with moments read off the covariance formalism
(vacuum variance 1).  The simulator therefore samples those classical
Gaussians directly; no state-vector evolution is involved, and a million
rounds take well under a second.

Each round, Bob homodynes a uniformly random quadrature of his kept
balanced-beam-splitter port.  In ``"memory"`` mode Alice measures her stored
source arm in the same basis (every round is kept); in ``"sifted"`` mode she
picks her basis independently and uniformly, and only basis-agreeing rounds
are kept.  Outcomes in disagreeing bases are uncorrelated for this source,
and are sampled accordingly for the optional per-round log.

Randomness contract (reproducible across platforms and schedules):

* generator: numpy's Philox counter-based generator (philox4x64), keyed with
  the configured seed;
* round i consumes exactly the four stream uniforms 4i .. 4i+3, in the fixed
  order (Bob's basis, Alice's basis, Bob's outcome, Alice's outcome), so
  regeneration in any chunking or order yields identical rounds;
* normal deviates come from the inverse CDF (one uniform per deviate), never
  from rejection sampling.

``simulate`` draws the stream in fixed chunks of ``_CHUNK_ROUNDS`` rounds and
keeps only running moment sums, so its memory is bounded by the chunk size
unless ``keep_rounds`` asks for the per-round record; the test suite checks
that every chunk size gives identical statistics and rounds.  The moment
sums are accumulated exactly, as integers in units of 2**-1127, so each one
equals ``math.fsum`` over all kept rounds and the reported statistics are
independent of summation order and chunking as well.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channels import make_canonical
from .errors import DomainError, EmptyStatisticsError, NumericError

__all__ = [
    "RNG_DESCRIPTION",
    "SimConfig",
    "SimStats",
    "analytic_moments",
    "gaussian_mutual_information",
    "simulate",
    "moment_standard_errors",
    "rounds_to_csv",
]

RNG_DESCRIPTION = (
    "philox4x64 (numpy Philox), key = seed; round i consumes stream uniforms "
    "4i..4i+3 as (basis_b, basis_a, x_b, x_a); normals via inverse CDF"
)

_MIN_UNIFORM = 2.0**-53  # floor keeps ndtri away from its pole at 0
_CHUNK_ROUNDS = 1 << 16  # rounds drawn per step; bounds memory without keep_rounds

# frexp writes every finite double as x = m * 2**(e - 53) with |m| < 2**53
# an integer and e >= -1073, so x * 2**1127 = m * 2**(e + 1074) is an integer.
_SCALE_BITS = 1127

_ROUND_DTYPE = np.dtype(
    [("basis_b", "U1"), ("basis_a", "U1"), ("kept", np.int8), ("x_a", float), ("x_b", float)]
)


@dataclass(frozen=True)
class SimConfig:
    """Protocol-run configuration.

    ``mode`` is "memory" (Alice follows Bob's broadcast basis) or "sifted"
    (independent bases, disagreeing rounds discarded).  ``seed`` keys the
    counter-based generator and must fit in 64 unsigned bits.
    """

    tau: float
    nbar: float
    mu: float
    rounds: int
    seed: int
    mode: str = "memory"

    def __post_init__(self):
        make_canonical(self.tau, nbar=self.nbar)
        if not 1.0 <= self.mu < math.inf:
            raise DomainError(f"source variance mu must be >= 1 and finite, got {self.mu}", field="mu")
        if int(self.rounds) < 1:
            raise DomainError(f"rounds must be >= 1, got {self.rounds}", field="rounds")
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}", field="seed")
        if self.mode not in ("memory", "sifted"):
            raise DomainError(f"mode must be 'memory' or 'sifted', got {self.mode!r}", field="mode")


@dataclass(frozen=True)
class SimStats:
    """Run statistics.

    ``empirical_cov`` pools both bases after Alice's p-basis outcomes are
    mapped through the deterministic sign that aligns the p correlation with
    the q convention, so ``analytic_cov`` is the q-basis matrix throughout.
    ``rng`` records the exact generator contract that produced the run.
    """

    kept_rounds: int
    empirical_cov: np.ndarray
    analytic_cov: np.ndarray
    mi_empirical: float
    mi_analytic: float
    sift_ratio: float
    rng: str = RNG_DESCRIPTION

    def as_dict(self) -> dict:
        d = asdict(self)
        for k in ("empirical_cov", "analytic_cov"):
            d[k] = d[k].tolist()
        return d


def analytic_moments(tau: float, nbar: float, mu: float, basis: str = "q") -> np.ndarray:
    """2x2 outcome covariance of (x_A, x_B) when both homodyne ``basis``.

    x_A is Alice's source-arm outcome (variance mu); x_B is the outcome at
    Bob's kept balanced-beam-splitter port, with variance
    (|tau| mu + |1 - tau| w + 1) / 2.  The off-diagonal is
    +- sqrt(|tau| (mu^2 - 1) / 2): positive in the q basis; in the p basis
    negative for tau > 0 and positive for tau < 0, because phase conjugation
    flips the sign of the p correlation.
    """
    ch = make_canonical(float(tau), nbar=float(nbar))
    mu = float(mu)
    if mu < 1.0:
        raise DomainError(f"source variance mu must be >= 1, got {mu}")
    if basis not in ("q", "p"):
        raise DomainError(f"basis must be 'q' or 'p', got {basis!r}")
    vb = (abs(ch.tau) * mu + abs(1.0 - ch.tau) * ch.w + 1.0) / 2.0
    c = math.sqrt(abs(ch.tau) * (mu * mu - 1.0) / 2.0)
    if basis == "p":
        c *= _p_alignment_sign(ch.tau)
    return np.array([[mu, c], [c, vb]])


def gaussian_mutual_information(cov: np.ndarray) -> float:
    """Mutual information in bits of a zero-mean bivariate Gaussian.

    Uses the variance-ratio form (1/2) log2(V_A / V_{A|B}), which avoids the
    catastrophic cancellation of the determinant form at strong correlation.
    """
    va = float(cov[0, 0])
    vb = float(cov[1, 1])
    c = float(cov[0, 1])
    cond = va - c * c / vb
    if not (va > 0.0 and vb > 0.0 and cond > 0.0):
        raise DomainError("moment matrix is not a valid nondegenerate covariance")
    return 0.5 * math.log2(va / cond)


def _p_alignment_sign(tau: float) -> float:
    # relative sign between the p-basis and q-basis correlations
    return -1.0 if tau > 0.0 else 1.0


def _scaled_sum(x: np.ndarray) -> int:
    """Exact sum of ``x`` times 2**1127, as a Python int.

    m's signed high part (m >> 27) and 27-bit low part are summed per
    exponent by ``bincount``; each partial sum stays below 2**53, hence
    exact, while ``len(x) < 2**26``.  The nonzero buckets then fold into
    one int.
    """
    if not np.isfinite(x).all():
        raise NumericError(
            "a sampled outcome or product is not finite: the outcome variances "
            "exceed float range (float precision limit)"
        )
    frac, exp = np.frexp(x)
    m = (frac * 2.0**53).astype(np.int64)
    low = int(exp.min(initial=0))  # initial: a chunk may keep no rounds
    bucket = exp - low  # bucket b holds exponent e = b + low
    total = 0
    for part, shift in ((m >> 27, low + 1074 + 27), (m & 0x7FFFFFF, low + 1074)):
        sums = np.bincount(bucket, weights=part)
        nonzero = np.flatnonzero(sums)
        for b, v in zip(nonzero.tolist(), sums[nonzero].tolist()):
            total += int(v) << (b + shift)
    return total


def simulate(cfg: SimConfig, keep_rounds: bool = False):
    """Run the protocol; fully deterministic in ``cfg``.

    Returns :class:`SimStats`, or ``(SimStats, rounds)`` when ``keep_rounds``
    is set, where ``rounds`` is a structured array with one entry per round
    and fields ``basis_b``, ``basis_a``, ``kept``, ``x_a``, ``x_b``.  Raises
    :class:`NumericError` when the outcome moments or their sums leave float
    range or precision (for instance mu >= 1e17, or |tau| near float max).
    """
    from scipy.special import ndtri  # deferred: scipy dominates import time

    cov_q = analytic_moments(cfg.tau, cfg.nbar, cfg.mu, basis="q")
    va = float(cov_q[0, 0])
    vb = float(cov_q[1, 1])
    c_q = float(cov_q[0, 1])
    cond = va - c_q * c_q / vb
    if not (math.isfinite(c_q) and all(0.0 < v < math.inf for v in (va, vb, cond))):
        raise NumericError(
            f"outcome moments V_A={va}, V_B={vb}, c={c_q}, V_A|B={cond} are not all "
            "finite and positive (float precision limit)"
        )
    mi_analytic = gaussian_mutual_information(cov_q)
    c_p = c_q * _p_alignment_sign(cfg.tau)

    rounds = int(cfg.rounds)
    gen = np.random.Generator(np.random.Philox(key=int(cfg.seed)))
    rec = np.empty(rounds, dtype=_ROUND_DTYPE) if keep_rounds else None
    labels = np.array(["q", "p"])
    n_kept = 0
    sums = [0] * 5  # a, b, a*a, b*b, a*b over kept rounds, times 2**1127
    # Products of huge outcomes may overflow; _scaled_sum reports them.
    with np.errstate(over="ignore"):
        for start in range(0, rounds, _CHUNK_ROUNDS):
            u = gen.random((min(_CHUNK_ROUNDS, rounds - start), 4))
            basis_b = (u[:, 0] >= 0.5).astype(np.int8)  # 0 = q, 1 = p
            if cfg.mode == "memory":
                basis_a = basis_b
            else:
                basis_a = (u[:, 1] >= 0.5).astype(np.int8)
            kept = basis_a == basis_b
            z_b = ndtri(np.maximum(u[:, 2], _MIN_UNIFORM))
            z_a = ndtri(np.maximum(u[:, 3], _MIN_UNIFORM))
            c_round = np.where(kept, np.where(basis_b == 0, c_q, c_p), 0.0)
            x_b = math.sqrt(vb) * z_b
            x_a = (c_round / vb) * x_b + np.sqrt(va - c_round * c_round / vb) * z_a

            align = np.where(basis_b == 1, _p_alignment_sign(cfg.tau), 1.0)
            a = (x_a * align)[kept]
            b = x_b[kept]
            n_kept += len(a)
            for i, x in enumerate((a, b, a * a, b * b, a * b)):
                sums[i] += _scaled_sum(x)
            if rec is not None:
                part = rec[start : start + len(u)]
                part["basis_b"] = labels[basis_b]
                part["basis_a"] = labels[basis_a]
                part["kept"] = kept
                part["x_a"] = x_a
                part["x_b"] = x_b

    # Two kept rounds still determine a rank-1 sample covariance (sample
    # correlation exactly +-1), so the empirical mutual information needs
    # three.
    if n_kept < 3:
        raise EmptyStatisticsError(
            f"only {n_kept} of {cfg.rounds} rounds kept; no moment estimates possible"
        )
    try:
        s_a, s_b, s_aa, s_bb, s_ab = [s / (1 << _SCALE_BITS) for s in sums]
    except OverflowError:
        raise NumericError(
            "a moment sum over the kept rounds overflows float (float precision limit)"
        ) from None
    m_a = s_a / n_kept
    m_b = s_b / n_kept
    denom = n_kept - 1.0
    emp = np.array(
        [
            [(s_aa - n_kept * m_a * m_a) / denom, (s_ab - n_kept * m_a * m_b) / denom],
            [(s_ab - n_kept * m_a * m_b) / denom, (s_bb - n_kept * m_b * m_b) / denom],
        ]
    )
    try:
        mi_empirical = gaussian_mutual_information(emp)
    except DomainError:
        raise NumericError(
            "the empirical outcome covariance is degenerate to float precision "
            "(float precision limit; V_A|B is tiny against V_A)"
        ) from None
    stats = SimStats(
        kept_rounds=n_kept,
        empirical_cov=emp,
        analytic_cov=cov_q,
        mi_empirical=mi_empirical,
        mi_analytic=mi_analytic,
        sift_ratio=n_kept / float(cfg.rounds),
    )
    return stats if rec is None else (stats, rec)


def moment_standard_errors(cov: np.ndarray, kept_rounds: int) -> np.ndarray:
    """Standard errors of the sample covariance entries of a bivariate Gaussian.

    Var(s_xx) = 2 V_x^2 / (k - 1) on the diagonal and
    Var(s_xy) = (V_x V_y + c^2) / (k - 1) off it.
    """
    if kept_rounds < 2:
        raise DomainError(f"kept_rounds must be >= 2, got {kept_rounds}")
    va = float(cov[0, 0])
    vb = float(cov[1, 1])
    c = float(cov[0, 1])
    k = kept_rounds - 1.0
    off = math.sqrt((va * vb + c * c) / k)
    return np.array(
        [
            [va * math.sqrt(2.0 / k), off],
            [off, vb * math.sqrt(2.0 / k)],
        ]
    )


def rounds_to_csv(rounds: np.ndarray) -> str:
    """Per-round CSV with header ``basis_b,basis_a,kept,x_a,x_b`` (LF newlines)."""
    columns = (rounds[f].tolist() for f in _ROUND_DTYPE.names)
    body = map("{},{},{},{:.12g},{:.12g}".format, *columns)
    return "\n".join([",".join(_ROUND_DTYPE.names), *body]) + "\n"
