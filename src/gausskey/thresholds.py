"""Security-threshold curves over the scaled-noise coordinate.

For each rate bound the threshold is the smallest scaled noise eps at which
the rate reaches zero at fixed transmission.  The search runs on the signed
interiors, which decrease from a positive value at eps = 0 (when the rate is
positive at all) through zero: bisection to an absolute eps tolerance, with
the upper bracket doubled until the interior goes negative.

All three searches assume that their interior never rises as eps grows, so
that it changes sign at most once.  For ``e_r`` and ``q1g`` this follows from
g being increasing in nbar.  For ``r_rev`` it is certified numerically by
``tests/test_thresholds.py::test_r_rev_interior_non_increasing_in_eps`` on a
dense (tau, eps) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channels import make_canonical
from .errors import DomainError, NumericError
from .rates import e_r_interior, q1g_interior, r_rev_interior

__all__ = [
    "RATE_IDS",
    "ThresholdRow",
    "ThresholdCurve",
    "RegionLabel",
    "threshold_eps",
    "sweep",
    "classify",
    "curve_to_csv",
]

_INTERIORS: dict[str, Callable] = {
    "e_r": e_r_interior,
    "q1g": q1g_interior,
    "r_rev": r_rev_interior,
}
RATE_IDS = tuple(_INTERIORS)

# Grid points this close to tau = 1 are skipped by sweep(): the unsupported
# additive-noise family sits there and the interiors diverge on approach.
TAU_ONE_SKIP = 1e-6

_BRACKET_DOUBLINGS = 200


class ThresholdRow(NamedTuple):
    tau: float
    eps_q: float
    eps_r: float
    eps_rev: float


@dataclass(frozen=True)
class ThresholdCurve:
    """Threshold rows on a transmission grid, one row per retained tau."""

    rows: tuple[ThresholdRow, ...]
    tolerance: float


@dataclass(frozen=True)
class RegionLabel:
    """Qualitative flags for one (transmission, scaled-noise) point.

    ``antidegradable`` marks tau <= 1/2, where no direct-reconciliation
    strategy can distill a key; ``reverse_beats_antidegradability`` marks the
    points where a reverse bound is nonetheless positive there.
    """

    antidegradable: bool
    e_r_positive: bool
    q1g_positive: bool
    r_rev_positive: bool
    reverse_beats_antidegradability: bool


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a sign change on [lo, hi] with f(lo) > 0 >= f(hi).

    Runs until the bracket is narrower than tol and the interior at the
    midpoint is within tol of zero, so callers can rely on both guarantees.
    Raises ``NumericError`` once the bracket can no longer be halved in
    floating point before both hold.
    """
    while True:
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if hi - lo <= tol and abs(val) <= tol:
            return mid
        if mid in (lo, hi):
            raise NumericError(
                f"tolerance {tol} is out of reach: the eps bracket [{lo}, {hi}] "
                "cannot be halved further (float precision limit)",
                field="tol",
            )
        if val > 0.0:
            lo = mid
        else:
            hi = mid


def _threshold_impl(rate_id: str, tau: float, tol: float) -> float:
    interior = _INTERIORS[rate_id]

    def f(eps: float) -> float:
        return interior(make_canonical(tau, eps=eps))

    if f(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(_BRACKET_DOUBLINGS):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NumericError(
            f"could not bracket the {rate_id} threshold at tau = {tau}"
        )
    return _bisect(f, 0.0, hi, tol)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tol}", field="tol")


def threshold_eps(rate_id: str, tau: float, tol: float = 1e-9) -> float:
    """Smallest eps >= 0 at which the rate reaches zero, to tolerance ``tol``.

    Returns 0.0 whenever the rate is already zero at eps = 0.  Positive
    returns satisfy |interior(eps)| <= tol; a tol too fine for float
    precision raises ``NumericError``.
    """
    if rate_id not in _INTERIORS:
        raise DomainError(f"unknown rate id {rate_id!r}; expected one of {RATE_IDS}", field="rate_id")
    _check_tol(tol)
    return _threshold_impl(rate_id, float(tau), tol)


def sweep(tau_min: float, tau_max: float, steps: int, tol: float = 1e-9) -> ThresholdCurve:
    """Threshold rows on an even transmission grid, skipping tau = 1.

    Grid points within 1e-6 of tau = 1 are dropped (no row is emitted for
    them); an entirely skipped grid raises.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}", field="steps")
    if not -math.inf < tau_min <= tau_max < math.inf:
        raise DomainError(
            f"need finite tau_max >= tau_min, got [{tau_min}, {tau_max}]",
            field="tau_min/tau_max",
        )
    _check_tol(tol)
    taus = np.linspace(float(tau_min), float(tau_max), int(steps))
    rows = []
    for t in taus:
        t = float(t)
        if abs(t - 1.0) < TAU_ONE_SKIP:
            continue
        eps_q = _threshold_impl("q1g", t, tol)
        eps_r = _threshold_impl("e_r", t, tol)
        eps_rev = _threshold_impl("r_rev", t, tol)
        rows.append(ThresholdRow(tau=t, eps_q=eps_q, eps_r=eps_r, eps_rev=eps_rev))
    if not rows:
        raise DomainError(
            "threshold grid is empty: every point sits at tau = 1", field="tau_min/tau_max"
        )
    return ThresholdCurve(rows=tuple(rows), tolerance=tol)


def curve_to_csv(curve: ThresholdCurve) -> str:
    """Fixed CSV schema: header ``tau,eps_q,eps_r,eps_rev``, 12 significant
    digits, '.' decimal separator, LF newlines."""
    lines = [",".join(ThresholdRow._fields)]
    for row in curve.rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def classify(tau: float, eps: float) -> RegionLabel:
    """Region flags for one (transmission, scaled-noise) point."""
    ch = make_canonical(float(tau), eps=float(eps))
    e_r_positive = e_r_interior(ch) > 0.0
    q1g_positive = q1g_interior(ch) > 0.0
    r_rev_positive = r_rev_interior(ch) > 0.0
    antidegradable = ch.tau <= 0.5
    return RegionLabel(
        antidegradable=antidegradable,
        e_r_positive=e_r_positive,
        q1g_positive=q1g_positive,
        r_rev_positive=r_rev_positive,
        reverse_beats_antidegradability=antidegradable
        and (e_r_positive or r_rev_positive),
    )
