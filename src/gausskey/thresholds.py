"""Security-threshold curves over the scaled-noise coordinate.

For each rate bound the threshold is the smallest scaled noise eps at which
the rate reaches zero at fixed transmission.  The search runs on the signed
interiors, which decrease from a positive value at eps = 0 (when the rate is
positive at all) through zero by eps = 1, so the bracket is fixed at
[0, 1] and Anderson-Björck false position closes it to an absolute eps
tolerance: 9 to 11 interior evaluations per positive threshold (mean 9.97 on
tau = k/500 over [-1.2, 3]).

``sweep`` seeds each row by continuation: the secant through the previous
two roots of the same rate predicts the next one, and the search starts on
a narrow bracket around it, falling back to the part of [0, 1] that its end
values leave.  On that lattice this takes 10.3 interior evaluations per row
(three rates) instead of 16.9 when every row is solved from [0, 1], and the
rows stay within 4e-15 of ``threshold_eps``.

All three searches assume that their interior never rises as eps grows, so
that it changes sign at most once.  For ``e_r`` and ``q1g`` this follows from
g being increasing in nbar.  For ``r_rev`` it is certified numerically by
``tests/test_thresholds.py::test_r_rev_interior_non_increasing_in_eps`` on a
dense (tau, eps) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError, NumericError, _choice, _count, _float, _shown
from .rates import e_r_interior, make_canonical, q1g_interior, r_rev_interior

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


def _false_position(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, tol: float
) -> float:
    """Root of a sign change on [lo, hi], given f_lo = f(lo) > 0 >= f_hi = f(hi).

    Anderson-Björck false position (Anderson & Björck, BIT 13 (1973)
    253-264): each step is the secant point of the weighted end values, kept
    at least tol/4 inside the bracket.  When the same end is replaced twice in
    a row, the weight of the end that kept its place is scaled by
    m = 1 - f_new/f_replaced (0.5 when m <= 0), so the bracket closes from
    both sides in fewer steps than halving gives.  Once it is narrower
    than tol, a plain secant step across it is returned if the interior there
    is within tol of zero, so callers can rely on both guarantees; an exact
    zero is returned at once.  A step that cannot split the bracket in floating
    point falls back to the midpoint, and ``NumericError`` is raised once that
    cannot split it either.
    """
    w_lo, w_hi, moved = f_lo, f_hi, 0
    while True:
        narrow = hi - lo <= tol
        if narrow:
            x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        else:
            x = lo + (hi - lo) * (w_lo / (w_lo - w_hi))
            x = min(max(x, lo + 0.25 * tol), hi - 0.25 * tol)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise NumericError(
                    f"tolerance {tol} is out of reach: the eps bracket [{lo}, {hi}] "
                    "cannot be split further (float precision limit)",
                    field="tol",
                )
        val = f(x)
        if val == 0.0 or narrow and abs(val) <= tol:
            return x
        if val > 0.0:
            if moved == 1:
                m = 1.0 - val / f_lo
                w_hi *= m if m > 0.0 else 0.5
            lo, f_lo, w_lo, moved = x, val, val, 1
        else:
            if moved == -1:
                m = 1.0 - val / f_hi
                w_lo *= m if m > 0.0 else 0.5
            hi, f_hi, w_hi, moved = x, val, val, -1


def _threshold_impl(
    rate_id: str, tau: float, tol: float, seed: tuple[float, float] | None = None
) -> float:
    """Threshold on the fixed bracket [0, 1], or first on ``seed`` = (lo, hi) inside it.

    Every interior is <= 0 at eps = 1: ``tests/test_thresholds.py::
    test_interiors_are_not_positive_at_unit_eps`` checks about 14,000 taus.
    For ``e_r``, thermal loss included, it holds exactly: at eps = 1,
    nbar = 1/(2|1 - tau|) and g(n) - log2(n) >= log2(e), so the interior
    log2(2 nbar) - g(nbar) is at most -log2(e/2) = -0.4427.  A seed is
    searched only if the interior changes sign across it; otherwise the end
    value found narrows [0, 1] to [0, lo] or [hi, 1], which a single sign
    change makes safe.
    """
    interior = _INTERIORS[rate_id]

    def f(eps: float) -> float:
        return interior(make_canonical(tau, eps=eps))

    lo, f_lo, hi, f_hi = 0.0, None, 1.0, None
    for x in seed or ():
        f_x = f(x)
        if f_x <= 0.0:
            hi, f_hi = x, f_x
            break
        lo, f_lo = x, f_x
    if f_lo is None:
        f_lo = f(0.0)
        if f_lo <= 0.0:
            return 0.0
    if f_hi is None:
        f_hi = f(1.0)
        if f_hi > 0.0:
            raise NumericError(f"the {rate_id} interior is positive at eps = 1 (tau = {tau})")
    return _false_position(f, lo, hi, f_lo, f_hi, tol)


def _check_tol(tol: float) -> None:
    if not 0.0 < _float(tol) < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {_shown(tol)}", field="tol")


def threshold_eps(rate_id: str, tau: float, tol: float = 1e-9) -> float:
    """Smallest eps >= 0 at which the rate reaches zero, to tolerance ``tol``.

    Returns 0.0 whenever the rate is already zero at eps = 0.  Positive
    returns satisfy |interior(eps)| <= tol; a tol too fine for float
    precision raises ``NumericError``.
    """
    _choice(rate_id, RATE_IDS, "rate id", field="rate_id")
    _check_tol(tol)
    return _threshold_impl(rate_id, _float(tau), tol)


def _grid(a: float, b: float, n: int) -> Iterator[float]:
    """``numpy.linspace(a, b, n)`` bit for bit, as Python floats.

    Point i is a + i*step with step = (b - a)/(n - 1), and the last point is
    exactly b.  A step that underflows to 0 takes numpy's branch for
    subnormal spans, a + (i/(n - 1))*(b - a).
    """
    delta, div = b - a, n - 1
    if div == 0:
        yield 0.0 * delta + a
        return
    step = delta / div
    for i in range(div):
        yield (i * step if step != 0.0 else i / div * delta) + a
    yield b


def sweep(tau_min: float, tau_max: float, steps: int, tol: float = 1e-9) -> ThresholdCurve:
    """Threshold rows on an even transmission grid, skipping tau = 1.

    Grid points within 1e-6 of tau = 1 are dropped (no row is emitted for
    them); an entirely skipped grid raises.
    """
    steps = _count(steps, 1, "steps", field="steps")
    a, b = _float(tau_min), _float(tau_max)
    if not (-math.inf < a <= b < math.inf and math.isfinite(b - a)):
        raise DomainError(
            f"need finite tau_max >= tau_min with a finite span, got [{a}, {b}]",
            field="tau_min/tau_max",
        )
    _check_tol(tol)
    rows = []
    # Continuation: each rate keeps its last two positive roots, r0 then r1,
    # from the grid points just before t; on an even grid the secant in tau
    # predicts 2 r1 - r0 at t.  Histories restart at a zero threshold and on
    # crossing tau = 1, where the skipped points sit.
    histories: dict[str, list[float]] = {"q1g": [], "e_r": [], "r_rev": []}  # row order
    above_one = None
    for t in _grid(a, b, steps):
        if abs(t - 1.0) < TAU_ONE_SKIP:
            continue
        if (t > 1.0) != above_one:
            above_one = t > 1.0
            for h in histories.values():
                h.clear()
        roots = []
        for rate_id, h in histories.items():
            seed = None
            if len(h) == 2:
                step = h[1] - h[0]
                p, half = h[1] + step, max(0.05 * abs(step), 8.0 * tol)
                if 0.0 < p - half and p + half < 1.0:
                    seed = (p - half, p + half)
            root = _threshold_impl(rate_id, t, tol, seed)
            h[:] = h[-1:] + [root] if root > 0.0 else []
            roots.append(root)
        rows.append(ThresholdRow(t, *roots))
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
    ch = make_canonical(tau, eps=_float(eps))  # eps=None would mean "not given"
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
