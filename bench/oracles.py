"""Independent high-precision references for the edge-of-domain probes.

Everything here is computed with mpmath from the paper's closed forms, not
with the package under test, so a probe scored against these values shows a
defect of the package rather than agreement of the package with itself.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 60


def g(x):
    """Thermal entropy (x + 1) log2(x + 1) - x log2(x) in bits, g(0) = 0.

    Evaluated in the cancellation-free form [log1p(x) + x log1p(1/x)] / ln 2,
    so it stays exact for x far beyond the working precision.
    """
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    return (mp.log1p(x) + x * mp.log1p(1 / x)) / mp.log(2)


def interiors(tau: float, nbar) -> dict:
    """Signed e_r, q1g and r_rev interiors plus lambda and w at (tau, nbar)."""
    tau = mp.mpf(tau)
    nbar = mp.mpf(nbar)
    d = abs(1 - tau)
    w = 2 * nbar + 1
    lam = (d + w) / (1 + d * w)
    gn = g(nbar)
    e_r = -mp.log(d, 2) - gn
    q1g = -mp.inf if tau == 0 else mp.log(abs(tau) / d, 2) - gn
    arg = mp.sqrt(w / (4 * lam)) - mp.mpf(1) / 2
    r_rev = (mp.log(lam, 2) - mp.log(d, 2)) / 2 + g(max(arg, 0)) - gn
    return {"e_r": e_r, "q1g": q1g, "r_rev": r_rev, "lambda": lam, "w": w}


def rate_fields(tau: float, nbar) -> dict:
    """What ``gausskey rates --json`` should print, as floats."""
    it = interiors(tau, nbar)
    out = {k: float(max(it[k], 0)) for k in ("e_r", "q1g", "r_rev")}
    out["lambda"] = float(it["lambda"])
    out["w"] = float(it["w"])
    return out


def region_flags(tau: float, eps) -> dict:
    """What ``gausskey classify --json`` should report for the boolean flags."""
    tau_m = mp.mpf(tau)
    it = interiors(tau, mp.mpf(eps) / (2 * abs(1 - tau_m)))
    flags = {f"{k}_positive": bool(it[k] > 0) for k in ("e_r", "q1g", "r_rev")}
    flags["antidegradable"] = bool(tau_m <= mp.mpf(1) / 2)
    flags["reverse_beats_antidegradability"] = flags["antidegradable"] and (
        flags["e_r_positive"] or flags["r_rev_positive"]
    )
    return flags


def threshold_eps(rate_id: str, tau: float) -> float:
    """Smallest eps with a zero ``rate_id`` interior at ``tau``, by bisection."""
    d = abs(1 - mp.mpf(tau))

    def f(eps):
        return interiors(tau, eps / (2 * d))[rate_id]

    if f(mp.mpf(0)) <= 0:
        return 0.0
    lo, hi = mp.mpf(0), mp.mpf(1)
    while f(hi) >= 0:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def engine_target(engine: str, tau: float, nbar: float) -> float:
    """Closed-form interior each finite-squeezing engine converges to."""
    key = {"rci": "e_r", "ci": "q1g", "protocol": "r_rev"}[engine]
    return float(interiors(tau, nbar)[key])


def sim_mutual_information(tau: float, nbar: float, mu: float) -> float:
    """Analytic mutual information of the homodyne outcomes (x_A, x_B)."""
    tau, nbar, mu = mp.mpf(tau), mp.mpf(nbar), mp.mpf(mu)
    w = 2 * nbar + 1
    vb = (abs(tau) * mu + abs(1 - tau) * w + 1) / 2
    c2 = abs(tau) * (mu * mu - 1) / 2
    cond = mu - c2 / vb
    return float(mp.log(mu / cond, 2) / 2)
