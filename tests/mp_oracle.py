"""50-digit mpmath oracle for the reverse homodyne-protocol rate.

The state is built from the channel parameters and the source variance as
given, not from the engine's rounded arrays: the two-mode squeezed vacuum
(A, B) with cross block sqrt(mu^2 - 1) Z, the channel's covariance action on
B, a vacuum port D, and Bob's balanced beam splitter on (B', D).  The
eavesdropper's entropies are those of the modes complementary to hers (the
global state is pure, and stays pure given Bob's outcome), so every entropy
is of a one- or two-mode state and comes from sqrt(det V) or from the
two-mode invariants Delta and det V.
"""

from mpmath import mp

DIGITS = 50


def _sub(v, idx):
    return mp.matrix([[v[i, j] for j in idx] for i in idx])


def _quads(modes):
    return [q for k in modes for q in (2 * k, 2 * k + 1)]


def _g(nu):
    n = max((nu - 1) / 2, mp.zero)
    return (n + 1) * mp.log(n + 1, 2) - n * mp.log(n, 2) if n > 0 else mp.zero


def _det2(v, i, j):
    """Determinant of the 2x2 block coupling modes i and j."""
    return v[2 * i, 2 * j] * v[2 * i + 1, 2 * j + 1] - v[2 * i, 2 * j + 1] * v[2 * i + 1, 2 * j]


def _entropy(v):
    if v.rows == 2:
        return _g(mp.sqrt(_det2(v, 0, 0)))
    delta = _det2(v, 0, 0) + _det2(v, 1, 1) + 2 * _det2(v, 0, 1)
    disc = mp.sqrt(max(delta * delta - 4 * mp.det(v), mp.zero))
    return _g(mp.sqrt((delta + disc) / 2)) + _g(mp.sqrt((delta - disc) / 2))


def _condition(v, col, keep):
    idx = _quads(keep)
    return mp.matrix(
        [[v[i, j] - v[i, col] * v[col, j] / v[col, col] for j in idx] for i in idx]
    )


def protocol_rate(tau, nbar, mu, port_model="trusted", basis="q"):
    """I(x_A : y) - chi(E : y) at (tau, nbar, mu), in bits, as an mpf."""
    with mp.workdps(DIGITS):
        tau, nbar, mu = mp.mpf(tau), mp.mpf(nbar), mp.mpf(mu)
        c = mp.sqrt(mu * mu - 1)
        z = mp.diag([1, -1])
        x = mp.sqrt(tau) * mp.eye(2) if tau >= 0 else mp.sqrt(-tau) * z
        y = abs(1 - tau) * (2 * nbar + 1)
        v = mp.zeros(6, 6)  # (A, B', D): the source, then the vacuum port
        for i in range(6):
            v[i, i] = mu if i < 4 else 1
        for i in (0, 1):
            v[i, 2 + i] = v[2 + i, i] = c * z[i, i]
        s = mp.eye(6)  # the channel on B', as V -> X V X^T + Y
        for i in (0, 1):
            for j in (0, 1):
                s[2 + i, 2 + j] = x[i, j]
        v = s * v * s.T
        for i in (2, 3):
            v[i, i] += y
        joint = _sub(v, _quads((0, 1)))
        h = 1 / mp.sqrt(2)  # Bob's balanced beam splitter on (B', D)
        s = mp.eye(6)
        for i in (0, 1):
            s[2 + i, 2 + i] = s[4 + i, 4 + i] = s[2 + i, 4 + i] = h
            s[4 + i, 2 + i] = -h
        v = s * v * s.T
        row = 0 if basis == "q" else 1
        col = 2 + row
        va, vb, cab = v[row, row], v[col, col], v[row, col]
        mi = mp.log(va / (va - cab * cab / vb), 2) / 2
        if port_model == "trusted":  # S(E) = S(A B'), S(E | y) = S(A D | y)
            chi = _entropy(joint) - _entropy(_condition(v, col, (0, 2)))
        else:  # S(E D) = S(A B), S(E D | y) = S(A | y)
            chi = _entropy(_sub(v, _quads((0, 1)))) - _entropy(_condition(v, col, (0,)))
        return mi - chi

