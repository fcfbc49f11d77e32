"""mpmath oracles for the finite-squeezing engines.

Each state is built from the channel parameters and the source variance as
given, not from the engines' rounded arrays: the two-mode squeezed vacuum
(A, B) with cross block sqrt(mu^2 - 1) Z, and the channel's covariance
action on B.  Every entropy is of a one- or two-mode state and comes from
sqrt(det V) or from the two-mode invariants Delta and det V.

The quadratic in Delta and det V gives nu_-^2 = (Delta - sqrt(Delta^2 -
4 det V)) / 2, which cancels about 2 log10(nu_+ / nu_-) digits, so every
oracle works at 60 digits plus twice the decimal exponent of the largest
entry of (A, B'), or at the caller's precision where that is higher.

* ``rci`` and ``ci``: S(A) - S(A B') and S(B') - S(A B').
* ``protocol_rate``: a vacuum port D and Bob's balanced beam splitter on
  (B', D) follow.  The eavesdropper's entropies are those of the modes
  complementary to hers (the global state is pure, and stays pure given
  Bob's outcome).
"""

import math

from mpmath import mp


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


def _output(tau, nbar, mu):
    """(A, B'): arm B of the two-mode squeezed vacuum sent through the channel.

    X = sqrt|tau| I (tau >= 0) or sqrt|tau| Z (tau < 0) turns the cross block
    c Z into sqrt|tau| c Z or sqrt|tau| c I, and B's block into
    |tau| mu + |1 - tau| (2 nbar + 1) times I.
    """
    cross = mp.sqrt(abs(tau) * (mu * mu - 1))
    out = abs(tau) * mu + abs(1 - tau) * (2 * nbar + 1)
    v = mp.diag([mu, mu, out, out])
    v[0, 2] = v[2, 0] = cross
    v[1, 3] = v[3, 1] = -cross if tau >= 0 else cross
    return v


def _digits(tau, nbar, mu):
    """The higher of mp.dps and 60 plus twice the decimal exponent of (A, B')'s largest entry."""
    scale = max(float(mu), abs(tau) * float(mu) + abs(1 - tau) * (2 * float(nbar) + 1))
    return max(mp.dps, 60 + 2 * int(math.log10(scale) + 1))


def _coherent_information(tau, nbar, mu, kept):
    with mp.workdps(_digits(tau, nbar, mu)):
        joint = _output(mp.mpf(tau), mp.mpf(nbar), mp.mpf(mu))
        return _entropy(_sub(joint, _quads((kept,)))) - _entropy(joint)


def rci(tau, nbar, mu):
    """Reverse coherent information S(A) - S(A B') at (tau, nbar, mu), in bits, as an mpf."""
    return _coherent_information(tau, nbar, mu, 0)


def ci(tau, nbar, mu):
    """Coherent information S(B') - S(A B') at (tau, nbar, mu), in bits, as an mpf."""
    return _coherent_information(tau, nbar, mu, 1)


def protocol_rate(tau, nbar, mu, port_model="trusted", basis="q"):
    """I(x_A : y) - chi(E : y) at (tau, nbar, mu), in bits, as an mpf."""
    with mp.workdps(_digits(tau, nbar, mu)):
        joint = _output(mp.mpf(tau), mp.mpf(nbar), mp.mpf(mu))
        v = mp.eye(6)  # (A, B', D): the channel output, then the vacuum port
        for i in range(4):
            for j in range(4):
                v[i, j] = joint[i, j]
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
