"""Shared helpers: random symplectics, random valid states, spectrum oracles.

The spectrum oracles here are deliberately independent of the production
route (which diagonalizes i L^T Omega L for the Cholesky factor V = L L^T):
one goes through the generic complex eigensolver on i Omega V, one through
the two-mode quadratic in Delta and det V, and one through the symmetric
square root, i sqrt(V) Omega sqrt(V) with sqrt(V) from eigh.  Tests compare
all routes.
"""

import numpy as np
from scipy.linalg import expm

from gausskey import CovMat, symplectic_form


def random_symplectic(rng, n_modes, strength=0.35):
    """Random symplectic matrix exp(Omega H) with H symmetric."""
    h = rng.normal(0.0, strength, (2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_state(rng, n_modes, pure=False):
    """Random valid state with known spectrum; returns (CovMat, descending nus)."""
    if pure:
        nus = np.ones(n_modes)
    else:
        nus = 1.0 + rng.exponential(0.7, n_modes)
    s = random_symplectic(rng, n_modes)
    v = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return CovMat(v), np.sort(nus)[::-1]


def spectrum_via_iomega(state):
    """Moduli of the eigenvalues of i Omega V, deduplicated, descending."""
    n = state.n_modes
    w = np.linalg.eigvals(1j * symplectic_form(n) @ state.entries)
    mods = np.sort(np.abs(w))[::-1]
    return mods[::2]


def spectrum_two_mode_closed_form(state):
    """Two-mode quadratic: nu_pm^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2."""
    m = state.entries
    det2 = lambda b: b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    delta = det2(m[0:2, 0:2]) + det2(m[2:4, 2:4]) + 2.0 * det2(m[0:2, 2:4])
    disc = max(delta * delta - 4.0 * np.linalg.det(m), 0.0)
    hi = np.sqrt(0.5 * (delta + np.sqrt(disc)))
    lo = np.sqrt(max(0.5 * (delta - np.sqrt(disc)), 0.0))
    return np.array([hi, lo])


def spectrum_via_eigh_root(m):
    """Eigenvalues of i sqrt(V) Omega sqrt(V), sqrt(V) from eigh; descending, clamped at 1."""
    n = m.shape[0] // 2
    evals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.T
    spec = np.linalg.eigvalsh(1j * (root @ symplectic_form(n) @ root))
    return np.maximum(spec[n:][::-1], 1.0)
