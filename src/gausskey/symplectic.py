"""Covariance-matrix algebra for Gaussian bosonic modes.

Conventions used throughout the package:

* quadratures obey [q, p] = 2i, so the vacuum state has unit variance in
  every quadrature and its covariance matrix is the identity;
* quadratures are ordered (q1, p1, ..., qn, pn);
* entropies are in bits (logarithms base 2).

States are represented by :class:`CovMat`.  First moments are never tracked:
every quantity computed here is invariant under displacements, and the one
consumer that needs outcome statistics (the protocol simulator) works with
scalar moments directly.  Each state is diagonalised once, when validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeasurementError, DomainError, InvalidStateError

__all__ = [
    "CovMat",
    "SymplecticSpectrum",
    "entropy_g",
    "symplectic_form",
    "vacuum",
    "thermal",
    "tmsv",
    "tensor",
    "symplectic_spectrum",
    "von_neumann_entropy",
    "partial_trace",
    "beam_splitter",
    "two_mode_squeezer",
    "apply_symplectic",
    "homodyne_condition",
]

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])

# Numerical guards.  Symmetry is checked relative to the matrix scale so that
# states with large squeezing variances are not rejected for roundoff in the
# last few bits; physicality allows symplectic eigenvalues to undershoot 1 by
# at most 1e-9 before a state is declared unphysical (smaller undershoots are
# clamped to exactly 1 so the entropy function never sees a negative photon
# number).  The symplectic-matrix check scales with max|S|^2, the size of the
# rounding in S Omega S^T.
SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
SYMPLECTIC_ATOL = 1e-10

_LN2 = math.log(2.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form for the (q1, p1, ..., qn, pn) ordering."""
    if n_modes < 1:
        raise DomainError(f"n_modes must be >= 1, got {n_modes}")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def entropy_g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``.

    g(x) = (x + 1) log2(x + 1) - x log2(x), extended continuously to
    g(0) = 0.  Strictly increasing for finite x >= 0; any other x raises.
    Evaluated as [log1p(x) + x log(1 + 1/x)] / ln 2, which has no
    cancellation at large x; below x = 1 the second logarithm is
    log1p(x) - log(x), since 1/x overflows for subnormal x.
    """
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"entropy_g requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    head = math.log1p(x)
    tail = math.log1p(1.0 / x) if x >= 1.0 else head - math.log(x)
    return (head + x * tail) / _LN2


def _det2(block: np.ndarray) -> float:
    return float(block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])


def _symplectic_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a raw covariance array, descending, each >= 1.

    Raises if the array fails positive definiteness or the uncertainty bound.
    n = 1 uses the exact closed form sqrt(det V).  For n >= 2 the spectrum
    comes from the Hermitian matrix i sqrt(V) Omega sqrt(V), whose
    eigenvalues are +-nu_k: this is algebraically identical to the two-mode
    quadratic in Delta and det V but stays accurate near degenerate spectra,
    where the quadratic's clamped square root turns O(eps * scale^2) rounding
    in the discriminant into O(sqrt(eps) * scale) error in nu (a tmsv state
    already trips the uncertainty check at mu ~ 100 that way).

    Validation tolerances scale with the largest entry: float error in the
    eigenvalues grows with the matrix norm, and an absolute 1e-9 band would
    reject valid states of large variance.
    """
    n = m.shape[0] // 2
    scale = max(1.0, float(np.abs(m).max()))
    if n == 1:
        det = _det2(m)
        if m[0, 0] <= 0.0 or det <= 0.0:
            raise InvalidStateError("covariance matrix is not positive definite")
        nu = np.array([math.sqrt(det)])
    else:
        evals, vecs = np.linalg.eigh(m)
        if evals[0] <= -SYMMETRY_ATOL * scale:
            raise InvalidStateError("covariance matrix is not positive definite")
        root = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.T
        herm = 1j * root @ symplectic_form(n) @ root
        spec = np.linalg.eigvalsh(herm)
        nu = spec[n:][::-1].copy()
    low = float(nu.min())
    if low < 1.0 - PHYSICALITY_ATOL * scale:
        raise InvalidStateError(
            f"unphysical covariance matrix: symplectic eigenvalue {low} < 1"
        )
    return np.maximum(nu, 1.0)


@dataclass(frozen=True)
class CovMat:
    """Covariance matrix of an n-mode Gaussian state.

    Validated on construction: the array must be 2n x 2n, symmetric (within
    1e-12 relative to its largest entry), positive definite, and satisfy the
    uncertainty relation (every symplectic eigenvalue >= 1 - 1e-9).  The
    stored array is read-only, and the spectrum found is kept in ``_nu`` for
    spectra and entropies; all operations return new instances.
    """

    entries: np.ndarray
    _nu: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0 or m.shape[0] % 2:
            raise InvalidStateError(
                f"covariance matrix must be square 2n x 2n, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("covariance matrix has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > SYMMETRY_ATOL * scale:
            raise InvalidStateError("covariance matrix is not symmetric")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_nu", tuple(_symplectic_eigenvalues(m).tolist()))

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j (i == j gives a mode's variance)."""
        return self.entries[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].copy()


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues of a state, sorted descending, each >= 1."""

    values: tuple[float, ...]


def symplectic_spectrum(state: CovMat) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``state`` (Williamson normal-form diagonal)."""
    return SymplecticSpectrum(values=state._nu)


def von_neumann_entropy(state: CovMat) -> float:
    """Entropy of a Gaussian state in bits: sum of g((nu_k - 1) / 2)."""
    return float(sum(entropy_g((v - 1.0) / 2.0) for v in state._nu))


def vacuum(n_modes: int = 1) -> CovMat:
    """n-mode vacuum state (identity covariance)."""
    if n_modes < 1:
        raise DomainError(f"n_modes must be >= 1, got {n_modes}")
    return CovMat(np.eye(2 * n_modes))


def thermal(w: float) -> CovMat:
    """Single-mode thermal state with quadrature variance w = 2 nbar + 1."""
    w = float(w)
    if w < 1.0:
        raise DomainError(f"thermal quadrature variance must be >= 1, got {w}")
    return CovMat(w * np.eye(2))


def tmsv(mu: float) -> CovMat:
    """Two-mode squeezed vacuum with quadrature variance ``mu`` per mode.

    Diagonal blocks are mu * I2 and the cross block is
    sqrt(mu^2 - 1) * diag(1, -1): q quadratures correlated, p quadratures
    anticorrelated.  Pure for every mu >= 1 (mu = 1 is the two-mode vacuum).
    """
    mu = float(mu)
    if mu < 1.0:
        raise DomainError(f"tmsv quadrature variance must be >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)
    return CovMat(np.block([[mu * I2, c * Z2], [c * Z2, mu * I2]]))


def tensor(*states: CovMat) -> CovMat:
    """Product state: direct sum of the covariance blocks."""
    if not states:
        raise DomainError("tensor requires at least one state")
    size = sum(s.entries.shape[0] for s in states)
    out = np.zeros((size, size))
    k = 0
    for s in states:
        n = s.entries.shape[0]
        out[k : k + n, k : k + n] = s.entries
        k += n
    return CovMat(out)


def partial_trace(state: CovMat, keep) -> CovMat:
    """Reduced state on the modes in ``keep`` (returned in ascending order)."""
    modes = sorted({int(k) for k in keep})
    if not modes:
        raise DomainError("keep set must not be empty")
    if modes[0] < 0 or modes[-1] >= state.n_modes:
        raise DomainError(f"keep set {modes} out of range for {state.n_modes} modes")
    idx = [j for m in modes for j in (2 * m, 2 * m + 1)]
    return CovMat(state.entries[np.ix_(idx, idx)])


def beam_splitter(eta: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic with transmissivity ``eta`` in [0, 1]."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"beam-splitter transmissivity must be in [0, 1], got {eta}")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    return np.block([[t * I2, r * I2], [-r * I2, t * I2]])


def two_mode_squeezer(gain: float) -> np.ndarray:
    """Two-mode squeezer symplectic with ``gain`` >= 1 (gain 1 is the identity)."""
    gain = float(gain)
    if gain < 1.0:
        raise DomainError(f"two-mode squeezer gain must be >= 1, got {gain}")
    ch = math.sqrt(gain)
    sh = math.sqrt(gain - 1.0)
    return np.block([[ch * I2, sh * Z2], [sh * Z2, ch * I2]])


def apply_symplectic(state: CovMat, s: np.ndarray, modes) -> CovMat:
    """Apply a symplectic matrix to the listed modes: V -> S V S^T.

    ``s`` must be 2m x 2m for the m distinct modes given and must preserve
    the symplectic form to 1e-10 times max(1, max|S|^2).
    """
    modes = [int(k) for k in modes]
    s = np.asarray(s, dtype=float)
    m = len(modes)
    if m == 0 or len(set(modes)) != m or any(k < 0 or k >= state.n_modes for k in modes):
        raise DomainError(f"invalid mode list {modes} for {state.n_modes} modes")
    if s.shape != (2 * m, 2 * m):
        raise DomainError(
            f"symplectic matrix must be {2 * m} x {2 * m} for {m} modes, got {s.shape}"
        )
    omega = symplectic_form(m)
    bound = SYMPLECTIC_ATOL * max(1.0, float(np.abs(s).max()) ** 2)
    if float(np.abs(s @ omega @ s.T - omega).max()) > bound:
        raise DomainError("matrix is not symplectic")
    embed = np.eye(2 * state.n_modes)
    idx = [j for k in modes for j in (2 * k, 2 * k + 1)]
    embed[np.ix_(idx, idx)] = s
    out = embed @ state.entries @ embed.T
    return CovMat(0.5 * (out + out.T))


def homodyne_condition(state: CovMat, measured_mode: int, quadrature: str) -> CovMat:
    """State of the remaining modes after homodyning one quadrature.

    The conditional covariance of a Gaussian state does not depend on the
    measurement outcome, so no outcome value is taken:
    A' = A - c c^T / v, with v the measured quadrature's variance and c the
    covariance column between the kept quadratures and the measured one.
    The measured mode is destroyed by the detection and dropped.
    """
    if state.n_modes < 2:
        raise DomainError("homodyne conditioning needs at least two modes")
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    k = int(measured_mode)
    if not 0 <= k < state.n_modes:
        raise DomainError(f"measured mode {k} out of range for {state.n_modes} modes")
    col = 2 * k + (0 if quadrature == "q" else 1)
    v = float(state.entries[col, col])
    if v <= 1e-12:
        raise DegenerateMeasurementError(
            f"measured quadrature variance {v} is numerically singular"
        )
    idx = [j for mm in range(state.n_modes) if mm != k for j in (2 * mm, 2 * mm + 1)]
    a = state.entries[np.ix_(idx, idx)]
    c = state.entries[idx, col]
    return CovMat(a - np.outer(c, c) / v)
