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
The thermal entropy ``entropy_g`` lives in the numpy-free ``rates`` module,
which exports it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeasurementError, DomainError, InvalidStateError, NumericError
from .errors import _choice, _count, _float, _shown, _whole
from .rates import entropy_g

__all__ = [
    "CovMat",
    "SymplecticSpectrum",
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


def _times_omega(x: np.ndarray) -> np.ndarray:
    """``x @ Omega`` as a signed swap of each column pair (exact: entries only move and flip sign).

    Column 2k becomes -x[:, 2k + 1] and column 2k + 1 becomes x[:, 2k].
    """
    out = np.empty_like(x)
    out[:, 0::2] = -x[:, 1::2]
    out[:, 1::2] = x[:, 0::2]
    return out


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form for the (q1, p1, ..., qn, pn) ordering (a new array)."""
    return _times_omega(np.eye(2 * _count(n_modes, 1, "n_modes", field="n_modes")))


def _power_of_four(x: float, top: int) -> float:
    """The least power of four 4**k, k <= 511, with a positive finite ``x`` / 4**k < 2**top."""
    return math.ldexp(1.0, 2 * min((math.frexp(x)[1] + 1 - top) // 2, 511))


def _two_mode_eigenvalues(flat: list[float]) -> list[float] | None:
    """Two-mode spectrum [nu_+, nu_-] in Python floats, or None where a Cholesky pivot is not > 0.

    V = L L^T is factorised entry by entry, and K = L^T Omega L is the real
    antisymmetric matrix whose eigenvalues are +-i nu_k.  Its self-dual and
    anti-self-dual parts a = (k01 + k23, k02 - k13, k03 + k12) and
    b = (k01 - k23, k02 + k13, k03 - k12) give nu_+ = (|a| + |b|) / 2.
    Since |a|^2 - |b|^2 = 4 Pf K = 4 det L, the product nu_+ nu_- is
    det L = sqrt(det V), so nu_- = det L / nu_+: unlike (|a| - |b|) / 2 it
    keeps its digits however far nu_+ / nu_- exceeds 1 / eps.  No square root
    of a rounded discriminant is taken, so a pure state's nu_- = 1 is as
    accurate as the factor L (two-mode invariants: Serafini, Illuminati &
    De Siena, J. Phys. B 37, L21 (2004)).
    """
    a00, a01, a02, a03, _, a11, a12, a13, _, _, a22, a23, _, _, _, a33 = flat
    if not a00 > 0.0:
        return None
    l00 = math.sqrt(a00)
    l10, l20, l30 = a01 / l00, a02 / l00, a03 / l00
    d = a11 - l10 * l10
    if not d > 0.0:
        return None
    l11 = math.sqrt(d)
    l21, l31 = (a12 - l20 * l10) / l11, (a13 - l30 * l10) / l11
    d = a22 - l20 * l20 - l21 * l21
    if not d > 0.0:
        return None
    l22 = math.sqrt(d)
    l32 = (a23 - l30 * l20 - l31 * l21) / l22
    d = a33 - l30 * l30 - l31 * l31 - l32 * l32
    if not d > 0.0:
        return None
    l33 = math.sqrt(d)
    k01 = l00 * l11 + l20 * l31 - l30 * l21
    k02 = l20 * l32 - l30 * l22
    k03 = l20 * l33
    k12 = l21 * l32 - l31 * l22
    k13 = l21 * l33
    k23 = l22 * l33
    a = math.hypot(k01 + k23, k02 - k13, k03 + k12)
    b = math.hypot(k01 - k23, k02 + k13, k03 - k12)
    high = 0.5 * (a + b)
    # nu_+ nu_- = det L: no cancellation, and no product past the float range
    return [high, (l00 * l11) * ((l22 * l33) / high)]


def _symplectic_eigenvalues(flat: list[float], m: np.ndarray) -> tuple[float, ...]:
    """Symplectic spectrum of ``m``, entries ``flat`` (row-major floats), descending, each >= 1.

    Raises if the array fails positive definiteness or the uncertainty bound.
    n = 1 uses the exact closed form sqrt(det V), and n = 2 the closed form
    of :func:`_two_mode_eigenvalues`, both in Python floats.  Every other
    array (more modes, or a two-mode array with a Cholesky pivot that is
    not > 0) is factorised by numpy as V = L L^T, and the spectrum comes
    from the Hermitian matrix i L^T Omega L, whose eigenvalues are +-nu_k
    for any such factor L (Omega is applied as an exact signed column swap).
    Neither route forms the two-mode quadratic in Delta and det V, whose
    clamped square root turns O(eps * scale^2) rounding in the discriminant
    into O(sqrt(eps) * scale) error in nu near degenerate spectra (a tmsv
    state already trips the uncertainty check at mu ~ 100 that way).

    L is the Cholesky factor, and its existence is the positive-definiteness
    test.  Only for an array Cholesky refuses (indefinite, or numerically
    singular such as tmsv(mu) for mu >= ~1e8) is the smallest eigenvalue
    checked against a band of -1e-12 * max|V|; inside the band, L is the
    symmetric square root from ``eigh``.

    Validation tolerances scale with the largest entry: float error in the
    eigenvalues grows with the matrix norm, and an absolute 1e-9 band would
    reject valid states of large variance.  Past 2**510 every route of two
    or more modes works on V / f and multiplies nu by f, f the least power of
    four that brings the largest diagonal entry below 2**480 (exact):
    L^T Omega L (at most 2n times it) stays below 2**485, past which LAPACK
    rescales by other factors.  One mode needs no f.
    """
    n = m.shape[0] // 2
    # A positive-definite array's largest entry lies on its diagonal.
    peak = max(flat[:: 2 * n + 1])
    f = _power_of_four(peak, 480) if peak > 2.0**510 and n > 1 else 1.0
    flat = [x / f for x in flat] if f > 1.0 else flat
    nu = _two_mode_eigenvalues(flat) if n == 2 else None
    if n == 1:
        a, b, c, d = flat
        if peak <= 2.0**510:
            det, half = a * d - b * c, 0
        else:
            # det V / 4**half on the mantissas: a d - b c's rounding with no
            # overflow, and no squeezed d lost to underflow as in V / f
            (ma, ea), (mb, eb), (mc, ec), (md, ed) = map(math.frexp, flat)
            half = max(ea + ed, eb + ec) // 2
            det = math.ldexp(ma * md, ea + ed - 2 * half) - math.ldexp(mb * mc, eb + ec - 2 * half)
        if not (a > 0.0 and det > 0.0):
            raise InvalidStateError("covariance matrix is not positive definite")
        nu = [math.ldexp(math.sqrt(det), half)]
    elif nu is None:
        a = m / f if f > 1.0 else m
        try:
            root = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            evals, vecs = np.linalg.eigh(a)
            if evals[0] <= -SYMMETRY_ATOL * max(1.0 / f, float(np.abs(a).max())):
                raise InvalidStateError("covariance matrix is not positive definite")
            root = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.T
        spec = np.linalg.eigvalsh(1j * (_times_omega(root.T) @ root))
        nu = spec[: n - 1 : -1].tolist()
    high, low = nu[0] * f, nu[-1] * f
    if not high < math.inf:
        raise NumericError(
            f"symplectic eigenvalue {high} of a {n}-mode state is past the float range "
            "(float range limit)"
        )
    if low < 1.0 - PHYSICALITY_ATOL * max(1.0, peak):
        raise InvalidStateError(f"unphysical covariance matrix: symplectic eigenvalue {low} < 1")
    return tuple([max(v * f, 1.0) for v in nu])


def _real_array(x, error: type, what: str) -> np.ndarray:
    """``x`` as a float array; entries of other dtypes than bool, int and float via ``_float``."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        raise error(f"{what} is not a rectangular array") from None
    if a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    return np.array([_float(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _variance(v: float, what: str, field: str | None = None) -> float:
    """``float(v)`` if it is a quadrature variance, finite and >= 1, else raise."""
    x = _float(v)
    if not 1.0 <= x < math.inf:
        raise DomainError(f"{what} must be >= 1 and finite, got {_shown(v)}", field=field)
    return x


def _quadratures(modes, n_modes: int, field: str) -> list[int]:
    """Quadrature indices (2k, 2k + 1) of ``modes``: distinct whole numbers in range(n_modes).

    A refusal names ``field``, the caller's argument.
    """
    try:
        ks = [k if type(k) is int else int(k) if _whole(k) else -1 for k in modes]
    except TypeError:  # not iterable
        ks = []
    if not ks or len(set(ks)) != len(ks) or min(ks) < 0 or max(ks) >= n_modes:
        raise DomainError(f"invalid mode list {_shown(modes)} for {n_modes} modes", field=field)
    return [j for k in ks for j in (2 * k, 2 * k + 1)]


@functools.lru_cache(maxsize=16)
def _transposed(size: int) -> tuple[int, ...]:
    """Positions that read a row-major size x size list column by column."""
    return tuple(j * size + i for i in range(size) for j in range(size))


def _result(out: np.ndarray | list, what: str) -> CovMat:
    """``CovMat(out)`` for the new entries (array or nested list) of an operation on a valid state.

    Such entries, and those ``tmsv`` builds from a valid ``mu``, hold inf or
    NaN only where the arithmetic overflowed, so once :class:`CovMat`
    refuses them, non-finite entries raise :class:`NumericError` (float
    range limit) instead.
    """
    try:
        return CovMat(out)
    except InvalidStateError:
        if np.isfinite(out).all():
            raise
    raise NumericError(f"{what} has entries past the float range (float range limit)")


@dataclass(frozen=True)
class CovMat:
    """Covariance matrix of an n-mode Gaussian state.

    Validated on construction, from one read of the array into Python
    floats (each entry under the package's real-number rule): it must be
    2n x 2n with finite real entries, symmetric (within 1e-12 times
    max(1, largest entry); the stored array is the symmetrised one),
    positive definite (it has a Cholesky factor; an array too singular for
    one may have no eigenvalue at or below -1e-12 times its largest entry),
    and satisfy the uncertainty relation (every symplectic eigenvalue
    >= 1 - 1e-9 times max(1, largest entry)).  A spectrum past the float
    range raises :class:`NumericError`.  The stored array is a read-only
    view of a read-only array, and the spectrum found is kept in ``_nu``
    for spectra and entropies.  ``tmsv`` and ``vacuum`` return one shared,
    validated, read-only instance per parameter; every other operation
    returns a new instance.
    """

    entries: np.ndarray
    _nu: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _real_array(self.entries, InvalidStateError, "covariance matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0 or m.shape[0] % 2:
            raise InvalidStateError(
                f"covariance matrix must be square 2n x 2n, got shape {m.shape}"
            )
        flat = m.ravel().tolist()  # the one read: every rule below is stated on Python floats
        if not all(map(math.isfinite, flat)):  # max() would skip a NaN that is not first
            raise InvalidStateError("covariance matrix has non-finite or non-real entries")
        flat_t = [flat[k] for k in _transposed(m.shape[0])]
        # x - y is exactly -(y - x), so the largest difference is the largest |x - y|
        if max(map(operator.sub, flat, flat_t)) > SYMMETRY_ATOL * max(1.0, *map(abs, flat)):
            raise InvalidStateError("covariance matrix is not symmetric")
        flat = [x if x == y else 0.5 * x + 0.5 * y for x, y in zip(flat, flat_t)]
        a = np.array(flat)
        a.flags.writeable = False
        # A view of a read-only array can never be made writable again.
        m = a.reshape(m.shape)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_nu", _symplectic_eigenvalues(flat, m))

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j (i == j gives a mode's variance)."""
        rows = _quadratures([i], self.n_modes, "i")
        cols = _quadratures([j], self.n_modes, "j")
        return self.entries.take(rows, 0).take(cols, 1)


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
    """n-mode vacuum state (identity covariance), one shared instance per ``n_modes``."""
    return _vacuum(_count(n_modes, 1, "n_modes", field="n_modes"))


@functools.lru_cache(maxsize=16)
def _vacuum(n_modes: int) -> CovMat:
    return CovMat(np.eye(2 * n_modes))


def thermal(w: float) -> CovMat:
    """Single-mode thermal state with quadrature variance w = 2 nbar + 1."""
    return CovMat(_variance(w, "thermal quadrature variance w") * np.eye(2))


def tmsv(mu: float) -> CovMat:
    """Two-mode squeezed vacuum with quadrature variance ``mu`` per mode.

    Diagonal blocks are mu * I2 and the cross block is
    sqrt(mu^2 - 1) * diag(1, -1): q quadratures correlated, p quadratures
    anticorrelated.  Pure for every mu >= 1 (mu = 1 is the two-mode vacuum).
    One shared instance per value of ``mu`` is built; a ``mu`` whose state
    fails validation raises on every call.
    """
    return _tmsv(_variance(mu, "source variance mu"))


@functools.lru_cache(maxsize=256)
def _tmsv(mu: float) -> CovMat:
    c = math.sqrt(mu * mu - 1.0)  # inf once mu^2 overflows
    return _result(
        [[mu, 0.0, c, 0.0], [0.0, mu, 0.0, -c], [c, 0.0, mu, 0.0], [0.0, -c, 0.0, mu]], "tmsv"
    )


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
    """Reduced state on the distinct modes in ``keep`` (returned in ascending order)."""
    idx = sorted(_quadratures(keep, state.n_modes, "keep"))
    return CovMat(state.entries.take(idx, 0).take(idx, 1))


def beam_splitter(eta: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic with transmissivity ``eta`` in [0, 1]."""
    eta = _float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"beam-splitter transmissivity must be in [0, 1], got {eta}")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    return np.array([[t, 0.0, r, 0.0], [0.0, t, 0.0, r], [-r, 0.0, t, 0.0], [0.0, -r, 0.0, t]])


def two_mode_squeezer(gain: float) -> np.ndarray:
    """Two-mode squeezer symplectic with ``gain`` >= 1 (gain 1 is the identity)."""
    gain = _variance(gain, "two-mode squeezer gain")
    ch = math.sqrt(gain)
    sh = math.sqrt(gain - 1.0)
    return np.array(
        [[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh], [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]]
    )


def apply_symplectic(state: CovMat, s: np.ndarray, modes) -> CovMat:
    """Apply a symplectic matrix to the listed modes: V -> S V S^T.

    ``s`` must be 2m x 2m for the m distinct modes given and must preserve
    the symplectic form to 1e-10 times max(1, max|S|^2).
    """
    idx = _quadratures(modes, state.n_modes, "modes")
    s = _real_array(s, DomainError, "symplectic matrix")
    m = len(idx) // 2
    if s.shape != (2 * m, 2 * m):
        raise DomainError(
            f"symplectic matrix must be {2 * m} x {2 * m} for {m} modes, got {s.shape}"
        )
    peak = float(np.abs(s).max())
    if not peak < math.inf:  # NaN too
        raise DomainError("symplectic matrix has non-finite or non-real entries")
    bound = SYMPLECTIC_ATOL * max(1.0, peak * peak)
    if not bound < math.inf:
        raise NumericError(f"max|S|^2 = {peak}^2 is past the float range (float range limit)")
    out = state.entries.copy()  # S V S^T: only the rows and columns in idx change
    with np.errstate(over="ignore", invalid="ignore"):
        if not float(np.abs(_times_omega(s) @ s.T - symplectic_form(m)).max()) <= bound:  # NaN too
            raise DomainError("matrix is not symplectic")
        out[idx] = s @ out[idx]
        out[:, idx] = out[:, idx] @ s.T
        # Rounding in a strongly squeezing S can leave more asymmetry than
        # CovMat accepts; halving before the sum keeps representable entries finite.
        out *= 0.5
        out = out + out.T
    return _result(out, "symplectic update")


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
    _choice(quadrature, ("q", "p"), "quadrature")
    quads = _quadratures([measured_mode], state.n_modes, "measured_mode")
    col = quads[0 if quadrature == "q" else 1]
    rows = state.entries.tolist()
    c, v = rows[col], rows[col][col]
    if not v > 0.0:  # only in an array that CovMat's eigh band let through
        raise DegenerateMeasurementError(f"measured quadrature variance {v} is not positive")
    idx = [j for j in range(2 * state.n_modes) if j // 2 != col // 2]
    out = [[rows[i][j] - c[i] * c[j] / v for j in idx] for i in idx]
    return _result(out, "homodyne update")
