"""Fock-basis operators and Hamiltonians of the squeeze-driven Kerr oscillator.

Conventions used throughout the package:

* hbar = 1 and the Kerr coefficient K is the unit of energy: every energy
  (delta, eps2, eps4) is in units of K, every time in 1/K, and no function
  takes K.  A device with Kerr coefficient K maps to delta/K, eps2/K and
  eps4/K.
* The rotating-frame Hamiltonian is
  ``H = delta a^dag a - a^dag^2 a^2 + eps2 (a^dag^2 + a^2) + eps4 (a^dag^4 + a^4)``,
  which is real symmetric in the Fock basis.
* The metapotential wells sit at the *top* of the spectrum: the "ground state
  manifold" is the pair of largest eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import InvalidDimensionError, TruncationRiskError

__all__ = [
    "HamiltonianParams",
    "default_dim",
    "annihilation",
    "number_operator",
    "quadrature_x",
    "parity_operator",
    "coherent_state",
    "hamiltonian_bands",
    "build_hamiltonian",
    "displacement_operator",
    "displaced_hamiltonian",
    "displaced_frame_offset",
]


def default_dim(delta: float, *, eps2: float = 0.0) -> int:
    """Heuristic Fock truncation keeping the well states far from the edge."""
    return max(60, math.ceil(10.0 * (delta + 2.0 * eps2)))


@dataclass(frozen=True)
class HamiltonianParams:
    """Full model specification (energies in units of K).

    Every field after ``delta`` is keyword-only; ``dataclasses.replace``
    gives a copy with some fields changed.  ``dim`` defaults to
    :func:`default_dim`; pass it explicitly for sweeps where reproducibility
    across parameter points matters.
    """

    delta: float
    _: KW_ONLY
    eps2: float = 0.0
    eps4: float = 0.0
    dim: int = 0

    def __post_init__(self):
        if not all(np.isfinite([self.delta, self.eps2, self.eps4])):
            raise ValueError("Hamiltonian parameters must be finite")
        if self.eps2 < 0 or self.eps4 < 0:
            raise ValueError("drive amplitudes eps2, eps4 must be >= 0")
        if self.dim == 0:
            object.__setattr__(self, "dim", default_dim(self.delta, eps2=self.eps2))
        if self.dim < 4:
            raise InvalidDimensionError(f"dim must be >= 4, got {self.dim}")


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with ``a[n-1, n] = sqrt(n)``."""
    if dim < 2:
        raise InvalidDimensionError(f"annihilation needs dim >= 2, got {dim}")
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def quadrature_x(dim: int) -> np.ndarray:
    """X = a + a^dag (the which-well quadrature)."""
    a = annihilation(dim)
    return a + a.T


def parity_operator(dim: int) -> np.ndarray:
    """Photon-number parity, diagonal (-1)^n."""
    return np.diag((-1.0) ** np.arange(dim))


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!), truncated and unnormalised tail."""
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    if alpha == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    logmod = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * log_fact
    phase = np.exp(1j * n * np.angle(complex(alpha)))
    return np.exp(logmod) * phase


def hamiltonian_bands(p: HamiltonianParams):
    """(diag, c2, c4): the three bands of the model Hamiltonian.

    ``diag[n] = delta*n - n(n-1)``; ``c2[n]`` (length dim-2) couples
    n <-> n+2 and ``c4[n]`` (length dim-4) couples n <-> n+4.  A band is
    zero when its drive is off.
    """
    n = np.arange(p.dim, dtype=float)
    diag = p.delta * n - n * (n - 1)
    m = n[:-2]
    c2 = p.eps2 * np.sqrt((m + 1) * (m + 2))
    m = n[:-4]
    c4 = p.eps4 * np.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))
    return diag, c2, c4


def build_hamiltonian(p: HamiltonianParams) -> np.ndarray:
    """Dense real-symmetric Hamiltonian in the truncated Fock basis, from
    :func:`hamiltonian_bands`."""
    diag, c2, c4 = hamiltonian_bands(p)
    h = np.diag(diag)
    for k, c in ((2, c2), (4, c4)):
        h += np.diag(c, k) + np.diag(c, -k)
    return h


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """Unitary D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space.

    Accurate in the top-left block only while the displaced support fits;
    refuse blatantly unsafe requests.
    """
    from scipy.linalg import expm

    if abs(alpha) ** 2 > dim / 4:
        raise TruncationRiskError(
            f"|alpha|^2 = {abs(alpha)**2:.3g} exceeds dim/4 = {dim/4:.3g}; "
            "increase dim")
    a = annihilation(dim)
    gen = alpha * a.T - np.conj(alpha) * a
    return expm(gen.astype(complex))


def displaced_hamiltonian(p: HamiltonianParams, alpha: float) -> np.ndarray:
    """Hamiltonian in the frame displaced by ``alpha`` (real), no scalar term.

    Obtained by substituting a -> a + alpha in the model; for
    alpha^2 = eps2 the surviving quadratic drive cancels and the matrix is
    tridiagonal in the Fock basis with the raising element
    -2 alpha (n - delta/2) sqrt(n+1), which vanishes at the multilevel
    resonance delta = 2 m.  Agrees with D(-alpha) H D(-alpha)^dag up to the
    additive constant :func:`displaced_frame_offset` and the truncation tail.
    """
    if p.eps4 != 0:
        raise ValueError("displaced_hamiltonian requires eps4 = 0")
    dim = p.dim
    delta, eps2 = p.delta, p.eps2
    n = np.arange(dim, dtype=float)
    h = np.diag(-n * (n - 1) + (delta - 4 * alpha**2) * n)
    m = np.arange(dim - 1, dtype=float)
    # linear + cubic ladder terms: (delta*alpha + 2*eps2*alpha - 2*alpha^3) a^dag
    # - 2*alpha a^dag^2 a  (and h.c.); element <n+1| . |n>
    lin = (delta + 2 * eps2 - 2 * alpha**2) * alpha
    c1 = (lin - 2 * alpha * m) * np.sqrt(m + 1)
    h += np.diag(c1, -1) + np.diag(c1, 1)
    q = eps2 - alpha**2
    if q:
        mm = np.arange(dim - 2, dtype=float)
        c2 = q * np.sqrt((mm + 1) * (mm + 2))
        h += np.diag(c2, 2) + np.diag(c2, -2)
    return h


def displaced_frame_offset(p: HamiltonianParams, alpha: float) -> float:
    """Scalar dropped by :func:`displaced_hamiltonian`: <alpha|H|alpha> at the node."""
    delta, eps2 = p.delta, p.eps2
    return delta * alpha**2 - alpha**4 + 2 * eps2 * alpha**2
