"""Eigenanalysis: parity-resolved spectra, tunnel splittings, degeneracies.

The eigensolver exploits the structure of the model: for Hamiltonians, real
or complex, that conserve photon-number parity (couplings n <-> n+2, n+4
only) the even and odd Fock sub-blocks are diagonalised separately and
merged, which labels every eigenvector with an exact parity and resolves
degenerate even/odd pairs without ambiguity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidDimensionError, PoleError
from .fock import HamiltonianParams, build_hamiltonian, quadrature_x
from .tables import SweepResult

__all__ = [
    "EigenSystem",
    "TunnelSplitting",
    "DegeneracyReport",
    "eigensystem",
    "tunnel_splitting",
    "signed_splitting",
    "splitting_sweep",
    "find_splitting_zeros",
    "degeneracy_check",
    "resonant_displaced_hamiltonian",
    "exact_block_matrix",
    "exact_block_eigenvalues",
    "align_offset",
    "first_order_crossing_amplitude",
    "second_order_energy",
    "localized_pair",
    "quartic_drive_spectrum",
    "quartic_crossing_location",
]


@dataclass
class EigenSystem:
    """Eigenvalues sorted descending (well-depth order) with parity labels.

    ``parities`` is None when the input does not commute with photon parity.
    """

    eigenvalues: np.ndarray
    parities: np.ndarray | None
    eigenvectors: np.ndarray
    dim: int


@dataclass
class TunnelSplitting:
    delta_e: float          # E(top even) - E(top odd), units of kerr
    abs_delta_e: float
    ground_parity: int      # parity of the overall top eigenstate


def _commutes_with_parity(h: np.ndarray, tol: float) -> bool:
    """True when every even<->odd Fock element (i + j odd) is within ``tol``."""
    return max(np.abs(h[0::2, 1::2]).max(initial=0.0),
               np.abs(h[1::2, 0::2]).max(initial=0.0)) <= tol


def eigensystem(h: np.ndarray, hermitian_tol: float = 1e-10) -> EigenSystem:
    """Diagonalise a Hermitian matrix, descending order, with parity labels.

    Raises on non-Hermitian input.  A matrix that commutes with the photon
    parity, real or complex, is diagonalised block by block over the even
    and odd Fock indices, so every eigenvector carries an exact parity (and
    is exactly 0 on the other parity's indices); any other matrix gets a
    dense solve and no parity labels.
    """
    h = np.asarray(h)
    scale = max(1.0, np.abs(h).max())
    if np.abs(h - h.conj().T).max() > hermitian_tol * scale:
        raise ValueError("input matrix is not Hermitian")
    dim = h.shape[0]
    if not _commutes_with_parity(h, 1e-13 * scale):
        w, v = np.linalg.eigh(h)
        return EigenSystem(w[::-1], None, v[:, ::-1], dim)

    vals = np.empty(dim)
    pars = np.empty(dim, dtype=int)
    vecs = np.zeros((dim, dim), dtype=complex if np.iscomplexobj(h) else float)
    pos = 0
    for start, par in ((0, 1), (1, -1)):
        w, v = np.linalg.eigh(h[start::2, start::2])
        k = len(w)
        vals[pos:pos + k] = w
        pars[pos:pos + k] = par
        vecs[start::2, pos:pos + k] = v
        pos += k
    # descending energy; even member first on exact ties
    order = np.lexsort((-pars, -vals))
    return EigenSystem(vals[order], pars[order], vecs[:, order], dim)


def tunnel_splitting(p: HamiltonianParams) -> TunnelSplitting:
    """Signed ground-manifold splitting E(top even) - E(top odd)."""
    es = eigensystem(build_hamiltonian(p))
    w = es.eigenvalues
    de = w[es.parities == 1][0] - w[es.parities == -1][0]
    return TunnelSplitting(de, abs(de), int(es.parities[0]))


def signed_splitting(delta: float, p0: HamiltonianParams) -> float:
    return tunnel_splitting(p0.with_(delta=delta)).delta_e


def _scan(p0: HamiltonianParams, grid, xtol: float):
    """Signed splitting at every grid delta, and its zeros: the grid points
    where it is exactly 0 plus a ``brentq`` root to ``xtol`` on every grid
    interval where it changes sign."""
    vals = np.array([signed_splitting(d, p0) for d in grid])
    zeros = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            zeros.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            zeros.append(brentq(signed_splitting, grid[i], grid[i + 1],
                                args=(p0,), xtol=xtol))
    if len(grid) and vals[-1] == 0.0:
        zeros.append(grid[-1])
    return vals, zeros


def find_splitting_zeros(p0: HamiltonianParams, lo: float, hi: float,
                         scan_points: int = 201, xtol: float = 1e-8) -> np.ndarray:
    """Zeros of the signed splitting in [lo, hi], refined by bisection."""
    return np.array(_scan(p0, np.linspace(lo, hi, scan_points), xtol)[1])


def splitting_sweep(p0: HamiltonianParams, delta_grid: np.ndarray) -> SweepResult:
    """|dE| and signed dE per grid point; zero locations in ``meta['zeros']``."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    if np.any(np.diff(delta_grid) <= 0):
        raise ValueError("delta grid must be strictly increasing")
    vals, zeros = _scan(p0, delta_grid, 1e-8)
    out = SweepResult(["delta", "eps2", "de_signed", "abs_de"])
    for d, de in zip(delta_grid, vals):
        out.append(float(d), p0.eps2, de, abs(de))
    out.meta["zeros"] = zeros
    return out


@dataclass
class DegeneracyReport:
    m: int
    pairs: list                 # (energy_even, energy_odd) per pair, descending
    gaps: np.ndarray            # |intra-pair gap| per pair
    n_degenerate: int           # pairs with gap below tolerance
    tolerance: float
    ok: bool = field(default=False)

    def __post_init__(self):
        self.ok = self.n_degenerate >= self.m + 1


def _pair_up(es: EigenSystem, n_pairs: int) -> list:
    """The k-th even state paired with the k-th odd state in descending
    order, as (smaller, larger) index tuples, for k < ``n_pairs``."""
    n = max(n_pairs, 0)
    even = np.flatnonzero(es.parities == 1)[:n]
    odd = np.flatnonzero(es.parities == -1)[:n]
    return [(int(min(i, j)), int(max(i, j))) for i, j in zip(even, odd)]


def degeneracy_check(m: int, eps2: float, kerr: float = 1.0,
                     dim: int | None = None,
                     tolerance: float = 1e-8) -> DegeneracyReport:
    """Verify m+1 opposite-parity degenerate pairs at delta = 2 m kerr."""
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    p = HamiltonianParams(delta=2 * m * kerr, kerr=kerr, eps2=eps2,
                          dim=dim if dim else 0)
    if p.dim < 2 * (m + 2):
        raise InvalidDimensionError(f"dim={p.dim} too small for m={m}")
    es = eigensystem(build_hamiltonian(p))
    even = es.eigenvalues[es.parities == 1][:m + 1]
    odd = es.eigenvalues[es.parities == -1][:m + 1]
    gaps = np.abs(even - odd)
    n_deg = 0
    for g in gaps:
        if g < tolerance * kerr:
            n_deg += 1
        else:
            break
    return DegeneracyReport(m, list(zip(even, odd)), gaps, n_deg, tolerance)


def resonant_displaced_hamiltonian(m: int, eps2: float, kerr: float = 1.0,
                                   dim: int = 0) -> np.ndarray:
    """Displaced-frame Hamiltonian at the resonance delta = 2 m kerr.

    Specialised tridiagonal form with the ladder bracket (n - m) kept in
    integer arithmetic, so the decoupling elements at n = m vanish exactly
    (up to the scalar frame offset, same convention as
    :func:`kerrcat.fock.displaced_hamiltonian`).
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    if dim == 0:
        dim = max(m + 4, 8)
    alpha = np.sqrt(eps2 / kerr)
    n = np.arange(dim, dtype=float)
    h = np.diag((2 * m * kerr - 4 * eps2) * n - kerr * n * (n - 1))
    nn = np.arange(dim - 1)
    c1 = -2 * kerr * alpha * (nn - m) * np.sqrt(nn + 1.0)
    h += np.diag(c1, 1) + np.diag(c1, -1)
    return h


def exact_block_matrix(m: int, eps2: float, kerr: float = 1.0) -> np.ndarray:
    """(m+1) x (m+1) decoupled block of the displaced frame at delta = 2 m kerr."""
    return resonant_displaced_hamiltonian(m, eps2, kerr)[: m + 1, : m + 1]


def exact_block_eigenvalues(m: int, eps2: float, kerr: float = 1.0) -> np.ndarray:
    """Eigenvalues (descending) of the decoupled displaced block; each appears
    twice in the full spectrum after constant-offset alignment."""
    return np.sort(np.linalg.eigvalsh(exact_block_matrix(m, eps2, kerr)))[::-1]


def align_offset(block_vals_desc: np.ndarray, pair_means_desc: np.ndarray) -> float:
    """RMS-minimising constant offset between block eigenvalues and pair means."""
    return float(np.mean(pair_means_desc - block_vals_desc))


def first_order_crossing_amplitude(n: int, eps2: float) -> float:
    """Avoided-crossing amplitude eps2 sqrt((n+1)(n+2)) of consecutive levels."""
    return eps2 * np.sqrt((n + 1) * (n + 2))


def second_order_energy(level: int, p: HamiltonianParams) -> float:
    """Second-order squeeze-drive correction to Fock level ``level``.

    Standard second-order perturbation theory for V = eps2 (a^dag^2 + a^2) on
    the Kerr ladder E0_n = delta n - kerr n(n-1):

        E2_n = eps2^2 [ (n+1)(n+2) / (-2 delta + 2 K (2n+1))
                        + n(n-1)  / ( 2 delta - 2 K (2n-3)) ]

    and E2_n = E2_{n+1} exactly at delta = 2 n kerr.
    """
    n, delta, K, eps2 = level, p.delta, p.kerr, p.eps2
    if n < 0:
        raise ValueError("level must be >= 0")
    d_up = -2 * delta + 2 * K * (2 * n + 1)
    if abs(d_up) < 1e-12:
        raise PoleError(f"resonant denominator at level {n} (upward)")
    e2 = eps2**2 * (n + 1) * (n + 2) / d_up
    if n >= 2:
        d_dn = 2 * delta - 2 * K * (2 * n - 3)
        if abs(d_dn) < 1e-12:
            raise PoleError(f"resonant denominator at level {n} (downward)")
        e2 += eps2**2 * n * (n - 1) / d_dn
    return e2


def localized_pair(es: EigenSystem, pair_index: int = 0):
    """Right/left localized combinations of the ``pair_index``-th eigenpair.

    Returns (right, left) with the global phase fixed so <X> > 0 on "right".
    Warns when the pair is not quasi-degenerate relative to the gap to the
    next manifold.
    """
    if pair_index < 0:
        raise ValueError("pair_index must be >= 0")
    pairs = _pair_up(es, pair_index + 2)
    if pair_index >= len(pairs):
        raise ValueError("not enough opposite-parity pairs in the spectrum")
    i, j = pairs[pair_index]
    gap = abs(es.eigenvalues[i] - es.eigenvalues[j])
    if pair_index + 1 < len(pairs):
        k, _ = pairs[pair_index + 1]
        inter = abs(es.eigenvalues[j] - es.eigenvalues[k])
        if gap > inter:
            warnings.warn(
                f"pair {pair_index} is not quasi-degenerate "
                f"(gap {gap:.3g} exceeds manifold gap {inter:.3g})",
                stacklevel=2)
    right, left = _wells(es, [(i, j)])
    return right[:, 0], left[:, 0]


def _wells(es: EigenSystem, pairs):
    """(right, left) localized states of the index pairs (i, j) in ``pairs``.

    Column k holds (v_i + v_j)/sqrt(2) and (v_i - v_j)/sqrt(2) for the k-th
    pair, the two swapped where needed so that <X> > 0 on the right.
    """
    i, j = np.array(pairs).T
    vp, vm = es.eigenvectors[:, i], es.eigenvectors[:, j]
    right = (vp + vm) / np.sqrt(2)
    left = (vp - vm) / np.sqrt(2)
    flip = np.real(np.sum(right.conj() * (quadrature_x(es.dim) @ right), axis=0)) < 0
    return np.where(flip, left, right), np.where(flip, right, left)


def quartic_drive_spectrum(p: HamiltonianParams, delta_grid: np.ndarray) -> SweepResult:
    """Top even/odd gap vs delta for the quartic-drive variant (eps2 = 0)."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    vals, zeros = _scan(p, delta_grid, 1e-10)
    out = SweepResult(["delta", "eps4", "gap_signed", "abs_gap"])
    for d, gap in zip(delta_grid, vals):
        out.append(float(d), p.eps4, gap, abs(gap))
    out.meta["zeros"] = zeros
    return out


def quartic_crossing_location(p: HamiltonianParams, lo: float, hi: float) -> float:
    return brentq(signed_splitting, lo, hi, args=(p,), xtol=1e-10)
