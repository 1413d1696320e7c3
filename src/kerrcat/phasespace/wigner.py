"""Numerical Wigner functions of Fock-space states via displaced parity.

W(x, p) = (1/pi) <psi| D(alpha) Pi D(alpha)^dag |psi> with
alpha = (x + i p)/sqrt(2), which equals (1/pi) <psi| D(2 alpha) Pi |psi>
because D(+alpha) Pi = Pi D(-alpha).  The grid evaluator expands the
displacement matrix elements in scaled generalized-Laguerre functions and
runs one three-term recurrence for every Fock-index offset d, started from
G_{-1} = 0, over the grid's distinct values of u = 2(x^2 + p^2) only; the
sums are scattered back onto the grid for the angular factor e^{i d phi}.
There is no quadrature error and no matrix exponential per point.
Grids are written through :mod:`kerrcat.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TruncationRiskError
from ..tables import format_sig, write_csv, write_json

__all__ = ["WignerGrid", "wigner_function", "default_extent"]


@dataclass
class WignerGrid:
    """Uniform-grid Wigner function; ``values[i, j]`` is W(x[i], p[j])."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    cell_area: float

    def normalization(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def purity(self) -> float:
        """2 pi Int W^2 dx dp; equals 1 for pure states."""
        return float(2 * np.pi * (self.values**2).sum() * self.cell_area)

    def to_csv(self, path) -> None:
        # x and p are formatted once each, not once per grid point, and the
        # lines of one x value reach write_csv joined into one string, which
        # format_sig passes through unchanged: one write per x value
        ps = [format_sig(v) + "," for v in self.p.tolist()]
        write_csv(path, ["x", "p", "w"],
                  (("\n".join([xs + pv + format_sig(w) for pv, w in zip(ps, row)]),)
                   for xs, row in zip((format_sig(v) + "," for v in self.x.tolist()),
                                      self.values.tolist()) if row))

    def to_json(self, path) -> None:
        write_json(path, {
            "x": {"start": float(self.x[0]), "stop": float(self.x[-1]),
                  "count": int(len(self.x))},
            "p": {"start": float(self.p[0]), "stop": float(self.p[-1]),
                  "count": int(len(self.p))},
            "cell_area": self.cell_area,
            "values": self.values.tolist(),
        })


def default_extent(state: np.ndarray) -> float:
    """Half-width 2 (sqrt(2 <n> + 1) + 2) covering the state support."""
    nbar = float(np.sum(np.arange(len(state)) * np.abs(state) ** 2))
    return 2.0 * (np.sqrt(2 * nbar + 1) + 2.0)


def _support_ok(state: np.ndarray) -> bool:
    tail = np.abs(state[-max(2, len(state) // 20):])
    return float(np.max(tail)) < 1e-6


def wigner_function(state: np.ndarray, x: np.ndarray | None = None,
                    p: np.ndarray | None = None, points: int = 201,
                    extent: float | None = None) -> WignerGrid:
    """Wigner function of a normalized state vector on a uniform grid.

    The default grid is ``points`` x ``points`` over [-extent, extent] in both
    quadratures with the :func:`default_extent` rule.  A custom grid gives
    both ``x`` and ``p``; giving only one of them raises ``ValueError``.
    """
    state = np.asarray(state)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, |norm - 1| = {abs(norm-1):.2e}")
    if not _support_ok(state):
        raise TruncationRiskError(
            "state has significant weight near the Fock truncation edge")
    if (x is None) != (p is None):
        raise ValueError("give both x and p for a custom grid, or neither")
    if x is None:
        ext = extent if extent is not None else default_extent(state)
        x = np.linspace(-ext, ext, points)
        p = np.linspace(-ext, ext, points)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    values = _wigner_laguerre(state, x, p)
    cell = float((x[1] - x[0]) * (p[1] - p[0])) if len(x) > 1 and len(p) > 1 else 0.0
    return WignerGrid(x, p, values, cell)


def _wigner_laguerre(state: np.ndarray, xg: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """Grid evaluation of (1/pi) <psi| D(2 alpha) Pi |psi>.

    Terms are grouped by the Fock-index offset d = |m - n|; the d-diagonal
    contributes 2 Re(gamma^d) sum_m c_m G_m^(d)(u) with u = |gamma|^2,
    gamma = 2 alpha, and G the Laguerre functions scaled by
    sqrt(m!/(m+d)!) u^{d/2} e^{-u/2} so every intermediate stays bounded by 1.
    The sum depends on the grid point only through u, so each diagonal runs
    the recurrence from G_{-1} = 0 and G_0 once over the grid's distinct
    values of u, in place, and the sum is scattered back onto the grid for
    the angular factor; the sum is real when the diagonal's coefficients
    are.  A diagonal whose coefficients all lie below 1e-18 is skipped
    (every odd d of a parity eigenstate).  A real sum takes the angular
    factor as cos(d phi), the real part of e^{i d phi}, without complex
    arithmetic.
    """
    from scipy.special import gammaln

    dim = len(state)
    psi = state.astype(complex)
    Xm, Pm = np.meshgrid(xg, pg, indexing="ij")
    u = 2.0 * (Xm**2 + Pm**2)
    phi = np.arctan2(Pm, Xm)
    uu, inv = np.unique(u, return_inverse=True)
    inv = inv.reshape(u.shape)
    sgn = (-1.0) ** np.arange(dim)
    out = np.zeros_like(u)
    logu = np.log(uu, out=np.full_like(uu, -np.inf), where=uu > 0)
    for d in range(dim):
        cvec = np.conj(psi[d:]) * psi[:dim - d] * sgn[:dim - d]
        if np.max(np.abs(cvec)) < 1e-18:
            continue
        c = cvec if cvec.imag.any() else cvec.real
        g_prev = np.zeros_like(uu)
        g = np.exp(-uu / 2 + (0.5 * d * logu if d else 0.0) - 0.5 * gammaln(d + 1))
        nxt = np.empty_like(uu)
        acc = c[0] * g
        term = np.empty_like(acc)
        for m in range(1, dim - d):
            # ((k - u) g - s g_prev) / s' in this operation order, in place,
            # so every value rounds as the plain expression does
            np.subtract(2 * m - 1 + d, uu, out=nxt)
            nxt *= g
            g_prev *= np.sqrt((m - 1) * (m + d - 1))
            nxt -= g_prev
            nxt /= np.sqrt(m * (m + d))
            g_prev, g, nxt = g, nxt, g_prev
            acc += np.multiply(c[m], g, out=term)
        if np.iscomplexobj(acc):
            w = np.real(acc[inv] * np.exp(1j * d * phi))
        else:
            w = acc[inv] * np.cos(d * phi)
        out += (2.0 if d else 1.0) * w
    return out / np.pi
