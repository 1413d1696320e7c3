"""Closed- and open-system time evolution of the squeeze-driven Kerr oscillator.

One sampling loop (``_run``) serves every route, with one step kernel per
route that advances the state by one whole sample interval, and one
observer samples them all.  ``method="auto"`` takes ``unitary`` at kappa = 0
and ``expm`` at any kappa > 0; ``rk4`` runs only by name, and for open ramps:

* ``unitary`` - closed system (kappa = 0), exact eigenbasis phases
  exp(-i w tau) per sample interval tau;
* ``rk4``     - fixed-step RK4 of vec rho under the Fock-basis Liouvillian
  with step-halving control; an open ramp protocol uses it with L(t),
  linear in delta(t) and eps2(t);
* ``cf4-protocol`` - a closed ramp protocol, pure or mixed, under the same
  control: fourth-order commutator-free Magnus steps, two exponentials of
  combinations of H at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt per step;
  H(t) commutes with photon parity, so the exponents of up to
  ``_CF4_CHUNK`` steps are diagonalised together, one stacked ``eigh`` per
  parity block (``spectra._parity_eigh``);
* ``expm``    - exact stepping with exp(L tau) of the Liouvillian projected
  onto the top eigenvectors of H, one propagator per parity block; the rank
  loop in ``_evolve_expm`` certifies the basis, not the truncation.

Photon parity is a weak symmetry of the Lindbladian: it couples no element
rho_mn with m + n even to one with m + n odd (in the eigenbasis of H, none
with equal parities i, j to one with opposite ones).  One builder,
``_liouvillian``, assembles the sparse Kronecker-form Liouvillian in a given
basis, on the rows of the index pairs it is asked for: ``rk4``, the open
ramp and ``lindblad_rhs`` take all of them in the Fock basis, and
``_sector`` assembles one of these two sectors and never the other, both in
the eigenbasis for ``expm`` and the odd one in the Fock basis for
``tx_lifetime``.  ``tx_lifetime`` does not step in time: T_X = -1 / Re
lambda_1, lambda_1 the eigenvalue nearest 0 of the sector m + n odd, where
the well signal lives; H is never diagonalised.  Each solve factorises the
sector once (SuperLU in symmetric mode: minimum-degree ordering of A^T + A,
diagonal pivots at threshold 0.1; about 0.6x the fill of COLAMD with
partial pivoting) and runs ARPACK shift-invert at sigma = 0 on that factor
with 8 Krylov vectors: lambda_1 lies far closer to 0 than the rest of the
sector, so this takes 9 LU solves at most points, against 21 at ARPACK's
default of 20.  The same factor certifies the truncation: its adjoint
solves give the left eigenvector w, and the sector at dim + 12, built only
on the rows near the cut, gives the residual r of the padded right
eigenvector v.  The bound c = kappa ||r|| / |Re lambda_1|, kappa =
||w|| ||v|| / |w^H v|, at most 1e-8 accepts T_X; a larger one (or NaN)
falls back to a second solve at dim + 12, and the two T_X must agree to
1e-6 relative, else ``TruncationRiskError``.  ``rank``, ``initial_state``,
``n_samples``, ``n_pairs`` and ``method`` do not enter T_X.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import IntegrationError, TruncationRiskError
from .fock import (HamiltonianParams, annihilation, build_hamiltonian,
                   number_operator, quadrature_x)
from .semiclassical import ebk_bound_state_count
from .spectra import (EigenSystem, eigensystem, _commutes_with_parity,
                      _pair_up, _parity_eigh, _wells)
from .tables import SweepResult

__all__ = [
    "LindbladConfig", "Trajectory", "RampSegment", "RampProtocol",
    "TxEstimate", "lindblad_rhs", "evolve", "default_n_pairs",
    "well_projectors", "well_signal", "rabi_map", "fit_decaying_cosine",
    "tx_lifetime", "run_protocol",
]


@dataclass(frozen=True, eq=False)
class LindbladConfig:
    """Evolution specification (energies in units of K, time in 1/K)."""

    params: HamiltonianParams
    kappa: float = 0.0
    n_th: float = 0.0
    t_final: float = 10.0
    initial_state: object = "right_well"
    n_samples: int = 201
    n_pairs: int | None = None
    method: str = "auto"
    rank: int | None = None

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.kappa < 0 or self.n_th < 0:
            raise ValueError("kappa and n_th must be >= 0")
        if not np.isfinite(self.kappa * (1.0 + self.n_th)):
            raise ValueError("kappa (1 + n_th) must be finite")


@dataclass
class Trajectory:
    times: np.ndarray
    s: np.ndarray               # well signal in [-1, 1]
    x_expect: np.ndarray
    nbar: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    min_eig: np.ndarray         # smallest eigenvalue of rho at sample times
    rho_final: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def _table(self) -> SweepResult:
        """The ``t,s,tr,purity,n`` table that ``to_csv`` and the CLI write."""
        table = SweepResult(["t", "s", "tr", "purity", "n"])
        for i, t in enumerate(self.times):
            table.append(float(t), self.s[i], self.trace[i], self.purity[i],
                         self.nbar[i])
        return table

    def to_csv(self, path) -> None:
        self._table().to_csv(path)


def default_n_pairs(params: HamiltonianParams) -> int:
    """Well-projector depth: EBK excited count + 1, clamped to >= 1."""
    count = ebk_bound_state_count(params.delta, params.eps2)
    return max(count.excited_states + 1, 1)


def well_projectors(es: EigenSystem, n_pairs: int):
    """Projectors onto the right/left localized spans of the top pairs."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    pairs = _pair_up(es, n_pairs)
    if len(pairs) < n_pairs:
        raise ValueError(f"spectrum does not expose {n_pairs} opposite-parity pairs")
    right, left = _wells(es, pairs)
    return right @ right.conj().T, left @ left.conj().T


def well_signal(rho: np.ndarray, es: EigenSystem, n_pairs: int = 1) -> float:
    """s = tr(rho (P_R - P_L)) in [-1, 1]; +1 means fully right-localized."""
    p_r, p_l = well_projectors(es, n_pairs)
    return float(np.real(np.trace(rho @ (p_r - p_l))))


class _System:
    """Cached operators for one Lindblad configuration: H and a in the Fock
    basis; the Liouvillian, the eigensystem and the well-signal operator are
    built on first use."""

    def __init__(self, cfg: LindbladConfig):
        self.cfg = cfg
        p = cfg.params
        self.dim = p.dim
        self.h = build_hamiltonian(p)
        self.a = annihilation(p.dim)

    @cached_property
    def liou(self):
        """The Fock-basis Liouvillian of row-major vec rho."""
        return _liouvillian(self.h, self.a, self.cfg)

    @cached_property
    def es(self) -> EigenSystem:
        return eigensystem(self.h)

    @cached_property
    def ops(self) -> tuple:
        """(P_R - P_L, X, N), the operators ``_observe`` samples."""
        n = self.cfg.n_pairs if self.cfg.n_pairs else default_n_pairs(self.cfg.params)
        p_r, p_l = well_projectors(self.es, min(n, len(_pair_up(self.es, n))))
        return p_r - p_l, quadrature_x(self.dim), self.a.T @ self.a

    def initial_state(self) -> np.ndarray:
        """The initial state as given: a complex vector psi or density matrix."""
        init = self.cfg.initial_state
        if isinstance(init, str):
            if init in ("right_well", "left_well"):
                right, left = _wells(self.es, _pair_up(self.es, 1))
                init = (right if init == "right_well" else left)[:, 0]
            elif init == "vacuum":
                init = 0
            else:
                raise ValueError(f"unknown initial state tag {init!r}")
        if isinstance(init, (int, np.integer)):
            v = np.zeros(self.dim)
            v[int(init)] = 1.0
            init = v
        arr = np.asarray(init).astype(complex)
        if arr.ndim != 1 and arr.shape != (self.dim, self.dim):
            raise ValueError("custom density matrix has the wrong shape")
        return arr

    def initial_rho(self) -> np.ndarray:
        return _density(self.initial_state())


def lindblad_rhs(rho: np.ndarray, cfg: LindbladConfig) -> np.ndarray:
    """d rho / dt = -i [H, rho] + kappa(1+n_th) D[a] rho + kappa n_th D[a^dag] rho,
    for any square ``rho`` of the model's dim."""
    sys = _System(cfg)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError("density matrix dimension mismatch")
    return (sys.liou @ rho.ravel()).reshape(rho.shape)


def _density(state: np.ndarray) -> np.ndarray:
    """rho of a density matrix (itself) or of a pure state psi."""
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def _observe(state, ops):
    """(s, x, nbar, trace, purity, min eig) of a density matrix, or of a pure
    state given as its vector psi (trace psi^dag psi, min eig 0)."""
    if state.ndim == 1:
        tr = float(np.real(np.vdot(state, state)))
        s, x, n = (float(np.real(np.vdot(state, op @ state))) for op in ops)
        return s, x, n, tr, tr * tr, 0.0
    tr = float(np.real(np.trace(state)))
    s, x, n = (float(np.real(np.trace(op @ state))) for op in ops)
    pur = float(np.real(np.trace(state @ state)))
    mineig = float(np.min(np.linalg.eigvalsh((state + state.conj().T) / 2)))
    return s, x, n, tr, pur, mineig


def evolve(cfg: LindbladConfig) -> Trajectory:
    """Integrate one configuration and sample observables on a uniform grid."""
    sys = _System(cfg)
    method = cfg.method
    if method == "auto":
        method = "unitary" if cfg.kappa == 0 else "expm"
    if method == "unitary":
        if cfg.kappa != 0:
            raise ValueError("unitary method requires kappa = 0")
        w, v = sys.es.eigenvalues, sys.es.eigenvectors
        rows, rho = _run(sys, sys.initial_state(),
                         lambda state, k, dt, per:
                         _unitary(state, v, np.exp(-1j * (per * dt) * w)))
        return _traj_from_samples(sys, rows, rho, {"method": "unitary"})
    if method == "rk4":
        return _step_controlled(sys, sys.initial_rho(),
                                _rk4_step(lambda v, t: sys.liou @ v),
                                _stable_dt(sys), "rk4")
    if method == "expm":
        return _evolve_expm(sys)
    raise ValueError(f"unknown method {cfg.method!r}")


def _traj_from_samples(sys: _System, rows, rho_final, meta) -> Trajectory:
    times = np.linspace(0.0, sys.cfg.t_final, sys.cfg.n_samples)
    arr = np.array(rows)
    return Trajectory(times, arr[:, 0], arr[:, 1], arr[:, 2],
                      arr[:, 3], arr[:, 4], arr[:, 5], rho_final, meta)


def _run(sys: _System, state, step, per: int = 1, ops=None):
    """The one sampling loop of every route: (observable rows at the
    ``cfg.n_samples`` sample times, final rho).

    Sample interval i is one kernel call ``state = step(state, k, dt,
    per)``: ``per`` equal steps of dt = t_final / (per (n_samples - 1)), the
    first one step k = i per, so that step k + j starts at exactly (k + j)
    dt and samples land on exact steps.  ``state`` is a vector psi or a
    density matrix; it is observed with ``sys.ops``, or with ``ops`` when
    given.
    """
    ops = sys.ops if ops is None else ops
    n = sys.cfg.n_samples
    dt = sys.cfg.t_final / (per * (n - 1))
    rows = [_observe(state, ops)]
    for i in range(n - 1):
        state = step(state, i * per, dt, per)
        rows.append(_observe(state, ops))
    return rows, _density(state)


def _unitary(state, v, ph):
    """U = v diag(ph) v^dag applied to psi (U psi) or to rho (U rho U^dag)."""
    vh = v.conj().T
    if state.ndim == 1:
        return v @ (ph * (vh @ state))
    return v @ (np.outer(ph, ph.conj()) * (vh @ state @ v)) @ vh


def _stable_dt(sys: _System) -> float:
    span = float(sys.es.eigenvalues[0] - sys.es.eigenvalues[-1])
    rate = sum(rate for rate, _ in _jumps(sys.cfg, sys.a)) * sys.dim
    return 2.0 / max(span + rate, 1e-12)


def _step_controlled(sys: _System, state0, step, dt, method) -> Trajectory:
    """Run ``step`` from ``state0`` through ``_run`` with the fewest equal
    substeps per sample interval no longer than dt, halving dt until the
    trace drift stays below 1e-7 and two successive runs agree to 1e-6."""
    m = sys.cfg.n_samples - 1
    prev = None
    for halving in range(13):
        per = max(int(np.ceil(sys.cfg.t_final / (dt * m))), 1)
        rows, rho = _run(sys, state0, step, per)
        arr = np.array(rows)
        if np.all(np.isfinite(arr)):
            drift = np.max(np.abs(arr[:, 3] - arr[0, 3]))
            if drift < 1e-7 and prev is not None:
                rel = np.max(np.abs(arr[:, :5] - prev[:, :5])
                             / np.maximum(1.0, np.abs(arr[:, :5])))
                if rel < 1e-6:
                    return _traj_from_samples(
                        sys, rows, rho,
                        {"method": method, "dt": dt, "halvings": halving})
            prev = arr
        else:
            prev = None
        dt /= 2
    raise IntegrationError(f"{method} step control did not converge in 12 halvings")


def _rk4_step(apply):
    """RK4 steps k ... k + per - 1 of a density matrix rho under d vec rho /
    dt = ``apply(vec rho, t)``, vec row-major; each result is symmetrised to
    be Hermitian."""
    def step(rho, k, dt, per):
        for j in range(per):
            t = (k + j) * dt
            v = rho.ravel()
            k1 = apply(v, t)
            k2 = apply(v + 0.5 * dt * k1, t + dt / 2)
            k3 = apply(v + 0.5 * dt * k2, t + dt / 2)
            k4 = apply(v + dt * k3, t + dt)
            rho = (v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(rho.shape)
            rho = 0.5 * (rho + rho.conj().T)
        return rho
    return step


def _jumps(cfg: LindbladConfig, a: np.ndarray) -> list:
    """(rate, jump) pairs of the thermal dissipator with a nonzero rate:
    loss ``a`` at kappa (1 + n_th) and gain a^dag at kappa n_th."""
    return [(rate, op) for rate, op in ((cfg.kappa * (1 + cfg.n_th), a),
                                        (cfg.kappa * cfg.n_th, a.conj().T))
            if rate > 0]


def _liouvillian(h: np.ndarray, a: np.ndarray, cfg: LindbladConfig, keep=None):
    """The CSR Liouvillian in the basis where H is ``h`` and the loss jump is
    ``a``, acting on row-major vec rho, over the index pairs (i, j) that the
    flat row-major mask ``keep`` selects (all by default), in that order.

    Each entry is -1j (H x 1 - 1 x H^T) + sum rate ((A x A* - O x 1 / 2) -
    1 x O^T / 2) over the ``_jumps`` (rate, A), O = A^dag A, vec(A rho B) =
    kron(A, B^T) vec rho, in this order of operations, so that for real h
    and a (the Fock basis and the eigenbasis of H) the block equals the
    ``np.kron`` form bit for bit.  Only the kept rows are built.
    Row (i, j) has its entries at (k, j) and (i, l) for the nonzeros k of H
    and O in row i and l in column j (and of A in rows i and j where A has
    a diagonal), and at (k, l), k != i and l != j, for the nonzeros of the
    jumps in rows i and j; each set is laid out in column order, and their
    sum drops the zero entries.
    """
    import scipy.sparse as sp

    n, nn = len(h), len(h) ** 2
    jumps = [(rate, op, op.conj().T @ op) for rate, op in _jumps(cfg, a)]
    rows = np.arange(nn) if keep is None else np.flatnonzero(keep)
    i, j = np.divmod(rows, n)
    # column k n + l -> block column, or -1: not kept, or a padded k or l
    local = np.full(2 * nn + 1, -1)
    local[rows] = np.arange(len(rows))
    z = np.zeros(1)                     # a term without an entry there

    def entries(h_ik, h_lj, terms):
        liou = -1j * (h_ik - h_lj)
        for (rate, _, _), (aa, o_ik, o_lj) in zip(jumps, terms):
            liou = liou + rate * ((aa - 0.5 * o_ik) - 0.5 * o_lj)
        return liou

    def csr(cols, vals):    # cols[r], vals[r]: kept row r's candidates
        at = np.flatnonzero(local[cols] >= 0)
        indptr = np.zeros(len(rows) + 1, int)
        np.cumsum(np.bincount(at // np.prod(cols.shape[1:]),
                              minlength=len(rows)), out=indptr[1:])
        vals = np.broadcast_to(vals, cols.shape).ravel()[at]
        return sp.csr_matrix((vals, local[cols.ravel()[at]], indptr),
                             shape=(len(rows), len(rows)))

    hop = sum((op != 0 for _, op, _ in jumps), np.zeros((n, n), bool))
    side = sum((o != 0 for _, _, o in jumps), h != 0)
    # (k, j), k != i in row i of k_of, and (i, l), l != j in row j of l_of;
    # split at the diagonal, (k < i, l < j, (i, j), l > j, k > i) is column
    # order
    diag_a = hop if hop.diagonal().any() else False
    k_of, l_of = side | diag_a, side.T | diag_a
    ks = [_row_nonzeros(np.tril(k_of, -1)), _row_nonzeros(np.triu(k_of, 1))]
    ls = [_row_nonzeros(np.tril(l_of, -1)), _row_nonzeros(np.triu(l_of, 1))]
    nk, nl = ks[0].shape[1], ls[0].shape[1]
    ks, ls = np.hstack(ks), np.hstack(ls)
    at_k = entries(_take(h, ks, i), z, [
        (_take(op, ks, i) * op.conj().diagonal()[j, None], _take(o, ks, i), z)
        for _, op, o in jumps])
    at_l = entries(z, _take(h.T, ls, j), [
        (op.diagonal()[i, None] * _take(op.conj(), ls, j), z, _take(o.T, ls, j))
        for _, op, o in jumps])
    at_ij = entries(h.diagonal()[i], h.diagonal()[j], [
        (op.diagonal()[i] * op.conj().diagonal()[j], o.diagonal()[i],
         o.diagonal()[j]) for _, op, o in jumps])[:, None]
    col_k = np.take(ks * n, i, 0) + j[:, None]
    col_l = i[:, None] * n + np.take(np.where(ls < n, ls, nn), j, 0)
    lr = csr(np.hstack((col_k[:, :nk], col_l[:, :nl], rows[:, None],
                        col_l[:, nl:], col_k[:, nk:])),
             np.hstack((at_k[:, :nk], at_l[:, :nl], at_ij, at_l[:, nl:],
                        at_k[:, nk:])))
    # (k, l), k != i and l != j: only the A x A* terms reach them
    ks = _row_nonzeros(hop & ~np.eye(n, dtype=bool))
    col_kl = (np.take(ks * n, i, 0)[:, :, None]
              + np.take(np.where(ks < n, ks, nn), j, 0)[:, None, :])
    at_kl = entries(z, z, [(_take(op, ks, i)[:, :, None]
                            * _take(op.conj(), ks, j)[:, None, :], z, z)
                           for _, op, _ in jumps])
    return lr + csr(col_kl, at_kl)


def _row_nonzeros(mask: np.ndarray) -> np.ndarray:
    """The column indices of the True entries of each row of the square
    ``mask``, ascending, padded on the right with len(mask)."""
    out = np.where(mask, np.arange(len(mask)), len(mask))
    out.sort(axis=1)
    return out[:, :max(int(mask.sum(1).max(initial=0)), 1)]


def _take(x: np.ndarray, index: np.ndarray, at: np.ndarray) -> np.ndarray:
    """x[r, index[r]] for each row r in ``at``; 0 where the index is
    len(x)."""
    x = np.hstack((x, np.zeros((len(x), 1))))
    return np.take(np.take_along_axis(x, index, 1), at, 0)


def _sector(h, a, cfg: LindbladConfig, par, odd: bool):
    """Index pairs (i, j) with parities par_i != par_j (``odd``) or
    par_i == par_j, in row-major order, and the ``_liouvillian`` block over
    them in a basis where H is ``h``, the loss jump ``a`` and the parities
    ``par``.  Parity is a weak symmetry, so the two sectors are the whole
    Liouvillian: it couples no even pair to an odd one."""
    keep = (par[:, None] != par[None, :]) == odd
    return np.nonzero(keep), _liouvillian(h, a, cfg, keep.ravel())


def _evolve_expm(sys: _System) -> Trajectory:
    """Exact stepping in the top ``rank`` eigenvectors of H, chosen before
    anything is built: the first of ``cfg.rank`` (default min(dim, 32)) + 0,
    12, 24, 36, capped at dim, that keeps tr rho(0) (normalised or not) to
    1e-6 relative; the full basis is taken as is.  The projected Lindbladian
    keeps the trace exactly, so a run that loses it raises IntegrationError."""
    from scipy.linalg import expm

    rho0 = sys.initial_rho()
    tr0 = float(np.real(np.trace(rho0)))
    start = sys.cfg.rank if sys.cfg.rank else min(sys.dim, 32)
    for rank in (min(sys.dim, start + extra) for extra in (0, 12, 24, 36)):
        vr = sys.es.eigenvectors[:, :rank]
        rho0_r = vr.conj().T @ rho0 @ vr
        full = rank == sys.dim
        if full or abs(1.0 - float(np.real(np.trace(rho0_r))) / tr0) < 1e-6:
            break
    else:
        raise IntegrationError("eigenbasis rank did not certify in 4 tries")
    tau = sys.cfg.t_final / (sys.cfg.n_samples - 1)
    h_r, a_r = np.diag(sys.es.eigenvalues[:rank]), vr.conj().T @ sys.a @ vr
    props = [(pairs, expm(block.toarray() * tau)) for pairs, block
             in (_sector(h_r, a_r, sys.cfg, sys.es.parities[:rank], odd)
                 for odd in (False, True))]

    def step(rho, k, dt, per):      # per = 1: one propagator step
        for pairs, prop in props:
            rho[pairs] = prop @ rho[pairs]
        return rho

    rows, rho = _run(sys, rho0_r, step,
                     ops=tuple(vr.conj().T @ op @ vr for op in sys.ops))
    tr_err = max(abs(1.0 - row[3] / tr0) for row in rows)
    if not (full or tr_err < 1e-6):
        raise IntegrationError(f"expm at rank {rank} lost {tr_err:.3g} of tr rho(0)")
    meta = {"method": "expm", "rank": rank, "trace_error": tr_err}
    return _traj_from_samples(sys, rows, vr @ rho @ vr.conj().T, meta)


# -- Rabi maps and lifetime extraction -----------------------------------------

def _cosine_model(t, amp, freq, rate, offset):
    return amp * np.cos(freq * t) * np.exp(-rate * t) + offset


def fit_decaying_cosine(times, signal):
    """(angular frequency, decay time) of an exponentially decaying cosine."""
    from scipy.optimize import leastsq

    times = np.asarray_chkfinite(times, dtype=float)
    signal = np.asarray_chkfinite(signal, dtype=float)
    sig0 = signal - signal.mean()
    if np.max(np.abs(sig0)) < 1e-8:
        return 0.0, np.inf
    # FFT seed on the uniform grid
    freqs = np.fft.rfftfreq(len(times), times[1] - times[0])
    spec = np.abs(np.fft.rfft(sig0))
    f0 = freqs[np.argmax(spec[1:]) + 1] * 2 * np.pi
    popt, _, _, _, ier = leastsq(
        lambda q: _cosine_model(times, *q) - signal,
        [signal[0] - signal.mean(), f0, 1e-6, signal.mean()],
        full_output=True, maxfev=20000)
    if ier in (1, 2, 3, 4):
        freq, rate = abs(popt[1]), abs(popt[2])
    else:                          # MINPACK did not converge
        freq, rate = f0, 0.0
    return float(freq), float(1.0 / rate) if rate > 0 else np.inf


def rabi_map(p0: HamiltonianParams, axis: str, values, t_grid,
             kappa: float = 0.0, n_th: float = 0.0) -> SweepResult:
    """Inter-well transition probability (1 - s)/2 on a (parameter, t) grid.

    ``meta['fits']`` holds (value, fitted angular frequency, decay time) per
    swept value; closed-system frequencies estimate |delta E| directly.
    """
    if axis not in ("delta", "eps2"):
        raise ValueError("axis must be 'delta' or 'eps2'")
    t_grid = np.asarray(t_grid, dtype=float)
    out = SweepResult([axis, "t", "prob"])
    fits = []
    for val in values:
        p = replace(p0, **{axis: float(val)})
        cfg = LindbladConfig(params=p, kappa=kappa, n_th=n_th,
                             t_final=float(t_grid[-1]), n_samples=len(t_grid),
                             initial_state="right_well", n_pairs=1)
        traj = evolve(cfg)
        for t, s in zip(traj.times, traj.s):
            out.append(float(val), float(t), (1.0 - s) / 2.0)
        freq, decay = fit_decaying_cosine(traj.times, traj.s)
        fits.append({"value": float(val), "frequency": freq, "decay_time": decay})
    out.meta["fits"] = fits
    return out


@dataclass
class TxEstimate:
    t_x: float
    lower_bound: bool          # True when no decay was resolved by t_final
    rank: int


def tx_lifetime(cfg: LindbladConfig) -> TxEstimate:
    """Well-switching lifetime T_X from the odd Fock sector, certified
    against dim + 12 (see the module docstring).

    One factor of the sector at dim gives T_X and the bound c of
    ``_tx_bound`` on its change at dim + 12.  When c <= ``_TX_BOUND`` the
    point is accepted; otherwise the sector at dim + 12 is solved too, and
    T_X at dim and dim + 12 must agree to 1e-6 relative, else
    ``TruncationRiskError``.  ``rank`` is dim: the sector spans the whole
    truncated space.  When ``t_final`` < T_X ln(1/0.95) no decay is
    resolved by ``t_final``, and the estimate is the lower bound t_x =
    t_final.
    """
    if cfg.kappa <= 0:
        raise ValueError("tx_lifetime requires kappa > 0")
    dim = cfg.params.dim
    lam, v, sector = _odd_sector(cfg, dim)
    t_x = -1.0 / lam.real
    if (not _tx_bound(cfg, dim, lam, v, sector)[1] <= _TX_BOUND
            and not abs(_odd_sector_tx(cfg, dim + 12) - t_x) <= 1e-6 * abs(t_x)):
        raise TruncationRiskError(
            f"T_X at dim {dim} and dim {dim + 12} differ by more than 1e-6")
    if cfg.t_final < t_x * np.log(1 / 0.95):
        return TxEstimate(float(cfg.t_final), True, dim)
    return TxEstimate(float(t_x), False, dim)


# Factor options of the odd sector.  The minimum-degree ordering of A^T + A
# suits its near-symmetric pattern, but keeps its low fill only when SuperLU
# may pivot on the diagonal: at dim 72 (delta = 2, eps2 = 2.17) it leaves
# 119k nonzeros at threshold 0.1 and 228k at the default 1.0, against
# COLAMD's 200k.  Against that COLAMD solve T_X moved by 7e-12 relative at
# threshold 0.1 and 2e-9 at 0.01 (dim 150, delta = 8, eps2 = 4).  Symmetric
# mode leaves that fill as it is and factors 15-30% faster at dims 60-72;
# T_X moved by <= 1.7e-12 relative on the criterion-12 grid.
_TX_PERMC, _TX_PIVOT = "MMD_AT_PLUS_A", 0.1
_TX_OPTIONS = {"SymmetricMode": True}
# Krylov size of the shift-invert run: 9 LU solves at most points, 17 in a
# shallow well (delta = 0.5, eps2 = 0.3).  4 failed to converge on sectors of
# dim <= 16.  ARPACK needs ncv <= the sector size, 8 at the smallest dim, 4.
_TX_NCV = 8
# The largest ``_tx_bound`` c that accepts T_X without the dim + 12 solve,
# 100x below its 1e-6 test.  At default dims c is 4e-16 to 1e-15.  Of 864
# points (delta 0-8, eps2 0.3-4, dims 8-60, three (kappa, n_th)) 354 had c
# <= 1e-8, and none with c <= 1e-6 failed the re-solve; nor did any of 180
# at eps4 = 0.05.
_TX_BOUND = 1e-8


def _odd_sector(cfg: LindbladConfig, dim: int):
    """(lambda_1, v, (pairs, block, lu)): lambda_1 the eigenvalue nearest 0
    of the Fock-basis Liouvillian at ``dim`` on its ``_sector`` rho_mn with
    m + n odd, v its unit right eigenvector over the sector's index
    ``pairs``, ``block`` the sector and ``lu`` its factor.

    One sparse LU of the sector, ordered by ``_TX_PERMC`` with pivot
    threshold ``_TX_PIVOT`` in symmetric mode (``_TX_OPTIONS``), serves as
    the shift-invert operator of a ``_TX_NCV``-vector ARPACK run at sigma =
    0 (see the constants for why).
    """
    from scipy.sparse.linalg import LinearOperator, eigs, splu

    h = build_hamiltonian(replace(cfg.params, dim=dim))
    pairs, block = _sector(h, annihilation(dim), cfg, np.arange(dim) % 2, True)
    block = block.tocsc()
    lu = splu(block, permc_spec=_TX_PERMC, diag_pivot_thresh=_TX_PIVOT,
              options=_TX_OPTIONS)
    lam, v = eigs(block, k=1, sigma=0, v0=np.ones(block.shape[0]), ncv=_TX_NCV,
                  OPinv=LinearOperator(block.shape, lu.solve, dtype=complex))
    return lam[0], v[:, 0], (pairs, block, lu)


def _odd_sector_tx(cfg: LindbladConfig, dim: int) -> float:
    """T_X = -1 / Re lambda_1 of ``_odd_sector`` at ``dim``."""
    return -1.0 / _odd_sector(cfg, dim)[0].real


def _tx_bound(cfg: LindbladConfig, dim: int, lam, v, sector):
    """(kappa, c) of the ``_odd_sector`` solve (lambda_1, v, sector) at
    ``dim``: the condition number kappa = ||w|| ||v|| / |w^H v| of lambda_1,
    and the bound c = kappa ||r|| / |Re lambda_1| on the relative change of
    T_X from dim to dim + 12.

    The left eigenvector w comes from the sector's own factor: ARPACK
    shift-invert on the adjoint (``lu.solve(x, trans="H")``), started from
    conj(v), with k = 2, keeping the Ritz value nearest conj(lambda_1); at k
    = 1 it returned the other member of a conjugate pair at delta = 2.9,
    eps2 = 0.3, dim 60, and kappa came out 1e15.  r = L' v0 - lambda_1 v0,
    v0 the zero-padded v, is nonzero only on the rows of the dim + 12 sector
    L' that the cut changes, max(m, n) >= dim - 1.  An entry of L' moves m
    and n by at most ``reach`` (H's band, 1 for the jumps), so L' is built
    (``_liouvillian``) only on the rows dim - 1 - reach <= max(m, n) <= dim
    - 1 + reach.
    """
    from scipy.sparse.linalg import LinearOperator, eigs

    pairs, block, lu = sector
    adjoint = LinearOperator(block.shape, lambda x: lu.solve(x, trans="H"),
                             dtype=complex)
    mus, ws = eigs(block.conj().T, k=2, sigma=0, v0=v.conj(), ncv=_TX_NCV,
                   OPinv=adjoint)
    w = ws[:, np.argmin(np.abs(mus - np.conj(lam)))]
    kappa = np.linalg.norm(w) * np.linalg.norm(v) / abs(np.vdot(w, v))
    big = dim + 12
    h = build_hamiltonian(replace(cfg.params, dim=big))
    i, j = np.nonzero(h)
    reach = max(int(np.abs(i - j).max(initial=0)), 1)
    m, n = np.indices((big, big))
    top = np.maximum(m, n)
    keep = ((m + n) % 2 == 1) & (np.abs(top - (dim - 1)) <= reach)
    rho = np.zeros((big, big), complex)
    rho[pairs] = v
    v0 = rho[keep]
    r = (_liouvillian(h, annihilation(big), cfg, keep.ravel()) @ v0
         - lam * v0)[top[keep] >= dim - 1]
    return kappa, kappa * np.linalg.norm(r) / abs(lam.real)


# -- ramp protocols -------------------------------------------------------------

@dataclass(frozen=True)
class RampSegment:
    duration: float
    delta_start: float
    delta_end: float
    eps2_start: float
    eps2_end: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")


@dataclass(frozen=True)
class RampProtocol:
    """Piecewise-linear schedules for delta(t) and eps2(t)."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("protocol needs at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if (abs(prev.delta_end - nxt.delta_start) > 1e-12
                    or abs(prev.eps2_end - nxt.eps2_start) > 1e-12):
                raise ValueError("schedules must be continuous across segments")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def values_at(self, t: float):
        if t <= 0:
            s = self.segments[0]
            return s.delta_start, s.eps2_start
        for s in self.segments:
            if t <= s.duration:
                f = t / s.duration
                return (s.delta_start + f * (s.delta_end - s.delta_start),
                        s.eps2_start + f * (s.eps2_end - s.eps2_start))
            t -= s.duration
        s = self.segments[-1]
        return s.delta_end, s.eps2_end


def run_protocol(protocol: RampProtocol, cfg: LindbladConfig) -> Trajectory:
    """Evolve under the time-dependent H(t) defined by the ramp schedules.

    The initial state tags refer to the protocol's starting parameters.  A
    closed system (kappa = 0), pure or mixed, takes fourth-order
    commutator-free Magnus steps (``_cf4_step``); an open one takes RK4 on
    L(t) = L_K + delta(t) C_N + eps2(t) C_D, the ``_liouvillian`` of the
    Kerr term with the dissipator and of N and a^dag^2 + a^2 without it.
    Both run under the same step-halving control.
    """
    d0, e0 = protocol.values_at(0.0)
    base = replace(cfg.params, delta=d0, eps2=e0)
    sys = _System(replace(cfg, params=base, t_final=protocol.total_duration))
    num = number_operator(base.dim)
    drive = sys.a.T @ sys.a.T + sys.a @ sys.a
    kerr_term = build_hamiltonian(replace(base, delta=0.0, eps2=0.0))

    def h_at(t):
        d, e = protocol.values_at(t)
        return kerr_term + d * num + e * drive

    if cfg.kappa == 0:
        # the step is exact at constant H; dt only resolves the ramps
        return _step_controlled(sys, sys.initial_state(), _cf4_step(h_at),
                                min(0.1, protocol.total_duration / 50.0),
                                "cf4-protocol")
    closed = replace(sys.cfg, kappa=0.0)
    l_k, c_n, c_d = (_liouvillian(h, sys.a, c) for h, c in
                     ((kerr_term, sys.cfg), (num, closed), (drive, closed)))

    def apply(v, t):
        d, e = protocol.values_at(t)
        return l_k @ v + d * (c_n @ v) + e * (c_d @ v)

    return _step_controlled(sys, sys.initial_rho(), _rk4_step(apply),
                            _stable_dt(sys), "rk4-protocol")


# Gauss-Legendre nodes and weights of the two-exponential commutator-free
# Magnus step CF4 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009);
# Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011))
_CF4_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_A, _CF4_B = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
# steps whose exponents are diagonalised together: bounds the stacks at
# 2 _CF4_CHUNK dim x dim matrices whatever the steps per sample interval
_CF4_CHUNK = 64


def _cf4_step(h_at):
    """Closed steps k ... k + per - 1 of a vector psi or a density matrix rho
    under the real-symmetric H(t) = ``h_at(t)``, fourth order in dt.

    With H1, H2 = H at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt, one step
    applies exp(-i dt (b H1 + a H2)) and then exp(-i dt (a H1 + b H2)),
    a, b = (3 -+ 2 sqrt(3)) / 12.  The weights of each exponential sum to
    1/2, so the step is exact when H is constant.  The 2 m exponents of m <=
    ``_CF4_CHUNK`` steps are diagonalised at once, one stacked ``eigh`` per
    parity block (``_parity_eigh``), and applied in order (``_unitary``).
    An H(t) that couples even and odd Fock states raises ``ValueError``.
    """
    def step(state, k, dt, per):
        for j0 in range(0, per, _CF4_CHUNK):
            ts = [(k + j) * dt for j in range(j0, min(per, j0 + _CF4_CHUNK))]
            h1, h2 = (np.array([h_at(t + c * dt) for t in ts]) for c in _CF4_NODES)
            hs = np.stack((_CF4_B * h1 + _CF4_A * h2, _CF4_A * h1 + _CF4_B * h2),
                          axis=1).reshape(-1, *h1.shape[1:])
            if not _commutes_with_parity(hs, 0.0):
                raise ValueError("H(t) couples even and odd Fock states")
            w, v, _ = _parity_eigh(hs)
            for vk, ph in zip(v, np.exp(-1j * dt * w)):
                state = _unitary(state, vk, ph)
        return state
    return step
