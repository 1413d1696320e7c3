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
basis: ``rk4``, the open ramp and ``lindblad_rhs`` apply it in the Fock
basis, and ``_sector`` cuts one of these two sectors from it, both in the
eigenbasis for ``expm`` and the odd one in the Fock basis for
``tx_lifetime``.  ``tx_lifetime`` does not step in time: T_X = -1 / Re
lambda_1, lambda_1 the eigenvalue nearest 0 of the sector m + n odd, where
the well signal lives; H is never diagonalised.  Each solve factorises the
sector once (SuperLU, minimum-degree ordering of A^T + A, pivot threshold
0.1: about 0.6x the fill of COLAMD with partial pivoting) and runs ARPACK
shift-invert at sigma = 0 on that factor with 8 Krylov vectors: lambda_1 lies
far closer to 0 than the rest of the sector, so this takes 9 LU solves at
most points, against 21 at ARPACK's default of 20.  T_X at dim and dim + 12
must agree to 1e-6 relative, else ``TruncationRiskError``: this certifies
the truncation.  ``rank``, ``initial_state``, ``n_samples``, ``n_pairs``
and ``method`` do not enter T_X.
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
    """Evolution specification (energies in units of kerr, time in 1/kerr)."""

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
    count = ebk_bound_state_count(params.delta, params.eps2, params.kerr)
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


def _liouvillian(h: np.ndarray, a: np.ndarray, cfg: LindbladConfig):
    """The CSR Liouvillian in the basis where H is ``h`` and the loss jump is
    ``a``, acting on row-major vec rho: vec(A rho B) = kron(A, B^T) vec rho."""
    import scipy.sparse as sp

    eye = sp.identity(len(h), format="csr")

    def kron(x, y):
        return sp.kron(x, y, format="csr")

    liou = -1j * (kron(h, eye) - kron(eye, h.T))
    for rate, op in _jumps(cfg, a):
        od_o = op.conj().T @ op
        liou = liou + rate * (kron(op, op.conj())
                              - 0.5 * kron(od_o, eye)
                              - 0.5 * kron(eye, od_o.T))
    return liou


def _sector(liou, par, odd: bool):
    """Index pairs (i, j) with parities par_i != par_j (``odd``) or
    par_i == par_j, in row-major order, and the CSR block over them of the
    ``_liouvillian`` ``liou`` in a basis with parities ``par``.  Parity is a
    weak symmetry, so the two sectors are the whole Liouvillian: it couples
    no even pair to an odd one."""
    pairs = np.nonzero((par[:, None] != par[None, :]) == odd)
    index = np.ravel_multi_index(pairs, (len(par), len(par)))
    return pairs, liou[index][:, index]


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
    liou = _liouvillian(np.diag(sys.es.eigenvalues[:rank]),
                        vr.conj().T @ sys.a @ vr, sys.cfg)
    props = [(pairs, expm(block.toarray() * tau)) for pairs, block
             in (_sector(liou, sys.es.parities[:rank], odd)
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
    from scipy.optimize import curve_fit

    times = np.asarray(times)
    signal = np.asarray(signal)
    sig0 = signal - signal.mean()
    if np.max(np.abs(sig0)) < 1e-8:
        return 0.0, np.inf
    # FFT seed on the uniform grid
    freqs = np.fft.rfftfreq(len(times), times[1] - times[0])
    spec = np.abs(np.fft.rfft(sig0))
    f0 = freqs[np.argmax(spec[1:]) + 1] * 2 * np.pi
    try:
        popt, _ = curve_fit(
            _cosine_model, times, signal,
            p0=[signal[0] - signal.mean(), f0, 1e-6, signal.mean()],
            maxfev=20000)
        freq, rate = abs(popt[1]), abs(popt[2])
    except RuntimeError:
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
        p = p0.with_(**{axis: float(val)})
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

    ``rank`` is dim: the sector spans the whole truncated space.  When
    ``t_final`` < T_X ln(1/0.95) no decay is resolved by ``t_final``, and
    the estimate is the lower bound t_x = t_final.
    """
    if cfg.kappa <= 0:
        raise ValueError("tx_lifetime requires kappa > 0")
    dim = cfg.params.dim
    t_x = _odd_sector_tx(cfg, dim)
    if not abs(_odd_sector_tx(cfg, dim + 12) - t_x) <= 1e-6 * abs(t_x):
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
# threshold 0.1 and 2e-9 at 0.01 (dim 150, delta = 8, eps2 = 4).
_TX_PERMC, _TX_PIVOT = "MMD_AT_PLUS_A", 0.1
# Krylov size of the shift-invert run: 9 LU solves at most points, 17 in a
# shallow well (delta = 0.5, eps2 = 0.3).  4 failed to converge on sectors of
# dim <= 16.  ARPACK needs ncv <= the sector size, 8 at the smallest dim, 4.
_TX_NCV = 8


def _odd_sector_tx(cfg: LindbladConfig, dim: int) -> float:
    """-1 / Re lambda_1, lambda_1 the eigenvalue nearest 0 of the Fock-basis
    Liouvillian at ``dim`` on its ``_sector`` rho_mn with m + n odd.

    One sparse LU of the sector, ordered by ``_TX_PERMC`` with pivot
    threshold ``_TX_PIVOT``, serves as the shift-invert operator of a
    ``_TX_NCV``-vector ARPACK run at sigma = 0 (see the constants for why).
    """
    from scipy.sparse.linalg import LinearOperator, eigs, splu

    h = build_hamiltonian(cfg.params.with_(dim=dim))
    liou = _liouvillian(h, annihilation(dim), cfg)
    block = _sector(liou, np.arange(dim) % 2, True)[1].tocsc()
    lu = splu(block, permc_spec=_TX_PERMC, diag_pivot_thresh=_TX_PIVOT)
    lam = eigs(block, k=1, sigma=0, v0=np.ones(block.shape[0]), ncv=_TX_NCV,
               OPinv=LinearOperator(block.shape, lu.solve, dtype=complex),
               return_eigenvectors=False)[0]
    return -1.0 / lam.real


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
    base = cfg.params.with_(delta=d0, eps2=e0)
    sys = _System(replace(cfg, params=base, t_final=protocol.total_duration))
    num = number_operator(base.dim)
    drive = sys.a.T @ sys.a.T + sys.a @ sys.a
    kerr_term = build_hamiltonian(base.with_(delta=0.0, eps2=0.0))

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
