"""Closed- and open-system time evolution of the squeeze-driven Kerr oscillator.

One sampling loop (``_run``) serves every route, with one step kernel per
route, and one observer samples them all:

* ``unitary`` - closed system (kappa = 0), exact eigenbasis phases
  exp(-i w dt) per sample interval;
* ``rk4``     - fixed-step RK4 of the Lindblad equation with the effective
  drift -iH(t) + damping under step-halving control; an open ramp protocol
  uses it with a time-dependent H;
* ``cf4-protocol`` - a closed ramp protocol, pure or mixed, under the same
  control: fourth-order commutator-free Magnus steps, two exponentials of
  combinations of H at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt per step;
* ``expm``    - exact stepping with exp(L tau) of the Liouvillian projected
  onto the top eigenvectors of H, one propagator per parity block.  The rank
  is raised until the basis holds tr rho(0) to 1e-6 relative (rho(0) need
  not be normalised); the projected Lindbladian keeps the trace exactly, so
  this certifies the basis, not the truncation.

Photon parity is a weak symmetry of the Lindbladian: in the eigenbasis of H
it couples no element rho_ij with equal parities i, j to one with opposite
parities.  The reduced Liouvillian is therefore only ever built as these two
blocks (each about half of the rank^2 pairs wide), never as one matrix.
``tx_lifetime`` does not step in time: the well signal lives in the
opposite-parity block, and T_X = -1 / Re lambda_1 follows from that block's
eigenvalue nearest 0.  It is certified by the trace of the projected rho(0)
and by agreement of T_X between rank r and r + 12, which makes lifetimes of
order 10^3..10^4 /K cost one small eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.optimize import curve_fit

from .errors import IntegrationError
from .fock import HamiltonianParams, annihilation, build_hamiltonian, quadrature_x
from .semiclassical import ebk_bound_state_count
from .spectra import EigenSystem, eigensystem, _pair_up, _wells
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
    """Cached operators for one Lindblad configuration; the eigensystem and
    the well-signal operator are built on first use."""

    def __init__(self, cfg: LindbladConfig):
        self.cfg = cfg
        p = cfg.params
        self.dim = p.dim
        self.h = build_hamiltonian(p)
        self.a = annihilation(p.dim)
        # dissipator: scaled jumps sqrt(rate) O and the anti-Hermitian part
        # -(1/2) sum rate O^dag O of the effective drift -iH + damping
        self.rates, self.jump_scaled = [], []
        self.damping = np.zeros((self.dim, self.dim))
        for rate, op in ((cfg.kappa * (1.0 + cfg.n_th), self.a),
                         (cfg.kappa * cfg.n_th, self.a.T)):
            if rate > 0:
                self.rates.append(rate)
                self.damping -= 0.5 * rate * (op.T @ op)
                self.jump_scaled.append((np.sqrt(rate) * op).astype(complex))
        self.h_eff = -1j * self.h + self.damping

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
    """d rho / dt = -i [H, rho] + kappa(1+n_th) D[a] rho + kappa n_th D[a^dag] rho.

    ``rho`` must be Hermitian (the anticommutator part is folded into an
    effective drift that assumes it).
    """
    sys = _System(cfg)
    return _rhs(rho, sys, sys.h_eff)


def _rhs(rho: np.ndarray, sys: _System, drift: np.ndarray) -> np.ndarray:
    """drift rho + (drift rho)^dag + sum J rho J^dag for Hermitian rho."""
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError("density matrix dimension mismatch")
    hr = drift @ rho
    out = hr + hr.conj().T
    for op in sys.jump_scaled:
        out += (op @ rho) @ op.conj().T
    return out


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
        if cfg.kappa == 0:
            method = "unitary"
        elif cfg.t_final <= 300.0:
            method = "rk4"
        else:
            method = "expm"
    if method == "unitary":
        if cfg.kappa != 0:
            raise ValueError("unitary method requires kappa = 0")
        w, v = sys.es.eigenvalues, sys.es.eigenvectors
        rows, rho = _run(sys, sys.initial_state(),
                         lambda state, t, dt: _unitary(state, v, np.exp(-1j * dt * w)))
        return _traj_from_samples(sys, rows, rho, {"method": "unitary"})
    if method == "rk4":
        return _step_controlled(sys, sys.initial_rho(),
                                _rk4_step(sys, lambda t: sys.h_eff),
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

    Between samples it takes ``per`` equal steps ``state = step(state, t,
    dt)`` with dt = t_final / (per (n_samples - 1)), so samples land on exact
    steps.  ``state`` is a vector psi or a density matrix; it is observed
    with ``sys.ops``, or with ``ops`` when given.
    """
    ops = sys.ops if ops is None else ops
    n = sys.cfg.n_samples
    dt = sys.cfg.t_final / (per * max(n - 1, 1))
    rows = [_observe(state, ops)]
    for i in range(n - 1):
        for j in range(per):
            state = step(state, (i * per + j) * dt, dt)
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
    rate = sum(sys.rates) * sys.dim
    return 2.0 / max(span + rate, 1e-12)


def _step_controlled(sys: _System, state0, step, dt, method) -> Trajectory:
    """Run ``step`` from ``state0`` through ``_run`` with the fewest equal
    substeps per sample interval no longer than dt, halving dt until the
    trace drift stays below 1e-7 and two successive runs agree to 1e-6."""
    m = max(sys.cfg.n_samples - 1, 1)
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


def _rk4_step(sys: _System, drift):
    """RK4 step of the Lindblad equation with effective drift ``drift(t)``
    = -iH(t) + damping."""
    def step(rho, t, dt):
        d_mid = drift(t + dt / 2)
        k1 = _rhs(rho, sys, drift(t))
        k2 = _rhs(rho + 0.5 * dt * k1, sys, d_mid)
        k3 = _rhs(rho + 0.5 * dt * k2, sys, d_mid)
        k4 = _rhs(rho + dt * k3, sys, drift(t + dt))
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return 0.5 * (rho + rho.conj().T)
    return step


def _liouvillian_entries(sys: _System, rank: int, rows, cols) -> np.ndarray:
    """Elements L[(i, j), (k, l)] of the Liouvillian projected onto the top
    ``rank`` eigenvectors of H (acting on row-major flattened rho) for the
    index pairs ``rows`` = (i, j) and ``cols`` = (k, l).

    Each element is computed as in the Kronecker form
    kron(A, B)[(i, j), (k, l)] = A[i, k] B[j, l], in the same order, so any
    block equals the same block of the Kronecker-form matrix bit for bit.
    """
    cfg = sys.cfg
    vr = sys.es.eigenvectors[:, :rank]
    e_r = sys.es.eigenvalues[:rank]
    a_r = vr.conj().T @ sys.a @ vr
    (i, j), (k, l) = rows, cols

    def kron(x, y):
        return x[i][:, k] * y[j][:, l]

    eye = np.eye(len(e_r))
    e_d = np.diag(e_r)
    liou = (-1j * (kron(e_d, eye) - kron(eye, e_d))).astype(complex)
    for rate, op in ((cfg.kappa * (1 + cfg.n_th), a_r),
                     (cfg.kappa * cfg.n_th, a_r.conj().T)):
        if rate > 0:
            od_o = op.conj().T @ op
            liou += rate * (kron(op, op.conj())
                            - 0.5 * kron(od_o, eye)
                            - 0.5 * kron(eye, od_o.T))
    return liou


def _parity_block(sys: _System, rank: int, odd: bool):
    """Index pairs (i, j) of the top ``rank`` eigenvectors of H with parities
    i != j (``odd``) or i == j, in row-major order, and the block of the
    reduced Liouvillian over them.  Parity is a weak symmetry, so the two
    blocks are the whole Liouvillian: it couples no even pair to an odd one.
    """
    par = sys.es.parities[:rank]
    pairs = np.nonzero((par[:, None] != par[None, :]) == odd)
    return pairs, _liouvillian_entries(sys, rank, pairs, pairs)


def _certified_rank(sys: _System, run):
    """(rank, trace loss of the projected rho(0), run(rank)) for the first
    rank, raised by 12 at a time, whose basis keeps tr rho(0) to 1e-6
    relative and whose error (the last item of ``run(rank)``) is below 1e-6.
    ``run`` is not called at a rank that already loses the trace; the full
    basis is taken as it is."""
    rho0 = sys.initial_rho()
    tr0 = float(np.real(np.trace(rho0)))
    rank = sys.cfg.rank if sys.cfg.rank else min(sys.dim, 32)
    for _ in range(4):
        vr = sys.es.eigenvectors[:, :rank]
        loss = abs(1.0 - float(np.real(np.trace(vr.conj().T @ rho0 @ vr))) / tr0)
        if loss < 1e-6 or rank >= sys.dim:
            out = run(rank)
            if out[-1] < 1e-6 or rank >= sys.dim:
                return rank, loss, out
        rank = min(sys.dim, rank + 12)
    raise IntegrationError("eigenbasis rank did not certify in 4 tries")


def _evolve_expm(sys: _System) -> Trajectory:
    tau = sys.cfg.t_final / (sys.cfg.n_samples - 1)
    rho0 = sys.initial_rho()
    tr0 = float(np.real(np.trace(rho0)))

    def run(rank):
        vr = sys.es.eigenvectors[:, :rank]
        props = [(pairs, sla.expm(liou * tau)) for pairs, liou in
                 (_parity_block(sys, rank, odd) for odd in (False, True))]

        def step(rho, t, dt):
            for pairs, prop in props:
                rho[pairs] = prop @ rho[pairs]
            return rho

        rows, rho = _run(sys, vr.conj().T @ rho0 @ vr, step,
                         ops=tuple(vr.conj().T @ op @ vr for op in sys.ops))
        return rows, vr @ rho @ vr.conj().T, max(abs(1.0 - row[3] / tr0)
                                                 for row in rows)

    rank, _, (rows, rho_f, tr_err) = _certified_rank(sys, run)
    return _traj_from_samples(sys, rows, rho_f,
                              {"method": "expm", "rank": rank,
                               "trace_error": tr_err})


# -- Rabi maps and lifetime extraction -----------------------------------------

def _cosine_model(t, amp, freq, rate, offset):
    return amp * np.cos(freq * t) * np.exp(-rate * t) + offset


def fit_decaying_cosine(times, signal):
    """(angular frequency, decay time) of an exponentially decaying cosine."""
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
    trace_error: float


def tx_lifetime(cfg: LindbladConfig) -> TxEstimate:
    """Well-switching lifetime T_X = -1 / Re lambda_1 from the gap of the
    parity-odd Liouvillian block (see the module docstring).

    The rank is certified when the projected initial state keeps its trace
    to 1e-6 and T_X at rank + 12 agrees to 1e-6 relative; otherwise it is
    raised by 12, at most 4 tries.  ``rank`` is the rank used.  When
    ``t_final`` < T_X ln(1/0.95) no decay is resolved by ``t_final``, and
    the estimate is the lower bound t_x = t_final.
    """
    if cfg.kappa <= 0:
        raise ValueError("tx_lifetime requires kappa > 0")
    sys = _System(cfg)
    gaps = {}

    def t_x_at(rank):
        if rank not in gaps:
            gaps[rank] = -1.0 / _gap(_parity_block(sys, rank, True)[1]).real
        return gaps[rank]

    def run(rank):
        t_x = t_x_at(rank)
        converged = abs(t_x_at(min(sys.dim, rank + 12)) - t_x) <= 1e-6 * abs(t_x)
        return t_x, 0.0 if converged else np.inf

    rank, tr_err, (t_x, _) = _certified_rank(sys, run)
    if cfg.t_final < t_x * np.log(1 / 0.95):
        return TxEstimate(float(cfg.t_final), True, rank, tr_err)
    return TxEstimate(float(t_x), False, rank, tr_err)


def _gap(block: np.ndarray) -> complex:
    """Eigenvalue of ``block`` nearest 0: shift-invert ARPACK, or a dense
    solve for blocks no larger than ARPACK's default Krylov basis (20)."""
    if len(block) > 20:
        return spla.eigs(block, k=1, sigma=0, v0=np.ones(len(block)),
                         return_eigenvectors=False)[0]
    lams = np.linalg.eigvals(block)
    return lams[np.argmin(np.abs(lams))] if len(lams) else complex(np.nan)


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
    commutator-free Magnus steps (``_cf4_step``); an open one takes RK4.
    Both run under the same step-halving control.
    """
    d0, e0 = protocol.values_at(0.0)
    base = cfg.params.with_(delta=d0, eps2=e0)
    sys = _System(replace(cfg, params=base, t_final=protocol.total_duration))
    num = np.diag(np.arange(base.dim, dtype=float))
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
    return _step_controlled(sys, sys.initial_rho(),
                            _rk4_step(sys, lambda t: -1j * h_at(t) + sys.damping),
                            _stable_dt(sys), "rk4-protocol")


# Gauss-Legendre nodes and weights of the two-exponential commutator-free
# Magnus step CF4 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009);
# Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011))
_CF4_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_A, _CF4_B = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0


def _cf4_step(h_at):
    """Closed step of a vector psi or a density matrix rho under the
    real-symmetric H(t) = ``h_at(t)``, fourth order in dt.

    With H1, H2 = H at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt, one step
    applies exp(-i dt (b H1 + a H2)) and then exp(-i dt (a H1 + b H2)),
    a, b = (3 -+ 2 sqrt(3)) / 12, each from one ``eigh`` (``_unitary``).
    The weights of each exponential sum to 1/2, so the step is exact when H
    is constant.
    """
    def step(state, t, dt):
        h1, h2 = (h_at(t + c * dt) for c in _CF4_NODES)
        for h in (_CF4_B * h1 + _CF4_A * h2, _CF4_A * h1 + _CF4_B * h2):
            w, v = np.linalg.eigh(h)
            state = _unitary(state, v, np.exp(-1j * dt * w))
        return state
    return step
