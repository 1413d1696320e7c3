import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import kerrcat.dynamics
import kerrcat.spectra
from kerrcat.dynamics import (LindbladConfig, RampProtocol, RampSegment,
                              default_n_pairs, evolve, fit_decaying_cosine,
                              lindblad_rhs, rabi_map, run_protocol,
                              tx_lifetime, well_projectors, well_signal)
from kerrcat.errors import IntegrationError, TruncationRiskError
from kerrcat.fock import (HamiltonianParams, annihilation, build_hamiltonian,
                          parity_operator, quadrature_x)
from kerrcat.spectra import eigensystem, localized_pair, tunnel_splitting

from oracles import (dense_cf4_step, kron_liouvillian, odd_sector_tx_reference,
                     sector_reference)


def cfg_of(p, **kw):
    return LindbladConfig(params=p, **kw)


def eigen_sector(sys, rank, odd):
    """``_sector`` in the top ``rank`` eigenvectors of H: (pairs, dense block)."""
    vr = sys.es.eigenvectors[:, :rank]
    pairs, block = kerrcat.dynamics._sector(
        np.diag(sys.es.eigenvalues[:rank]), vr.conj().T @ sys.a @ vr, sys.cfg,
        sys.es.parities[:rank], odd)
    return pairs, block.toarray()


# -- right-hand side -------------------------------------------------------------

def test_rhs_thermal_state_is_fixed_point():
    nth = 0.05
    dim = 20
    p = HamiltonianParams(delta=1.3, eps2=0.0, dim=dim)
    cfg = cfg_of(p, kappa=0.04, n_th=nth, t_final=1.0, n_pairs=1)
    ratio = nth / (1.0 + nth)
    pops = ratio ** np.arange(dim)
    rho = np.diag(pops / pops.sum()).astype(complex)
    out = lindblad_rhs(rho, cfg)
    assert np.abs(out).max() < 1e-14


def test_rhs_closed_limit_is_commutator():
    p = HamiltonianParams(delta=2.0, eps2=0.7, dim=16)
    cfg = cfg_of(p, kappa=0.0, t_final=1.0, n_pairs=1)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    h = build_hamiltonian(p)
    expected = -1j * (h @ rho - rho @ h)
    assert np.abs(lindblad_rhs(rho, cfg) - expected).max() < 1e-14


def test_rhs_traceless_and_hermiticity_preserving():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=14)
    cfg = cfg_of(p, kappa=0.03, n_th=0.1, t_final=1.0, n_pairs=1)
    rng = np.random.default_rng(4)
    m = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    out = lindblad_rhs(rho, cfg)
    assert abs(np.trace(out)) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_rhs_needs_no_eigensystem(monkeypatch):
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=14)
    cfg = cfg_of(p, kappa=0.03, n_th=0.1, t_final=1.0)
    rho = np.diag(np.linspace(1.0, 0.1, 14)).astype(complex)
    rho /= np.trace(rho)
    expected = lindblad_rhs(rho, cfg)

    def fail(_h):
        raise AssertionError("lindblad_rhs diagonalised H")
    monkeypatch.setattr(kerrcat.dynamics, "eigensystem", fail)
    out = lindblad_rhs(rho, cfg)
    assert np.array_equal(out, expected)
    # literal Lindblad form
    h = build_hamiltonian(p)
    a = np.diag(np.sqrt(np.arange(1.0, 14)), 1)
    lit = -1j * (h @ rho - rho @ h)
    for rate, op in ((0.03 * 1.1, a), (0.03 * 0.1, a.T)):
        od_o = op.T @ op
        lit += rate * (op @ rho @ op.T - 0.5 * (od_o @ rho + rho @ od_o))
    assert np.abs(out - lit).max() < 1e-13


def test_rhs_of_a_non_hermitian_rho_matches_the_kron_oracle():
    # the Liouvillian is applied as it is, so rho need not be Hermitian
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=14)
    cfg = cfg_of(p, kappa=0.03, n_th=0.1, t_final=1.0)
    rng = np.random.default_rng(7)
    rho = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
    want = kron_liouvillian(build_hamiltonian(p), annihilation(14), 0.03,
                            0.1) @ rho.ravel()
    out = lindblad_rhs(rho, cfg)
    assert out.shape == rho.shape
    assert np.abs(out.ravel() - want).max() < 1e-13 * np.abs(want).max()


def test_rhs_dimension_mismatch():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=14)
    cfg = cfg_of(p, t_final=1.0, n_pairs=1)
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(10, dtype=complex), cfg)


def test_config_validation():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=14)
    with pytest.raises(ValueError):
        LindbladConfig(params=p, t_final=0.0)
    with pytest.raises(ValueError):
        LindbladConfig(params=p, t_final=1.0, kappa=-0.1)


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_fewer_than_two_samples_is_rejected(n_samples):
    # one sample would never evolve; none would observe nothing
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=20)
    with pytest.raises(ValueError):
        LindbladConfig(params=p, t_final=100.0, n_samples=n_samples)


_P8 = HamiltonianParams(delta=1.0, eps2=0.5, dim=8)


@pytest.mark.parametrize("call, match", [
    (lambda: LindbladConfig(params=_P8, kappa=np.inf), "must be finite"),
    (lambda: well_projectors(eigensystem(build_hamiltonian(_P8)), 5), "does not expose 5"),
    (lambda: evolve(cfg_of(_P8, initial_state="middle")), "unknown initial state tag"),
    (lambda: evolve(cfg_of(_P8, initial_state=np.eye(3))), "wrong shape"),
    (lambda: evolve(cfg_of(_P8, kappa=0.1, method="unitary")), "requires kappa = 0"),
    (lambda: evolve(cfg_of(_P8, method="leapfrog")), "unknown method"),
    (lambda: rabi_map(_P8, "kerr", [1.0], [0.0, 1.0]), "axis must be"),
    (lambda: RampProtocol(()), "at least one segment"),
    (lambda: fit_decaying_cosine([0.0, 1.0, 2.0], [1.0, np.nan, 0.0]), "infs or NaNs"),
], ids=["kappa-inf", "n-pairs", "init-tag", "init-shape", "unitary-kappa",
        "method", "rabi-axis", "no-segments", "fit-nan"])
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- evolution -------------------------------------------------------------------

def test_damped_fock_state_photon_decay():
    # populations obey the photon birth-death chain for any number-conserving H
    p = HamiltonianParams(delta=0.5, eps2=0.0, dim=12)
    cfg = cfg_of(p, kappa=0.05, n_th=0.0, t_final=60.0, initial_state=3,
                 n_samples=61, method="rk4", n_pairs=1)
    traj = evolve(cfg)
    expected = 3.0 * np.exp(-0.05 * traj.times)
    assert np.abs(traj.nbar - expected).max() < 1e-5
    assert np.abs(traj.trace - 1.0).max() < 1e-7


def test_rabi_frequency_matches_splitting():
    p = HamiltonianParams(delta=1.0, eps2=0.11, dim=60)
    de = tunnel_splitting(p).abs_delta_e
    cfg = cfg_of(p, t_final=3 * 2 * np.pi / de, n_samples=601, n_pairs=1)
    traj = evolve(cfg)
    freq, _ = fit_decaying_cosine(traj.times, traj.s)
    assert abs(freq - de) / de < 0.01
    # closed evolution conserves <H> (here via constant purity/trace and s-range)
    assert np.abs(traj.trace - 1.0).max() < 1e-12
    assert traj.s.max() <= 1 + 1e-9


def test_fit_falls_back_to_the_fft_seed_without_convergence(monkeypatch):
    t = np.linspace(0.0, 20.0, 201)
    freq, tau = fit_decaying_cosine(t, 0.5 * np.cos(1.3 * t) * np.exp(-t / 15) + 0.1)
    assert freq == pytest.approx(1.3, rel=1e-9) and tau == pytest.approx(15, rel=1e-9)
    # MINPACK's ier = 5: the call limit was reached
    monkeypatch.setattr(scipy.optimize, "leastsq",
                        lambda *args, **kw: (np.full(4, np.nan), None, {}, "", 5))
    freq, tau = fit_decaying_cosine(t, np.cos(1.3 * t))
    bin_width = 2 * np.pi / (len(t) * (t[1] - t[0]))
    assert tau == np.inf
    assert freq == pytest.approx(round(1.3 / bin_width) * bin_width, rel=1e-12)


def test_cancellation_freezes_well_signal():
    p = HamiltonianParams(delta=2.0, eps2=0.11, dim=60)
    cfg = cfg_of(p, t_final=100.0, n_samples=201, n_pairs=1)
    traj = evolve(cfg)
    assert np.abs(traj.s - traj.s[0]).max() < 1e-4


def test_closed_energy_conservation():
    p = HamiltonianParams(delta=1.5, eps2=0.8, dim=40)
    h = build_hamiltonian(p)
    cfg = cfg_of(p, t_final=50.0, n_samples=51, n_pairs=1)
    sys_es = eigensystem(h)
    right, _ = localized_pair(sys_es, 0)
    e0 = right @ h @ right
    traj = evolve(cfg)
    rho_f = traj.rho_final
    e1 = float(np.real(np.trace(h @ rho_f)))
    assert abs(e1 - e0) < 1e-7 * max(1.0, abs(e0))


def test_thermal_fixed_point_reached():
    p = HamiltonianParams(delta=1.3, eps2=0.0, dim=16)
    cfg = cfg_of(p, kappa=0.02, n_th=0.05, t_final=2500.0,
                 initial_state="vacuum", n_samples=126, method="expm", n_pairs=1)
    traj = evolve(cfg)
    assert abs(traj.nbar[-1] - 0.05) < 1e-4
    assert abs(traj.trace[-1] - 1.0) < 1e-7


def test_rk4_and_expm_agree():
    p = HamiltonianParams(delta=2.0, eps2=1.0, dim=20)
    common = dict(kappa=0.02, n_th=0.05, t_final=25.0, n_samples=26, n_pairs=1)
    t_rk4 = evolve(cfg_of(p, **common, method="rk4"))
    t_expm = evolve(cfg_of(p, **common, method="expm", rank=20))
    assert np.abs(t_rk4.s - t_expm.s).max() < 1e-8
    assert np.abs(t_rk4.nbar - t_expm.nbar).max() < 1e-8


def test_auto_takes_expm_at_any_kappa():
    # no t_final threshold: a short open run takes the expm route, and RK4
    # asked for by name gives the same well signal
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=20)
    common = dict(kappa=0.02, n_th=0.05, t_final=10.0, n_samples=21)
    auto = evolve(cfg_of(p, **common))
    rk4 = evolve(cfg_of(p, **common, method="rk4"))
    assert (auto.meta["method"], rk4.meta["method"]) == ("expm", "rk4")
    assert np.abs(auto.s - rk4.s).max() < 1e-10


def test_step_control_gives_up_naming_the_method():
    # a kernel that only returns NaN never converges: every one of the 13
    # runs (12 halvings) is made, then IntegrationError names the method
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=12)
    sys = kerrcat.dynamics._System(cfg_of(p, t_final=1.0, n_samples=3, n_pairs=1))
    calls = []

    def nan_step(psi, k, dt, per):
        calls.append(per)
        return np.full_like(psi, np.nan)

    with pytest.raises(IntegrationError, match="nan-kernel"):
        kerrcat.dynamics._step_controlled(sys, sys.initial_state(), nan_step,
                                          0.5, "nan-kernel")
    assert calls == [2 ** h for h in range(13) for _ in range(2)]


def test_positivity_and_trace_long_horizon():
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=30)
    cfg = cfg_of(p, kappa=0.02, n_th=0.05, t_final=200.0, n_samples=101,
                 method="expm", rank=30)
    traj = evolve(cfg)
    assert np.abs(traj.trace - 1.0).max() < 1e-7
    assert traj.min_eig.min() > -1e-7
    assert np.abs(traj.purity - np.clip(traj.purity, 0, 1 + 1e-8)).max() == 0


def test_positivity_and_trace_rk4_short_horizon():
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=24)
    cfg = cfg_of(p, kappa=0.02, n_th=0.05, t_final=30.0, n_samples=31,
                 method="rk4")
    traj = evolve(cfg)
    assert np.abs(traj.trace - 1.0).max() < 1e-7
    assert traj.min_eig.min() > -1e-7


def test_trajectory_csv(tmp_path):
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=16)
    traj = evolve(cfg_of(p, t_final=5.0, n_samples=6, n_pairs=1))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,s,tr,purity,n"
    assert len(lines) == 7


# -- well signal -----------------------------------------------------------------

def test_well_signal_localized_states():
    p = HamiltonianParams(delta=1.0, eps2=2.0, dim=50)
    es = eigensystem(build_hamiltonian(p))
    right, left = localized_pair(es, 0)
    rho_r = np.outer(right, right).astype(complex)
    assert well_signal(rho_r, es, 1) == pytest.approx(1.0, abs=1e-6)
    mixed = (np.outer(right, right) + np.outer(left, left)) / 2
    assert well_signal(mixed.astype(complex), es, 1) == pytest.approx(0.0, abs=1e-12)
    pi = parity_operator(50)
    rho_flip = pi @ rho_r @ pi
    assert well_signal(rho_flip, es, 1) == pytest.approx(-1.0, abs=1e-6)
    assert well_signal(rho_flip, es, 1) == pytest.approx(
        -well_signal(rho_r, es, 1), abs=1e-12)


def test_default_n_pairs_follows_ebk():
    assert default_n_pairs(HamiltonianParams(delta=1.0, eps2=4.0)) == 1
    assert default_n_pairs(HamiltonianParams(delta=9.0, eps2=4.0)) == 4
    assert default_n_pairs(HamiltonianParams(delta=-1.0, eps2=0.1)) == 1


def test_well_projector_rank_guard():
    p = HamiltonianParams(delta=0.5, eps2=0.2, dim=12)
    es = eigensystem(build_hamiltonian(p))
    with pytest.raises(ValueError):
        well_projectors(es, 0)


@pytest.mark.filterwarnings("ignore:pair .* is not quasi-degenerate")
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(0.0, 6.0), eps2=st.floats(0.1, 3.0),
       dim=st.integers(16, 50), n_pairs=st.integers(1, 4))
def test_well_projectors_sum_localized_pairs(delta, eps2, dim, n_pairs):
    es = eigensystem(build_hamiltonian(
        HamiltonianParams(delta=delta, eps2=eps2, dim=dim)))
    p_r, p_l = well_projectors(es, n_pairs)
    sum_r, sum_l = np.zeros((dim, dim)), np.zeros((dim, dim))
    for k in range(n_pairs):
        right, left = localized_pair(es, k)
        sum_r += np.outer(right, right)
        sum_l += np.outer(left, left)
    assert np.abs(p_r - sum_r).max() < 1e-14
    assert np.abs(p_l - sum_l).max() < 1e-14
    assert np.abs(p_r @ p_r - p_r).max() < 1e-12
    assert np.abs(p_r @ p_l).max() < 1e-12


def test_dynamics_never_reaches_the_quasi_degeneracy_warning(monkeypatch):
    # pair 0 at delta=1, eps2=0.11 is not quasi-degenerate: localized_pair
    # warns there, but the well states of a run are built without that path
    def fail(*args, **kwargs):
        raise AssertionError("dynamics reached the localized_pair warning")

    monkeypatch.setattr("kerrcat.spectra.warnings.warn", fail)
    p = HamiltonianParams(delta=1.0, eps2=0.11, dim=60)
    traj = evolve(cfg_of(p, t_final=2.0, n_samples=5))
    assert traj.s[0] == pytest.approx(1.0, abs=0.05)
    est = tx_lifetime(cfg_of(p, kappa=0.02, n_th=0.05, t_final=1000.0))
    assert est.t_x > 0


# -- rabi map and lifetimes --------------------------------------------------------

def test_rabi_map_fits_and_cancellation():
    p0 = HamiltonianParams(delta=1.0, eps2=0.11, dim=60)
    de1 = tunnel_splitting(p0).abs_delta_e
    t_grid = np.linspace(0.0, 3 * 2 * np.pi / de1, 301)
    table = rabi_map(p0, "delta", [1.0, 2.0], t_grid)
    fits = {f["value"]: f for f in table.meta["fits"]}
    assert abs(fits[1.0]["frequency"] - de1) / de1 < 0.02
    assert fits[2.0]["frequency"] < 1e-3
    prob = table.column("prob")
    assert prob.min() > -1e-9 and prob.max() < 1 + 1e-9
    assert len(table.rows) == 2 * 301


def test_rabi_frequency_decreases_with_drive():
    freqs = []
    for eps2 in (0.3, 0.6, 1.0):
        p = HamiltonianParams(delta=3.0, eps2=eps2, dim=70)
        de = tunnel_splitting(p).abs_delta_e
        t_grid = np.linspace(0.0, 3 * 2 * np.pi / de, 301)
        table = rabi_map(p, "eps2", [eps2], t_grid)
        freqs.append(table.meta["fits"][0]["frequency"])
    assert freqs[0] > freqs[1] > freqs[2]


TX_GOLDEN_D2 = 2621.7   # delta=2, eps2=2.17, kappa=1/50, n_th=0.05, dim=60


def test_tx_lifetime_golden_and_certification():
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=60)
    cfg = cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=6000.0)
    est = tx_lifetime(cfg)
    assert not est.lower_bound
    assert est.t_x == pytest.approx(TX_GOLDEN_D2, rel=0.02)


def test_tx_requires_dissipation():
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=40)
    with pytest.raises(ValueError):
        tx_lifetime(cfg_of(p, kappa=0.0, t_final=100.0))


def test_tx_uncertified_rank_raises():
    # a high Fock state lies outside every basis the expm rank loop tries
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=40)
    with pytest.raises(IntegrationError):
        evolve(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=10.0, n_samples=11,
                      method="expm", rank=1, initial_state=39))


def test_tx_truncation_certificate_raises_a_too_small_dim():
    # dim 12 gives T_X = 1708, far from the converged 2624 at dim >= 24
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=12)
    with pytest.raises(TruncationRiskError):
        tx_lifetime(cfg_of(p, kappa=0.02, n_th=0.05, t_final=6000.0))


def test_tx_solves_no_eigensystem_of_h(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("tx_lifetime diagonalised H")

    monkeypatch.setattr(kerrcat.dynamics, "eigensystem", fail)
    monkeypatch.setattr(kerrcat.spectra, "eigensystem", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=60)
    est = tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=6000.0))
    assert est.rank == 60
    assert est.t_x == pytest.approx(TX_GOLDEN_D2, rel=0.02)


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(-2.0, 6.0), eps2=st.floats(0.0, 3.0),
       eps4=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
       kappa=st.floats(1e-3, 0.2), n_th=st.floats(0.0, 0.5),
       dim=st.integers(4, 16))
@example(delta=0.0, eps2=3.0, eps4=0.0, kappa=0.125, n_th=0.0, dim=15)
@example(delta=0.0, eps2=1.875, eps4=0.0, kappa=0.001, n_th=0.0, dim=15)
@example(delta=1.0, eps2=0.5, eps4=0.0, kappa=0.05, n_th=0.1, dim=4)
def test_odd_sector_tx_matches_the_full_rank_eigenbasis_block(
        delta, eps2, eps4, kappa, n_th, dim):
    # the opposite-parity eigenbasis block at full rank spans the same
    # space as the Fock sector m + n odd.  lambda_1, nearest 0, is the
    # inverse of the largest-modulus eigenvalue of the block's inverse:
    # eigvals of the block itself misses it by 5e-10 and 1.2e-9 relative at
    # the two examples, against a 40-digit reference
    p = HamiltonianParams(delta=delta, eps2=eps2, eps4=eps4, dim=dim)
    cfg = cfg_of(p, kappa=kappa, n_th=n_th)
    block = eigen_sector(kerrcat.dynamics._System(cfg), dim, True)[1]
    mus = np.linalg.eigvals(np.linalg.solve(block, np.eye(len(block))))
    want = -1.0 / (1.0 / mus[np.argmax(np.abs(mus))]).real
    assert kerrcat.dynamics._odd_sector_tx(cfg, dim) == pytest.approx(
        want, rel=1e-9)


@pytest.mark.parametrize("delta, eps2, dim", [(2.0, 2.17, 60), (8.0, 4.0, 90)])
def test_odd_sector_tx_matches_the_default_krylov_solve(delta, eps2, dim):
    # the criterion-12 point and a large-detuning sector of 4050 entries
    cfg = cfg_of(HamiltonianParams(delta=delta, eps2=eps2, dim=dim),
                 kappa=1 / 50, n_th=0.05)
    assert kerrcat.dynamics._odd_sector_tx(cfg, dim) == pytest.approx(
        odd_sector_tx_reference(cfg, dim), rel=1e-9)


class CountingLU:
    """A SuperLU factor of ``block`` that counts its solves."""

    def __init__(self, block, lu):
        self.fill = (lu.L.nnz + lu.U.nnz) / block.nnz
        self.lu, self.solves = lu, 0

    def solve(self, rhs, trans="N"):
        self.solves += 1
        return self.lu.solve(rhs, trans=trans)


@pytest.mark.parametrize("delta, eps2, max_solves",
                         [(2.0, 2.17, 9), (0.5, 0.3, 17)])
def test_odd_sector_tx_factorises_once_and_takes_few_solves(
        monkeypatch, delta, eps2, max_solves):
    # ARPACK's default Krylov size took 21 solves at both points; the
    # shallow well separates lambda_1 least from the rest of the sector.
    # The factor holds 6.0-6.5 entries per sector entry here, COLAMD 9.6-9.9
    factors, splu = [], scipy.sparse.linalg.splu

    def counting_splu(block, **kwargs):
        factors.append(CountingLU(block, splu(block, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    cfg = cfg_of(HamiltonianParams(delta=delta, eps2=eps2, dim=60),
                 kappa=1 / 50, n_th=0.05)
    kerrcat.dynamics._odd_sector_tx(cfg, 60)
    assert len(factors) == 1
    assert factors[0].solves <= max_solves
    assert factors[0].fill < 8


def counting_factors(monkeypatch):
    """The (CountingLU, splu kwargs) of every factor made from here on."""
    factors, splu = [], scipy.sparse.linalg.splu

    def counting_splu(block, **kwargs):
        factors.append((CountingLU(block, splu(block, **kwargs)), kwargs))
        return factors[-1][0]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return factors


def test_tx_factors_in_symmetric_mode_and_builds_only_the_odd_sector(
        monkeypatch):
    # the criterion-12 point is certified from its one factor: the sector
    # at dim, rows m + n odd and nothing else, factored with a symmetric
    # ordering and diagonal pivoting, and at dim + 12 only the odd rows
    # within H's reach (2) of the cut at max(m, n) = dim - 1
    factors = counting_factors(monkeypatch)
    builds, build = [], kerrcat.dynamics._liouvillian

    def spying_build(h, a, cfg, keep=None):
        builds.append((len(h), keep))
        return build(h, a, cfg, keep)

    monkeypatch.setattr(kerrcat.dynamics, "_liouvillian", spying_build)
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=60)
    tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=6000.0))
    assert [dim for dim, _ in builds] == [60, 72]
    for dim, keep in builds:
        m, n = np.divmod(np.flatnonzero(keep), dim)
        assert np.all((m + n) % 2 == 1)
    assert np.count_nonzero(builds[0][1]) == 60 * 60 // 2
    m, n = np.divmod(np.flatnonzero(builds[1][1]), 72)
    assert set(np.maximum(m, n)) == set(range(57, 62))
    assert len(m) == sum(2 * ((top + 1) // 2) for top in range(57, 62))
    assert len(factors) == 1
    lu, kwargs = factors[0]
    assert kwargs["options"] == {"SymmetricMode": True}
    assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
    assert kwargs["diag_pivot_thresh"] == 0.1
    assert lu.fill < 8


def tx_bound(cfg, dim):
    """(T_X, kappa, c) of the solve at ``dim`` and its ``_tx_bound``."""
    lam, v, sector = kerrcat.dynamics._odd_sector(cfg, dim)
    return (-1.0 / lam.real,
            *kerrcat.dynamics._tx_bound(cfg, dim, lam, v, sector))


def test_tx_bound_accepts_only_points_the_dim_plus_12_solve_accepts():
    # small dims, shallow and deep wells and three rate pairs: 24 of the 96
    # points are accepted from one factor, and at every point with c <=
    # 1e-6, 100x above the acceptance bound, T_X moves by <= 1e-6 at dim + 12
    rates = [(0.02, 0.05), (0.02, 0.0), (0.1, 0.2)]
    grid = itertools.product((0.5, 2.0, 2.9, 6.0), (0.3, 1.0, 2.17, 4.0),
                             (8, 12, 16, 24, 32, 40))
    accepted = 0
    for k, (delta, eps2, dim) in enumerate(grid):
        kappa, n_th = rates[k % 3]
        cfg = cfg_of(HamiltonianParams(delta=delta, eps2=eps2, dim=dim),
                     kappa=kappa, n_th=n_th)
        t_x, _, c = tx_bound(cfg, dim)
        accepted += c <= kerrcat.dynamics._TX_BOUND
        if c <= 1e-6:
            t_x12 = kerrcat.dynamics._odd_sector_tx(cfg, dim + 12)
            assert abs(t_x12 - t_x) <= 1e-6 * t_x, (delta, eps2, dim, c)
    assert accepted >= 20


@pytest.mark.parametrize("eps4", [0.0, 0.1])
def test_tx_bound_residual_is_that_of_the_whole_dim_plus_12_sector(eps4):
    # r is built on the rows near the cut only; on the whole sector at dim +
    # 12, the padded eigenvector's residual off those rows is the solve's
    # own, and on them it is the same r (eps4 widens H's reach to 4)
    dim, big = 24, 36
    cfg = cfg_of(HamiltonianParams(delta=2.0, eps2=2.17, eps4=eps4, dim=dim),
                 kappa=0.1, n_th=0.2)
    lam, v, sector = kerrcat.dynamics._odd_sector(cfg, dim)
    kappa, c = kerrcat.dynamics._tx_bound(cfg, dim, lam, v, sector)
    pairs, block = kerrcat.dynamics._sector(
        build_hamiltonian(replace(cfg.params, dim=big)), annihilation(big), cfg,
        np.arange(big) % 2, True)
    rho = np.zeros((big, big), complex)
    rho[sector[0]] = v
    r = block @ rho[pairs] - lam * rho[pairs]
    cut = np.maximum(*pairs) >= dim - 1
    assert np.linalg.norm(r[~cut]) < 1e-12      # ||v|| = 1
    assert c == pytest.approx(kappa * np.linalg.norm(r[cut]) / abs(lam.real),
                              rel=1e-12)
    assert c > 1e-3


def test_tx_falls_back_to_the_dim_plus_12_solve_above_the_bound(monkeypatch):
    # (6, 3, dim 40): c = 1.7e-5 takes the second factor, where T_X moves
    # by 1.5e-11, and the row is accepted with the T_X of the first solve
    cfg = cfg_of(HamiltonianParams(delta=6.0, eps2=3.0, dim=40),
                 kappa=0.02, n_th=0.05, t_final=1e6)
    t_x, _, c = tx_bound(cfg, 40)
    assert 1e-6 < c < 1e-4
    factors = counting_factors(monkeypatch)
    est = tx_lifetime(cfg)
    assert len(factors) == 2
    assert est == kerrcat.dynamics.TxEstimate(t_x, False, 40)
    assert est.t_x == pytest.approx(
        kerrcat.dynamics._odd_sector_tx(cfg, 52), rel=1e-10)


def test_tx_left_vector_is_the_conjugate_pairs_own():
    # ARPACK at k = 1 on the adjoint returned the other member of a
    # conjugate pair here, and kappa came out 1e15
    cfg = cfg_of(HamiltonianParams(delta=2.9, eps2=0.3, dim=60),
                 kappa=0.02, n_th=0.05)
    _, kappa, c = tx_bound(cfg, 60)
    assert 1.0 <= kappa < 10.0
    assert c < 1e-12


def test_tx_lower_bound_flag():
    # delta = 2 cancellation point with a horizon far too short to see decay
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=40)
    cfg = cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=40.0)
    est = tx_lifetime(cfg)
    assert est.lower_bound
    assert est.t_x == pytest.approx(40.0, rel=0.1)


def test_tx_lower_bound_threshold_is_two_sided():
    # no decay is resolved before s/s0 = 0.95, i.e. t = T_X ln(1/0.95)
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=40)
    t_x = tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=1e5)).t_x
    threshold = t_x * np.log(1 / 0.95)
    short = tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05,
                               t_final=0.99 * threshold))
    assert short.lower_bound and short.t_x == 0.99 * threshold
    long = tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05,
                              t_final=1.01 * threshold))
    assert not long.lower_bound and long.t_x == t_x


def test_tx_does_not_depend_on_rank():
    # the odd Fock sector spans the whole truncated space: rank 4, which
    # once missed the gap (T_X 16766), gives the default rank's T_X exactly
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=60)
    common = dict(kappa=1 / 50, n_th=0.05, t_final=20000.0)
    est = tx_lifetime(cfg_of(p, **common, rank=4))
    assert est.t_x == tx_lifetime(cfg_of(p, **common)).t_x
    assert est.t_x == pytest.approx(TX_GOLDEN_D2, rel=0.02)


def test_tx_gap_matches_time_domain_fit():
    # fit s(t) = s0 exp(-t / T_X) over s/s0 in [0.2, 0.95] of an exact
    # eigenbasis propagation, independently of the gap solve
    p = HamiltonianParams(delta=3.0, eps2=2.17, dim=40)
    traj = evolve(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=1200.0,
                         n_samples=241, method="expm"))
    rel = traj.s / traj.s[0]
    window = (rel >= 0.2) & (rel <= 0.95)
    assert window.sum() >= 8
    slope = np.polyfit(traj.times[window], np.log(traj.s[window]), 1)[0]
    est = tx_lifetime(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=1200.0))
    assert not est.lower_bound
    assert est.t_x == pytest.approx(-1.0 / slope, rel=0.02)


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(0.0, 5.0), eps2=st.floats(0.0, 3.0),
       kappa=st.floats(1e-3, 0.2), n_th=st.floats(0.0, 0.5),
       rank=st.integers(2, 16))
def test_reduced_liouvillian_splits_by_parity(delta, eps2, kappa, n_th, rank):
    p = HamiltonianParams(delta=delta, eps2=eps2, dim=16)
    sys = kerrcat.dynamics._System(cfg_of(p, kappa=kappa, n_th=n_th))
    vr = sys.es.eigenvectors[:, :rank]
    full = kron_liouvillian(np.diag(sys.es.eigenvalues[:rank]),
                            vr.conj().T @ sys.a @ vr, kappa, n_th)
    par = sys.es.parities[:rank]
    odd_pair = (par[:, None] != par[None, :]).ravel()
    odd, even = np.flatnonzero(odd_pair), np.flatnonzero(~odd_pair)
    assert np.all(full[np.ix_(even, odd)] == 0)
    assert np.all(full[np.ix_(odd, even)] == 0)
    for is_odd, index in ((False, even), (True, odd)):
        pairs, block = eigen_sector(sys, rank, is_odd)
        assert np.array_equal(np.ravel_multi_index(pairs, (rank, rank)), index)
        assert block.tobytes() == full[np.ix_(index, index)].tobytes()


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(-2.0, 6.0), eps2=st.floats(0.0, 3.0),
       eps4=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
       kappa=st.floats(1e-3, 0.2),
       n_th=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       dim=st.integers(4, 12))
def test_fock_sectors_match_the_kron_oracle(delta, eps2, eps4, kappa, n_th,
                                            dim):
    # the T_X basis: Fock states with parity n mod 2, so m + n odd or even
    p = HamiltonianParams(delta=delta, eps2=eps2, eps4=eps4, dim=dim)
    h, a = build_hamiltonian(p), annihilation(dim)
    full = kron_liouvillian(h, a, kappa, n_th)
    n = np.arange(dim)
    odd_pair = ((n[:, None] + n[None, :]) % 2 == 1).ravel()
    odd, even = np.flatnonzero(odd_pair), np.flatnonzero(~odd_pair)
    assert np.all(full[np.ix_(even, odd)] == 0)
    assert np.all(full[np.ix_(odd, even)] == 0)
    cfg = cfg_of(p, kappa=kappa, n_th=n_th)
    for is_odd, index in ((False, even), (True, odd)):
        pairs, block = kerrcat.dynamics._sector(h, a, cfg, n % 2, is_odd)
        assert np.array_equal(np.ravel_multi_index(pairs, (dim, dim)), index)
        assert block.toarray().tobytes() == full[np.ix_(index, index)].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 7),
       n_th=st.sampled_from([0.0, 0.3]))
def test_liouvillian_of_any_real_operators_matches_the_kron_oracle(seed, dim,
                                                                   n_th):
    # sparse h and a with entries anywhere, the diagonal of a included, and
    # any set of kept pairs: the kept rows and columns of the whole operator
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.5)
    a = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.5)
    h = m + m.T
    cfg = cfg_of(HamiltonianParams(delta=1.0, eps2=1.0, dim=4), kappa=0.3,
                 n_th=n_th)
    full = kron_liouvillian(h, a, 0.3, n_th)
    keep = rng.random(dim * dim) < 0.6
    index = np.flatnonzero(keep)
    got = kerrcat.dynamics._liouvillian(h, a, cfg, keep).toarray()
    assert got.tobytes() == full[np.ix_(index, index)].tobytes()
    assert (kerrcat.dynamics._liouvillian(h, a, cfg).toarray().tobytes()
            == full.tobytes())


def same_csr(got, want):
    """Bit-equal entries and the same sparsity pattern, in the same order."""
    return (got.shape == want.shape
            and got.toarray().tobytes() == want.toarray().tobytes()
            and np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices))


@pytest.mark.parametrize("dim", [60, 72])
@pytest.mark.parametrize("n_th", [0.0, 0.05])
@pytest.mark.parametrize("eps4", [0.0, 0.1])
def test_fock_sectors_match_the_sparse_kron_cut_at_tx_sizes(dim, n_th, eps4):
    # the T_X sizes, where a dense np.kron Liouvillian would take 0.2-0.4 GB
    p = HamiltonianParams(delta=2.0, eps2=2.17, eps4=eps4, dim=dim)
    cfg = cfg_of(p, kappa=1 / 50, n_th=n_th)
    h, a, par = build_hamiltonian(p), annihilation(dim), np.arange(dim) % 2
    for odd in (False, True):
        block = kerrcat.dynamics._sector(h, a, cfg, par, odd)[1]
        assert same_csr(block, sector_reference(h, a, cfg, par, odd))


@pytest.mark.parametrize("n_th", [0.0, 0.05])
def test_eigenbasis_sectors_match_the_sparse_kron_cut_at_rank_32(n_th):
    # the default expm rank, where the projected jump fills every entry
    # between opposite parities
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=60)
    sys = kerrcat.dynamics._System(cfg_of(p, kappa=1 / 50, n_th=n_th))
    vr = sys.es.eigenvectors[:, :32]
    h, a = np.diag(sys.es.eigenvalues[:32]), vr.conj().T @ sys.a @ vr
    for odd in (False, True):
        block = kerrcat.dynamics._sector(h, a, sys.cfg, sys.es.parities[:32],
                                         odd)[1]
        assert same_csr(block, sector_reference(h, a, sys.cfg,
                                                sys.es.parities[:32], odd))


def test_fock_liouvillian_matches_the_sparse_kron_operator():
    # the whole operator that rk4, the open ramp and lindblad_rhs apply
    p = HamiltonianParams(delta=2.0, eps2=2.17, eps4=0.1, dim=30)
    cfg = cfg_of(p, kappa=0.02, n_th=0.05)
    h, a = build_hamiltonian(p), annihilation(30)
    assert same_csr(kerrcat.dynamics._liouvillian(h, a, cfg),
                    sector_reference(h, a, cfg))


@pytest.mark.parametrize("rank", [1, 4, 10])
def test_expm_blocks_match_full_oracle_propagation(rank):
    # a random mixed state inside the top-rank eigenbasis, so the rank holds
    # it; the full-matrix oracle propagator catches a mis-scattered block
    p = HamiltonianParams(delta=2.5, eps2=1.2, dim=20)
    common = dict(kappa=0.05, n_th=0.1, t_final=40.0, n_samples=21, n_pairs=1)
    sys = kerrcat.dynamics._System(cfg_of(p, **common))
    vr = sys.es.eigenvectors[:, :rank]
    rng = np.random.default_rng(rank)
    m = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T)
    traj = evolve(cfg_of(p, **common, method="expm", rank=rank,
                         initial_state=vr @ rho @ vr.conj().T))
    assert traj.meta["rank"] == rank
    full = kron_liouvillian(np.diag(sys.es.eigenvalues[:rank]),
                            vr.conj().T @ sys.a @ vr, 0.05, 0.1)
    prop = expm(full * (traj.times[1] - traj.times[0]))
    ops = [vr.conj().T @ op @ vr for op in sys.ops]
    vec = rho.ravel()
    for k in range(len(traj.times)):
        if k:
            vec = prop @ vec
        r = vec.reshape(rank, rank)
        got = (traj.s[k], traj.x_expect[k], traj.nbar[k], traj.trace[k],
               traj.purity[k])
        want = [np.trace(op @ r).real for op in ops] + [np.trace(r).real,
                                                        np.trace(r @ r).real]
        assert np.abs(np.subtract(got, want)).max() < 1e-10, k
    rho_f = vr @ vec.reshape(rank, rank) @ vr.conj().T
    assert np.abs(traj.rho_final - rho_f).max() < 1e-10


def test_expm_uncertifiable_rank_fails_before_propagating(monkeypatch):
    # no basis the rank loop tries holds Fock state 39: raise without expm
    calls = []
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda a: calls.append(a.shape) or expm(a))
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=40)
    with pytest.raises(IntegrationError):
        evolve(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=10.0, n_samples=11,
                      method="expm", rank=1, initial_state=39))
    assert calls == []


def test_expm_run_that_loses_the_trace_raises_without_retrying(monkeypatch):
    # a propagator that leaks 1e-3 per step: the run at the certified rank
    # raises, and no higher rank is tried
    calls = []
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda a: calls.append(a.shape) or 0.999 * expm(a))
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=24)
    with pytest.raises(IntegrationError, match="rank 8"):
        evolve(cfg_of(p, kappa=1 / 50, n_th=0.05, t_final=10.0, n_samples=3,
                      rank=8))
    assert calls == [(32, 32), (32, 32)]


def test_expm_certifies_an_unnormalised_state_against_its_own_trace():
    # 1.1 psi loses nothing a normalised psi does not: same rank, s scaled by
    # 1.21, and the trace error measured relative to tr rho(0) = 1.21
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=40)
    right, _ = localized_pair(eigensystem(build_hamiltonian(p)), 0)
    runs = [evolve(cfg_of(p, kappa=0.02, n_th=0.05, t_final=400.0,
                          method="expm", initial_state=init))
            for init in ("right_well", 1.1 * right)]
    assert runs[1].meta["rank"] == runs[0].meta["rank"] == 32
    assert runs[1].meta["trace_error"] < 1e-6
    assert np.abs(runs[1].s - 1.21 * runs[0].s).max() < 1e-12


# -- ramps -------------------------------------------------------------------------

def test_protocol_validation():
    with pytest.raises(ValueError):
        RampSegment(0.0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        RampProtocol((RampSegment(1.0, 1, 1, 2, 1), RampSegment(1.0, 1, 1, 1.5, 1)))
    prot = RampProtocol((RampSegment(2.0, 1, 1, 2, 1), RampSegment(3.0, 1, 2, 1, 1)))
    assert prot.total_duration == 5.0
    assert prot.values_at(2.0) == (1.0, 1.0)
    assert prot.values_at(3.5) == (1.5, 1.0)
    assert prot.values_at(99.0) == (2.0, 1.0)


def test_round_trip_ramp_is_adiabatic_at_cancellation():
    ramp = 20 * np.pi
    segs = (RampSegment(ramp, 2.0, 2.0, 2.0, 0.11),
            RampSegment(ramp, 2.0, 2.0, 0.11, 2.0))
    p = HamiltonianParams(delta=2.0, eps2=2.0, dim=32)
    cfg = cfg_of(p, t_final=1.0, n_samples=41, n_pairs=1)
    traj = run_protocol(RampProtocol(segs), cfg)
    assert abs(traj.s[-1] - traj.s[0]) < 1e-3
    assert traj.meta["halvings"] <= 2


def test_magnus_step_is_fourth_order():
    # linear ramp delta 1 -> 3, eps2 1 -> 0.3 over T = 2; H(t) is built here
    # from the parameters, independently of run_protocol's own assembly
    p = HamiltonianParams(delta=1.0, eps2=1.0, dim=16)
    t_final = 2.0

    def h_at(t):
        f = t / t_final
        return build_hamiltonian(replace(p, delta=1.0 + 2.0 * f, eps2=1.0 - 0.7 * f))

    sys = kerrcat.dynamics._System(cfg_of(p, t_final=t_final, n_samples=2, n_pairs=1))
    psi0 = sys.initial_state()
    ref = solve_ivp(lambda t, y: -1j * (h_at(t) @ y), (0.0, t_final),
                    psi0, method="DOP853", rtol=1e-13,
                    atol=1e-13).y[:, -1]
    step = kerrcat.dynamics._cf4_step(h_at)
    errs = [np.linalg.norm(kerrcat.dynamics._run(sys, psi0, step,
                                                 round(t_final / dt))[1]
                           - np.outer(ref, ref.conj()))
            for dt in (0.2, 0.1, 0.05)]
    # fourth order: 16x per halving asymptotically; a second-order step
    # (midpoint, or CF4 with its weights swapped) gives about 4x
    assert errs[0] / errs[1] > 10 and errs[1] / errs[2] > 10, errs


@pytest.mark.parametrize("dim, eps4, mixed, n_samples", [
    (12, 0.0, False, 7),
    (13, 0.0, True, 7),
    (14, 0.05, False, 5),      # eps4 > 0: parity blocks of bandwidth 2
    (11, 0.05, True, 2),       # one interval of more steps than one chunk
])
def test_closed_ramp_matches_the_dense_magnus_oracle(monkeypatch, dim, eps4,
                                                      mixed, n_samples):
    p = HamiltonianParams(delta=2.0, eps2=1.0, eps4=eps4, dim=dim)
    prot = RampProtocol((RampSegment(4.0, 2.0, 1.0, 1.0, 0.3),
                         RampSegment(4.0, 1.0, 1.5, 0.3, 0.8)))
    rng = np.random.default_rng(dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    init = np.outer(psi, psi.conj()) if mixed else psi
    if mixed:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        init = 0.5 * init + 0.5 * m @ m.conj().T / np.trace(m @ m.conj().T).real
    cfg = cfg_of(p, t_final=1.0, n_samples=n_samples, n_pairs=1,
                 initial_state=init)
    traj = run_protocol(prot, cfg)
    monkeypatch.setattr(kerrcat.dynamics, "_cf4_step", dense_cf4_step)
    ref = run_protocol(prot, cfg)
    assert traj.meta == ref.meta
    if n_samples == 2:
        per = prot.total_duration / traj.meta["dt"]
        assert per > kerrcat.dynamics._CF4_CHUNK
    for name in ("s", "x_expect", "nbar", "trace", "purity", "min_eig",
                 "rho_final"):
        assert np.abs(getattr(traj, name) - getattr(ref, name)).max() < 1e-11, name


def test_magnus_step_rejects_a_parity_breaking_hamiltonian():
    p = HamiltonianParams(delta=1.0, eps2=1.0, dim=10)
    h = build_hamiltonian(p) + 0.1 * quadrature_x(10)   # x couples n to n +- 1
    step = kerrcat.dynamics._cf4_step(lambda t: h)
    with pytest.raises(ValueError, match="even and odd"):
        step(np.eye(10, dtype=complex)[0], 0, 0.1, 1)


def test_hold_half_rabi_flips_sign():
    p = HamiltonianParams(delta=1.0, eps2=0.11, dim=60)
    de = tunnel_splitting(p).abs_delta_e
    prot = RampProtocol((RampSegment(np.pi / de, 1.0, 1.0, 0.11, 0.11),))
    traj = run_protocol(prot, cfg_of(p, t_final=1.0, n_samples=21, n_pairs=1))
    assert traj.s[0] == pytest.approx(1.0, abs=1e-9)
    assert traj.s[-1] == pytest.approx(-1.0, abs=1e-6)


def test_hold_at_cancellation_leaves_signal():
    p = HamiltonianParams(delta=2.0, eps2=0.11, dim=60)
    prot = RampProtocol((RampSegment(10.0, 2.0, 2.0, 0.11, 0.11),))
    traj = run_protocol(prot, cfg_of(p, t_final=1.0, n_samples=21, n_pairs=1))
    assert abs(traj.s[-1] - traj.s[0]) < 1e-3


def test_open_protocol_matches_rk4_at_constant_parameters():
    p = HamiltonianParams(delta=2.0, eps2=1.0, dim=20)
    common = dict(kappa=0.02, n_th=0.05, t_final=5.0, n_samples=11, n_pairs=1)
    prot = RampProtocol((RampSegment(5.0, 2.0, 2.0, 1.0, 1.0),))
    traj = run_protocol(prot, cfg_of(p, **common))
    ref = evolve(cfg_of(p, **common, method="rk4"))
    assert traj.meta["method"] == "rk4-protocol"
    assert np.abs(traj.s - ref.s).max() < 1e-8
    assert np.abs(traj.nbar - ref.nbar).max() < 1e-8


def test_open_ramp_of_delta_and_eps2_matches_solve_ivp_on_the_oracle():
    # L(t) rebuilt from H(t) at every call, independently of the stepper's
    # split of L into the Kerr, N and drive parts
    p = HamiltonianParams(delta=2.0, eps2=1.0, dim=10)
    prot = RampProtocol((RampSegment(1.0, 2.0, 1.2, 1.0, 0.4),
                         RampSegment(1.0, 1.2, 1.5, 0.4, 0.9)))
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho0 = m @ m.conj().T / np.trace(m @ m.conj().T).real
    traj = run_protocol(prot, cfg_of(p, kappa=0.05, n_th=0.1, t_final=1.0,
                                     n_samples=5, n_pairs=1, initial_state=rho0))
    assert traj.meta["method"] == "rk4-protocol"
    a = annihilation(10)

    def rhs(t, v):
        d, e = prot.values_at(t)
        h = build_hamiltonian(replace(p, delta=d, eps2=e))
        return kron_liouvillian(h, a, 0.05, 0.1) @ v

    ref = solve_ivp(rhs, (0.0, 2.0), rho0.ravel(), method="DOP853",
                    t_eval=traj.times, rtol=1e-11, atol=1e-13)
    rhos = ref.y.T.reshape(-1, 10, 10)
    nbar = np.real(np.einsum("ii,tii->t", a.T @ a, rhos))
    # to the 1e-6 of the step-halving control
    assert np.abs(traj.nbar - nbar).max() < 1e-6
    assert np.abs(traj.rho_final - rhos[-1]).max() < 1e-6


def test_closed_protocol_with_mixed_initial_state():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=20)
    es = eigensystem(build_hamiltonian(p))
    right, left = localized_pair(es, 0)
    rho0 = 0.7 * np.outer(right, right) + 0.3 * np.outer(left, left)
    common = dict(t_final=3.0, n_samples=7, n_pairs=1, initial_state=rho0)
    prot = RampProtocol((RampSegment(3.0, 1.0, 1.0, 0.5, 0.5),))
    traj = run_protocol(prot, cfg_of(p, **common))
    ref = evolve(cfg_of(p, **common, method="unitary"))
    assert traj.s[0] == pytest.approx(0.4, abs=1e-3)
    assert np.abs(traj.s - ref.s).max() < 1e-8
    assert np.abs(traj.nbar - ref.nbar).max() < 1e-8


def test_closed_protocol_at_constant_h_is_exact():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=20)
    common = dict(t_final=3.0, n_samples=7, n_pairs=1)
    prot = RampProtocol((RampSegment(3.0, 1.0, 1.0, 0.5, 0.5),))
    traj = run_protocol(prot, cfg_of(p, **common))
    ref = evolve(cfg_of(p, **common, method="unitary"))
    assert traj.meta["method"] == "cf4-protocol"
    for name in ("s", "x_expect", "nbar", "trace", "purity"):
        assert np.abs(getattr(traj, name) - getattr(ref, name)).max() < 1e-12, name
    assert np.abs(traj.rho_final - ref.rho_final).max() < 1e-12


def test_closed_ramp_from_density_matrix_matches_its_vector():
    p = HamiltonianParams(delta=2.0, eps2=1.0, dim=20)
    right, left = localized_pair(eigensystem(build_hamiltonian(p)), 0)
    psi = 0.8 * right + 0.6j * left
    prot = RampProtocol((RampSegment(3.0, 2.0, 1.0, 1.0, 0.3),))
    common = dict(t_final=1.0, n_samples=7, n_pairs=1)
    pure = run_protocol(prot, cfg_of(p, **common, initial_state=psi))
    mixed = run_protocol(prot, cfg_of(p, **common,
                                      initial_state=np.outer(psi, psi.conj())))
    assert pure.meta == mixed.meta
    for name in ("s", "x_expect", "nbar", "trace", "purity"):
        assert np.abs(getattr(pure, name) - getattr(mixed, name)).max() < 1e-12, name
    assert np.abs(pure.rho_final - mixed.rho_final).max() < 1e-12


def test_unitary_from_vector_matches_its_density_matrix():
    p = HamiltonianParams(delta=1.0, eps2=0.5, dim=20)
    right, left = localized_pair(eigensystem(build_hamiltonian(p)), 0)
    psi = 1.1 * (0.8 * right + 0.6j * left)     # deliberately not normalised
    common = dict(t_final=3.0, n_samples=7, n_pairs=1, method="unitary")
    pure = evolve(cfg_of(p, **common, initial_state=psi))
    mixed = evolve(cfg_of(p, **common, initial_state=np.outer(psi, psi.conj())))
    for name in ("s", "x_expect", "nbar", "trace", "purity"):
        assert np.abs(getattr(pure, name) - getattr(mixed, name)).max() < 1e-12, name
    assert np.abs(pure.rho_final - mixed.rho_final).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(delta=st.floats(0.0, 3.0), eps2=st.floats(0.2, 1.5),
       dim=st.integers(6, 10), seed=st.integers(0, 2**16))
def test_every_route_keeps_signal_and_trace(delta, eps2, dim, seed):
    p = HamiltonianParams(delta=delta, eps2=eps2, dim=dim)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    common = dict(t_final=1.0, n_samples=5, n_pairs=1)
    lossy = dict(common, kappa=0.05, n_th=0.1)
    prot = RampProtocol((RampSegment(1.0, delta, delta + 0.5, eps2, 0.5 * eps2),))
    runs = [  # (route, trajectory, trace bound of the route)
        ("unitary-psi", evolve(cfg_of(p, **common, method="unitary",
                                      initial_state=psi)), 1e-12),
        ("unitary-rho", evolve(cfg_of(p, **common, method="unitary",
                                      initial_state=rho)), 1e-12),
        ("rk4", evolve(cfg_of(p, **lossy, method="rk4", initial_state=rho)), 1e-7),
        ("expm", evolve(cfg_of(p, **lossy, method="expm", initial_state=psi)), 1e-6),
        ("closed ramp", run_protocol(prot, cfg_of(p, **common, initial_state=psi)),
         1e-7),
        ("open ramp", run_protocol(prot, cfg_of(p, **lossy, initial_state=rho)),
         1e-7),
    ]
    for route, traj, bound in runs:
        assert np.all(np.abs(traj.s) <= 1 + 1e-9), route
        assert np.abs(traj.trace - 1.0).max() < bound, route
