from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kerrcat.errors import InvalidDimensionError, TruncationRiskError
from kerrcat.fock import (HamiltonianParams, annihilation, build_hamiltonian,
                          coherent_state, default_dim, displaced_frame_offset,
                          displaced_hamiltonian, displacement_operator,
                          parity_operator)
from kerrcat.phasespace import effective_hamiltonian_surface, kerr_lamb_shift_check
from kerrcat.semiclassical import geometry
from kerrcat.spectra import degeneracy_check, resonant_displaced_hamiltonian
from oracles import jacobi_eigenvalues


def test_annihilation_small():
    assert np.array_equal(annihilation(2), [[0.0, 1.0], [0.0, 0.0]])
    a3 = annihilation(3)
    assert a3[1, 2] == pytest.approx(np.sqrt(2), abs=0)
    with pytest.raises(InvalidDimensionError):
        annihilation(1)


def test_commutator_truncation_aware():
    dim = 17
    a = annihilation(dim)
    comm = a @ a.T - a.T @ a
    assert np.abs(comm[: dim - 1] - np.eye(dim)[: dim - 1]).max() < 1e-13


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(delta=np.inf)
    with pytest.raises(InvalidDimensionError):
        HamiltonianParams(delta=0.0, dim=3)
    assert HamiltonianParams(delta=3.0, eps2=2.0).dim == default_dim(3.0, eps2=2.0)


@pytest.mark.parametrize("call", [
    lambda: HamiltonianParams(delta=1.0, kerr=1.0),
    lambda: HamiltonianParams(2.0, 0.5),
    lambda: default_dim(3.0, 1.0, 2.0),
    lambda: degeneracy_check(1, 0.5, 1.0),
    lambda: resonant_displaced_hamiltonian(2, 2.0, 1.0),
    lambda: geometry(3.4, 1.1, 1.0),
    lambda: effective_hamiltonian_surface(3, 1, Fraction(1, 2)),
    lambda: kerr_lamb_shift_check(2, 1),
])
def test_calls_that_pass_a_kerr_coefficient_raise_type_error(call):
    # K is the energy unit: no signature takes it, and an old-style call
    # cannot bind eps2 (or any later argument) to the slot kerr had
    with pytest.raises(TypeError):
        call()


def test_kerr_ladder_diagonal():
    p = HamiltonianParams(delta=1.7, eps2=0.0, dim=12)
    h = build_hamiltonian(p)
    n = np.arange(12)
    assert np.allclose(np.diag(h), 1.7 * n - n * (n - 1), atol=0)
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0


def test_squeeze_matrix_element():
    p = HamiltonianParams(delta=0.0, eps2=1.0, dim=4)
    h = build_hamiltonian(p)
    assert h[0, 2] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert h[1, 3] == pytest.approx(np.sqrt(6), abs=1e-15)


def test_real_symmetric():
    p = HamiltonianParams(delta=2.3, eps2=1.1, eps4=0.07, dim=30)
    h = build_hamiltonian(p)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


def test_eigenvalues_match_jacobi_oracle():
    p = HamiltonianParams(delta=2.0, eps2=0.5, dim=40)
    h = build_hamiltonian(p)
    ours = np.sort(np.linalg.eigvalsh(h))
    oracle = jacobi_eigenvalues(h)
    assert np.abs(ours - oracle).max() < 1e-10 * max(1.0, np.abs(ours).max())


def test_parity_diagonal_and_commutation():
    assert np.array_equal(np.diag(parity_operator(4)), [1, -1, 1, -1])
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = HamiltonianParams(delta=rng.uniform(-5, 8), eps2=rng.uniform(0, 3),
                              eps4=rng.uniform(0, 0.2), dim=24)
        h = build_hamiltonian(p)
        pi = parity_operator(24)
        assert np.abs(pi @ h - h @ pi).max() == 0.0


def test_spectrum_invariant_under_drive_sign_flip():
    p = HamiltonianParams(delta=1.3, eps2=0.8, dim=60)
    h_plus = build_hamiltonian(p)
    h_minus = build_hamiltonian(replace(p, eps2=0.0))
    # flip the sign of the squeeze coupling only
    h_minus = h_minus - (h_plus - build_hamiltonian(replace(p, eps2=0.0)))
    w_plus = np.linalg.eigvalsh(h_plus)
    w_minus = np.linalg.eigvalsh(h_minus)
    assert np.abs(np.sort(w_plus) - np.sort(w_minus)).max() < 1e-10 * np.abs(w_plus).max()


@pytest.mark.parametrize("delta,eps2", [(10.0, 10.0), (-10.0, 10.0), (5.0, 2.0)])
def test_truncation_convergence(delta, eps2):
    top = {}
    for dim in (100, 140):
        h = build_hamiltonian(HamiltonianParams(delta=delta, eps2=eps2, dim=dim))
        top[dim] = np.sort(np.linalg.eigvalsh(h))[-10:]
    assert np.abs(top[100] - top[140]).max() < 1e-8


def test_displacement_zero_is_identity():
    d = displacement_operator(0.0, 12)
    assert np.abs(d - np.eye(12)).max() < 1e-14


def test_displacement_generates_coherent_state():
    alpha = 1.3 - 0.4j
    dim = 40
    d = displacement_operator(alpha, dim)
    vac = np.zeros(dim)
    vac[0] = 1.0
    assert np.abs(d @ vac - coherent_state(alpha, dim)).max() < 1e-10


def test_displacement_unitary_in_safe_block():
    alpha = 2.0
    dim = 60
    d = displacement_operator(alpha, dim)
    block = dim - int(np.ceil(4 * abs(alpha) ** 2))
    resid = (d.conj().T @ d - np.eye(dim))[:block, :block]
    assert np.abs(resid).max() < 1e-8


def test_displacement_truncation_guard():
    with pytest.raises(TruncationRiskError):
        displacement_operator(4.0, 20)


def test_displaced_parity_identity():
    # D(+alpha) Pi = Pi D(-alpha); checked through the vacuum column overlap
    alpha, dim = 1.1, 50
    d_plus = displacement_operator(alpha, dim)
    d_minus = displacement_operator(-alpha, dim)
    pi = parity_operator(dim)
    vac = np.zeros(dim)
    vac[0] = 1.0
    lhs = d_plus @ (pi @ (d_plus @ vac))
    rhs = pi @ (d_plus @ (d_minus @ vac))
    col = (d_plus @ pi) @ vac
    ref = (pi @ d_minus) @ vac
    assert abs(np.vdot(col, ref)) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_displaced_hamiltonian_alpha_zero():
    p = HamiltonianParams(delta=1.5, eps2=0.7, dim=20)
    assert np.abs(displaced_hamiltonian(p, 0.0) - build_hamiltonian(p)).max() < 1e-14


@pytest.mark.parametrize("eps4", [0.1, 2.0])
def test_displaced_hamiltonian_rejects_a_quartic_drive(eps4):
    p = HamiltonianParams(delta=1.0, eps2=1.0, eps4=eps4, dim=10)
    with pytest.raises(ValueError, match="requires eps4 = 0"):
        displaced_hamiltonian(p, 1.0)


@pytest.mark.parametrize("dim", [4, 9])
def test_coherent_state_at_zero_is_the_vacuum(dim):
    vac = coherent_state(0, dim)
    assert vac.dtype == complex and vac.tolist() == np.eye(dim)[0].tolist()


def test_displaced_hamiltonian_matches_conjugation():
    p = HamiltonianParams(delta=4.0, eps2=2.0, dim=80)
    alpha = np.sqrt(p.eps2)
    d = displacement_operator(-alpha, p.dim)
    conj = d @ build_hamiltonian(p).astype(complex) @ d.conj().T
    direct = displaced_hamiltonian(p, alpha)
    offset = displaced_frame_offset(p, alpha)
    blk = 40
    resid = conj[:blk, :blk] - direct[:blk, :blk] - offset * np.eye(blk)
    assert np.abs(resid).max() < 1e-9


def test_displaced_hamiltonian_tridiagonal_and_resonant_zero():
    # delta = 4 (m = 2): the |m> -> |m+1> coupling vanishes at the resonance
    p = HamiltonianParams(delta=4.0, eps2=2.0, dim=30)
    hp = displaced_hamiltonian(p, np.sqrt(2.0))
    assert np.abs(np.triu(hp, 2)).max() < 1e-12
    assert hp[2, 3] == pytest.approx(0.0, abs=1e-12)
    assert hp[3, 2] == pytest.approx(0.0, abs=1e-12)


def test_displaced_block_eigenvalues_appear_twice_in_spectrum():
    p = HamiltonianParams(delta=4.0, eps2=2.0, dim=80)
    hp = displaced_hamiltonian(p, np.sqrt(2.0))
    block = np.sort(np.linalg.eigvalsh(hp[:3, :3]))[::-1]
    full = np.sort(np.linalg.eigvalsh(build_hamiltonian(p)))[::-1]
    offset = displaced_frame_offset(p, np.sqrt(2.0))
    for k, b in enumerate(block):
        pair = full[2 * k: 2 * k + 2]
        assert np.abs(pair - (b + offset)).max() < 1e-7
