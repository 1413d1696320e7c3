import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import cli, fock, spectra
from kerrcat.errors import InvalidDimensionError, PoleError
from kerrcat.fock import (HamiltonianParams, build_hamiltonian, coherent_state,
                          quadrature_x)
from kerrcat.spectra import (EigenSystem, _pair_up, align_offset,
                             degeneracy_check, eigensystem,
                             exact_block_eigenvalues, find_splitting_zeros,
                             first_order_crossing_amplitude, levels,
                             localized_pair, quartic_crossing_location,
                             quartic_drive_spectrum,
                             resonant_displaced_hamiltonian,
                             second_order_energy, splitting_sweep,
                             tunnel_splitting)
from oracles import charpoly_roots, greedy_pairing

# frozen with cross checks at dim 80 and 120 (agree to ~1e-12)
GOLDEN_DE_D1_E011 = -0.8534096722195373


def test_kerr_spectrum_energies_and_parities():
    p = HamiltonianParams(delta=1.7, eps2=0.0, dim=16)
    es = eigensystem(build_hamiltonian(p))
    n = np.arange(16)
    expected = np.sort(1.7 * n - n * (n - 1.0))[::-1]
    assert np.abs(es.eigenvalues - expected).max() < 1e-12
    order = np.argsort(-(1.7 * n - n * (n - 1.0)))
    assert np.array_equal(es.parities, (-1) ** (n[order]))


def test_random_hermitian_matches_charpoly_oracle():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = (m + m.conj().T) / 2
    es = eigensystem(m)
    assert es.parities is None
    assert np.abs(np.sort(es.eigenvalues) - charpoly_roots(m)).max() < 1e-8
    # real, odd dimension: parity-commuting but for one even<->odd element in
    # the last row and column
    r = rng.normal(size=(7, 7))
    r = (r + r.T) / 2
    r[np.add.outer(np.arange(7), np.arange(7)) % 2 == 1] = 0.0
    assert eigensystem(r).parities is not None
    r[6, 5] = r[5, 6] = 0.3
    es = eigensystem(r)
    assert es.parities is None
    assert np.abs(np.sort(es.eigenvalues) - charpoly_roots(r)).max() < 1e-8


def test_eigensystem_of_smallest_matrices():
    # 1x1: no even<->odd element at all; 2x2: one pair of them
    es = eigensystem(np.array([[1.0]]))
    assert es.eigenvalues.tolist() == [1.0]
    assert es.parities.tolist() == [1]
    es = eigensystem(np.array([[1.0, 0.0], [0.0, 3.0]]))
    assert es.eigenvalues.tolist() == [3.0, 1.0]
    assert es.parities.tolist() == [-1, 1]
    es = eigensystem(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert es.parities is None
    assert np.allclose(es.eigenvalues, [1.5, 0.5])


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_residual_invariant():
    p = HamiltonianParams(delta=3.0, eps2=1.2, dim=70)
    h = build_hamiltonian(p)
    es = eigensystem(h)
    for k in range(0, 70, 7):
        v = es.eigenvectors[:, k]
        lam = es.eigenvalues[k]
        assert np.linalg.norm(h @ v - lam * v) < 1e-9 * max(1.0, abs(lam))


def test_parity_blocks_match_full_diagonalisation():
    p = HamiltonianParams(delta=2.7, eps2=0.9, dim=50)
    h = build_hamiltonian(p)
    es = eigensystem(h)
    full = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert np.abs(es.eigenvalues - full).max() < 1e-10 * max(1.0, np.abs(full).max())


def test_complex_parity_commuting_path_resolves_degeneracies():
    # conjugate by a diagonal unitary: stays parity-commuting but complex
    p = HamiltonianParams(delta=4.0, eps2=2.0, dim=40)
    h = build_hamiltonian(p).astype(complex)
    phases = np.exp(1j * 0.3 * np.arange(40) ** 2)
    hu = np.diag(phases) @ h @ np.diag(phases.conj())
    es = eigensystem(hu)
    assert es.parities is not None
    ref = eigensystem(build_hamiltonian(p))
    assert np.abs(es.eigenvalues - ref.eigenvalues).max() < 1e-9 * 100


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       kind=st.sampled_from(["random", "equal_blocks", "phased_hamiltonian"]),
       is_complex=st.booleans())
def test_parity_commuting_eigensystem_is_exact_by_blocks(seed, n, kind,
                                                         is_complex):
    rng = np.random.default_rng(seed)
    if kind == "phased_hamiltonian":
        # exact even/odd degeneracies at delta = 4, conjugated by phases
        h = build_hamiltonian(HamiltonianParams(delta=4.0, eps2=2.0, dim=40))
        if is_complex:
            ph = np.exp(2j * np.pi * rng.random(40))
            h = ph[:, None] * h * ph.conj()[None, :]
    else:
        def hermitian(k):
            m = rng.normal(size=(k, k))
            if is_complex:
                m = m + 1j * rng.normal(size=(k, k))
            return (m + m.conj().T) / 2

        dim = 2 * n if kind == "equal_blocks" else n + 3
        h = np.zeros((dim, dim), dtype=complex if is_complex else float)
        even = hermitian((dim + 1) // 2)
        h[0::2, 0::2] = even
        # equal blocks: every level is an exact even/odd pair
        h[1::2, 1::2] = even if kind == "equal_blocks" else hermitian(dim // 2)
    es = eigensystem(h)
    dim = len(h)
    w, v, par = es.eigenvalues, es.eigenvectors, es.parities
    assert np.iscomplexobj(v) == np.iscomplexobj(h)
    assert set(par.tolist()) <= {1, -1}
    fock_parity = (-1) ** np.arange(dim)
    assert np.all(v[fock_parity[:, None] != par[None, :]] == 0)
    assert np.all(np.diff(w) <= 0)
    scale = max(1.0, np.abs(h).max())
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(delta=st.floats(-3.0, 8.0), eps2=st.floats(0.0, 4.0),
       eps4=st.floats(0.0, 0.5), dim=st.integers(4, 60))
def test_parity_labels_are_exact(delta, eps2, eps4, dim):
    es = eigensystem(build_hamiltonian(
        HamiltonianParams(delta=delta, eps2=eps2, eps4=eps4, dim=dim)))
    assert set(np.unique(es.parities)) <= {1, -1}
    assert np.count_nonzero(es.parities == 1) == (dim + 1) // 2


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(-3.0, 10.0),
       eps2=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       eps4=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       dim=st.integers(4, 80))
def test_banded_levels_match_dense_parity_blocks(delta, eps2, eps4, dim):
    p = HamiltonianParams(delta=delta, eps2=eps2, eps4=eps4, dim=dim)
    es = eigensystem(build_hamiltonian(p))
    energies, parities = levels(p)
    scale = np.abs(es.eigenvalues).max()
    assert np.all(np.diff(energies) <= 0)
    for par in (1, -1):
        got, ref = energies[parities == par], es.eigenvalues[es.parities == par]
        assert len(got) == len(ref)
        assert np.abs(got - ref).max() <= 1e-12 * scale
    ts = tunnel_splitting(p)
    ref_de = (es.eigenvalues[es.parities == 1][0]
              - es.eigenvalues[es.parities == -1][0])
    if abs(ref_de) > 1e-9 * scale:
        assert ts.ground_parity == es.parities[0]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 4), eps2=st.floats(0.0, 2.0), dim=st.integers(20, 100))
@example(m=0, eps2=1.5368833943562206, dim=20)  # splitting at the tie floor
def test_degenerate_pairs_at_even_detuning_list_the_even_state_first(m, eps2,
                                                                     dim):
    # at delta = 2m the top pairs are degenerate: round-off alone used to
    # decide their parity order, differently in the two solvers
    p = HamiltonianParams(delta=2.0 * m, eps2=eps2, dim=dim)
    energies, parities = levels(p)
    es = eigensystem(build_hamiltonian(p))
    assert np.array_equal(parities, es.parities)
    assert np.all(np.diff(energies) <= 0)
    floor = 4 * np.finfo(float).eps * np.abs(energies).max()
    for k in np.flatnonzero(np.abs(np.diff(energies)) <= floor):
        assert parities[k] >= parities[k + 1]
    assert tunnel_splitting(p).ground_parity == parities[0]


def test_splittings_and_level_lists_build_no_dense_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Hamiltonian or eigensolve on a splitting path")

    # every kerrcat name bound to the dense builder or solver, plus numpy's eigh
    for original in (fock.build_hamiltonian, spectra.eigensystem):
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "kerrcat":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert cli.build_hamiltonian is refuse and cli.eigensystem is refuse

    p = HamiltonianParams(delta=1.0, eps2=0.11, dim=80)
    assert tunnel_splitting(p).delta_e == pytest.approx(GOLDEN_DE_D1_E011, abs=1e-9)
    zeros = find_splitting_zeros(p.with_(eps2=0.5), 1.0, 3.0, scan_points=11)
    assert np.abs(zeros - [2.0]).max() < 1e-6
    assert degeneracy_check(1, 0.5, dim=40).ok
    quartic = HamiltonianParams(delta=2.0, eps4=0.05, dim=60)
    assert len(quartic_drive_spectrum(quartic, np.linspace(1.5, 2.5, 5)).rows) == 5
    for command, axis in (("splitting", "eps2"), ("spectrum", "eps4")):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({
            "fixed": {"delta": 2.0, "dim": 40},
            **({"n_levels": 4} if command == "spectrum" else {}),
            "axes": [{"name": axis, "start": 0.2, "stop": 1.0, "count": 3}]}))
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0


def test_degenerate_ground_pair_at_zero_detuning():
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=0.0, eps2=2.0, dim=60)))
    assert abs(es.eigenvalues[0] - es.eigenvalues[1]) < 1e-10


@pytest.mark.parametrize("eps2", [0.11, 0.88, 2.17])
def test_splitting_vanishes_at_even_detuning(eps2):
    ts = tunnel_splitting(HamiltonianParams(delta=2.0, eps2=eps2))
    assert ts.abs_delta_e < 1e-8


def test_golden_splitting_value():
    for dim in (80, 120):
        ts = tunnel_splitting(HamiltonianParams(delta=1.0, eps2=0.11, dim=dim))
        assert ts.delta_e == pytest.approx(GOLDEN_DE_D1_E011, abs=1e-9)
        assert ts.ground_parity == -1


def test_sweep_zeros_near_even_integers():
    p0 = HamiltonianParams(delta=0.0, eps2=0.11, dim=90)
    zeros = find_splitting_zeros(p0, 1.0, 7.0, scan_points=61)
    assert len(zeros) == 3
    assert np.abs(zeros - [2.0, 4.0, 6.0]).max() < 1e-6


def test_sweep_table_and_sign_alternation():
    p0 = HamiltonianParams(delta=0.0, eps2=0.4, dim=90)
    grid = np.linspace(0.5, 6.5, 25)
    table = splitting_sweep(p0, grid)
    assert table.column("abs_de").min() >= 0
    sgn = np.sign(table.column("de_signed"))
    # one sign flip inside each window between even integers
    for window, expected_zero in (((1.5, 2.5), 2.0), ((3.5, 4.5), 4.0), ((5.5, 6.5), 6.0)):
        lo = sgn[np.searchsorted(grid, window[0])]
        hi = sgn[np.searchsorted(grid, window[1])]
        assert lo * hi < 0
    assert np.abs(np.array(table.meta["zeros"]) - [2.0, 4.0, 6.0]).max() < 1e-6


def test_sweep_keeps_exact_zero_at_last_grid_point():
    # at eps2 = 0.5 the signed splitting is exactly 0 at delta = 2
    p0 = HamiltonianParams(delta=0.0, eps2=0.5, dim=60)
    grid = np.linspace(1.0, 2.0, 5)
    zeros = find_splitting_zeros(p0, 1.0, 2.0, scan_points=5)
    assert list(zeros) == [2.0]
    assert list(splitting_sweep(p0, grid).meta["zeros"]) == list(zeros)


def test_sign_changes_only_at_even_detuning():
    # signed splitting flips exactly at {2, 4, 6} and nowhere else
    p0 = HamiltonianParams(delta=0.0, eps2=0.6, dim=90)
    grid = np.arange(0.5, 6.5001, 0.05)
    sgn = np.sign([tunnel_splitting(p0.with_(delta=float(d))).delta_e
                   for d in grid])
    flips = [grid[i] for i in range(len(grid) - 1) if sgn[i] * sgn[i + 1] < 0]
    assert len(flips) == 3
    for flip, even in zip(flips, (2.0, 4.0, 6.0)):
        assert abs(flip - even) <= 0.05 + 1e-12


def test_splitting_decreases_with_drive_at_odd_detuning():
    vals = [tunnel_splitting(HamiltonianParams(delta=3.0, eps2=e, dim=90)).abs_delta_e
            for e in (0.3, 0.6, 1.2, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("m,eps2,expected", [(0, 3.0, 1), (3, 2.17, 4)])
def test_degeneracy_counts(m, eps2, expected):
    rep = degeneracy_check(m, eps2)
    assert rep.n_degenerate == expected
    assert rep.ok


def test_degeneracy_count_is_drive_independent():
    for eps2 in (0.5, 5.0):
        rep = degeneracy_check(2, eps2)
        assert rep.n_degenerate == 3


def test_exact_block_m0_matches_ground_energy():
    vals = exact_block_eigenvalues(0, 3.0)
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=0.0, eps2=3.0)))
    # 1x1 block: single value equals the ground energy after offset alignment
    assert vals.shape == (1,)
    offset = align_offset(vals, np.array([es.eigenvalues[0]]))
    assert vals[0] + offset == pytest.approx(es.eigenvalues[0], abs=1e-12)
    # the frame offset accounts for the full ground energy eps2^2/K here
    assert offset == pytest.approx(es.eigenvalues[0] - vals[0], abs=1e-12)


def test_exact_block_m1_matches_full_pairs():
    vals = exact_block_eigenvalues(1, 2.0)
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=2.0, eps2=2.0, dim=100)))
    pair_means = np.array([(es.eigenvalues[0] + es.eigenvalues[1]) / 2,
                           (es.eigenvalues[2] + es.eigenvalues[3]) / 2])
    offset = align_offset(vals, pair_means)
    assert np.abs(vals + offset - pair_means).max() < 1e-7
    # the decoupled pairs are the top of the spectrum: aligned block max is
    # the global ground energy and nothing lies above it
    assert vals[0] + offset == pytest.approx(es.eigenvalues[0], abs=1e-7)


def test_resonant_displaced_structure():
    h = resonant_displaced_hamiltonian(2, 2.0, dim=12)
    assert np.abs(np.triu(h, 2)).max() == 0.0
    assert h[2, 3] == 0.0 and h[3, 2] == 0.0


def test_first_order_amplitude_values():
    assert first_order_crossing_amplitude(0, 1.0) == pytest.approx(np.sqrt(2))
    assert first_order_crossing_amplitude(3, 0.0) == 0.0


def test_first_order_amplitude_against_avoided_crossing_gap():
    # minimal gap between the two top even-parity levels near delta/K = 1
    eps2 = 0.01
    def gap(delta):
        es = eigensystem(build_hamiltonian(
            HamiltonianParams(delta=delta, eps2=eps2, dim=40)))
        e_even = es.eigenvalues[es.parities == 1][:2]
        return abs(e_even[0] - e_even[1])
    deltas = np.linspace(0.9, 1.1, 81)
    gmin = min(gap(d) for d in deltas)
    expected = 2 * first_order_crossing_amplitude(0, eps2)
    assert abs(gmin - expected) / expected < 0.05


def test_second_order_structure_and_identity():
    p = HamiltonianParams(delta=4.0, eps2=0.1, dim=30)
    # upward-only correction at level 0 (no downward term exists)
    assert second_order_energy(0, p) == pytest.approx(
        0.1**2 * 2 / (-2 * 4.0 + 2.0), abs=1e-15)
    # E2_n == E2_{n+1} at delta = 2 n kerr, here n = 2
    assert second_order_energy(2, p) == pytest.approx(
        second_order_energy(3, p), abs=1e-15)


def test_second_order_matches_full_diagonalisation():
    # generic detunings: near odd-integer crossings the quartic-order terms
    # blow up through the small denominators and 1e-6 is unreachable
    eps2 = 0.01
    for delta in (0.3, 0.7, 4.2):
        p = HamiltonianParams(delta=delta, eps2=eps2, dim=60)
        h = build_hamiltonian(p)
        w, v = np.linalg.eigh(h)
        for n in range(6):
            idx = np.argmax(np.abs(v[n, :]))
            e0 = delta * n - n * (n - 1.0)
            assert abs(w[idx] - e0 - second_order_energy(n, p)) < 1e-6


def test_second_order_pole():
    with pytest.raises(PoleError):
        second_order_energy(0, HamiltonianParams(delta=1.0, eps2=0.1, dim=10))


@pytest.mark.parametrize("call, exc, match", [
    (lambda: splitting_sweep(HamiltonianParams(delta=1.0, eps2=0.5, dim=10), [1.0, 0.5]),
     ValueError, "strictly increasing"),
    (lambda: degeneracy_check(-1, 1.0), ValueError, "non-negative"),
    (lambda: degeneracy_check(3, 1.0, dim=8), InvalidDimensionError, "too small for m=3"),
    (lambda: resonant_displaced_hamiltonian(-1, 1.0), ValueError, "non-negative"),
    (lambda: second_order_energy(-1, HamiltonianParams(delta=1.0, eps2=0.1, dim=10)),
     ValueError, "level must be"),
    (lambda: second_order_energy(2, HamiltonianParams(delta=1.0, eps2=0.1, dim=10)),
     PoleError, "downward"),
    (lambda: localized_pair(eigensystem(build_hamiltonian(
        HamiltonianParams(delta=1.0, eps2=1.0, dim=4))), 2), ValueError, "not enough"),
], ids=["sweep-order", "degeneracy-m", "degeneracy-dim", "displaced-m",
        "second-order-level", "second-order-pole", "pair-index"])
def test_input_checks_raise(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_localized_pair_overlaps_coherent_states():
    p = HamiltonianParams(delta=0.0, eps2=4.0, dim=80)
    es = eigensystem(build_hamiltonian(p))
    right, left = localized_pair(es, 0)
    alpha = np.sqrt(4.0)
    coh = coherent_state(alpha, 80).real
    assert abs(right @ coh) > 0.99
    x = quadrature_x(80)
    assert right @ x @ right == pytest.approx(-(left @ x @ left), abs=1e-8)
    assert abs(right @ right - 1) < 1e-10
    assert abs(left @ left - 1) < 1e-10
    assert abs(right @ left) < 1e-10


@settings(max_examples=200, deadline=None)
@given(parities=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=16),
       n_pairs=st.integers(-2, 18))
def test_pair_up_matches_greedy_pairing(parities, n_pairs):
    dim = len(parities)
    es = EigenSystem(np.zeros(dim), np.array(parities), np.eye(dim), dim)
    assert _pair_up(es, n_pairs) == greedy_pairing(parities, n_pairs)


def test_localized_pair_warns_when_not_quasidegenerate():
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=1.0, eps2=0.11, dim=60)))
    with pytest.warns(UserWarning):
        localized_pair(es, 0)


@pytest.mark.parametrize("pair_index", [-1, -2])
def test_localized_pair_rejects_a_negative_index(pair_index):
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=1.0, eps2=1.0, dim=20)))
    with pytest.raises(ValueError):
        localized_pair(es, pair_index)


def test_quartic_crossings_reduce_to_even_integers():
    p = HamiltonianParams(delta=2.0, eps2=0.0, eps4=0.0, dim=60)
    z = quartic_crossing_location(p, 1.3, 2.7)
    assert abs(z - 2.0) < 1e-9


QUARTIC_GOLDENS = {0.02: 1.99679871897, 0.05: 1.97994974843, 0.1: 1.91918358844}


def test_quartic_crossing_shift_goldens_and_monotonicity():
    shifts = []
    for eps4, golden in QUARTIC_GOLDENS.items():
        p = HamiltonianParams(delta=2.0, eps2=0.0, eps4=eps4, dim=60)
        z = quartic_crossing_location(p, 1.3, 2.7)
        assert z == pytest.approx(golden, abs=1e-8)
        shifts.append(abs(z - 2.0))
        assert abs(z - 2.0) > 1e-3
    assert shifts == sorted(shifts)


def test_quartic_drive_spectrum_table():
    p = HamiltonianParams(delta=2.0, eps2=0.0, eps4=0.05, dim=60)
    table = quartic_drive_spectrum(p, np.linspace(1.5, 2.5, 21))
    assert len(table.rows) == 21
    zeros = table.meta["zeros"]
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(QUARTIC_GOLDENS[0.05], abs=1e-8)
