"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from kerrcat.dynamics import (LindbladConfig, evolve, fit_decaying_cosine,
                              tx_lifetime)
from kerrcat.fock import HamiltonianParams, build_hamiltonian
from kerrcat.phasespace import wigner_function
from kerrcat.phasespace.coeff import Coeff
from kerrcat.phasespace.poly import (NormalOrderedOperatorPoly,
                                     PhaseSpacePolynomial, a_var, astar_var,
                                     kerr_lamb_shift_check, mccoy_quantize,
                                     star_product, wigner_transform_operator)
from kerrcat.semiclassical import (ebk_bound_state_count, separatrix_area,
                                   separatrix_area_double_node,
                                   separatrix_area_triple_node, wkb_splitting)
from kerrcat.spectra import (_pair_up, align_offset, degeneracy_check,
                             eigensystem, exact_block_eigenvalues,
                             second_order_energy, signed_splitting,
                             tunnel_splitting)
from oracles import separatrix_area_quadrature
from scipy.optimize import brentq

HALF = Fraction(1, 2)


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_cancellation_at_zero_detuning():
    worst, slowest = 0.0, 0.0
    for eps2 in (0.5, 2.0, 8.0):
        t0 = time.perf_counter()
        de = tunnel_splitting(HamiltonianParams(delta=0.0, eps2=eps2)).abs_delta_e
        dt = time.perf_counter() - t0
        worst = max(worst, de)
        slowest = max(slowest, dt)
    report(1, worst < 1e-10 and slowest < 1.0,
           f"|dE| <= {worst:.2e} at delta=0 (slowest run {slowest:.2f}s)")


def test_criterion_02_periodic_zeros_locked_to_even_detuning():
    targets = [0.0, 2.0, 4.0, 6.0, 8.0]
    locations = {z: [] for z in targets}
    for eps2 in (0.11, 0.22, 0.44, 0.88):
        p0 = HamiltonianParams(delta=0.0, eps2=eps2, dim=110)
        for z in targets:
            zero = brentq(signed_splitting, z - 0.4, z + 0.4, args=(p0,),
                          xtol=1e-10)
            locations[z].append(zero)
    worst_dev = max(abs(loc - z) for z in targets for loc in locations[z])
    worst_shift = max(max(locs) - min(locs) for locs in locations.values())
    report(2, worst_dev < 1e-6 and worst_shift < 1e-6,
           f"zero deviation <= {worst_dev:.2e}, drive-dependence <= {worst_shift:.2e}")


def test_criterion_03_degeneracy_multiplicity_and_block_spectrum():
    worst_gap, worst_block = 0.0, 0.0
    for m in range(5):
        for eps2 in (0.5, 2.0, 5.0):
            rep = degeneracy_check(m, eps2, tolerance=1e-8)
            assert rep.n_degenerate == m + 1, (m, eps2, rep.gaps)
            worst_gap = max(worst_gap, float(np.max(rep.gaps[: m + 1])))
            block = exact_block_eigenvalues(m, eps2)
            es = eigensystem(build_hamiltonian(
                HamiltonianParams(delta=2.0 * m, eps2=eps2)))
            means = np.array([(es.eigenvalues[2 * k] + es.eigenvalues[2 * k + 1]) / 2
                              for k in range(m + 1)])
            off = align_offset(block, means)
            worst_block = max(worst_block, float(np.abs(block + off - means).max()))
    report(3, worst_gap < 1e-8 and worst_block < 1e-7,
           f"m+1 pairs at delta=2m (gap <= {worst_gap:.1e}); "
           f"displaced-block match <= {worst_block:.1e}")


def test_criterion_04_second_order_perturbation_theory():
    eps2 = 0.01
    worst = 0.0
    for delta in (0.3, 0.7, 4.2):
        p = HamiltonianParams(delta=delta, eps2=eps2, dim=60)
        h = build_hamiltonian(p)
        w, v = np.linalg.eigh(h)
        for n in range(6):
            idx = int(np.argmax(np.abs(v[n, :])))
            e0 = delta * n - n * (n - 1.0)
            worst = max(worst, abs(w[idx] - e0 - second_order_energy(n, p)))
    ident = max(abs(second_order_energy(n, HamiltonianParams(
        delta=2.0 * n, eps2=0.1, dim=30))
        - second_order_energy(n + 1, HamiltonianParams(
            delta=2.0 * n, eps2=0.1, dim=30))) for n in (1, 2, 3))
    report(4, worst < 1e-6 and ident < 1e-13,
           f"E0+E2 error <= {worst:.1e} at eps2=0.01; "
           f"E2_n = E2_n+1 at delta=2n to {ident:.1e}")


def test_criterion_05_wkb_zeros_and_magnitude():
    worst_zero = 0.0
    for eps2 in (0.3, 0.6, 1.0):
        p0 = HamiltonianParams(delta=0.0, eps2=eps2, dim=120)
        for z in (2.0, 4.0, 6.0, 8.0, 10.0):
            exact_zero = brentq(signed_splitting, z - 0.5, z + 0.5, args=(p0,),
                                xtol=1e-10)
            # WKB zeros sit exactly at even delta/K (cos theta)
            worst_zero = max(worst_zero, abs(exact_zero - z))
    ratios = []
    for dk in (4.5, 5.0, 5.5, 6.5, 7.0, 7.5, 8.5, 9.0, 9.5, 10.0):
        if dk == 10.0:
            continue    # even: both vanish
        exact = tunnel_splitting(
            HamiltonianParams(delta=dk, eps2=0.5, dim=110)).abs_delta_e
        ratios.append(abs(wkb_splitting(dk, 0.5)) / exact)
    ok = worst_zero < 0.02 and all(0.5 < r < 2.0 for r in ratios)
    report(5, ok, f"zero coincidence <= {worst_zero:.1e} in delta/K; "
                  f"magnitude ratio in [{min(ratios):.2f}, {max(ratios):.2f}]")


def _quasi_degenerate_excited_pairs(delta, eps2, dim=120, rel=0.01):
    es = eigensystem(build_hamiltonian(
        HamiltonianParams(delta=delta, eps2=eps2, dim=dim)))
    pairs = _pair_up(es, 8)
    count = 0
    for k in range(1, len(pairs) - 1):
        i, j = pairs[k]
        gap = abs(es.eigenvalues[i] - es.eigenvalues[j])
        mean_here = (es.eigenvalues[i] + es.eigenvalues[j]) / 2
        i2, j2 = pairs[k + 1]
        spacing = mean_here - (es.eigenvalues[i2] + es.eigenvalues[j2]) / 2
        if gap < rel * spacing:
            count += 1
        else:
            break
    return count


def test_criterion_06_ebk_counts_match_quantum_spectrum():
    ebk = [ebk_bound_state_count(d, 4.0).excited_states for d in (1.0, 4.0, 7.0, 9.0)]
    ok_counts = ebk == [0, 1, 2, 3]
    # quantum cross-check at the odd points; at delta/K = 4 the super-parity
    # degeneracies make every decoupled pair exact regardless of the well
    # depth, so a gap criterion cannot isolate the in-well count there (see
    # decisions ledger) - instead verify the degeneracy mechanism directly
    diag = {d: _quasi_degenerate_excited_pairs(d, 4.0) for d in (1.0, 7.0, 9.0)}
    ok_diag = (diag[1.0], diag[7.0], diag[9.0]) == (0, 2, 3)
    rep4 = degeneracy_check(2, 4.0, tolerance=1e-8)
    ok_even = rep4.n_degenerate == 3 and ebk[1] <= rep4.n_degenerate - 1
    report(6, ok_counts and ok_diag and ok_even,
           f"EBK excited counts {ebk} == [0,1,2,3]; quasi-degenerate pairs at "
           f"odd points {tuple(diag.values())} == (0,2,3); delta=4 carries "
           f"{rep4.n_degenerate} exact super-parity pairs")


def test_criterion_07_separatrix_area_closed_forms():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        eps2 = rng.uniform(0.2, 4.0)
        d = rng.uniform(-2 * eps2 + 1e-3, 2 * eps2 - 1e-3)
        worst = max(worst, abs(separatrix_area_double_node(d, eps2)
                               - separatrix_area_quadrature(d, eps2)))
    for _ in range(100):
        eps2 = rng.uniform(0.2, 4.0)
        d = rng.uniform(2 * eps2 + 1e-3, 8 * eps2)
        worst = max(worst, abs(separatrix_area_triple_node(d, eps2)
                               - separatrix_area_quadrature(d, eps2)))
    exact_zero_detuning = all(separatrix_area(0.0, e) == 2.0 * e
                              for e in (0.5, 1.0, 2.5))
    report(7, worst < 1e-8 and exact_zero_detuning,
           f"quadrature-oracle deviation <= {worst:.1e} over 200 random points; "
           f"area(delta=0) = 2 eps2 exactly")


def _sparse_random_poly(rng, lam=1):
    terms = {}
    for _ in range(5):
        j, k = rng.randrange(0, 5), rng.randrange(0, 5)
        if j + k <= 4:
            terms[(j, k)] = Coeff.of(Fraction(rng.randrange(-5, 6),
                                              rng.randrange(1, 4)))
    return PhaseSpacePolynomial("a", terms, lam)


def test_criterion_08_phase_space_identities_exact():
    table_ok = (
        star_product(astar_var(), a_var())
        == PhaseSpacePolynomial("a", {(1, 1): Coeff.of(1), (0, 0): Coeff.of(-HALF)})
        and star_product(PhaseSpacePolynomial("a", {(0, 2): Coeff.of(1)}),
                         PhaseSpacePolynomial("a", {(2, 0): Coeff.of(1)}))
        == PhaseSpacePolynomial("a", {(2, 2): Coeff.of(1), (1, 1): Coeff.of(-2),
                                      (0, 0): Coeff.of(HALF)})
        and wigner_transform_operator(
            NormalOrderedOperatorPoly({(1, 1): Coeff.of(1)}))
        == PhaseSpacePolynomial("a", {(1, 1): Coeff.of(1), (0, 0): Coeff.of(-HALF)}))
    mccoy_ok = (
        mccoy_quantize(PhaseSpacePolynomial("a", {(1, 1): Coeff.of(1)}))
        == NormalOrderedOperatorPoly({(1, 1): Coeff.of(1), (0, 0): Coeff.of(HALF)})
        and mccoy_quantize(PhaseSpacePolynomial("a", {(2, 2): Coeff.of(1)}))
        == NormalOrderedOperatorPoly({(2, 2): Coeff.of(1), (1, 1): Coeff.of(2),
                                      (0, 0): Coeff.of(HALF)}))
    lamb = kerr_lamb_shift_check(0)
    lamb_ok = (lamb.coefficient(1, 1) == Coeff.of(-2)
               and lamb.coefficient(2, 2) == Coeff.of(-1)
               and kerr_lamb_shift_check(2).coefficient(1, 1) == Coeff.of(0))
    rng = random.Random(31)
    assoc_ok = True
    for _ in range(100):
        f, g, h = (_sparse_random_poly(rng) for _ in range(3))
        if star_product(star_product(f, g), h) != star_product(f, star_product(g, h)):
            assoc_ok = False
            break
    report(8, table_ok and mccoy_ok and lamb_ok and assoc_ok,
           "Wigner-transform table, McCoy examples, Kerr Lamb shift exact; "
           "star associativity exact on 100 random degree<=4 polynomials")


def test_criterion_09_wigner_numerics():
    vac = np.zeros(40)
    vac[0] = 1.0
    wg0 = wigner_function(vac)
    mid = len(wg0.x) // 2
    vac_ok = (abs(wg0.values[mid, mid] - 1 / np.pi) < 1e-6
              and abs(wg0.normalization() - 1.0) < 1e-6)
    es = eigensystem(build_hamiltonian(HamiltonianParams(delta=6.0, eps2=2.0, dim=90)))
    purities, norms = [], []
    for k in (0, 1):
        wg = wigner_function(es.eigenvectors[:, k])
        purities.append(wg.purity())
        norms.append(wg.normalization())
    ok = (vac_ok and all(abs(n - 1) < 1e-6 for n in norms)
          and all(abs(p - 1) < 1e-4 for p in purities))
    report(9, ok, f"vacuum W(0,0)=1/pi and norms to 1e-6; cat purities "
                  f"{[f'{p:.6f}' for p in purities]} within 1e-4")


def test_criterion_10_lindblad_properties():
    # trace and positivity over t = 200/K for the driven cat configuration
    p = HamiltonianParams(delta=2.0, eps2=2.17, dim=30)
    traj = evolve(LindbladConfig(params=p, kappa=0.02, n_th=0.05, t_final=200.0,
                                 n_samples=101, method="expm", rank=30))
    drift = float(np.abs(traj.trace - 1.0).max())
    mineig = float(traj.min_eig.min())
    # damped-oscillator analytic solution (photon birth-death chain)
    pd = HamiltonianParams(delta=0.5, eps2=0.0, dim=12)
    td = evolve(LindbladConfig(params=pd, kappa=0.05, t_final=60.0,
                               initial_state=3, n_samples=61, method="rk4",
                               n_pairs=1))
    damped_err = float(np.abs(td.nbar - 3.0 * np.exp(-0.05 * td.times)).max())
    # thermal fixed point
    pt = HamiltonianParams(delta=1.3, eps2=0.0, dim=16)
    tt = evolve(LindbladConfig(params=pt, kappa=0.02, n_th=0.05, t_final=2500.0,
                               initial_state="vacuum", n_samples=126,
                               method="expm", n_pairs=1))
    thermal_err = abs(tt.nbar[-1] - 0.05)
    ok = (drift < 1e-7 and mineig > -1e-7 and damped_err < 1e-5
          and thermal_err < 1e-4)
    report(10, ok, f"trace drift {drift:.1e}, min eig {mineig:.1e} over 200/K; "
                   f"damped-oscillator error {damped_err:.1e}; "
                   f"thermal fixed point error {thermal_err:.1e}")


def test_criterion_11_rabi_frequency_consistency():
    worst = 0.0
    for delta, eps2 in itertools.product((0.5, 1.0, 1.5, 2.5, 3.0),
                                         (0.11, 0.3, 0.6, 1.0)):
        p = HamiltonianParams(delta=delta, eps2=eps2, dim=70)
        de = tunnel_splitting(p).abs_delta_e
        assert de > 1e-4
        cfg = LindbladConfig(params=p, t_final=3 * 2 * np.pi / de,
                             n_samples=401, n_pairs=1)
        traj = evolve(cfg)
        freq, _ = fit_decaying_cosine(traj.times, traj.s)
        worst = max(worst, abs(freq - de) / de)
    report(11, worst < 0.02,
           f"Rabi frequency vs |dE| relative error <= {worst:.1e} over 20 points")


def test_criterion_12_tx_lifetime_sweep():
    t0 = time.perf_counter()
    deltas = np.arange(0.5, 5.51, 0.25)
    tx = []
    for d in deltas:
        p = HamiltonianParams(delta=float(d), eps2=2.17, dim=60)
        est = tx_lifetime(LindbladConfig(params=p, kappa=1 / 50, n_th=0.05,
                                         t_final=20000.0))
        tx.append(est.t_x)
    elapsed = time.perf_counter() - t0
    tx = np.array(tx)
    peaks_ok = True
    peak_locs = []
    for even in (2.0, 4.0):
        window = (deltas >= even - 0.75) & (deltas <= even + 0.75)
        loc = deltas[window][np.argmax(tx[window])]
        peak_locs.append(float(loc))
        peaks_ok = peaks_ok and abs(loc - even) <= 0.1
    base = {d: tx[np.argmin(np.abs(deltas - d))] for d in (0.5, 1.0, 3.0, 5.0, 5.5)}
    baseline_ok = base[0.5] < base[5.5] and base[1.0] < base[3.0] < base[5.0]
    report(12, peaks_ok and baseline_ok and elapsed < 600.0,
           f"T_X peaks at delta/K = {peak_locs} (within 0.1 of even); baseline "
           f"{base[1.0]:.0f} < {base[3.0]:.0f} < {base[5.0]:.0f} /K rising; "
           f"sweep took {elapsed:.0f}s")
