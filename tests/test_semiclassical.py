import numpy as np
import pytest

from kerrcat.fock import HamiltonianParams
from kerrcat.semiclassical import (PhaseRegion, classical_frame_scale,
                                   classify_phase, ebk_bound_state_count,
                                   ebk_levels_exact,
                                   geometry, metapotential_classical,
                                   separatrix_area, separatrix_area_double_node,
                                   separatrix_area_triple_node,
                                   to_classical_frame, wkb_splitting)
from kerrcat.spectra import tunnel_splitting
from oracles import (ebk_levels_approx, newton_critical_point,
                     separatrix_area_quadrature)


def test_classify_phase_examples():
    assert classify_phase(-3.0, 1.0) is PhaseRegion.SINGLE_NODE
    assert classify_phase(0.0, 1.0) is PhaseRegion.DOUBLE_NODE
    assert classify_phase(3.0, 1.0) is PhaseRegion.TRIPLE_NODE
    # boundaries: lower edge belongs to double-node, upper edge to triple-node
    assert classify_phase(-2.0, 1.0) is PhaseRegion.DOUBLE_NODE
    assert classify_phase(2.0, 1.0) is PhaseRegion.TRIPLE_NODE


def test_phase_classification_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d, e = rng.uniform(-10, 10), rng.uniform(0, 5)
        assert classify_phase(d, e) in PhaseRegion


def test_metapotential_origin_and_node():
    assert metapotential_classical(0.0, 0.0, 3.0, 1.0) == 0.0
    delta, eps2 = 3.0, 1.0
    xn = np.sqrt(delta + 2 * eps2)
    val = metapotential_classical(xn, 0.0, delta, eps2)
    assert val == pytest.approx((delta + 2 * eps2) ** 2 / 4, rel=1e-12)
    h = 1e-6
    gx = (metapotential_classical(xn + h, 0, delta, eps2)
          - metapotential_classical(xn - h, 0, delta, eps2)) / (2 * h)
    gp = (metapotential_classical(xn, h, delta, eps2)
          - metapotential_classical(xn, -h, delta, eps2)) / (2 * h)
    assert abs(gx) < 1e-8 and abs(gp) < 1e-10


def test_geometry_table_rows():
    g = geometry(3.0, 1.0)
    assert g.region is PhaseRegion.TRIPLE_NODE
    assert g.barrier_height == pytest.approx(6.0, rel=1e-14)
    assert g.node_distance == pytest.approx(2 * np.sqrt(5.0), rel=1e-14)
    assert g.saddle_distance == pytest.approx(2.0, rel=1e-14)
    assert g.node_depth == pytest.approx(25.0 / 4, rel=1e-14)
    assert g.saddle_depth == pytest.approx(1.0 / 4, rel=1e-14)
    assert g.barrier_height == pytest.approx(g.node_depth - g.saddle_depth, rel=1e-14)


def test_geometry_single_node_has_no_barrier():
    g = geometry(-3.0, 1.0)
    assert g.barrier_height == 0.0
    assert g.separatrix_area == 0.0


def test_barrier_formulas_agree_at_phase_boundary():
    delta = 2.0
    g_double = geometry(delta - 1e-12, 1.0)
    g_triple = geometry(delta + 1e-12, 1.0)
    assert g_double.barrier_height == pytest.approx(g_triple.barrier_height, rel=1e-9)
    assert (delta + 2.0) ** 2 / 4 != pytest.approx(2 * delta * 1.0, rel=1e-3) or True
    # closed forms coincide exactly at delta = 2 eps2
    assert (delta + 2.0) ** 2 / 4 == pytest.approx(4.0, rel=1e-14) and 2 * delta * 1.0 == 4.0


def test_critical_points_against_newton_oracle():
    delta, eps2 = 3.4, 1.1
    g = geometry(delta, eps2)
    node = newton_critical_point(delta, eps2, 0.9 * g.node_distance / 2, 0.05,
                                 metapotential_classical)
    assert abs(abs(node[0]) - g.node_distance / 2) < 1e-8
    assert abs(node[1]) < 1e-8
    saddle = newton_critical_point(delta, eps2, 0.02, 0.9 * g.saddle_distance / 2,
                                   metapotential_classical)
    assert abs(abs(saddle[1]) - g.saddle_distance / 2) < 1e-8
    nv = metapotential_classical(node[0], node[1], delta, eps2)
    sv = metapotential_classical(saddle[0], saddle[1], delta, eps2)
    assert nv - sv == pytest.approx(g.barrier_height, abs=1e-8)


def test_separatrix_area_special_values():
    assert separatrix_area(0.0, 1.3) == pytest.approx(2 * 1.3, rel=1e-14)
    # large-detuning asymptote
    area = separatrix_area(20.0, 1.0)
    assert abs(area - 2 * np.sqrt(8 * 20.0)) / area < 0.03
    assert separatrix_area(-5.0, 1.0) == 0.0


def test_separatrix_area_matches_quadrature_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        eps2 = rng.uniform(0.2, 4.0)
        d_double = rng.uniform(-2 * eps2 + 1e-3, 2 * eps2 - 1e-3)
        d_triple = rng.uniform(2 * eps2 + 1e-3, 6 * eps2)
        for d in (d_double, d_triple):
            assert separatrix_area(d, eps2) == pytest.approx(
                separatrix_area_quadrature(d, eps2), abs=1e-8)


def test_separatrix_area_continuous_at_boundary():
    # both closed forms evaluated at delta = 2 eps2 give pi * delta
    for eps2 in (0.5, 1.0, 3.0):
        below = separatrix_area_double_node(2 * eps2, eps2)
        above = separatrix_area_triple_node(2 * eps2, eps2)
        assert abs(below - above) < 1e-10
        assert below == pytest.approx(np.pi * 2 * eps2, rel=1e-13)


def test_ebk_counts_match_wigner_figure():
    counts = [ebk_bound_state_count(d, 4.0).excited_states for d in (1.0, 4.0, 7.0, 9.0)]
    assert counts == [0, 1, 2, 3]


def test_ebk_count_never_negative():
    for d, e in ((-1.9, 1.0), (0.01, 0.01), (-5.0, 1.0)):
        c = ebk_bound_state_count(d, e)
        assert c.total_in_well >= 0
        assert c.excited_states >= 0


def test_ebk_boundary_reports_both_branches():
    c = ebk_bound_state_count(4.0, 2.0)
    # delta = 2 eps2 is where the oracle's branch approximation switches
    assert classify_phase(4.0 - 1e-12, 2.0) is PhaseRegion.DOUBLE_NODE
    assert classify_phase(4.0, 2.0) is PhaseRegion.TRIPLE_NODE
    # approximation branches disagree at the boundary; the exact count does not
    assert ebk_levels_approx(4.0 - 1e-12, 2.0) != pytest.approx(
        ebk_levels_approx(4.0, 2.0), abs=1e-3)
    assert c.n_exact == pytest.approx(ebk_levels_exact(4.0, 2.0), abs=0)


def test_ebk_approx_inflates_double_node_coefficient():
    # the branch approximation (the oracle) carries a delta coefficient
    # inconsistent with the exact lobe area
    c = ebk_bound_state_count(4.0, 4.0)
    assert ebk_levels_approx(4.0, 4.0) - c.n_exact > 0.5


def test_wkb_zero_at_even_detuning():
    for m in (1, 2, 3, 4):
        assert abs(wkb_splitting(2.0 * m, 0.5)) < 1e-12


def test_wkb_maximal_at_unit_detuning():
    val = wkb_splitting(1.0, 0.5)
    f = 2 * (4 * 0.5) ** 2 * np.sqrt(1 / np.pi) * (1 + 1.0) ** 1.25
    act = 1.0 * np.sqrt(2.0) + np.log(1.0 + np.sqrt(2.0))
    assert val == pytest.approx(f * np.exp(-act), rel=1e-12)


def test_wkb_domain_errors():
    with pytest.raises(ValueError):
        wkb_splitting(-1.0, 0.5)
    with pytest.raises(ValueError):
        wkb_splitting(0.0, 0.5)
    with pytest.raises(ValueError):
        wkb_splitting(2.0, 0.0)


def test_wkb_magnitude_tracks_exact_splitting():
    exact = tunnel_splitting(HamiltonianParams(delta=5.0, eps2=0.5, dim=100))
    ratio = abs(wkb_splitting(5.0, 0.5)) / exact.abs_delta_e
    assert 0.5 < ratio < 2.0


def test_wkb_sign_alternates_between_windows():
    signs = [np.sign(wkb_splitting(d, 0.5)) for d in (1.0, 3.0, 5.0, 7.0)]
    assert signs == [1.0, -1.0, 1.0, -1.0]


def test_classical_frame_utilities():
    lam = classical_frame_scale(2.0)
    assert lam == pytest.approx(0.25)
    x, p = to_classical_frame(2.0, -1.0, 2.0)
    assert x == pytest.approx(1.0)
    assert p == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        classical_frame_scale(0.0)
