import warnings

import numpy as np
import pytest

from kerrcat.errors import TruncationRiskError
from kerrcat.fock import HamiltonianParams, build_hamiltonian
from kerrcat.phasespace import (WignerGrid, displaced_parity_point,
                                wigner_function)
from kerrcat.spectra import eigensystem
from oracles import wigner_q_integral


def fock_state(n, dim):
    v = np.zeros(dim)
    v[n] = 1.0
    return v


def cat_eigenstate(delta=6.0, eps2=2.0, dim=80, index=0):
    es = eigensystem(build_hamiltonian(
        HamiltonianParams(delta=delta, eps2=eps2, dim=dim)))
    return es.eigenvectors[:, index]


def test_vacuum_wigner():
    wg = wigner_function(fock_state(0, 40))
    mid = len(wg.x) // 2
    assert wg.values[mid, mid] == pytest.approx(1 / np.pi, abs=1e-6)
    assert wg.normalization() == pytest.approx(1.0, abs=1e-6)
    # Gaussian profile (1/pi) exp(-(x^2+p^2))
    i, j = mid + 15, mid - 7
    expected = np.exp(-(wg.x[i] ** 2 + wg.p[j] ** 2)) / np.pi
    assert wg.values[i, j] == pytest.approx(expected, abs=1e-10)


def test_fock1_negative_at_origin_vs_q_integral():
    state = fock_state(1, 40)
    wg = wigner_function(state)
    mid = len(wg.x) // 2
    assert wg.values[mid, mid] == pytest.approx(-1 / np.pi, abs=1e-9)
    assert wg.values[mid, mid] == pytest.approx(
        wigner_q_integral(state, 0.0, 0.0), abs=1e-8)


def test_grid_matches_point_evaluations():
    state = cat_eigenstate()
    wg = wigner_function(state, points=61)
    # the literal matrix-exponential route needs headroom for the displaced
    # support, so embed the state in a larger Fock space for the cross check
    padded = np.concatenate([state, np.zeros(160)])
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(20):
        i = int(rng.integers(5, 56))
        j = int(rng.integers(5, 56))
        if wg.x[i] ** 2 + wg.p[j] ** 2 > 50.0:
            continue
        direct = displaced_parity_point(padded, wg.x[i], wg.p[j])
        oracle = wigner_q_integral(state, wg.x[i], wg.p[j])
        assert wg.values[i, j] == pytest.approx(direct, abs=1e-9)
        assert wg.values[i, j] == pytest.approx(oracle, abs=1e-7)
        checked += 1
    assert checked >= 5


def test_cat_normalization_and_purity():
    wg = wigner_function(cat_eigenstate())
    assert wg.normalization() == pytest.approx(1.0, abs=1e-6)
    assert wg.purity() == pytest.approx(1.0, abs=1e-4)
    assert wg.values.min() < -0.05     # interference fringes


def test_squeezed_state_has_tiny_negativity():
    state = cat_eigenstate(delta=-6.0, eps2=2.0, dim=60)
    wg = wigner_function(state)
    assert wg.values.min() > -1e-3
    assert wg.normalization() == pytest.approx(1.0, abs=1e-6)


def test_grid_through_origin_emits_no_warning():
    # the grid centre u = 0 is where log(u) is masked out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wg = wigner_function(cat_eigenstate(index=1), points=41)
    assert wg.x[20] == 0.0 and np.all(np.isfinite(wg.values))


def test_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        wigner_function(np.ones(10))


def test_rejects_truncation_edge_state():
    v = np.zeros(20)
    v[-1] = 1.0
    with pytest.raises(TruncationRiskError):
        wigner_function(v)


def test_csv_serialization_row_major(tmp_path):
    wg = wigner_function(fock_state(0, 20), points=11, extent=3.0)
    path = tmp_path / "w.csv"
    wg.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + 11 * 11
    # row-major: x varies slowest
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == float(second[0]) == wg.x[0]
    assert float(second[1]) > float(first[1])
    x0, p0, w0 = map(float, first)
    assert w0 == pytest.approx(wg.values[0, 0], rel=1e-10)


def test_json_serialization(tmp_path):
    import json
    wg = wigner_function(fock_state(0, 20), points=11, extent=3.0)
    path = tmp_path / "w.json"
    wg.to_json(path)
    data = json.loads(path.read_text())
    assert data["x"]["count"] == 11
    assert data["cell_area"] == pytest.approx(wg.cell_area)
    vals = np.array(data["values"])
    assert vals.shape == (11, 11)
    assert np.abs(vals - wg.values).max() < 1e-12


def test_custom_grid():
    xg = np.linspace(-2, 2, 31)
    pg = np.linspace(-1, 1, 17)
    wg = wigner_function(fock_state(0, 20), x=xg, p=pg)
    assert wg.values.shape == (31, 17)
    assert isinstance(wg, WignerGrid)
