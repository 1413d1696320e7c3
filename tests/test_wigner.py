import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from kerrcat.errors import TruncationRiskError
from kerrcat.fock import HamiltonianParams, build_hamiltonian
from kerrcat.phasespace import WignerGrid, wigner_function
from kerrcat.phasespace.wigner import _wigner_laguerre, default_extent
from kerrcat.spectra import eigensystem, localized_pair
from oracles import (displaced_parity_point, wigner_laguerre_reference,
                     wigner_q_integral)


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
    # the grid centre u = 0 is where log(u) is masked out; the even cat (now
    # first of the degenerate top pair) has an extent that puts x = 0 exactly
    # on the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wg = wigner_function(cat_eigenstate(index=0), points=41)
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


def test_one_custom_axis_alone_is_rejected():
    # a lone x or p used to be replaced, with the other, by the default grid
    vac = fock_state(0, 20)
    with pytest.raises(ValueError, match="both x and p"):
        wigner_function(vac, x=np.linspace(-1, 1, 5))
    with pytest.raises(ValueError, match="both x and p"):
        wigner_function(vac, p=np.linspace(-1, 1, 5))


def _grid(kind, extent, n):
    """(x, p) of one grid shape: square, non-square, through the origin, 1 x N."""
    if kind == "square":
        x = np.linspace(-extent, extent, n)
        return x, x
    if kind == "rectangle":
        return (np.linspace(-extent, 0.5 * extent, n),
                np.linspace(-0.3 * extent, extent, n + 7))
    if kind == "origin":
        h = extent / n
        return np.arange(-n, n + 1) * h, np.arange(-n // 2, n + 1) * h
    return np.array([0.4 * extent]), np.linspace(-extent, extent, n)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("real", "complex", "real as complex")),
       support=st.sampled_from(("all", "even", "odd", "every third")),
       grid=st.sampled_from(("square", "rectangle", "origin", "row")),
       extent=st.floats(0.5, 12.0), n=st.integers(2, 25))
def test_grid_bytes_equal_the_reference_kernel(dim, seed, kind, support, grid,
                                               extent, n):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim)
    if kind == "complex":
        state = state + 1j * rng.normal(size=dim)
    elif kind == "real as complex":
        state = state.astype(complex)
    # one-parity and sparse supports zero whole diagonals c_m of the kernel
    keep = {"all": 1, "even": 2, "odd": 2, "every third": 3}[support]
    mask = np.arange(dim) % keep == (1 if support == "odd" else 0)
    state = np.where(mask, state, 0.0)
    state = state / np.linalg.norm(state)
    x, p = _grid(grid, extent, n)
    got = _wigner_laguerre(state, x, p)
    assert got.tobytes() == wigner_laguerre_reference(state, x, p).tobytes()


@pytest.mark.parametrize("kind", ["cat", "well"])
def test_full_size_grid_bytes_equal_the_reference_kernel(kind):
    # real states at the CLI's default size: every diagonal takes cos(d phi)
    es = eigensystem(build_hamiltonian(
        HamiltonianParams(delta=5.5, eps2=2.0, dim=90)))
    state = es.eigenvectors[:, 0] if kind == "cat" else localized_pair(es, 0)[0]
    ext = default_extent(state)
    x = np.linspace(-ext, ext, 201)
    got = _wigner_laguerre(state, x, x)
    assert got.tobytes() == wigner_laguerre_reference(state, x, x).tobytes()


def test_complex_coherent_state_matches_point_evaluations():
    # a complex state exercises the acc * e^{i d phi} phase of every diagonal
    alpha, dim = 1.2 + 0.5j, 40
    n = np.arange(dim)
    state = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(alpha)
                   - 0.5 * gammaln(n + 1))
    state /= np.linalg.norm(state)
    wg = wigner_function(state, points=41, extent=6.0)
    mid = 20
    assert wg.x[mid] == wg.p[mid] == 0.0
    padded = np.concatenate([state, np.zeros(160)])
    rng = np.random.default_rng(5)
    cells = [(mid, mid), (mid, 7), (mid, 33), (4, mid), (29, mid),
             *zip(rng.integers(0, 41, 12).tolist(),
                  rng.integers(0, 41, 12).tolist())]
    for i, j in cells:
        direct = displaced_parity_point(padded, wg.x[i], wg.p[j])
        assert wg.values[i, j] == pytest.approx(direct, abs=1e-9)
    # the Gaussian centred on (sqrt 2 Re alpha, sqrt 2 Im alpha)
    centre = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    for i, j in cells:
        r2 = (wg.x[i] - centre[0]) ** 2 + (wg.p[j] - centre[1]) ** 2
        assert wg.values[i, j] == pytest.approx(np.exp(-r2) / np.pi, abs=1e-9)


def test_csv_bytes_are_twelve_significant_digits(tmp_path):
    x = np.linspace(-1.0, 1.0, 5)
    p = np.array([-0.25, 1.0 / 3.0, 2.5e-7])
    values = np.arange(15.0).reshape(5, 3) / 7.0 - 1.0
    values[2, 1] = -0.0
    wg = WignerGrid(x, p, values, float((x[1] - x[0]) * (p[1] - p[0])))
    path = tmp_path / "w.csv"
    wg.to_csv(path)
    expected = "x,p,w\n" + "".join(
        f"{x[i]:.12g},{p[j]:.12g},{values[i, j]:.12g}\n"
        for i in range(5) for j in range(3))
    assert path.read_text() == expected
