import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat import cli, dynamics
from kerrcat.fock import HamiltonianParams
from kerrcat.semiclassical import classify_phase

DATA = Path(__file__).parent / "data"


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def splitting_cfg(dim=70):
    return {
        "fixed": {"eps2": 0.0, "dim": dim},
        "axes": [
            {"name": "delta", "start": 0.5, "stop": 4.5, "count": 5},
            {"name": "eps2", "start": 0.2, "stop": 1.8, "count": 5},
        ],
    }


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_calibrate_formula(tmp_path, capsys):
    rc = cli.main(["calibrate", "--omega-x", "4.0", "--eps-x", "1.0"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha0_sq"] == pytest.approx(1.0)
    assert report["eps2"] == pytest.approx(1.0)
    rc = cli.main(["calibrate", "--omega-x", "0.0", "--eps-x", "144.93",
                   "--out", str(tmp_path / "cal.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "cal.json").read_text())
    assert rep["alpha0_sq"] == 0.0
    assert rep["eps_x"] == 144.93    # inputs echoed


def test_splitting_golden_regression(tmp_path):
    cfg = write_cfg(tmp_path, splitting_cfg())
    out = tmp_path / "table.csv"
    rc = cli.main(["splitting", "--config", cfg, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    gheader, grows = read_csv(DATA / "golden_splitting.csv")
    assert header == gheader
    assert len(rows) == len(grows) == 25
    for row, gold in zip(rows, grows):
        for i in range(8):
            assert float(row[i]) == pytest.approx(float(gold[i]),
                                                  rel=1e-9, abs=1e-12)
        assert row[8] == gold[8]


def test_phase_column_matches_classifier(tmp_path):
    cfg = write_cfg(tmp_path, splitting_cfg(dim=60))
    out = tmp_path / "t.csv"
    assert cli.main(["geometry", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    i_d, i_e, i_ph = header.index("delta"), header.index("eps2"), header.index("phase")
    for row in rows:
        assert row[i_ph] == classify_phase(float(row[i_d]), float(row[i_e])).value


def test_wkb_column_vanishes_at_even_detuning(tmp_path):
    cfg = {
        "fixed": {"eps2": 0.5, "dim": 60},
        "axes": [{"name": "delta", "start": 2.0, "stop": 4.0, "count": 3}],
    }
    out = tmp_path / "t.csv"
    assert cli.main(["wkb", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    i_w = header.index("de_wkb")
    assert abs(float(rows[0][i_w])) < 1e-12
    assert abs(float(rows[2][i_w])) < 1e-12
    assert abs(float(rows[1][i_w])) > 1e-3


def test_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path, splitting_cfg(dim=60))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["splitting", "--config", cfg, "--out", str(out1)])
    cli.main(["splitting", "--config", cfg, "--out", str(out2), "--threads", "4"])
    assert out1.read_bytes() == out2.read_bytes()


def test_set_overrides_win(tmp_path):
    cfg = write_cfg(tmp_path, splitting_cfg(dim=60))
    out = tmp_path / "t.csv"
    rc = cli.main(["splitting", "--config", cfg, "--out", str(out),
                   "--set", "axes.0.count=3", "--set", "fixed.dim=50"])
    # dotted list indices are not supported: axes is a list -> config error
    assert rc == 2
    rc = cli.main(["splitting", "--config", cfg, "--out", str(out),
                   "--set", "fixed.dim=50"])
    assert rc == 0


def test_env_thread_override(tmp_path, monkeypatch):
    monkeypatch.setenv("KERRCAT_THREADS", "2")
    cfg = write_cfg(tmp_path, splitting_cfg(dim=60))
    out = tmp_path / "t.csv"
    assert cli.main(["splitting", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.setenv("KERRCAT_THREADS", "zebra")
    assert cli.main(["splitting", "--config", cfg, "--out", str(out)]) == 2


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "t.csv"
    assert cli.main(["splitting", "--config", str(bad), "--out", str(out)]) == 2
    cfg = write_cfg(tmp_path, {"fixed": {}, "axes": [
        {"name": "zeta", "start": 0, "stop": 1, "count": 3}]})
    assert cli.main(["splitting", "--config", cfg, "--out", str(out)]) == 2
    cfg = write_cfg(tmp_path, {"fixed": {}, "axes": [
        {"name": "delta", "start": 0, "stop": 1, "count": 1}]})
    assert cli.main(["splitting", "--config", cfg, "--out", str(out)]) == 2


def test_error_rows_and_exit_code_3(tmp_path):
    # negative detuning: WKB column is out of domain -> coded error cells
    cfg = {
        "fixed": {"eps2": 0.5, "dim": 60},
        "axes": [{"name": "delta", "start": -1.0, "stop": 1.0, "count": 3}],
    }
    out = tmp_path / "t.csv"
    rc = cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    header, rows = read_csv(out)
    assert len(rows) == 3          # partial results still written
    i_err, i_wkb = header.index("error"), header.index("de_wkb")
    assert rows[0][i_err] == "wkb-domain"
    assert rows[0][i_wkb] == "nan"
    assert rows[2][i_err] == ""
    assert rows[2][i_wkb] != "nan"


def test_spectrum_reproduces_kerr_lines(tmp_path):
    cfg = {
        "fixed": {"eps2": 0.0, "dim": 40},
        "n_levels": 4,
        "axes": [{"name": "delta", "start": 0.0, "stop": 2.0, "count": 3}],
    }
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 3 * 4
    i_d = header.index("delta")
    i_e = header.index("energy")
    i_par = header.index("parity")
    for row in rows:
        d = float(row[i_d])
        n = np.arange(40)
        kerr_levels = np.sort(d * n - n * (n - 1.0))[::-1]
        assert float(row[i_e]) == pytest.approx(kerr_levels[0], abs=1e-9) or \
            any(abs(float(row[i_e]) - kerr_levels[k]) < 1e-9 for k in range(4))
        assert row[i_par] in ("-1", "1")


def test_two_axis_row_count(tmp_path):
    cfg = {
        "fixed": {"dim": 60},
        "axes": [
            {"name": "delta", "start": 0.5, "stop": 1.5, "count": 3},
            {"name": "eps2", "start": 0.2, "stop": 0.6, "count": 4},
        ],
    }
    out = tmp_path / "t.csv"
    assert cli.main(["ebk", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 12


def test_log_axis(tmp_path):
    cfg = {
        "fixed": {"eps2": 0.3, "dim": 60},
        "axes": [{"name": "delta", "start": 0.5, "stop": 2.0, "count": 3,
                  "scale": "log"}],
    }
    out = tmp_path / "t.csv"
    assert cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    deltas = [float(r[header.index("delta")]) for r in rows]
    assert deltas[1] == pytest.approx(np.sqrt(0.5 * 2.0))


def test_wigner_subcommand(tmp_path):
    cfg = {
        "fixed": {"delta": 6.0, "eps2": 2.0, "dim": 80},
        "state": {"eigen": 0},
        "grid": {"points": 101},
    }
    out = tmp_path / "w.csv"
    assert cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "p", "w"]
    assert len(rows) == 101 * 101
    xs = sorted({float(r[0]) for r in rows})
    cell = (xs[1] - xs[0]) ** 2
    total = sum(float(r[2]) for r in rows) * cell
    assert total == pytest.approx(1.0, abs=1e-4)


def test_wigner_json_format(tmp_path):
    cfg = {
        "fixed": {"delta": 0.0, "eps2": 0.0, "dim": 30},
        "state": {"eigen": 0},
        "grid": {"points": 41, "extent": 6.0},
    }
    out = tmp_path / "w.json"
    assert cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert np.array(data["values"]).shape == (41, 41)


@pytest.mark.parametrize("side, sign", [("right", 1), ("left", -1)])
def test_wigner_localized_state(tmp_path, side, sign):
    cfg = {
        "fixed": {"delta": 1.0, "eps2": 2.0, "dim": 40},
        "state": {"localized": side, "pair": 0},
        "grid": {"points": 41, "extent": 6.0},
    }
    out = tmp_path / "w.csv"
    assert cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    _, rows = read_csv(out)
    x, w = (np.array([float(r[i]) for r in rows]) for i in (0, 2))
    cell = (6.0 * 2 / 40) ** 2
    assert sign * np.sum(x * w) * cell > 1.0


def test_lindblad_trajectory_dump(tmp_path):
    cfg = {
        "fixed": {"delta": 1.0, "eps2": 0.5, "dim": 20,
                  "kappa": 0.02, "n_th": 0.0, "t_final": 20.0},
        "trajectory": True,
        "n_samples": 21,
    }
    out = tmp_path / "traj.csv"
    assert cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "s", "tr", "purity", "n"]
    assert len(rows) == 21
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)
    # the library writer produces the same bytes
    lib = tmp_path / "lib.csv"
    dynamics.evolve(dynamics.LindbladConfig(
        params=HamiltonianParams(delta=1.0, eps2=0.5, dim=20), kappa=0.02,
        n_th=0.0, t_final=20.0, n_samples=21)).to_csv(lib)
    assert lib.read_bytes() == out.read_bytes()


def test_lindblad_tx_sweep(tmp_path):
    cfg = {
        "fixed": {"eps2": 2.17, "dim": 40, "kappa": 0.02, "n_th": 0.05,
                  "t_final": 1500.0},
        "axes": [{"name": "delta", "start": 0.5, "stop": 1.5, "count": 2}],
    }
    out = tmp_path / "tx.csv"
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    tx = [float(r[header.index("t_x")]) for r in rows]
    assert tx[1] > tx[0] > 10.0
    assert header.index("rank") == header.index("lower_bound") + 1
    assert all(32 <= int(r[header.index("rank")]) <= 40 for r in rows)


def test_lindblad_tx_error_row_has_empty_rank(tmp_path):
    # kappa = 0 has no well-switching decay: the row carries the error code
    cfg = {
        "fixed": {"eps2": 2.17, "dim": 40, "n_th": 0.05, "t_final": 1500.0},
        "axes": [{"name": "kappa", "start": 0.0, "stop": 0.02, "count": 2}],
    }
    out = tmp_path / "tx.csv"
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    header, rows = read_csv(out)
    i_rank, i_err = header.index("rank"), header.index("error")
    assert (rows[0][i_rank], rows[0][i_err]) == ("", "ValueError")
    assert int(rows[1][i_rank]) >= 32 and rows[1][i_err] == ""


def test_cli_entry_point_subprocess(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "fixed": {"eps2": 0.3, "dim": 50},
        "axes": [{"name": "delta", "start": 0.5, "stop": 1.5, "count": 2}],
    }))
    out = tmp_path / "o.csv"
    env = dict(os.environ, KERRCAT_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "kerrcat.cli", "splitting",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, env=env)
    assert proc.returncode == 0
    assert out.exists()


# -- row contract shared by every sweep subcommand -------------------------------

SWEEP_BASES = {
    "splitting": {"fixed": {"delta": 1.0, "dim": 40}},
    "spectrum": {"fixed": {"delta": 1.0, "dim": 40}, "n_levels": 3},
    "lindblad": {"fixed": {"delta": 1.0, "dim": 20, "kappa": 0.05,
                           "n_th": 0.05, "t_final": 100.0}},
}


def run_sweep(tmp_path, command, axes, *extra, name="t.csv", base=None):
    cfg = dict(base or SWEEP_BASES[command], axes=axes)
    out = tmp_path / name
    rc = cli.main([command, "--config", write_cfg(tmp_path, cfg, name + ".json"),
                   "--out", str(out), *extra])
    return rc, out


@pytest.mark.parametrize("command", ["splitting", "spectrum", "lindblad"])
def test_invalid_swept_point_fails_only_its_row(tmp_path, command):
    eps2_axis = {"name": "eps2", "start": -1.0, "stop": 1.0, "count": 5}
    rc, out = run_sweep(tmp_path, command, [eps2_axis])
    assert rc == 3 and out.exists()
    header, rows = read_csv(out)
    i_e, i_err = header.index("eps2"), header.index("error")
    params = [header.index(c) for c in ("delta", "eps2", "eps4")
              if c in header]
    bad = [r for r in rows if float(r[i_e]) < 0]
    assert len(bad) == 2
    for row in bad:
        assert row[i_err] == "ValueError"
        assert all(row[i] for i in params)
        assert not any(v for i, v in enumerate(row) if i not in params + [i_err])
        if "delta" in header:
            assert row[header.index("delta")] == "1"
    # the valid rows are exactly a run over only the valid points
    rc_valid, valid = run_sweep(tmp_path, command, [dict(eps2_axis, start=0.0,
                                                        count=3)], name="v.csv")
    assert rc_valid in (0, 3)
    lines = out.read_text().splitlines()
    kept = [line for line in lines[1:] if not line.endswith(",ValueError")]
    assert [lines[0], *kept] == valid.read_text().splitlines()
    # a fixed value outside the model's domain is a config error: no file
    for bad_fixed in ("fixed.eps2=-1", "fixed.dim=2"):
        rc, out = run_sweep(tmp_path, command, [eps2_axis], "--set", bad_fixed,
                            name="x.csv")
        assert rc == 2 and not out.exists()
    if command != "lindblad":
        rc, out = run_sweep(tmp_path, command, [
            {"name": "kappa", "start": 0.0, "stop": 0.1, "count": 2}], name="k.csv")
        assert rc == 2 and not out.exists()


@pytest.mark.parametrize("bad_fixed", ["fixed.kappa=-0.1", "fixed.n_th=-1",
                                       "fixed.t_final=0", "fixed.t_final=-1"])
def test_invalid_fixed_lindblad_rate_is_a_config_error(tmp_path, bad_fixed):
    eps2_axis = {"name": "eps2", "start": 0.5, "stop": 1.0, "count": 2}
    rc, out = run_sweep(tmp_path, "lindblad", [eps2_axis], "--set", bad_fixed)
    assert rc == 2 and not out.exists()
    cfg = dict(SWEEP_BASES["lindblad"], trajectory=True, n_samples=5)
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg), "--set",
                   bad_fixed, "--out", str(out)])
    assert rc == 2 and not out.exists()


def test_invalid_swept_lindblad_rate_fails_only_its_row(tmp_path):
    kappa_axis = {"name": "kappa", "start": -0.05, "stop": 0.05, "count": 3}
    rc, out = run_sweep(tmp_path, "lindblad", [kappa_axis])
    assert rc == 3
    header, rows = read_csv(out)
    assert [r[header.index("error")] for r in rows] == ["ValueError", "ValueError", ""]


@pytest.mark.parametrize("key, value", [("seed", "abc"), ("seed", "1.5"),
                                        ("n_levels", "abc"), ("n_levels", "2.5")])
def test_non_integer_setting_is_a_config_error(tmp_path, monkeypatch, key, value):
    # rejected before the first eigensolve of the grid, with no file written
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    monkeypatch.setattr(cli.spectra, "tunnel_splitting", lambda p: calls.append(p))
    command = "spectrum" if key == "n_levels" else "splitting"
    rc, out = run_sweep(tmp_path, command, [
        {"name": "delta", "start": 0.5, "stop": 1.5, "count": 3}],
        "--set", f"{key}={value}")
    assert rc == 2 and not out.exists() and calls == []


@pytest.mark.parametrize("override", ["state.eigen=abc", "state.eigen=2.5",
                                      "state.pair=abc", "state.pair=1.5",
                                      "grid.points=abc", "grid.points=2.5"])
def test_non_integer_wigner_setting_is_a_config_error(tmp_path, monkeypatch,
                                                      override):
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    cfg = {"fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20},
           "state": ({"localized": "right", "pair": 0}
                     if override.startswith("state.pair") else {"eigen": 0}),
           "grid": {"points": 11}}
    out = tmp_path / "w.csv"
    rc = cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--set", override])
    assert rc == 2 and not out.exists() and calls == []


@pytest.mark.parametrize("override", ["state.eigen=999", "state.eigen=20",
                                      "state.eigen=-1", "state.pair=-1",
                                      "state.pair=10",
                                      "grid.points=0", "grid.points=1"])
def test_out_of_range_wigner_setting_is_a_config_error(tmp_path, monkeypatch,
                                                       override):
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    cfg = {"fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20},
           "state": ({"localized": "right", "pair": 0}
                     if override.startswith("state.pair") else {"eigen": 0}),
           "grid": {"points": 11}}
    out = tmp_path / "w.csv"
    rc = cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--set", override])
    assert rc == 2 and not out.exists() and calls == []


@pytest.mark.parametrize("initial_state", ["3", "bogus"])
def test_unknown_trajectory_initial_state_is_a_config_error(
        tmp_path, monkeypatch, initial_state):
    calls = []
    monkeypatch.setattr(cli.dynamics, "evolve", lambda cfg: calls.append(cfg))
    cfg = {"fixed": {"delta": 1.0, "eps2": 0.5, "dim": 20, "t_final": 2.0},
           "trajectory": True, "n_samples": 5}
    out = tmp_path / "traj.csv"
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--set", f"initial_state={initial_state}"])
    assert rc == 2 and not out.exists() and calls == []


@pytest.mark.parametrize("n_levels", [0, -1])
def test_spectrum_without_levels_is_a_config_error(tmp_path, monkeypatch,
                                                   n_levels):
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    rc, out = run_sweep(tmp_path, "spectrum", [
        {"name": "eps2", "start": 0.5, "stop": 1.5, "count": 2}],
        "--set", f"n_levels={n_levels}")
    assert rc == 2 and not out.exists() and calls == []


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sweep_bytes_do_not_depend_on_worker_count(tmp_path_factory, data):
    bounds = {"delta": (-1.0, 5.0), "eps2": (-0.5, 2.5)}
    names = data.draw(st.sampled_from([("delta",), ("eps2",), ("delta", "eps2"),
                                       ("eps2", "delta")]))
    axes = [{"name": n, "count": data.draw(st.integers(2, 3)),
             "start": data.draw(st.floats(*bounds[n])),
             "stop": data.draw(st.floats(*bounds[n]))} for n in names]
    dim = data.draw(st.sampled_from([12, 24]))
    k = data.draw(st.integers(2, 4))
    tmp = tmp_path_factory.mktemp("threads")
    for command, base in SWEEP_BASES.items():
        base = dict(base, fixed={**base["fixed"], "dim": dim})
        outs = [run_sweep(tmp, command, axes, "--threads", str(n), base=base,
                          name=f"{command}-{n}.csv") for n in (1, k)]
        assert outs[0][0] == outs[1][0]
        assert outs[0][1].read_bytes() == outs[1][1].read_bytes()
