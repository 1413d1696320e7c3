import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerrcat import cli, dynamics, fock, semiclassical, spectra
from kerrcat.fock import HamiltonianParams
from kerrcat.phasespace import wigner_function
from kerrcat.semiclassical import classify_phase
from kerrcat.tables import SweepResult

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


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


def test_lindblad_tx_golden_regression(tmp_path):
    # T_X across both peaks (delta = 2, 4) and the valleys at eps2 = 2.17,
    # and in the shallow well eps2 = 0.3, at dim 40: three delta pairs
    header, rows = None, []
    for start, stop in ((0.5, 2.0), (2.9, 4.0), (5.5, 7.0)):
        cfg = write_cfg(tmp_path, {
            "fixed": {"dim": 40, "kappa": 0.02, "n_th": 0.05},
            "axes": [{"name": "delta", "start": start, "stop": stop, "count": 2},
                     {"name": "eps2", "start": 2.17, "stop": 0.3, "count": 2}]})
        out = tmp_path / "tx.csv"
        assert cli.main(["lindblad", "--config", cfg, "--out", str(out)]) == 0
        header, part = read_csv(out)
        rows += part
    assert_tx_golden(header, rows, "golden_lindblad_tx.csv", 12)


def test_lindblad_tx_golden_regression_at_dim_60(tmp_path):
    # the criterion-12 point and six more detunings up to delta = 5, each
    # certified from its one factor at dim 60
    cfg = write_cfg(tmp_path, {
        "fixed": {"eps2": 2.17, "dim": 60, "kappa": 0.02, "n_th": 0.05},
        "axes": [{"name": "delta", "start": 2.0, "stop": 5.0, "count": 7}]})
    out = tmp_path / "tx.csv"
    assert cli.main(["lindblad", "--config", cfg, "--out", str(out)]) == 0
    assert_tx_golden(*read_csv(out), "golden_lindblad_tx_dim60.csv", 7)


def assert_tx_golden(header, rows, name, count):
    """``t_x`` at rel 1e-9 and every other cell exactly, against the golden
    table ``name`` of ``count`` rows."""
    gheader, grows = read_csv(DATA / name)
    assert header == gheader
    assert len(rows) == len(grows) == count
    i_tx = header.index("t_x")
    for row, gold in zip(rows, grows):
        assert float(row[i_tx]) == pytest.approx(float(gold[i_tx]), rel=1e-9)
        assert row[:i_tx] + row[i_tx + 1:] == gold[:i_tx] + gold[i_tx + 1:]


GOLDEN = DATA / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def _number(cell):
    """``cell`` as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def assert_golden_cell(cell, gold, wigner_w=False):
    """A numeric cell at rel 1e-9 (a Wigner ``w`` at abs 1e-12), any other
    cell exactly."""
    value, expected = _number(cell), _number(gold)
    if value is None or expected is None:
        assert cell == gold
    elif wigner_w:
        assert value == pytest.approx(expected, rel=0, abs=1e-12)
    else:
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)


def assert_golden_json(doc, gold, key=None):
    if isinstance(gold, dict):
        assert isinstance(doc, dict) and doc.keys() == gold.keys()
        for k in gold:
            assert_golden_json(doc[k], gold[k], k)
    elif isinstance(gold, list):
        assert isinstance(doc, list) and len(doc) == len(gold)
        for d, g in zip(doc, gold):
            assert_golden_json(d, g, key)
    else:
        assert_golden_cell(doc, gold, wigner_w=key == "values")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden_corpus(tmp_path, name):
    # tests/data/golden: one small run per kind of output, each config and
    # argument list in cases.json beside the file it wrote
    case = GOLDEN_CASES[name]
    args = list(case["args"])
    if "config" in case:
        args += ["--config", write_cfg(tmp_path, case["config"])]
    out = tmp_path / name
    assert cli.main([*args, "--out", str(out)]) == 0
    if name.endswith(".json"):
        assert_golden_json(json.loads(out.read_text()),
                           json.loads((GOLDEN / name).read_text()))
        return
    header, rows = read_csv(out)
    gheader, grows = read_csv(GOLDEN / name)
    assert header == gheader and len(rows) == len(grows)
    for row, gold in zip(rows, grows):
        assert len(row) == len(gold)
        for col, cell, expected in zip(header, row, gold):
            assert_golden_cell(cell, expected, wigner_w=col == "w")


def test_phase_column_matches_classifier(tmp_path):
    cfg = write_cfg(tmp_path, splitting_cfg(dim=60))
    out = tmp_path / "t.csv"
    assert cli.main(["splitting", "--config", cfg, "--out", str(out)]) == 0
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
    assert cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
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


def test_fixed_kerr_is_an_unknown_key(tmp_path, capsys):
    # energies are in units of K: fixed has no kerr key, whatever its value
    cfg = write_cfg(tmp_path, splitting_cfg(dim=20))
    out = tmp_path / "t.csv"
    assert cli.main(["splitting", "--config", cfg, "--out", str(out),
                     "--set", "fixed.kerr=1"]) == 2
    assert "fixed.kerr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alias", ["wkb", "ebk", "geometry"])
def test_splitting_aliases_are_invalid_choices(tmp_path, capsys, alias):
    # splitting is the one name of the splitting table
    cfg = write_cfg(tmp_path, splitting_cfg(dim=20))
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([alias, "--config", cfg, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "invalid choice" in capsys.readouterr().err


def test_seed_is_an_unknown_key(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.spectra, "tunnel_splitting", lambda p: calls.append(p))
    rc, out = run_sweep(tmp_path, "splitting", [
        {"name": "delta", "start": 0.5, "stop": 1.5, "count": 3}],
        "--set", "seed=1")
    assert rc == 2 and not out.exists() and calls == []
    assert "unknown key seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["splitting", "calibrate"])
@pytest.mark.parametrize("where", ["missing/t.csv", "."])
def test_unwritable_out_is_a_config_error(tmp_path, monkeypatch, capsys,
                                          command, where):
    # refused before the first point: no directory at missing/, and . is one
    calls = []
    monkeypatch.setattr(cli.spectra, "tunnel_splitting", lambda p: calls.append(p))
    monkeypatch.setattr(cli, "cmd_calibrate", lambda args: calls.append(args))
    out = tmp_path / where
    args = (["--config", write_cfg(tmp_path, splitting_cfg(dim=20))]
            if command == "splitting" else ["--omega-x", "4.0", "--eps-x", "1.0"])
    assert cli.main([command, *args, "--out", str(out)]) == 2
    assert calls == [] and not (tmp_path / "missing").exists()
    assert sorted(os.listdir(tmp_path)) == (
        ["cfg.json"] if command == "splitting" else [])
    assert "--out" in capsys.readouterr().err


def test_json_table_writes_non_finite_cells_as_null(tmp_path):
    # eps2 = 5e-324: the EBK count and separatrix area overflow to inf
    cfg = {"fixed": {"delta": 1.0, "eps2": 5e-324, "dim": 20},
           "axes": [{"name": "delta", "start": 1.0, "stop": 2.0, "count": 2}]}
    out = tmp_path / "t.json"
    assert cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--format", "json"]) == 3   # wkb-domain

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    data = json.loads(out.read_text(), parse_constant=refuse)
    for name in ("n_ebk", "area"):
        assert [row[data["columns"].index(name)] for row in data["rows"]] == [None] * 2


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


def test_subnormal_eps2_semiclassical_overflow_is_an_error_row(tmp_path):
    # delta / (2 eps2) overflows, so the WKB, EBK and area cells are not finite
    cfg = {"fixed": {"eps2": 5e-324, "dim": 20},
           "axes": [{"name": "delta", "start": 1.0, "stop": 1.5, "count": 2}]}
    out = tmp_path / "t.csv"
    rc = cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    header, rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["error"] == "wkb-domain"
        assert cells["de_wkb"] == "nan" and cells["n_ebk"] == cells["area"] == "inf"
        assert float(cells["abs_de"]) > 0       # the quantum cells are still written


def test_tiny_eps2_wkb_overflow_error_is_an_error_row(tmp_path):
    # (1 + delta / (2 eps2)) ** 1.25 raises OverflowError in wkb_splitting
    cfg = {"fixed": {"eps2": 1e-250, "dim": 20},
           "axes": [{"name": "delta", "start": 1.0, "stop": 1.5, "count": 2}]}
    out = tmp_path / "t.csv"
    rc = cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    header, rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["error"] == "wkb-domain"
        assert cells["de_wkb"] == "nan"
        assert float(cells["abs_de"]) > 0 and cells["de_signed"] != ""


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
    assert cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
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


@pytest.mark.parametrize("scale, key, value", [("linear", "start", "nan"),
                                                ("linear", "stop", "inf"),
                                                ("log", "start", "nan"),
                                                ("log", "stop", "inf")])
def test_non_finite_axis_bound_is_a_config_error(tmp_path, scale, key, value):
    # each point of such a grid used to fail as its own error row (exit 3)
    axis = {"name": "delta", "start": 0.5, "stop": 2.0, "count": 3,
            "scale": scale, key: value}
    cfg = {"fixed": {"eps2": 0.5, "dim": 40}, "axes": [axis]}
    out = tmp_path / "t.csv"
    rc = cli.main(["splitting", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 2 and not out.exists()


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
    assert all(int(r[header.index("rank")]) == 40 for r in rows)


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
    assert int(rows[1][i_rank]) == 40 and rows[1][i_err] == ""


def test_lindblad_tx_truncation_failure_is_an_error_row(tmp_path):
    # dim 12 does not hold T_X at delta = 2: T_X at dim 24 differs
    cfg = {
        "fixed": {"delta": 2.0, "eps2": 2.17, "dim": 12, "kappa": 0.02,
                  "n_th": 0.05, "t_final": 6000.0},
        "axes": [{"name": "delta", "start": 2.0, "stop": 2.0, "count": 2}],
    }
    out = tmp_path / "tx.csv"
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    header, rows = read_csv(out)
    assert [r[header.index("error")] for r in rows] == ["TruncationRiskError"] * 2
    assert all(r[header.index("t_x")] == "" for r in rows)


def test_cli_entry_point_subprocess(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "fixed": {"eps2": 0.3, "dim": 50},
        "axes": [{"name": "delta", "start": 0.5, "stop": 1.5, "count": 2}],
    }))
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kerrcat.cli", "splitting",
         "--config", str(cfg), "--out", str(out), "--threads", "2"],
        capture_output=True)
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


@pytest.mark.parametrize("key, value", [("n_levels", "abc"), ("n_levels", "2.5")])
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


@pytest.mark.parametrize("override", ["state.localized=banana",
                                      "grid.extent=0", "grid.extent=-3",
                                      "grid.extent=abc", "grid.extent=nan"])
def test_bad_wigner_state_or_extent_is_a_config_error(tmp_path, monkeypatch,
                                                      override):
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    cfg = {"fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20},
           "state": {"localized": "right", "pair": 0},
           "grid": {"points": 11, "extent": 6.0}}
    out = tmp_path / "w.csv"
    rc = cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--set", override])
    assert rc == 2 and not out.exists() and calls == []


@pytest.mark.parametrize("command, override", [
    ("wigner", "state=3"), ("wigner", "state=right"), ("wigner", "grid=3"),
    ("splitting", "axes=3")])
def test_config_value_of_the_wrong_shape_is_a_config_error(tmp_path, command,
                                                           override):
    # a state or grid that is not a table, or axes that is not a list
    cfg = {"fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20}}
    out = tmp_path / "t.csv"
    rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--set", override])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_trajectory_with_fewer_than_two_samples_is_a_config_error(
        tmp_path, monkeypatch, n_samples):
    calls = []
    monkeypatch.setattr(cli.dynamics, "evolve", lambda cfg: calls.append(cfg))
    cfg = {"fixed": {"delta": 1.0, "eps2": 0.5, "dim": 20, "t_final": 100.0},
           "trajectory": True, "n_samples": n_samples}
    out = tmp_path / "traj.csv"
    rc = cli.main(["lindblad", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
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


# -- scipy is imported on first use ----------------------------------------------

SCIPY_PROBE = """\
import json, sys
import kerrcat, kerrcat.cli
rc = kerrcat.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
sys.exit(rc)
"""


def fresh_kerrcat(*argv):
    """``kerrcat *argv`` in a new process that finds this kerrcat; the last
    stdout line lists the scipy modules loaded."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                          capture_output=True, text=True, env=env)


LINDBLAD_TX = {"fixed": {"eps2": 2.17, "dim": 20, "kappa": 0.02, "n_th": 0.05,
                         "t_final": 6000.0},
               "axes": [{"name": "delta", "start": 1.9, "stop": 2.0, "count": 2}]}


@pytest.mark.parametrize("command, cfg, absent", [
    (None, None, ["scipy"]),
    ("calibrate", None, ["scipy"]),
    ("wigner", {"fixed": {"delta": 5.5, "eps2": 2.0, "dim": 30},
                "grid": {"points": 11}},
     ["scipy.linalg", "scipy.sparse", "scipy.optimize"]),
    ("splitting", {"fixed": {"eps2": 0.5, "dim": 30},
                   "axes": [{"name": "delta", "start": 0.5, "stop": 1.5,
                             "count": 2}]},
     ["scipy.optimize", "scipy.sparse", "scipy.special"]),
    ("lindblad", LINDBLAD_TX, ["scipy.optimize", "scipy.special"]),
], ids=["import", "calibrate", "wigner", "splitting", "lindblad"])
def test_each_subcommand_imports_only_the_scipy_it_uses(tmp_path, command, cfg,
                                                        absent):
    if command is None:
        argv = []
    elif command == "calibrate":
        argv = ["calibrate", "--omega-x", "4.0", "--eps-x", "1.0"]
    else:
        argv = [command, "--config", write_cfg(tmp_path, cfg),
                "--out", str(tmp_path / "out.csv")]
    proc = fresh_kerrcat(*argv)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not [m for m in loaded
                if any(m == a or m.startswith(a + ".") for a in absent)]


def test_worker_pool_imports_scipy_on_first_use(tmp_path):
    # in a fresh process the first scipy imports run inside the two workers
    cfg = write_cfg(tmp_path, LINDBLAD_TX)
    outs = [tmp_path / f"tx-{n}.csv" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        proc = fresh_kerrcat("lindblad", "--config", cfg, "--out", str(out),
                             "--threads", str(n))
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("flags", [["--omega-x", "nan", "--eps-x", "1.0"],
                                   ["--omega-x", "4.0", "--eps-x", "inf"],
                                   ["--omega-x", "4.0", "--eps-x", "1.0",
                                    "--kerr=-inf"],
                                   ["--omega-x", "4.0", "--eps-x", "1.0",
                                    "--kerr", "-1"],
                                   ["--omega-x", "4.0", "--eps-x", "1.0",
                                    "--kerr", "0"]])
def test_calibrate_rejects_non_finite_or_non_positive_inputs(tmp_path, flags):
    # JSON has no NaN or Infinity, and a Kerr <= 0 gives no cat
    out = tmp_path / "cal.json"
    assert cli.main(["calibrate", *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, dim, count", [("splitting", 20.9, 3),
                                                 ("splitting", 20, 3.7),
                                                 ("wigner", 20.9, 3)])
def test_fractional_dim_or_count_is_a_config_error(tmp_path, command, dim,
                                                   count):
    # neither is truncated to an integer
    cfg = {"fixed": {"delta": 1.0, "eps2": 0.5, "dim": dim}}
    if command == "wigner":
        cfg["grid"] = {"points": 11}
    else:
        cfg["axes"] = [{"name": "delta", "start": 0.5, "stop": 2.0,
                        "count": count}]
    out = tmp_path / "t.csv"
    rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 2 and not out.exists()


def _delta_axis(**kw):
    return {"name": "delta", "start": 0.5, "stop": 2.0, "count": 2, **kw}


@pytest.mark.parametrize("command, cfg, overrides, rc, err", [
    ("splitting", {"fixed": {"eps2": 0.5, "dim": 20},
                   "axes": [_delta_axis(), _delta_axis()]}, [], 2, "distinct"),
    ("splitting", {"fixed": {"eps2": 0.5, "dim": 20},
                   "axes": [_delta_axis(start=0, scale="log")]}, [], 2,
     "positive bounds"),
    ("splitting", [{"fixed": {"eps2": 0.5, "dim": 20}}], [], 2, "JSON object"),
    ("splitting", {"fixed": {"eps2": 0.5, "dim": 20}, "axes": [_delta_axis()]},
     ["foo"], 2, "key=value"),
    ("splitting", {"fixed": {"eps2": 0.5, "dim": 20.0},
                   "axes": [_delta_axis(count=2.0)]}, [], 0, ""),
    ("wigner", {"fixed": {"delta": 6.0, "eps2": 2.0, "dim": 20}},
     ["state.eigen=0"], 3, "TruncationRiskError")])
def test_config_paths_end_in_their_exit_code(tmp_path, capsys, command, cfg,
                                             overrides, rc, err):
    out = tmp_path / "t.csv"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), *sets]) == rc
    assert err in capsys.readouterr().err
    if rc:
        assert not out.exists()
        return
    # integral floats are read as the integers they equal
    ref = tmp_path / "ref.csv"
    cfg = {"fixed": {**cfg["fixed"], "dim": 20}, "axes": [_delta_axis()]}
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg, "ref.json"),
                     "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


# -- the config schema: null, ignored keys, one-key edits, README drift ----------

@pytest.mark.parametrize("command, cfg, key", [
    ("spectrum", {"fixed": {"dim": 12}, "n_levels": None,
                  "axes": [{"name": "delta", "start": 0.5, "stop": 1.0, "count": 2}]},
     "n_levels"),
    ("lindblad", {"fixed": {"delta": 1.0, "eps2": 0.5, "dim": 12, "t_final": 2.0},
                  "trajectory": True, "n_samples": None}, "n_samples"),
    ("wigner", {"fixed": {"dim": 12}, "grid": {"points": None, "extent": 4.0}},
     "grid.points")])
def test_null_value_means_absent(tmp_path, command, cfg, key):
    # each used to fail as a numeric failure (TypeError, exit 3)
    out, ref = tmp_path / "null.csv", tmp_path / "absent.csv"
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    del node[leaf]
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg, "ref.json"),
                     "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_null_required_key_is_a_config_error(tmp_path):
    rc, out = run_sweep(tmp_path, "splitting", [
        {"name": "delta", "start": 0.5, "stop": 1.0, "count": None}])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("wigner", {"fixed": {"dim": 20}, "grid": {"points": 11},
                "state": {"eigen": 1, "localized": "right"}}),
    ("lindblad", {"fixed": {"dim": 20, "t_final": 2.0}, "trajectory": True,
                  "axes": [{"name": "delta", "start": 0.5, "stop": 1.0,
                            "count": 2}]}),
    ("lindblad", {"fixed": {"dim": 20, "t_final": 2.0}, "trajectory": True,
                  "seed": 3}),
    ("lindblad", {"fixed": {"dim": 20, "t_final": 2.0}, "trajectory": "false",
                  "n_samples": 5}),
    ("lindblad", {"fixed": {"dim": 20, "t_final": 2.0}, "trajectory": 1,
                  "n_samples": 5})])
def test_key_that_would_be_ignored_is_a_config_error(tmp_path, monkeypatch,
                                                     capsys, command, cfg):
    # each used to run (exit 0), reading one key and ignoring the other
    calls = []
    monkeypatch.setattr(cli, "eigensystem", lambda h: calls.append(h))
    monkeypatch.setattr(cli.dynamics, "evolve", lambda c: calls.append(c))
    out = tmp_path / "t.csv"
    rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 2 and not out.exists() and calls == []
    assert "config error" in capsys.readouterr().err


def test_wigner_without_state_writes_eigenstate_0(tmp_path):
    cfg = {"fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20},
           "grid": {"points": 21}}
    out, ref = tmp_path / "default.csv", tmp_path / "eigen0.csv"
    assert cli.main(["wigner", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    cfg["state"] = {"eigen": 0}
    assert cli.main(["wigner", "--config", write_cfg(tmp_path, cfg, "e0.json"),
                     "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


VALID = {
    "splitting": ("splitting", {
        "fixed": {"delta": 1.0, "eps2": 0.5, "dim": 20},
        "axes": [{"name": "delta", "start": 0.5, "stop": 1.5, "count": 2}]}),
    "spectrum": ("spectrum", {
        "fixed": {"eps2": 0.5, "dim": 20}, "n_levels": 3,
        "axes": [{"name": "eps4", "start": 0.01, "stop": 0.04, "count": 2,
                  "scale": "log"}]}),
    "wigner-eigen": ("wigner", {
        "fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20}, "state": {"eigen": 1},
        "grid": {"points": 11}}),
    "wigner-well": ("wigner", {
        "fixed": {"delta": 1.0, "eps2": 1.0, "dim": 20},
        "state": {"localized": "left", "pair": 1},
        "grid": {"points": 11, "extent": 5.0}}),
    "lindblad": ("lindblad", {
        "fixed": {"delta": 1.0, "eps2": 0.5, "dim": 20, "kappa": 0.05,
                  "n_th": 0.05, "t_final": 100.0},
        "axes": [{"name": "kappa", "start": 0.02, "stop": 0.05, "count": 2}]}),
    "trajectory": ("lindblad", {
        "fixed": {"delta": 1.0, "eps2": 0.5, "eps4": 0.0, "dim": 20,
                  "kappa": 0.05, "n_th": 0.0, "t_final": 2.0},
        "trajectory": True, "n_samples": 5, "initial_state": "vacuum"}),
}


def library_table(name):
    """The table of ``VALID[name]`` built from library calls, without the CLI."""
    cfg = VALID[name][1]
    fixed = cfg["fixed"]
    ham = {k: v for k, v in fixed.items()
           if k in ("delta", "eps2", "eps4", "dim")}
    if name == "splitting":
        table = SweepResult(cli.SPLITTING_COLUMNS + ["error"])
        for d in np.linspace(0.5, 1.5, 2):
            ts = spectra.tunnel_splitting(HamiltonianParams(**dict(ham, delta=d)))
            geo = semiclassical.geometry(d, 0.5)
            table.append(d, 0.5, ts.abs_delta_e, ts.delta_e,
                         semiclassical.wkb_splitting(d, 0.5),
                         semiclassical.ebk_levels_exact(d, 0.5),
                         geo.barrier_height, geo.separatrix_area,
                         geo.region.value, "")
        return table
    if name == "spectrum":
        table = SweepResult(["delta", "eps2", "eps4", "level", "energy", "parity",
                             "error"])
        for e4 in np.geomspace(0.01, 0.04, 2):
            energies, parities = spectra.levels(
                HamiltonianParams(delta=0.0, **ham, eps4=e4))
            for k in range(3):
                table.append(0.0, 0.5, e4, k, float(energies[k]), int(parities[k]), "")
        return table
    if name.startswith("wigner"):
        es = spectra.eigensystem(fock.build_hamiltonian(HamiltonianParams(**ham)))
        state = (es.eigenvectors[:, 1] if name == "wigner-eigen"
                 else spectra.localized_pair(es, 1)[1])
        return wigner_function(state, points=11, extent=cfg["grid"].get("extent"))
    rates = {k: fixed[k] for k in ("n_th", "t_final")}
    if name == "trajectory":
        return dynamics.evolve(dynamics.LindbladConfig(
            params=HamiltonianParams(**ham), kappa=0.05, **rates, n_samples=5,
            initial_state="vacuum"))._table()
    table = SweepResult(["kappa", "t_x", "lower_bound", "rank", "error"])
    for kappa in np.linspace(0.02, 0.05, 2):
        est = dynamics.tx_lifetime(dynamics.LindbladConfig(
            params=HamiltonianParams(**ham), kappa=kappa, **rates))
        table.append(kappa, est.t_x, est.lower_bound, est.rank, "")
    return table


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_config_writes_the_library_table(tmp_path, name):
    command, cfg = VALID[name]
    out, ref = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
    library_table(name).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()


def schema_keys(spec):
    """Every key name of a SCHEMAS entry, at any level."""
    if isinstance(spec, list):
        return schema_keys(spec[0])
    if isinstance(spec, cli.Switch):
        return {spec.key}.union(*map(schema_keys, spec.tables.values()))
    if isinstance(spec, dict):
        return set(spec).union(*map(schema_keys, spec.values()))
    return set()


ALL_KEYS = set().union(*map(schema_keys, cli.SCHEMAS.values()))
NAN, INF = float("nan"), float("inf")
# values outside each key's domain, in the table or in the model
OUT_OF_DOMAIN = {
    "count": [1, 0, -3], "n_levels": [0, -1], "points": [1, 0], "n_samples": [1],
    "extent": [0.0, -1.0, INF], "pair": [-1, 10], "eigen": [-1, 20],
    "name": ["zeta", "kerr"], "scale": ["cubic"], "localized": ["up"],
    "initial_state": ["bogus"], "eps2": [-0.5, NAN], "eps4": [-0.1],
    "dim": [2, -5], "kappa": [-0.1], "n_th": [-1.0],
    "t_final": [0.0, -INF], "delta": [NAN, INF], "stop": [INF], "start": [NAN]}
WRONG_TYPE = {dict: [3, "x", []], list: [3, {}], float: ["1.5", True, [1.0]],
              int: ["2", True, 2.5, [2]], str: [3, False, ["right"]],
              bool: ["true", 1, 0]}


def key_paths(node, prefix=()):
    """Path of every key in the config ``node``, tables and lists included."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        if not isinstance(key, int):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_key_edit_is_a_config_error_naming_the_key(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(VALID)))
    command, cfg = VALID[name]
    cfg = json.loads(json.dumps(cfg))
    path = data.draw(st.sampled_from(list(key_paths(cfg))))
    parent = cfg
    for part in path[:-1]:
        parent = parent[part]
    key, value = path[-1], parent[path[-1]]
    kinds = ["misspelt", "wrong type"] + ["out of domain"] * (key in OUT_OF_DOMAIN)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "misspelt":
        at = data.draw(st.integers(0, len(key)))
        new = key[:at] + data.draw(st.sampled_from("qxz_")) + key[at:]
        assume(new not in ALL_KEYS)
        # rename in place: the misspelt key keeps its position in the table
        edited = {(new if k == key else k): v for k, v in parent.items()}
        parent.clear()
        parent.update(edited)
        path = path[:-1] + (new,)
    else:
        pool = (OUT_OF_DOMAIN[key] if kind == "out of domain"
                else WRONG_TYPE[type(value)])
        parent[key] = data.draw(st.sampled_from(pool))
    tmp = tmp_path_factory.mktemp("edit")
    out, err = tmp / "t.csv", io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", write_cfg(tmp, cfg), "--out", str(out)])
    line = err.getvalue()
    dotted = ".".join(map(str, path))
    assert rc == 2 and not out.exists(), (dotted, line)
    # a model-domain error on the fixed table reads "fixed: <the model's message>"
    assert dotted in line or (line.startswith("config error: fixed: ")
                              and path[0] == "fixed" and key in line), (dotted, line)


def readme_cli():
    """(JSON configs, ``sh`` block kerrcat command lines) of README.md."""
    text = README.read_text()
    configs = [json.loads(block) for block in
               re.findall(r"```json\n(.*?)```", text, flags=re.S)]
    shell = "".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S))
    lines = [shlex.split(cmd.replace("\\\n", " ")) for cmd in
             re.findall(r"^kerrcat (?:[^\n]*\\\n)*[^\n]*", shell, flags=re.M)]
    return configs, lines


def test_readme_lists_every_subcommand():
    line = re.search(r"^Subcommands: (.*)$", README.read_text(), flags=re.M)[1]
    assert re.findall(r"`(\w+)`", line) == [*cli._COMMANDS, "calibrate"]


def test_readme_configs_and_command_lines_pass_check_config(tmp_path):
    # the README's key list names every key of SCHEMAS
    readme = README.read_text()
    assert [key for key in sorted(ALL_KEYS) if f"`{key}`" not in readme] == []
    configs, lines = readme_cli()
    assert configs and len(lines) >= 4
    for cfg in configs:
        cli.check_config("splitting", cfg)
    path = write_cfg(tmp_path, configs[0])
    for argv in lines:
        args = cli.build_parser().parse_args(
            [path if arg.endswith(".json") else arg for arg in argv[1:]])
        if args.command != "calibrate":
            cli.check_config(args.command, cli.load_config(args.config,
                                                          args.overrides))
