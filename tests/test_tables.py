import json

import numpy as np
import pytest

from kerrcat.phasespace import WignerGrid, wigner_function
from kerrcat.tables import SweepResult, format_sig, write_json


@pytest.mark.parametrize("value, text", [
    (0.1 + 0.2, "0.3"),
    (1.0 / 3.0, "0.333333333333"),
    (2.5e-17, "2.5e-17"),
    (np.float64(-1.0 / 7.0), "-0.142857142857"),
    (np.float32(0.1), "0.10000000149"),
    (True, "True"),
    (np.bool_(False), "False"),
    (42, "42"),
    (np.int64(-7), "-7"),
    (None, ""),
    ("wkb-domain", "wkb-domain"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (-0.0, "-0"),
])
def test_format_sig_cells(value, text):
    assert format_sig(value) == text


# -- byte equality with the earlier writers --------------------------------------

def _json_dump_reference(path, payload, indent=None):
    """The earlier write_json: json.dump to the file, then a newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=indent, default=float)
        f.write("\n")


def _grid(points=41):
    state = np.zeros(20)
    state[[0, 3]] = (0.6, 0.8)
    return wigner_function(state, points=points, extent=4.0)


def test_write_json_matches_json_dump_for_a_grid(tmp_path):
    grid = _grid()
    grid.to_json(tmp_path / "new.json")
    _json_dump_reference(tmp_path / "ref.json", {
        "x": {"start": float(grid.x[0]), "stop": float(grid.x[-1]),
              "count": int(len(grid.x))},
        "p": {"start": float(grid.p[0]), "stop": float(grid.p[-1]),
              "count": int(len(grid.p))},
        "cell_area": grid.cell_area,
        "values": grid.values.tolist(),
    })
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("values", [(), (1.0,), (1.0, 2.0, 3.0)])
def test_append_rejects_a_row_of_the_wrong_length(values):
    table = SweepResult(["a", "b"])
    with pytest.raises(ValueError, match=f"expected 2 values, got {len(values)}"):
        table.append(*values)


@pytest.mark.parametrize("indent", [None, 1])
def test_write_json_matches_json_dump_for_numpy_scalars(tmp_path, indent):
    payload = {"columns": ["a", "b"], "meta": {"seed": 3, "subcommand": "splitting"},
               "rows": [[None, np.float64(-1.0 / 7.0), np.int64(-7), np.bool_(True),
                         np.float32(0.1), True, 2, "wkb-domain", float("inf"),
                         float("nan"), -0.0, 2.5e-17]]}
    write_json(tmp_path / "new.json", payload, indent=indent)
    _json_dump_reference(tmp_path / "ref.json", payload, indent=indent)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_sweep_result_json_matches_json_dump(tmp_path):
    table = SweepResult(["delta", "n", "ok", "error"], meta={"seed": np.int64(5)})
    table.append(np.float64(0.5), np.int64(3), np.bool_(False), "")
    table.append(float("nan"), 4, True, "ValueError")
    table.to_json(tmp_path / "new.json")
    _json_dump_reference(tmp_path / "ref.json", {
        "columns": ["delta", "n", "ok", "error"],
        "rows": [[0.5, np.int64(3), np.bool_(False), ""], [None, 4, True, "ValueError"]],
        "meta": {"seed": np.int64(5)}}, indent=1)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("shape", [(41, 41), (3, 0), (0, 3)])
def test_grid_csv_matches_per_cell_format_sig(tmp_path, shape):
    grid = _grid()
    grid.values[3, 4] = -0.0
    grid.values[5, 6] = 2.5e-17
    grid = WignerGrid(grid.x[:shape[0]], grid.p[:shape[1]],
                      grid.values[:shape[0], :shape[1]], grid.cell_area)
    grid.to_csv(tmp_path / "new.csv")
    expected = "x,p,w\n" + "".join(
        ",".join(map(format_sig, (xv, pv, w))) + "\n"
        for xv, row in zip(grid.x.tolist(), grid.values.tolist())
        for pv, w in zip(grid.p.tolist(), row))
    assert (tmp_path / "new.csv").read_text() == expected
