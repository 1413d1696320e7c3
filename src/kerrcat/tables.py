"""Tables and the one CSV/JSON writer of the package.

Every file kerrcat writes goes through :func:`write_csv` or
:func:`write_json`; :func:`format_sig` decides every CSV cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SweepResult", "format_sig", "write_csv", "write_json"]

SIG_DIGITS = 12
_SPEC = f".{SIG_DIGITS}g"


def format_sig(x) -> str:
    """Render a cell with 12 significant digits (golden-file stable)."""
    if isinstance(x, float):
        return f"{x:{_SPEC}}"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):{_SPEC}}"


def write_csv(path, columns, rows) -> None:
    """Header line, then one line per row with every cell through format_sig."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(map(format_sig, row)) + "\n")


def write_json(path, payload, indent=None) -> None:
    """One JSON document and a newline.  ``json.dumps`` with ``indent=None``
    runs the C encoder, which ``json.dump`` to a file never does; the bytes
    are the same."""
    text = json.dumps(payload, indent=indent, default=float) + "\n"
    with open(path, "w") as f:
        f.write(text)


@dataclass
class SweepResult:
    """Rectangular record set: one tuple per grid point, fixed column order."""

    columns: list
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows])

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, self.rows)

    def to_json(self, path) -> None:
        write_json(path, {
            "columns": list(self.columns),
            # NaN and +-inf have no JSON spelling: every such cell is null
            "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                      for v in row] for row in self.rows],
            "meta": self.meta,
        }, indent=1)
