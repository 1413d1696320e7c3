"""Small tabular record set used by sweeps and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SweepResult", "format_sig"]

SIG_DIGITS = 12


def format_sig(x) -> str:
    """Render a cell with 12 significant digits (golden-file stable)."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.{SIG_DIGITS}g}"


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
        with open(path, "w") as f:
            f.write(",".join(self.columns) + "\n")
            for row in self.rows:
                f.write(",".join(format_sig(v) for v in row) + "\n")

    def to_json(self, path) -> None:
        payload = {
            "columns": list(self.columns),
            "rows": [[None if (isinstance(v, float) and np.isnan(v)) else v for v in row]
                     for row in self.rows],
            "meta": self.meta,
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, default=float)
            f.write("\n")
