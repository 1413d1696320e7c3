"""Configuration-driven command line: sweeps in, analysis-ready tables out.

    kerrcat <subcommand> --config cfg.json [--set key=value ...] \
            --out table.csv --format csv|json

Subcommands: spectrum, splitting, wkb, ebk, geometry, wigner, lindblad,
calibrate.  The config is a JSON object; ``--set`` overrides win (dotted
paths address nested keys).  A sweep takes a ``fixed`` table and one or two
``axes``: delta and eps2 for splitting/wkb/ebk/geometry, also eps4 for
spectrum, also kappa and n_th for lindblad.  Every sweep table ends in an
``error`` column.  Exit codes: 0 success, 2 config error (including a
``fixed`` value outside the model's domain, a non-integer ``seed``,
``n_levels``, ``n_samples``, ``state.eigen``, ``state.pair`` or
``grid.points``, ``n_levels`` < 1, ``state.eigen`` outside [0, dim),
``state.pair`` outside [0, dim // 2), ``grid.points`` < 2, and a trajectory
``initial_state`` other than right_well, left_well or vacuum, all found
before any point is computed; no file is written), 3 numeric failure (a
point that raises becomes one row with its parameter cells, empty result
cells and the exception class in ``error``; the table is still written).
KERRCAT_THREADS overrides the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import dynamics, semiclassical, spectra
from .fock import HamiltonianParams, build_hamiltonian
from .phasespace import wigner_function
from .spectra import eigensystem, localized_pair
from .tables import SweepResult

SPLITTING_COLUMNS = ["delta", "eps2", "abs_de", "de_signed", "de_wkb",
                     "n_ebk", "barrier", "area", "phase"]


class ConfigError(ValueError):
    pass


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {}
    if path:
        try:
            with open(path) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override non-table key {key!r}")
        node[parts[-1]] = _coerce(val)
    return cfg


def _axis_values(axis: dict, allowed) -> np.ndarray:
    try:
        name = axis["name"]
        start, stop = float(axis["start"]), float(axis["stop"])
        count = int(axis["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad axis spec {axis!r}: {exc}") from exc
    if count < 2:
        raise ConfigError("axis count must be >= 2")
    if name not in allowed:
        raise ConfigError(f"axis {name!r} is not one of {', '.join(allowed)}")
    scale = axis.get("scale", "linear")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log axis needs positive bounds")
        return np.geomspace(start, stop, count)
    if scale != "linear":
        raise ConfigError(f"unknown axis scale {scale!r}")
    return np.linspace(start, stop, count)


def _grid(cfg: dict, axes):
    """(names, points) of the config's swept axes, each named in ``axes``."""
    specs = cfg.get("axes")
    if not specs:
        raise ConfigError("config needs an 'axes' list with 1 or 2 entries")
    if len(specs) > 2:
        raise ConfigError("at most two swept axes are supported")
    values = [_axis_values(ax, axes) for ax in specs]
    names = [ax["name"] for ax in specs]
    if len(set(names)) != len(names):
        raise ConfigError("axes must name distinct parameters")
    if len(specs) == 1:
        return names, [(v,) for v in values[0]]
    return names, [(u, v) for u in values[0] for v in values[1]]


def _params(cfg: dict, **over) -> HamiltonianParams:
    """Model parameters of the ``fixed`` table updated by ``over``.  The
    ``fixed`` table alone outside the model's domain is a config error."""
    try:
        fixed = {**cfg.get("fixed", {}), **over}
        return HamiltonianParams(
            delta=float(fixed.get("delta", 0.0)),
            kerr=float(fixed.get("kerr", 1.0)),
            eps2=float(fixed.get("eps2", 0.0)),
            eps4=float(fixed.get("eps4", 0.0)),
            dim=int(fixed.get("dim", 0)),
        )
    except (TypeError, ValueError) as exc:
        if over:
            raise
        raise ConfigError(f"bad fixed parameters: {exc}") from exc


def _int_setting(cfg: dict, key: str, default=None):
    """Integer config value ``key`` (``default`` when absent); anything that
    is not an integer is a config error."""
    val = cfg.get(key, default)
    if val is None:
        return None
    try:
        num = int(val)
    except (TypeError, ValueError, OverflowError):
        num = None
    if num is None or (isinstance(val, float) and num != val):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    return num


def _n_threads(args) -> int:
    env = os.environ.get("KERRCAT_THREADS")
    if args.threads:
        return max(1, args.threads)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"KERRCAT_THREADS={env!r} is not an integer")
    return os.cpu_count() or 1


def _parallel_map(fn, items, n_threads):
    if n_threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, items))


def _sweep(cfg: dict, args, axes, columns, point) -> SweepResult:
    """Table of ``point(params, over)`` rows over the config's grid of
    ``axes``, in grid order, with the columns ``columns(names)`` + error.

    ``over`` maps the swept names to the point's values.  A point that
    raises becomes one row: its parameter cells from ``fixed`` and the point,
    ``None`` in the other result cells, the exception class in ``error``.
    """
    names, points = _grid(cfg, axes)
    fixed = vars(_params(cfg))
    seed = _int_setting(cfg, "seed")
    cols = columns(names)
    n_threads = _n_threads(args)

    def one(values):
        over = dict(zip(names, values))
        try:
            return point(_params(cfg, **over), over)
        except Exception as exc:   # numeric failure: the row carries the code
            cells = {**fixed, **over}
            return [(*(cells.get(c) for c in cols), type(exc).__name__)]

    table = SweepResult([*cols, "error"])
    for rows in _parallel_map(one, points, n_threads):
        for row in rows:
            table.append(*row)
    table.meta["subcommand"] = args.command
    if seed is not None:
        table.meta["seed"] = seed
    return table


# -- subcommand bodies ----------------------------------------------------------

def _splitting_point(p: HamiltonianParams, over) -> list:
    err = ""
    geo = semiclassical.geometry(p.delta, p.eps2, p.kerr)
    n_ebk = semiclassical.ebk_levels_exact(p.delta, p.eps2, p.kerr)
    try:
        de_wkb = semiclassical.wkb_splitting(p.delta, p.eps2, p.kerr)
    except ValueError:
        de_wkb = float("nan")
        err = "wkb-domain"
    ts = spectra.tunnel_splitting(p)
    return [(p.delta, p.eps2, ts.abs_delta_e, ts.delta_e, de_wkb, n_ebk,
             geo.barrier_height, geo.separatrix_area, geo.region.value, err)]


def cmd_splitting(cfg: dict, args) -> SweepResult:
    return _sweep(cfg, args, ("delta", "eps2"), lambda names: SPLITTING_COLUMNS,
                  _splitting_point)


def cmd_spectrum(cfg: dict, args) -> SweepResult:
    n_levels = _int_setting(cfg, "n_levels", 8)
    if n_levels < 1:
        raise ConfigError(f"n_levels must be >= 1, got {n_levels}")

    def point(p, over):
        es = eigensystem(build_hamiltonian(p))
        return [(p.delta, p.eps2, p.eps4, k, float(es.eigenvalues[k]),
                 int(es.parities[k]), "") for k in range(min(n_levels, p.dim))]

    return _sweep(cfg, args, ("delta", "eps2", "eps4"),
                  lambda names: ["delta", "eps2", "eps4", "level", "energy",
                                 "parity"], point)


def cmd_wigner(cfg: dict, args):
    sel = cfg.get("state", {"eigen": 0})
    if "eigen" not in sel and "localized" not in sel:
        raise ConfigError("state must specify 'eigen' or 'localized'")
    key = "eigen" if "eigen" in sel else "pair"
    index = _int_setting(sel, key, 0)
    grid_cfg = cfg.get("grid", {})
    points = _int_setting(grid_cfg, "points", 201)
    p = _params(cfg)
    bound = p.dim if key == "eigen" else p.dim // 2
    if not 0 <= index < bound:
        raise ConfigError(f"state.{key} must be in [0, {bound}), got {index}")
    if points < 2:
        raise ConfigError(f"grid.points must be >= 2, got {points}")
    es = eigensystem(build_hamiltonian(p))
    if "eigen" in sel:
        state = es.eigenvectors[:, index]
    else:
        right, left = localized_pair(es, index)
        state = right if sel["localized"] == "right" else left
    return wigner_function(state, points=points, extent=grid_cfg.get("extent"))


def _lindblad_config(cfg: dict, p: HamiltonianParams, over: dict):
    """Evolution settings of the ``fixed`` table updated by ``over``; as in
    ``_params``, the ``fixed`` rates alone outside their domain are a config
    error."""
    run = {**cfg.get("fixed", {}), **over}
    try:
        return dynamics.LindbladConfig(
            params=p, kappa=float(run.get("kappa", 0.02)),
            n_th=float(run.get("n_th", 0.05)),
            t_final=float(run.get("t_final", 4000.0)))
    except (TypeError, ValueError) as exc:
        if over:
            raise
        raise ConfigError(f"bad fixed Lindblad rates: {exc}") from exc


def cmd_lindblad(cfg: dict, args) -> SweepResult:
    base = _lindblad_config(cfg, _params(cfg), {})
    if cfg.get("trajectory"):
        init = cfg.get("initial_state", "right_well")
        if init not in ("right_well", "left_well", "vacuum"):
            raise ConfigError("initial_state must be right_well, left_well or "
                              f"vacuum, got {init!r}")
        table = dynamics.evolve(replace(
            base, n_samples=_int_setting(cfg, "n_samples", 201),
            initial_state=init))._table()
        table.meta["subcommand"] = "lindblad-trajectory"
        return table

    def point(p, over):
        est = dynamics.tx_lifetime(_lindblad_config(cfg, p, over))
        return [(*over.values(), est.t_x, est.lower_bound, est.rank, "")]

    return _sweep(cfg, args, ("delta", "eps2", "eps4", "kappa", "n_th"),
                  lambda names: [*names, "t_x", "lower_bound", "rank"], point)


def cmd_calibrate(args) -> dict:
    omega_x, eps_x, kerr = args.omega_x, args.eps_x, args.kerr
    if eps_x <= 0:
        raise ConfigError("eps-x must be positive")
    alpha0_sq = omega_x**2 / (16.0 * eps_x**2)
    report = {
        "omega_x": omega_x,
        "eps_x": eps_x,
        "kerr": kerr,
        "alpha0_sq": alpha0_sq,
        "eps2": kerr * alpha0_sq,
    }
    return report


# -- entry point ----------------------------------------------------------------

# config-driven subcommands: each returns the SweepResult or WignerGrid that
# ``main`` writes
_COMMANDS = {"spectrum": cmd_spectrum, "splitting": cmd_splitting,
             "wkb": cmd_splitting, "ebk": cmd_splitting,
             "geometry": cmd_splitting, "wigner": cmd_wigner,
             "lindblad": cmd_lindblad}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kerrcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config path")
        sp.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key")
        sp.add_argument("--out", required=True, help="output file path")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: all cores)")

    for name in _COMMANDS:
        common(sub.add_parser(name))

    cal = sub.add_parser("calibrate")
    cal.add_argument("--omega-x", type=float, required=True,
                     help="cat-Rabi frequency Omega_x")
    cal.add_argument("--eps-x", type=float, required=True,
                     help="Rabi drive amplitude eps_x")
    cal.add_argument("--kerr", type=float, default=1.0)
    cal.add_argument("--out", default="-")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "calibrate":
            report = cmd_calibrate(args)
            text = json.dumps(report, indent=1)
            if args.out == "-":
                print(text)
            else:
                with open(args.out, "w") as f:
                    f.write(text + "\n")
            return 0
        cfg = load_config(args.config, args.overrides)
        table = _COMMANDS[args.command](cfg, args)
        (table.to_csv if args.format == "csv" else table.to_json)(args.out)
        # sweep tables end in the error column; a non-empty cell is a failure
        failed = "error" in getattr(table, "columns", ()) and any(
            row[-1] for row in table.rows)
        return 3 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
