"""Configuration-driven command line: sweeps in, analysis-ready tables out.

    kerrcat <subcommand> --config cfg.json [--set key=value ...] \
            --out table.csv --format csv|json

Subcommands: spectrum, splitting, wkb, ebk, geometry, wigner, lindblad,
calibrate.  The config is a JSON object; ``--set`` overrides win (dotted
paths address nested keys).  Exit codes: 0 success, 2 config error,
3 numeric failure (partial results are still written with an error column
where possible).  KERRCAT_THREADS overrides the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dynamics, semiclassical, spectra
from .fock import HamiltonianParams, build_hamiltonian
from .phasespace import wigner_function
from .spectra import eigensystem, localized_pair
from .tables import SweepResult

SPLITTING_COLUMNS = ["delta", "eps2", "abs_de", "de_signed", "de_wkb",
                     "n_ebk", "barrier", "area", "phase", "error"]


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


def _axis_values(axis: dict) -> np.ndarray:
    try:
        name = axis["name"]
        start, stop = float(axis["start"]), float(axis["stop"])
        count = int(axis["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad axis spec {axis!r}: {exc}") from exc
    if count < 2:
        raise ConfigError("axis count must be >= 2")
    if name not in ("delta", "eps2", "eps4", "kappa", "n_th"):
        raise ConfigError(f"unknown axis name {name!r}")
    scale = axis.get("scale", "linear")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log axis needs positive bounds")
        return np.geomspace(start, stop, count)
    if scale != "linear":
        raise ConfigError(f"unknown axis scale {scale!r}")
    return np.linspace(start, stop, count)


def _grid(cfg: dict):
    axes = cfg.get("axes")
    if not axes:
        raise ConfigError("config needs an 'axes' list with 1 or 2 entries")
    if len(axes) > 2:
        raise ConfigError("at most two swept axes are supported")
    values = [_axis_values(ax) for ax in axes]
    names = [ax["name"] for ax in axes]
    if len(set(names)) != len(names):
        raise ConfigError("axes must name distinct parameters")
    if len(axes) == 1:
        return names, [(v,) for v in values[0]]
    return names, [(u, v) for u in values[0] for v in values[1]]


def _params(cfg: dict, **over) -> HamiltonianParams:
    fixed = dict(cfg.get("fixed", {}))
    fixed.update(over)
    return HamiltonianParams(
        delta=float(fixed.get("delta", 0.0)),
        kerr=float(fixed.get("kerr", 1.0)),
        eps2=float(fixed.get("eps2", 0.0)),
        eps4=float(fixed.get("eps4", 0.0)),
        dim=int(fixed.get("dim", 0)),
    )


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


def _write(table, out: str, fmt: str):
    """Write a ``SweepResult`` or a ``WignerGrid`` as CSV or JSON."""
    if fmt == "csv":
        table.to_csv(out)
    else:
        table.to_json(out)


# -- subcommand bodies ----------------------------------------------------------

def _splitting_point(cfg, names, point):
    p = _params(cfg, **dict(zip(names, point)))
    err = ""
    geo = semiclassical.geometry(p.delta, p.eps2, p.kerr)
    n_ebk = semiclassical.ebk_levels_exact(p.delta, p.eps2, p.kerr)
    try:
        de_wkb = semiclassical.wkb_splitting(p.delta, p.eps2, p.kerr)
    except ValueError:
        de_wkb = float("nan")
        err = "wkb-domain"
    ts = spectra.tunnel_splitting(p)
    return (p.delta, p.eps2, ts.abs_delta_e, ts.delta_e, de_wkb, n_ebk,
            geo.barrier_height, geo.separatrix_area, geo.region.value, err)


def cmd_splitting(cfg: dict, args) -> SweepResult:
    names, points = _grid(cfg)
    for name in names:
        if name not in ("delta", "eps2"):
            raise ConfigError(f"splitting sweeps delta/eps2, not {name!r}")
    table = SweepResult(SPLITTING_COLUMNS)
    rows = _parallel_map(lambda pt: _splitting_point(cfg, names, pt), points,
                         _n_threads(args))
    for row in rows:
        table.append(*row)
    table.meta["subcommand"] = args.command
    if "seed" in cfg:
        table.meta["seed"] = int(cfg["seed"])
    return table


def cmd_spectrum(cfg: dict, args) -> SweepResult:
    names, points = _grid(cfg)
    n_levels = int(cfg.get("n_levels", 8))
    table = SweepResult(["delta", "eps2", "eps4", "level", "energy", "parity"])

    def one(point):
        over = dict(zip(names, point))
        p = _params(cfg, **over)
        es = eigensystem(build_hamiltonian(p))
        return p, es

    results = _parallel_map(one, points, _n_threads(args))
    for p, es in results:
        for k in range(min(n_levels, p.dim)):
            table.append(p.delta, p.eps2, p.eps4, k, float(es.eigenvalues[k]),
                         int(es.parities[k]))
    table.meta["subcommand"] = "spectrum"
    return table


def cmd_wigner(cfg: dict, args) -> None:
    p = _params(cfg)
    es = eigensystem(build_hamiltonian(p))
    sel = cfg.get("state", {"eigen": 0})
    if "eigen" in sel:
        state = es.eigenvectors[:, int(sel["eigen"])]
    elif "localized" in sel:
        right, left = localized_pair(es, int(sel.get("pair", 0)))
        state = right if sel["localized"] == "right" else left
    else:
        raise ConfigError("state must specify 'eigen' or 'localized'")
    grid_cfg = cfg.get("grid", {})
    wg = wigner_function(state, points=int(grid_cfg.get("points", 201)),
                         extent=grid_cfg.get("extent"))
    _write(wg, args.out, args.format)


def cmd_lindblad(cfg: dict, args) -> SweepResult:
    fixed = cfg.get("fixed", {})
    kappa = float(fixed.get("kappa", 0.02))
    n_th = float(fixed.get("n_th", 0.05))
    t_final = float(fixed.get("t_final", 4000.0))

    if cfg.get("trajectory"):
        p = _params(cfg)
        run = dynamics.LindbladConfig(
            params=p, kappa=kappa, n_th=n_th, t_final=t_final,
            n_samples=int(cfg.get("n_samples", 201)),
            initial_state=str(cfg.get("initial_state", "right_well")))
        table = dynamics.evolve(run)._table()
        table.meta["subcommand"] = "lindblad-trajectory"
        return table

    names, points = _grid(cfg)
    table = SweepResult([*names, "t_x", "lower_bound", "rank", "error"])

    def one(point):
        over = dict(zip(names, point))
        kw = {k: float(over.pop(k)) for k in ("kappa", "n_th") if k in over}
        p = _params(cfg, **over)
        try:
            est = dynamics.tx_lifetime(dynamics.LindbladConfig(
                params=p, kappa=kw.get("kappa", kappa),
                n_th=kw.get("n_th", n_th), t_final=t_final))
            return (*point, est.t_x, est.lower_bound, est.rank, "")
        except Exception as exc:   # numeric failure: row carries the code
            return (*point, float("nan"), False, "", type(exc).__name__)

    for row in _parallel_map(one, points, _n_threads(args)):
        table.append(*row)
    table.meta["subcommand"] = "lindblad"
    return table


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

    for name in ("spectrum", "splitting", "wkb", "ebk", "geometry",
                 "wigner", "lindblad"):
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
        if args.command == "wigner":
            cmd_wigner(cfg, args)
            return 0
        if args.command == "spectrum":
            table = cmd_spectrum(cfg, args)
        elif args.command == "lindblad":
            table = cmd_lindblad(cfg, args)
        else:   # splitting / wkb / ebk / geometry share one combined table
            table = cmd_splitting(cfg, args)
        _write(table, args.out, args.format)
        if "error" in table.columns:
            bad = [r for r in table.rows if r[table.columns.index("error")]]
            if bad:
                return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
