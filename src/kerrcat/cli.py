"""Configuration-driven command line: sweeps in, analysis-ready tables out.

    kerrcat <subcommand> --config cfg.json [--set key=value ...] \
            --out table.csv --format csv|json

Subcommands: spectrum, splitting, wigner, lindblad, calibrate; ``splitting``
writes the one table of the top-pair splitting beside its WKB, EBK and
metapotential estimates.  The config is a JSON object; ``--set`` overrides
win (dotted paths address nested keys).  ``SCHEMAS`` lists every key of
each subcommand with its type, default and domain; ``null`` means absent.
A sweep takes a ``fixed`` table and one or two ``axes``.  Every sweep table
ends in an ``error`` column.  Exit codes: 0 success; 2 config error, with no
file written and no point computed: a key, type or value that ``SCHEMAS``
rejects, a ``fixed`` value outside the model's domain, an ``--out`` that
names a directory or sits in one that does not exist, or a ``calibrate``
input that is not finite, or ``--eps-x`` or ``--kerr`` <= 0.
3 numeric failure: a point that raises becomes one row with its parameter
cells, empty result cells and the exception class in ``error``; the table
is still written.  Energies are in units of the Kerr coefficient K and
times in 1/K.  Only ``calibrate`` takes a measured K (``--kerr``): its
``alpha0_sq`` is eps2 in units of K, the value for ``fixed.eps2``.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import dynamics, semiclassical, spectra
from .fock import HamiltonianParams, build_hamiltonian
from .phasespace import wigner_function
from .spectra import eigensystem, localized_pair
from .tables import SweepResult, write_json

SPLITTING_COLUMNS = ["delta", "eps2", "abs_de", "de_signed", "de_wkb",
                     "n_ebk", "barrier", "area", "phase"]


class ConfigError(ValueError):
    pass


# -- config schema ---------------------------------------------------------------

# A table maps each key to a table, a one-table list (1 or 2 such tables),
# a Switch or a (type, default, domain) leaf: a default of ... marks a key
# that must be given, and a domain is None, a tuple of allowed values or a
# bound such as ">= 2".  Switch(key, default, tables) is a table whose other
# keys are ``tables[value of key]`` (``default`` when absent).  Model-domain
# checks of the ``fixed`` keys stay in HamiltonianParams and LindbladConfig.
Switch = namedtuple("Switch", "key default tables")
_HAM = {"delta": (float, 0.0, None), "eps2": (float, 0.0, None),
        "eps4": (float, 0.0, None),
        "dim": (int, 0, None)}      # dim 0: fock.default_dim
_RATES = {"kappa": (float, 0.02, None), "n_th": (float, 0.05, None),
          "t_final": (float, 4000.0, None)}


def _sweep_schema(axes, fixed=_HAM, **extra) -> dict:
    axis = {"name": (str, ..., axes), "start": (float, ..., None),
            "stop": (float, ..., None), "count": (int, ..., ">= 2"),
            "scale": (str, "linear", ("linear", "log"))}
    return {"fixed": fixed, "axes": [axis], **extra}


_WELL = {"pair": (int, 0, ">= 0")}
SCHEMAS = {
    "splitting": _sweep_schema(("delta", "eps2")),
    "spectrum": _sweep_schema(("delta", "eps2", "eps4"),
                              n_levels=(int, 8, ">= 1")),
    "wigner": {
        "fixed": _HAM,
        "state": Switch("localized", None, {None: {"eigen": (int, 0, ">= 0")},
                                            "right": _WELL, "left": _WELL}),
        "grid": {"points": (int, 201, ">= 2"), "extent": (float, None, "> 0")}},
    "lindblad": Switch("trajectory", False, {
        False: _sweep_schema(("delta", "eps2", "eps4", "kappa", "n_th"),
                             {**_HAM, **_RATES}),
        True: {"fixed": {**_HAM, **_RATES}, "n_samples": (int, 201, ">= 2"),
               "initial_state": (str, "right_well",
                                 ("right_well", "left_well", "vacuum"))}}),
}
_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _leaf(value, kind, default, domain, path):
    if value is None:
        if default is ...:
            raise ConfigError(f"{path} is required")
        return default
    if kind is float and type(value) is int:
        value = float(value) if abs(value) < 1e308 else math.inf
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be {_KINDS[kind]}, got {value!r}")
    if isinstance(domain, str):
        op, bound = domain.split()
        bad = value < float(bound) or op == ">" and value == float(bound)
    else:
        bad = domain is not None and value not in domain
        domain = "one of " + ", ".join(domain or ())
    if bad:
        raise ConfigError(f"{path} must be {domain}, got {value!r}")
    return value


def _walk(value, spec, path: str):
    """``value`` checked against the schema entry ``spec`` (see ``SCHEMAS``),
    with defaults filled in; ``path`` names it in the error."""
    if isinstance(spec, list):
        if not (isinstance(value, list) and 1 <= len(value) <= 2):
            raise ConfigError(f"{path} must be a list of 1 or 2 tables, got {value!r}")
        return [_walk(v, spec[0], f"{path}.{i}") for i, v in enumerate(value)]
    if not isinstance(spec, (dict, Switch)):
        return _leaf(value, *spec, path)
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a table, got {value!r}")
    at, head, others = f"{path}." if path else "", {}, ()
    if isinstance(spec, Switch):
        pick = spec.default if value.get(spec.key) is None else value[spec.key]
        match = [t for k, t in spec.tables.items() if (type(k), k) == (type(pick), pick)]
        if not match:
            raise ConfigError(f"{at}{spec.key} must be one of " + ", ".join(
                map(json.dumps, spec.tables)) + f", got {pick!r}")
        head, others = {spec.key: pick}, set().union(*spec.tables.values())
        spec, switch = match[0], f"{at}{spec.key} = {json.dumps(pick)}"
    for key in value:
        if key in others and key not in spec:
            raise ConfigError(f"{at}{key} is not read with {switch}")
        if key not in spec and key not in head:
            valid = [*head, *spec]
            raise ConfigError(f"unknown key {at}{key}, expected " + " or ".join(
                at + k for k in difflib.get_close_matches(key, valid, n=1) or valid))
    return {**head, **{key: _walk(value.get(key), sub, at + key)
                       for key, sub in spec.items()}}


def check_config(command: str, cfg: dict) -> dict:
    """``cfg`` checked against ``SCHEMAS[command]`` and the model's domain,
    every default filled in; a ConfigError names the key path."""
    cfg = _walk(cfg, SCHEMAS[command], "")
    _model(cfg)
    return cfg


def _model(cfg: dict, over=None):
    """HamiltonianParams of ``fixed`` updated by ``over``, in a LindbladConfig
    if it has rates; ``fixed`` alone outside the domain is a config error."""
    fixed = {**cfg["fixed"], **(over or {})}
    rates = {key: fixed.pop(key) for key in _RATES if key in fixed}
    try:
        p = HamiltonianParams(**fixed)
        return dynamics.LindbladConfig(params=p, **rates) if rates else p
    except ValueError as exc:
        if over:
            raise
        raise ConfigError(f"fixed: {exc}") from exc


def _coerce(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text.lower(), text)


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
        node, (*parents, leaf) = cfg, key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override non-table key {key!r}")
        node[leaf] = _coerce(val)
    return cfg


def _grid(axes):
    """(names, points) of the checked ``axes``: every combination of their
    values as Python floats (numpy scalars slow the model), first axis
    outermost."""
    names = [ax["name"] for ax in axes]
    if len(set(names)) != len(names):
        raise ConfigError(f"axes must name distinct parameters, got {names}")
    values = []
    for i, ax in enumerate(axes):
        if ax["scale"] == "log" and min(ax["start"], ax["stop"]) <= 0:
            raise ConfigError(f"axes.{i}: a log axis needs positive bounds")
        space = np.geomspace if ax["scale"] == "log" else np.linspace
        values.append(space(ax["start"], ax["stop"], ax["count"]).tolist())
    return names, list(itertools.product(*values))


def _n_threads(args) -> int:
    if args.threads:
        return max(1, args.threads)
    return os.cpu_count() or 1


def _parallel_map(fn, items, n_threads):
    if n_threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, items))


def _sweep(cfg: dict, args, columns, point) -> SweepResult:
    """Table of ``point(_model(cfg, over), over)`` rows over the config's
    grid, in grid order, with the columns ``columns(names)`` + error; ``over``
    maps the swept names to the point's values.  A point that raises becomes
    one row: its parameter cells from ``fixed`` and the point, ``None`` in the
    other result cells, the exception class in ``error``."""
    names, points = _grid(cfg["axes"])
    cols = columns(names)

    def one(values):
        over = dict(zip(names, values))
        try:
            return point(_model(cfg, over), over)
        except Exception as exc:   # numeric failure: the row carries the code
            cells = {**cfg["fixed"], **over}
            return [(*(cells.get(c) for c in cols), type(exc).__name__)]

    table = SweepResult([*cols, "error"])
    for rows in _parallel_map(one, points, _n_threads(args)):
        for row in rows:
            table.append(*row)
    table.meta["subcommand"] = args.command
    return table


# -- subcommand bodies ----------------------------------------------------------

def _splitting_point(p: HamiltonianParams, over) -> list:
    geo = semiclassical.geometry(p.delta, p.eps2)
    n_ebk = semiclassical.ebk_levels_exact(p.delta, p.eps2)
    try:
        de_wkb = semiclassical.wkb_splitting(p.delta, p.eps2)
    except (ValueError, OverflowError):
        de_wkb = float("nan")
    # outside the WKB domain, or a closed form overflowed (a tiny eps2)
    semi = (de_wkb, n_ebk, geo.barrier_height, geo.separatrix_area)
    err = "" if all(map(math.isfinite, semi)) else "wkb-domain"
    ts = spectra.tunnel_splitting(p)
    return [(p.delta, p.eps2, ts.abs_delta_e, ts.delta_e, de_wkb, n_ebk,
             geo.barrier_height, geo.separatrix_area, geo.region.value, err)]


def cmd_splitting(cfg: dict, args) -> SweepResult:
    return _sweep(cfg, args, lambda names: SPLITTING_COLUMNS, _splitting_point)


def cmd_spectrum(cfg: dict, args) -> SweepResult:
    def point(p, over):
        energies, parities = spectra.levels(p)
        return [(p.delta, p.eps2, p.eps4, k, float(energies[k]),
                 int(parities[k]), "") for k in range(min(cfg["n_levels"], p.dim))]

    return _sweep(cfg, args, lambda names: ["delta", "eps2", "eps4", "level",
                                            "energy", "parity"], point)


def cmd_wigner(cfg: dict, args):
    sel, grid = cfg["state"], cfg["grid"]
    p = _model(cfg)
    key, bound = ("eigen", p.dim) if sel["localized"] is None else ("pair", p.dim // 2)
    if sel[key] >= bound:   # the one bound that needs the model's dim
        raise ConfigError(f"state.{key} must be < {bound}, got {sel[key]}")
    es = eigensystem(build_hamiltonian(p))
    if key == "eigen":
        state = es.eigenvectors[:, sel["eigen"]]
    else:
        state = localized_pair(es, sel["pair"])[sel["localized"] == "left"]
    return wigner_function(state, points=grid["points"], extent=grid["extent"])


def cmd_lindblad(cfg: dict, args) -> SweepResult:
    if cfg["trajectory"]:
        table = dynamics.evolve(replace(
            _model(cfg), n_samples=cfg["n_samples"],
            initial_state=cfg["initial_state"]))._table()
        table.meta["subcommand"] = "lindblad-trajectory"
        return table

    def point(run, over):
        est = dynamics.tx_lifetime(run)
        return [(*over.values(), est.t_x, est.lower_bound, est.rank, "")]

    return _sweep(cfg, args, lambda names: [*names, "t_x", "lower_bound", "rank"],
                  point)


def cmd_calibrate(args) -> dict:
    omega_x, eps_x, kerr = args.omega_x, args.eps_x, args.kerr
    if not (np.isfinite(omega_x) and 0 < eps_x < np.inf and 0 < kerr < np.inf):
        raise ConfigError("omega-x must be finite, eps-x and kerr positive and finite")
    alpha0_sq = omega_x**2 / (16.0 * eps_x**2)
    return {"omega_x": omega_x, "eps_x": eps_x, "kerr": kerr,
            "alpha0_sq": alpha0_sq, "eps2": kerr * alpha0_sq}


# -- entry point ----------------------------------------------------------------

# config-driven subcommands: each returns the table that ``main`` writes
_COMMANDS = {"spectrum": cmd_spectrum, "splitting": cmd_splitting,
             "wigner": cmd_wigner, "lindblad": cmd_lindblad}


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
    cal.add_argument("--kerr", type=float, default=1.0,
                     help="measured Kerr coefficient K (reported eps2 = K alpha0_sq)")
    cal.add_argument("--out", default="-")
    return parser


# built once per process: argparse takes 1.3-2.4 ms to build the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command != "calibrate" or args.out != "-":   # - is stdout
            if os.path.isdir(args.out) or not os.path.isdir(
                    os.path.dirname(args.out) or "."):
                raise ConfigError(f"--out {args.out} must name a file in an "
                                  "existing directory")
        if args.command == "calibrate":
            report = cmd_calibrate(args)
            if args.out == "-":
                print(json.dumps(report, indent=1))
            else:
                write_json(args.out, report, indent=1)
            return 0
        cfg = check_config(args.command,
                           load_config(args.config, args.overrides))
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
