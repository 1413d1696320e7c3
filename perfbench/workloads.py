"""Seeded workloads: inputs, the timed item list, and correctness gates.

Each workload draws its inputs from ``random.Random(seed)`` when it is built
and repeats the same item list in every batch of a run, so per-batch counts
repeat exactly and the median batch time measures the program, not the
draw.  ``run`` is the timed region (first call into kerrcat to the last
output written or returned).  ``check`` verifies the outputs afterwards and
returns one message per failed item; a batch has ``items`` items (grid rows,
zero searches, triples, grids, trajectories...).

Only the standard library is imported at module level: this module is loaded
before ``kerrcat`` so that set-up time is the program's own.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from fractions import Fraction

# Criterion-12 lifetime parameters and the anchor value that the time-domain
# fit and the Liouvillian gap agree on (2621.7 vs 2624.2 /K).
TX_FIXED = {"eps2": 2.17, "kappa": 0.02, "n_th": 0.05, "dim": 60,
            "t_final": 20000.0}
TX_ANCHOR_DELTA, TX_ANCHOR, TX_ANCHOR_TOL = 2.0, 2622.0, 0.02

# Criterion-11 Rabi grid: every point has |dE| well above zero.
RABI_GRID = list(itertools.product((0.5, 1.0, 1.5, 2.5, 3.0), (0.11, 0.3, 0.6, 1.0)))


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def _read_csv(path):
    """Rows of a written CSV table, or [] when the file was not written."""
    try:
        with open(path) as f:
            return list(csv.DictReader(f))
    except FileNotFoundError:
        return []


class Workload:
    name = ""
    items = 0

    def __init__(self, seed: int, size: str, workdir: str):
        self.rng = random.Random(seed)
        self.tiny = size == "tiny"
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def first_config(self) -> str:
        """CLI config loaded during set-up (the workload's first one)."""
        raise NotImplementedError

    def prepare(self, kc):
        """Build input objects that need kerrcat; runs once, untimed."""

    def run(self, kc):
        raise NotImplementedError

    def check(self, out) -> list:
        raise NotImplementedError


def _cli(kc, command, config, out, fmt="csv", *extra):
    if os.path.exists(out):
        os.remove(out)
    return kc.cli.main([command, "--config", config, "--out", out, "--format", fmt, *extra])


# -- sweep ----------------------------------------------------------------------

def oracle_splitting(delta, eps2, dim):
    """(E_top_even - E_top_odd, spectrum scale) from the model's formula,
    with numpy.linalg.eigvalsh on the even and odd Fock blocks."""
    import numpy as np
    n = np.arange(dim, dtype=float)
    h = np.diag(delta * n - n * (n - 1))
    m = np.arange(dim - 2, dtype=float)
    c2 = eps2 * np.sqrt((m + 1) * (m + 2))
    h += np.diag(c2, 2) + np.diag(c2, -2)
    even = np.linalg.eigvalsh(h[0::2, 0::2])
    odd = np.linalg.eigvalsh(h[1::2, 1::2])
    scale = max(np.abs(even).max(), np.abs(odd).max())
    return float(even[-1] - odd[-1]), float(scale)


class Sweep(Workload):
    """CLI ``splitting`` over a delta x eps2 grid, plus library zero searches."""

    name = "sweep"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        r = self.rng
        self.dim = 40 if self.tiny else 150
        count = 4 if self.tiny else 16
        self.config = _write_json(self.path("splitting.json"), {
            "fixed": {"dim": self.dim},
            "axes": [
                {"name": "delta", "start": r.uniform(0.3, 1.0),
                 "stop": r.uniform(6.5, 8.5), "count": count},
                {"name": "eps2", "start": r.uniform(0.1, 0.4),
                 "stop": r.uniform(1.5, 2.5), "count": count},
            ]})
        self.samples = sorted(r.sample(range(count * count), 2 if self.tiny else 6))
        self.zero_eps2 = [r.uniform(0.1, 1.0) for _ in range(1 if self.tiny else 2)]
        self.zero_dim, self.zero_hi = (80, 4.5) if self.tiny else (120, 8.5)
        self.items = count * count + len(self.zero_eps2)

    def first_config(self):
        return self.config

    def run(self, kc):
        out = self.path("splitting.csv")
        # One worker: with the default two, a batch's wall time followed how
        # the shared host served the second core (ten runs spread by 19%
        # against 3% for their CPU time).  ``lifetime`` measures the pool.
        code = _cli(kc, "splitting", self.config, out, "csv", "--threads", "1")
        zeros = [kc.spectra.find_splitting_zeros(
            kc.fock.HamiltonianParams(delta=0.0, eps2=e, dim=self.zero_dim),
            0.5, self.zero_hi) for e in self.zero_eps2]
        return code, out, zeros

    def check(self, result):
        code, out, zeros = result
        rows = _read_csv(out)
        n_rows = self.items - len(self.zero_eps2)
        if code != 0 or len(rows) != n_rows:
            return [f"splitting exit code {code}, {len(rows)} rows"] * n_rows
        bad = [f"error row {row}" for row in rows if row["error"]]
        for i in self.samples:
            row = rows[i]
            de, scale = oracle_splitting(float(row["delta"]), float(row["eps2"]), self.dim)
            err = abs(float(row["de_signed"]) - de)
            if not err <= 1e-8 * scale:
                bad.append(f"row {i}: de_signed off the oracle by {err:.3g}")
        expect = list(range(2, int(self.zero_hi) + 1, 2))
        for eps2, found in zip(self.zero_eps2, zeros):
            if not (len(found) == len(expect)
                    and all(abs(z - m) < 1e-6 for z, m in zip(found, expect))):
                bad.append(f"zeros at eps2={eps2:.4f}: {list(found)}")
        return bad


# -- lifetime -------------------------------------------------------------------

class Lifetime(Workload):
    """CLI ``lindblad`` T_X sweep: the delta=2 anchor plus one seeded delta."""

    name = "lifetime"
    items = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        # The seeded point lies in the valley between the T_X peaks at
        # delta = 2 and 4, where T_X is 600-800 /K: every seed then steps the
        # same number of chunks, so the batch cost does not depend on the
        # draw.  The anchor measures the peak.
        self.delta = self.rng.uniform(2.3, 3.7)
        self.config = _write_json(self.path("lindblad.json"), {
            "fixed": dict(TX_FIXED),
            "axes": [{"name": "delta", "start": TX_ANCHOR_DELTA,
                      "stop": self.delta, "count": 2}]})

    def first_config(self):
        return self.config

    def run(self, kc):
        out = self.path("lindblad.csv")
        return _cli(kc, "lindblad", self.config, out), out

    def check(self, result):
        code, out = result
        rows = _read_csv(out)
        if code != 0 or len(rows) != self.items:
            return [f"lindblad exit code {code}, {len(rows)} rows"] * self.items
        bad = []
        for row in rows:
            t_x = float(row["t_x"])
            if row["error"] or not math.isfinite(t_x) or row["lower_bound"] != "False":
                bad.append(f"row {row}")
            elif (float(row["delta"]) == TX_ANCHOR_DELTA
                  and not abs(t_x / TX_ANCHOR - 1) < TX_ANCHOR_TOL):
                bad.append(f"anchor T_X {t_x:.1f}, expected {TX_ANCHOR}")
        return bad


# -- phasespace -----------------------------------------------------------------

# The monomials and coefficient magnitudes of the associativity triples come
# from this fixed stream; the seed picks signs and how the magnitudes are
# assigned to the monomials.  Exact arithmetic costs vary a lot with the
# monomials, so this keeps the work of a batch the same for every seed.
SHAPE_SEED = 31


def _sparse_poly(kc, shape, rng):
    """Sparse polynomial: one degree-4 term and three of degree <= 3."""
    j = shape.randrange(5)
    keys = {(j, 4 - j)}
    low = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    keys.update(shape.sample(low, 3))
    sizes = [Fraction(shape.randrange(1, 6), shape.randrange(1, 4)) for _ in keys]
    rng.shuffle(sizes)
    coeff = kc.phasespace.coeff.Coeff
    terms = {k: coeff.of(rng.choice((-1, 1)) * size) for k, size in zip(sorted(keys), sizes)}
    return kc.phasespace.PhaseSpacePolynomial("a", terms, 1)


def _operator_poly(kc, rng):
    coeff = kc.phasespace.coeff.Coeff
    terms = {}
    for j in range(4):
        for k in range(4):
            num = rng.randrange(-4, 5)
            if num:
                terms[(j, k)] = coeff.of(Fraction(num, rng.randrange(1, 3)),
                                         Fraction(rng.randrange(-2, 3)))
    return kc.phasespace.NormalOrderedOperatorPoly(terms)


def _grid_moments(values, cell):
    """(normalization, purity) of a Wigner grid given as rows of values."""
    total = sum(sum(row) for row in values)
    square = sum(sum(w * w for w in row) for row in values)
    return total * cell, 2 * math.pi * square * cell


class Phasespace(Workload):
    """Exact star-product associativity and McCoy/Wigner round trips, plus
    CLI ``wigner`` grids (CSV and JSON) of a cat eigenstate and a localized
    well state."""

    name = "phasespace"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        r = self.rng
        self.n_triples = 2 if self.tiny else 8
        self.n_round = 2 if self.tiny else 20
        self.alg_seed = r.randrange(2 ** 32)
        self.items = self.n_triples + self.n_round + 2
        dim, points, delta, eps2 = ((40, 61, (1.0, 2.0), (0.75, 1.25)) if self.tiny
                                    else (90, 201, (5.0, 6.0), (1.8, 2.2)))
        base = {"fixed": {"delta": r.uniform(*delta), "eps2": r.uniform(*eps2),
                          "dim": dim}, "grid": {"points": points}}
        self.cat = _write_json(self.path("cat.json"), {
            **base, "state": {"eigen": r.randrange(2)}})
        self.well = _write_json(self.path("well.json"), {
            **base, "state": {"localized": r.choice(("right", "left")), "pair": 0}})

    def first_config(self):
        return self.cat

    def prepare(self, kc):
        shape, rng = random.Random(SHAPE_SEED), random.Random(self.alg_seed)
        self.triples = [tuple(_sparse_poly(kc, shape, rng) for _ in range(3))
                        for _ in range(self.n_triples)]
        self.pairs = [(_operator_poly(kc, rng), _sparse_poly(kc, rng, rng))
                      for _ in range(self.n_round)]

    def run(self, kc):
        star = kc.phasespace.star_product
        assoc = [star(star(f, g), h) == star(f, star(g, h)) for f, g, h in self.triples]
        rounds = []
        for op, sym in self.pairs:
            rounds.append(
                kc.phasespace.mccoy_quantize(kc.phasespace.wigner_transform_operator(op)) == op
                and kc.phasespace.wigner_transform_operator(kc.phasespace.mccoy_quantize(sym)) == sym)
        csv_out, json_out = self.path("cat.csv"), self.path("well.json.out")
        codes = (_cli(kc, "wigner", self.cat, csv_out, "csv"),
                 _cli(kc, "wigner", self.well, json_out, "json"))
        return assoc, rounds, codes, csv_out, json_out

    def check(self, result):
        assoc, rounds, codes, csv_out, json_out = result
        bad = [f"associativity failed on triple {i}" for i, ok in enumerate(assoc) if not ok]
        bad += [f"McCoy/Wigner round trip failed on pair {i}"
                for i, ok in enumerate(rounds) if not ok]
        grids = []
        if codes[0] == 0:
            rows = _read_csv(csv_out)
            xs = sorted({float(r["x"]) for r in rows})
            ps = sorted({float(r["p"]) for r in rows})
            cell = (xs[1] - xs[0]) * (ps[1] - ps[0])
            grids.append(("csv", [[float(r["w"]) for r in rows]], cell))
        if codes[1] == 0:
            with open(json_out) as f:
                payload = json.load(f)
            grids.append(("json", payload["values"], payload["cell_area"]))
        bad += [f"wigner exit code {code}" for code in codes if code != 0]
        for fmt, values, cell in grids:
            norm, purity = _grid_moments(values, cell)
            if not (abs(norm - 1) < 1e-6 and abs(purity - 1) < 1e-4):
                bad.append(f"{fmt} grid: norm {norm:.9f}, purity {purity:.6f}")
        return bad


# -- evolution ------------------------------------------------------------------

class Evolution(Workload):
    """Closed Rabi points (eigenbasis + cosine fit), the closed round-trip
    ramp at the delta=2 cancellation, and a short open RK4 run."""

    name = "evolution"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        r = self.rng
        self.rabi = r.sample(RABI_GRID, 1 if self.tiny else 3)
        self.well = r.choice(("right_well", "left_well"))
        self.rk4_t = 0.5 if self.tiny else 2.0
        self.items = len(self.rabi) + 2
        self.config = _write_json(self.path("evolution.json"), {
            "fixed": {"delta": 2.0, "eps2": 2.17, "dim": 30, "kappa": 0.02,
                      "n_th": 0.05, "t_final": self.rk4_t}})

    def first_config(self):
        return self.config

    def run(self, kc):
        import numpy as np
        dyn, params = kc.dynamics, kc.fock.HamiltonianParams
        rabi = []
        for delta, eps2 in self.rabi:
            p = params(delta=delta, eps2=eps2, dim=70)
            de = kc.spectra.tunnel_splitting(p).abs_delta_e
            traj = dyn.evolve(dyn.LindbladConfig(
                params=p, t_final=3 * 2 * np.pi / de, n_samples=401, n_pairs=1))
            rabi.append((dyn.fit_decaying_cosine(traj.times, traj.s)[0], de))
        if self.tiny:
            # the hold at the cancellation point: same closed stepping, 10/K
            segs = (dyn.RampSegment(10.0, 2.0, 2.0, 0.11, 0.11),)
            p = params(delta=2.0, eps2=0.11, dim=60)
        else:
            # eps2 1 -> 0.11 -> 1 at the delta=2 cancellation: the closed
            # round trip of the test suite (which starts at eps2 = 2, dim 32)
            # at a quarter of its cost, through the same step-halving control
            # (3 halvings here, 4 there)
            ramp = 20 * np.pi
            segs = (dyn.RampSegment(ramp, 2.0, 2.0, 1.0, 0.11),
                    dyn.RampSegment(ramp, 2.0, 2.0, 0.11, 1.0))
            p = params(delta=2.0, eps2=1.0, dim=20)
        ramp_traj = dyn.run_protocol(dyn.RampProtocol(segs), dyn.LindbladConfig(
            params=p, t_final=1.0, n_samples=41, n_pairs=1))
        fixed = kc.cli.load_config(self.config, [])["fixed"]
        open_traj = dyn.evolve(dyn.LindbladConfig(
            params=params(delta=fixed["delta"], eps2=fixed["eps2"], dim=fixed["dim"]),
            kappa=fixed["kappa"], n_th=fixed["n_th"], t_final=fixed["t_final"],
            n_samples=41, method="rk4", initial_state=self.well))
        return rabi, ramp_traj, open_traj

    def check(self, result):
        rabi, ramp, rk4 = result
        bad = [f"Rabi frequency {freq:.6g} vs |dE| {de:.6g}"
               for freq, de in rabi if not abs(freq - de) / de < 0.02]
        ds = abs(float(ramp.s[-1] - ramp.s[0]))
        if not ds < 1e-3:
            bad.append(f"round-trip ramp |s_end - s_0| = {ds:.3g}")
        drift = float(abs(rk4.trace - 1.0).max())
        mineig = float(rk4.min_eig.min())
        if not (drift < 1e-7 and mineig > -1e-7):
            bad.append(f"rk4 trace drift {drift:.3g}, min eig {mineig:.3g}")
        return bad


WORKLOADS = {w.name: w for w in (Sweep, Lifetime, Phasespace, Evolution)}
