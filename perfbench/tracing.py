"""Spans around kerrcat's public functions, recorded from outside the package.

A :class:`Tracer` rebinds each traced function in every ``kerrcat`` module
namespace that holds it by name, plus the kernel boundaries
``numpy.linalg.eigh`` and ``scipy.linalg.expm``.  Spans (name, start, end,
parent, thread) are kept in memory; :meth:`Tracer.layer_metrics` turns them
into the per-layer metrics and :meth:`Tracer.dump` writes them out.

Kernel calls are attributed to the innermost enclosing kerrcat span's layer.
``eigh`` is only counted (calls, sum of n^3), so an eigensolve stays in the
self time of the layer that asked for it; ``expm`` is also a span, so its
time is split out as ``dynamics.expm.self_s``.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import itertools
import json
import math
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name).  Every function is rebound wherever it is
# bound by name; a missing attribute raises, so a renamed API fails loudly.
TRACED_FUNCTIONS = [
    ("kerrcat.cli", "main", "cli.main"),
    ("kerrcat.fock", "build_hamiltonian", "fock.build_hamiltonian"),
    ("kerrcat.spectra", "eigensystem", "spectra.eigensystem"),
    ("kerrcat.spectra", "tunnel_splitting", "spectra.tunnel_splitting"),
    ("kerrcat.spectra", "find_splitting_zeros", "spectra.find_splitting_zeros"),
    ("kerrcat.phasespace.poly", "star_product", "phasespace.star_product"),
    ("kerrcat.phasespace.poly", "mccoy_quantize", "phasespace.mccoy_quantize"),
    ("kerrcat.phasespace.poly", "wigner_transform_operator",
     "phasespace.wigner_transform_operator"),
    ("kerrcat.phasespace.wigner", "wigner_function", "phasespace.wigner_function"),
    ("kerrcat.dynamics", "tx_lifetime", "dynamics.tx_lifetime"),
    ("kerrcat.dynamics", "evolve", "dynamics.evolve"),
    ("kerrcat.dynamics", "run_protocol", "dynamics.run_protocol"),
    ("kerrcat.dynamics", "well_projectors", "dynamics.well_projectors"),
    ("kerrcat.dynamics", "fit_decaying_cosine", "dynamics.fit"),
]
# Every public function of the module is one span family, summed per layer.
TRACED_MODULES = [("kerrcat.semiclassical", "semiclassical")]
# (module, class, method, span name) for the writers.
TRACED_METHODS = [
    ("kerrcat.tables", "SweepResult", "to_csv", "tables.write"),
    ("kerrcat.tables", "SweepResult", "to_json", "tables.write"),
    ("kerrcat.phasespace.wigner", "WignerGrid", "to_csv", "phasespace.wigner_write"),
    ("kerrcat.phasespace.wigner", "WignerGrid", "to_json", "phasespace.wigner_write"),
]

# Per-layer metrics: (name, unit, better).  Counts and times are per batch.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.workers", "count", "lower"),
    ("cli.pool_busy_frac", "1", "higher"),
    ("cli.error_rows", "count", "lower"),
    ("spectra.eigensystem.calls", "count", "lower"),
    ("spectra.eigensystem.self_s", "s", "lower"),
    ("spectra.tunnel_splitting.calls", "count", "lower"),
    ("spectra.tunnel_splitting.self_s", "s", "lower"),
    ("spectra.eigh.calls", "count", "lower"),
    ("spectra.eigh.n3", "count", "lower"),
    ("spectra.find_splitting_zeros.calls", "count", "lower"),
    ("spectra.find_splitting_zeros.self_s", "s", "lower"),
    ("spectra.find_splitting_zeros.evals_per_zero", "1", "lower"),
    ("semiclassical.calls", "count", "lower"),
    ("semiclassical.self_s", "s", "lower"),
    ("fock.build_hamiltonian.calls", "count", "lower"),
    ("fock.build_hamiltonian.self_s", "s", "lower"),
    ("tables.write.calls", "count", "lower"),
    ("tables.write.self_s", "s", "lower"),
    ("tables.write.bytes", "B", "lower"),
    ("tables.rows", "count", "higher"),
    ("phasespace.star_product.calls", "count", "lower"),
    ("phasespace.star_product.self_s", "s", "lower"),
    ("phasespace.coeff_mul.calls", "count", "lower"),
    ("phasespace.mccoy_quantize.calls", "count", "lower"),
    ("phasespace.mccoy_quantize.self_s", "s", "lower"),
    ("phasespace.wigner_transform_operator.calls", "count", "lower"),
    ("phasespace.wigner_transform_operator.self_s", "s", "lower"),
    ("phasespace.wigner_function.calls", "count", "lower"),
    ("phasespace.wigner_function.self_s", "s", "lower"),
    ("phasespace.wigner_function.points", "count", "higher"),
    ("phasespace.wigner_write.self_s", "s", "lower"),
    ("phasespace.wigner_write.bytes", "B", "lower"),
    ("dynamics.tx_lifetime.calls", "count", "lower"),
    ("dynamics.tx_lifetime.self_s", "s", "lower"),
    ("dynamics.expm.calls", "count", "lower"),
    ("dynamics.expm.self_s", "s", "lower"),
    ("dynamics.expm.n3", "count", "lower"),
    ("dynamics.rank_raises", "count", "lower"),
    ("dynamics.well_projectors.calls", "count", "lower"),
    ("dynamics.well_projectors.self_s", "s", "lower"),
    ("dynamics.fit.calls", "count", "lower"),
    ("dynamics.fit.self_s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("dynamics.evolve.self_s", "s", "lower"),
    ("dynamics.run_protocol.calls", "count", "lower"),
    ("dynamics.run_protocol.self_s", "s", "lower"),
    ("dynamics.eigh.calls", "count", "lower"),
    ("dynamics.eigh.n3", "count", "lower"),
    ("dynamics.halvings", "count", "lower"),
    ("dynamics.step_useful_frac", "1", "higher"),
    ("setup.import.kerrcat_s", "s", "lower"),
    ("setup.import.scipy_s", "s", "lower"),
    ("setup.import.numpy_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.spans", "count", "lower"),
]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "extra")

    def __init__(self, sid, name, start, end, parent, thread, extra):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.thread, self.extra = parent, thread, extra


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and kernel counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pools: list[tuple[float, float, int]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, name) of the innermost open span in this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, "none")

    def call(self, name, fn, args, kwargs, post=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        extra = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = perf_counter()
            if post is not None:
                extra = post(args, kwargs, result)
            return result
        except BaseException:
            end = perf_counter()
            raise
        finally:
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), extra)
            with self._lock:
                self.spans.append(span)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn, post=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kerrcat" or mod_name.startswith("kerrcat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap every traced function, method and kernel boundary."""
        import numpy.linalg
        import scipy.linalg

        for mod_name, fn_name, span in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            self._rebind_everywhere(
                original, self._span_wrapper(span, original, _POSTS.get(span)))
        for mod_name, layer in TRACED_MODULES:
            mod = importlib.import_module(mod_name)
            for fn_name in mod.__all__:
                original = getattr(mod, fn_name)
                if callable(original) and not isinstance(original, type):
                    self._rebind_everywhere(
                        original, self._span_wrapper(f"{layer}.{fn_name}", original))
        for mod_name, cls_name, meth, span in TRACED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, meth, self._span_wrapper(span, getattr(cls, meth),
                                                      _write_post))

        coeff = importlib.import_module("kerrcat.phasespace.coeff").Coeff
        mul = coeff.mul

        def counted_mul(c, other, two_lam):
            self.count("phasespace.coeff_mul.calls")
            return mul(c, other, two_lam)
        self._patch(coeff, "mul", counted_mul)

        eigh = numpy.linalg.eigh

        def traced_eigh(a, *args, **kwargs):
            layer = _layer(self.current()[1])
            self.count(f"{layer}.eigh.calls")
            self.count(f"{layer}.eigh.n3", a.shape[-1] ** 3)
            return eigh(a, *args, **kwargs)
        self._patch(numpy.linalg, "eigh", traced_eigh)

        expm = scipy.linalg.expm

        def traced_expm(a, *args, **kwargs):
            layer = _layer(self.current()[1])
            self.count(f"{layer}.expm.n3", a.shape[-1] ** 3)
            return self.call(f"{layer}.expm", expm, (a, *args), kwargs)
        self._patch(scipy.linalg, "expm", traced_expm)

        # optional: a CLI without a worker pool is a valid program
        cli = sys.modules["kerrcat.cli"]
        if hasattr(cli, "ThreadPoolExecutor"):
            self._patch(cli, "ThreadPoolExecutor", _traced_pool(self))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, n_batches: int, traced_wall: float) -> dict:
        """Per-layer metrics per batch, from the recorded spans and counters."""
        per = 1.0 / max(n_batches, 1)
        by_id = {s.sid: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        calls, self_s = Counter(), Counter()
        extras = Counter()
        for s in self.spans:
            covered = _union_length([(max(a, s.start), min(b, s.end))
                                     for a, b in children.get(s.sid, ())])
            family = s.name
            if _layer(s.name) == "semiclassical":
                family = "semiclassical"
            calls[family] += 1
            self_s[family] += (s.end - s.start) - covered
            for key, val in (s.extra or {}).items():
                extras[key] += val

        zeros = extras["spectra.find_splitting_zeros.zeros"]
        evals = 0
        for s in self.spans:
            if s.name == "spectra.tunnel_splitting" and _has_ancestor(
                    s, by_id, "spectra.find_splitting_zeros"):
                evals += 1

        pool_capacity = sum((end - start) * workers for start, end, workers in self.pools)
        item_busy = sum(s.end - s.start for s in self.spans if s.name == "cli.item")
        top = _union_length([(s.start, s.end) for s in self.spans if s.parent is None])

        m = {}
        for name, _unit, _better in PER_LAYER:
            if name.endswith(".calls"):
                m[name] = calls[name[:-len(".calls")]] * per
            elif name.endswith(".self_s"):
                m[name] = self_s[name[:-len(".self_s")]] * per
        for key in ("spectra.eigh.calls", "spectra.eigh.n3", "dynamics.eigh.calls",
                    "dynamics.eigh.n3", "dynamics.expm.n3",
                    "phasespace.coeff_mul.calls"):
            m[key] = self.counts[key] * per
        for key in ("tables.write.bytes", "tables.rows", "cli.error_rows",
                    "phasespace.wigner_function.points",
                    "phasespace.wigner_write.bytes", "dynamics.rank_raises",
                    "dynamics.halvings"):
            m[key] = extras[key] * per
        m["spectra.find_splitting_zeros.evals_per_zero"] = evals / zeros if zeros else 0.0
        steps = extras["dynamics.steps_all"]
        m["dynamics.step_useful_frac"] = extras["dynamics.steps_accepted"] / steps if steps else 0.0
        m["cli.workers"] = max((w for _s, _e, w in self.pools), default=1)
        m["cli.pool_busy_frac"] = item_busy / pool_capacity if pool_capacity else 0.0
        m["trace.wall_s"] = traced_wall * per
        m["trace.coverage"] = top / traced_wall if traced_wall > 0 else 0.0
        m["trace.spans"] = len(self.spans) * per
        return m

    def dump(self, path):
        """Write the recorded spans as JSON lines (one span per line)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start - t0,
                    "end": s.end - t0, "parent": s.parent, "thread": s.thread,
                    **({"extra": s.extra} if s.extra else {})}) + "\n")


def _union_length(intervals) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _has_ancestor(span, by_id, name) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def _traced_pool(tracer: Tracer):
    """ThreadPoolExecutor whose items are ``cli.item`` spans parented to the
    span that submitted them, and whose lifetime and width are recorded."""

    class TracedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._bench_start = perf_counter()

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()[0]
            return super().submit(tracer.call, "cli.item", fn, args, kwargs,
                                  None, parent)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            tracer.pools.append((self._bench_start, perf_counter(), self._max_workers))

    return TracedPool


# -- post-call hooks: extras derived from arguments and results ----------------

def _write_post(args, kwargs, result):
    table, path = args[0], args[1] if len(args) > 1 else kwargs["path"]
    size = os.path.getsize(path)
    if type(table).__name__ == "WignerGrid":
        return {"phasespace.wigner_write.bytes": size}
    extra = {"tables.write.bytes": size, "tables.rows": len(table.rows)}
    if "error" in table.columns:
        col = table.columns.index("error")
        extra["cli.error_rows"] = sum(1 for row in table.rows if row[col])
    return extra


def _zeros_post(args, kwargs, result):
    return {"spectra.find_splitting_zeros.zeros": len(result)}


def _wigner_post(args, kwargs, result):
    return {"phasespace.wigner_function.points": len(result.x) * len(result.p)}


def _default_rank(cfg) -> int:
    return cfg.rank if cfg.rank else min(cfg.params.dim, 32)


def _tx_post(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"dynamics.rank_raises": (result.rank - _default_rank(cfg)) // 12}


def _stepping(t_total, n_samples, meta) -> dict:
    """Accepted-run and total step counts of a step-halving controller.

    Recomputed from ``meta`` (final dt, halvings) with the controller's own
    layout rule: substeps per sample interval = ceil(T / (dt (n_samples-1))).
    """
    halvings = int(meta["halvings"])
    m = max(n_samples - 1, 1)
    steps = [max(math.ceil(t_total / (meta["dt"] * 2 ** (halvings - j) * m)), 1) * m
             for j in range(halvings + 1)]
    return {"dynamics.halvings": halvings, "dynamics.steps_accepted": steps[-1],
            "dynamics.steps_all": sum(steps)}


def _evolve_post(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    meta = result.meta
    extra = {}
    if "halvings" in meta:
        extra.update(_stepping(cfg.t_final, cfg.n_samples, meta))
    if "rank" in meta:
        extra["dynamics.rank_raises"] = (meta["rank"] - _default_rank(cfg)) // 12
    return extra


def _protocol_post(args, kwargs, result):
    protocol = args[0] if args else kwargs["protocol"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return _stepping(protocol.total_duration, cfg.n_samples, result.meta)


_POSTS = {
    "spectra.find_splitting_zeros": _zeros_post,
    "phasespace.wigner_function": _wigner_post,
    "dynamics.tx_lifetime": _tx_post,
    "dynamics.evolve": _evolve_post,
    "dynamics.run_protocol": _protocol_post,
}


def import_times(stderr_text: str) -> dict:
    """setup.import.* seconds from ``python -X importtime`` output.

    Each package's time is the cumulative time of its outermost entries, i.e.
    entries not nested inside another entry of the same package.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cum, field = line[len("import time:"):].split("|", 2)
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cum), field.strip()))
    totals = Counter()
    inside: dict[int, set] = {}
    # children are printed before their parent, so walk backwards to see
    # every entry's ancestors before the entry itself
    for depth, cum, name in reversed(rows):
        root = name.split(".", 1)[0]
        ancestors = inside.get(depth - 1, set()) if depth > 0 else set()
        if root in ("kerrcat", "numpy", "scipy") and root not in ancestors:
            totals[root] += cum
        inside[depth] = ancestors | {root}
        for d in [d for d in inside if d > depth]:
            del inside[d]
    return {f"setup.import.{pkg}_s": totals[pkg] / 1e6
            for pkg in ("kerrcat", "scipy", "numpy")}
