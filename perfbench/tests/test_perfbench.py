"""The benchmark's own tests, on tiny inputs (about two minutes on 2 cores).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import (PER_LAYER, TRACED_FUNCTIONS, TRACED_METHODS,  # noqa: E402
                     TRACED_MODULES, Tracer, import_times)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Metrics that must be non-zero on each workload's traced run: one per
# wrapped function, so a by-name rebinding that misses fails here.
REQUIRED_HITS = {
    "sweep": ["cli.main.self_s", "cli.workers", "spectra.eigensystem.calls",
              "spectra.tunnel_splitting.calls", "spectra.eigh.calls",
              "spectra.find_splitting_zeros.calls", "semiclassical.calls",
              "fock.build_hamiltonian.calls", "tables.write.calls", "tables.rows"],
    "lifetime": ["cli.main.self_s", "dynamics.tx_lifetime.calls",
                 "dynamics.well_projectors.calls", "tables.write.calls"],
    "phasespace": ["phasespace.star_product.calls", "phasespace.coeff_mul.calls",
                   "phasespace.mccoy_quantize.calls",
                   "phasespace.wigner_transform_operator.calls",
                   "phasespace.wigner_function.calls", "phasespace.wigner_write.bytes"],
    "evolution": ["dynamics.evolve.calls", "dynamics.run_protocol.calls",
                  "dynamics.fit.calls", "dynamics.well_projectors.calls",
                  "dynamics.eigh.calls", "dynamics.halvings"],
}


def _run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


_CACHE = {}


def result(workload, trace):
    key = (workload, trace)
    if key not in _CACHE:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _CACHE[key] = (json.loads(proc.stdout.splitlines()[-1]), proc.stdout)
    return _CACHE[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_named_with_units(workload):
    res, stdout = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name, unit in expected.items():
        assert res["metrics"][name]["value"] > 0
        assert f"{workload} {name} = " in stdout and stdout.count(f" {unit}\n")
    assert f"{workload} fail_frac = 0 " in stdout
    assert f"{workload} provenance " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    res, _stdout = result(workload, 1)
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert expected == {name: unit for name, unit, _b in PER_LAYER}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapped_functions_are_hit(workload):
    res, _stdout = result(workload, 1)
    missed = [m for m in REQUIRED_HITS[workload] if not res["metrics"][m]["value"] > 0]
    assert not missed


def test_every_wrapper_is_required_on_some_workload():
    spans = {span for _m, _f, span in TRACED_FUNCTIONS}
    spans |= {span for _m, _c, _meth, span in TRACED_METHODS}
    spans |= {layer for _m, layer in TRACED_MODULES}
    required = [m for names in REQUIRED_HITS.values() for m in names]
    assert [s for s in spans if not any(m.startswith(s + ".") for m in required)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_top_level_spans_cover_traced_wall(workload):
    res, _stdout = result(workload, 1)
    assert res["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = _run("sweep", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = lambda: sum(range(20000))  # noqa: E731
    outer = lambda: [tracer.call("dynamics.fit", inner, (), {}) for _ in range(3)]  # noqa: E731
    tracer.call("dynamics.evolve", outer, (), {})
    *children, parent = tracer.spans
    m = tracer.layer_metrics(1, parent.end - parent.start)
    assert m["dynamics.evolve.calls"] == 1 and m["dynamics.fit.calls"] == 3
    child_time = sum(s.end - s.start for s in children)
    assert m["dynamics.fit.self_s"] == pytest.approx(child_time)
    assert m["dynamics.evolve.self_s"] == pytest.approx(parent.end - parent.start - child_time)
    assert m["trace.coverage"] == pytest.approx(1.0)
    assert m["trace.spans"] == 4


def test_import_times_counts_outermost_entries_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.linalg",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:       500 |        900 |   kerrcat.spectra",
        "import time:        50 |       1250 | kerrcat",
        "import time:        20 |         20 | kerrcat.cli",
        "import time:        30 |         30 | scipy.special",
    ])
    assert import_times(text) == pytest.approx({"setup.import.kerrcat_s": 1270e-6,
                                                "setup.import.scipy_s": 430e-6,
                                                "setup.import.numpy_s": 300e-6})
