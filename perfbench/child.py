"""One workload run in its own process; started by ``perfbench/run.py``.

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny \
        --workdir DIR (--probe | --seconds S --trace 0|1 --spans PATH)

The process imports kerrcat from the checkout's ``src`` and loads the
workload's CLI config; the CLOCK_MONOTONIC reading taken right after is the
end of set-up.  ``--probe`` stops there.  Otherwise it repeats the
workload's item list in batches for about ``--seconds`` and prints one JSON
line with per-batch wall and CPU times, item counts and peak RSS.  With
``--trace 1`` the first half of the time runs untraced and the second half
with the tracing wrappers installed.
"""

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from workloads import WORKLOADS  # noqa: E402


def _batches(work, kc, seconds):
    """Run the item list until the next batch would overrun ``seconds``.

    Returns per-batch wall and CPU times and the (attempted, failed) item
    counts.  An exception fails every item of its batch.
    """
    walls, cpus, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = work.run(kc)
            t1, c1 = time.perf_counter(), time.process_time()
            messages = work.check(result)
        except Exception:
            t1, c1 = time.perf_counter(), time.process_time()
            messages = [traceback.format_exc()] * work.items
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        attempted += work.items
        failed += len(messages)
        for msg in dict.fromkeys(messages):
            print(f"[{work.name}] check failed: {msg}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            return walls, cpus, attempted, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans")
    args = ap.parse_args()

    work = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    import kerrcat
    import kerrcat.cli
    kerrcat.cli.load_config(work.first_config(), [])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready}
    work.prepare(kerrcat)
    seconds = args.seconds / 2 if args.trace else args.seconds
    out["walls"], out["cpus"], attempted, failed = _batches(work, kerrcat, seconds)
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            walls, _cpus, n, bad = _batches(work, kerrcat, seconds)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + n, failed + bad
        out["traced_walls"] = walls
        out["layers"] = tracer.layer_metrics(len(walls), sum(walls))
        if args.spans:
            tracer.dump(args.spans)
    out["attempted"], out["failed"] = attempted, failed
    import resource
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["provenance"] = provenance(kerrcat)
    print(json.dumps(out))
    return 0


def _blas_threads():
    """OpenBLAS's runtime thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def provenance(kerrcat):
    """Core count, BLAS and thread settings, versions: stored with every result."""
    import hashlib
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    src = os.path.dirname(os.path.abspath(kerrcat.__file__))
    digest = hashlib.sha256()
    for path in sorted(os.path.join(d, n) for d, _sub, names in os.walk(src)
                       for n in names if n.endswith(".py")):
        with open(path, "rb") as f:
            digest.update(os.path.relpath(path, src).encode() + f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "KERRCAT_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kerrcat_src_sha256": digest.hexdigest()[:16],
    }


if __name__ == "__main__":
    sys.exit(main())
