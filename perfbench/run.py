"""kerrcat benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep|lifetime|phasespace|evolution|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; kerrcat is imported from its ``src``.  Each
workload run is one child process (``child.py``); set-up time is measured on
that child and on ``PROBES`` extra children that stop after set-up.  The
child runs with one OpenBLAS thread, so CLI pool workers never share a core
with BLAS threads; each workload sets the CLI's worker count (see
``workloads.py``).  The provenance block records the settings the child ran
with.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it list every metric by name and unit, ``fail_frac`` and the
provenance.  Spans of a traced run go to ``perfbench/_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

from tracing import PER_LAYER, import_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES = 4
DEADLINE_S = 170.0

# Default OpenBLAS threads on top of the CLI's per-core workers put two to
# three busy threads on each core; on a shared 2-vCPU host that made one
# batch vary by 12-16% within a run, against 3% with one BLAS thread.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

# (name, unit): end-to-end metrics of one workload run.
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class RunFailed(RuntimeError):
    pass


def _child(args, cmd_extra, timeout, importtime=False):
    """Run child.py; return (spawn time, parsed last stdout line, stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--workdir", args.workdir,
           *cmd_extra]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child timed out after {exc.timeout:.0f}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"child exited with code {proc.returncode}")
    return spawn, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def run_workload(args, deadline):
    """One workload run: set-up probes, then the measuring child."""
    setups = []
    for _ in range(PROBES):
        spawn, probe, _err = _child(args, ["--probe"], deadline - time.monotonic())
        setups.append(probe["ready"] - spawn)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.trace:
        extra += ["--spans", spans]
    spawn, res, err = _child(args, extra, deadline - time.monotonic(),
                             importtime=bool(args.trace))
    setups.append(res["ready"] - spawn)
    sys.stderr.write("".join(line + "\n" for line in err.splitlines()
                             if not line.startswith("import time:")))

    if args.trace:
        metrics = dict(res["layers"])
        metrics.update(import_times(err))
        metrics["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                       - statistics.median(res["walls"]))
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        metrics = {"wall_s": statistics.median(res["walls"]),
                   "cpu_s": statistics.median(res["cpus"]),
                   "peak_rss_mb": res["peak_rss_mb"],
                   "setup_s": statistics.median(setups)}
        units = dict(END_TO_END)
    prov = dict(res["provenance"], workload=args.workload, seed=args.seed,
                size=args.size, seconds=args.seconds, trace=args.trace,
                batch_walls=res["walls"], traced_batch_walls=res.get("traced_walls"),
                setups=setups, git_commit=_git_commit())
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "provenance": prov,
        "spans": spans if args.trace else None,
    }


def _git_commit():
    """Commit of the checkout when it is the top of a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return None
    return lines[1]


def _report(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name} fail_frac = {frac:.6g} 1 ({result['failed']}/{result['attempted']} items)")
    print(f"{name} provenance {json.dumps(result['provenance'], sort_keys=True)}")
    if result["spans"]:
        print(f"{name} spans written to {os.path.relpath(result['spans'], ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kerrcat", "__init__.py")):
        print(f"no kerrcat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    os.makedirs(OUT, exist_ok=True)
    results = {}
    for name in names:
        args.workload = name
        args.workdir = os.path.join(OUT, f"work-{os.getpid()}-{name}")
        os.makedirs(args.workdir)
        try:
            results[name] = run_workload(args, deadline)
        except RunFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        _report(name, results[name])

    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
