"""grig CLI benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a grig checkout; grig is imported from its ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a traced run.  Workloads and the layer map are in bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9  # fresh interpreters per run, spread over it; setup_s is their median
TIME_LIMIT_S = 170.0

COUNT_METRICS = (
    ("geometry.points", "count"),
    ("graph.memberships", "count"),
    ("graph.pairs_considered", "count"),
    ("graph.edges", "count"),
    ("kernels.profile_max_abs_error", "f"),
)
SELF_TIMES = (
    "geometry.sample_poisson",
    "experiments.rng_for",
    "experiments.runner",
    "graph.build_bipartite",
    "graph.project_onto_vertices",
    "graph.project_onto_groups",
    "graph.largest_component_fraction",
    "graph.degree_histogram",
    "kernels.self_convolve",
    "analytics.expected_degree",
    "config.load_config",
    "cli",
)
CALLS = ("experiments.rng_for", "graph.build_bipartite", "kernels.self_convolve")


class BenchError(Exception):
    """The workload could not be run; no result is printed."""


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    """The machine the numbers were measured on."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{index}/size")
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": 1,
        "note": f"every config sets threads: 1; process-pool scaling is not "
        f"measured on {nproc} shared cores",
    }


def _run(argv, env, deadline) -> str:
    """Run argv in its own session; kill the whole session if time runs out."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(argv[1:2]))
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} did not finish within the time limit") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop it and its probes
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited with {proc.returncode}")
    return out.strip().splitlines()[-1]


def end_to_end(worker: dict) -> dict:
    wall = statistics.median(worker["walls"]["plain"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": worker["items_per_pass"] / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(worker["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(worker: dict) -> dict:
    layers, counts = worker["layers"], worker["counts"]
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = {"value": layers[name]["self_s"], "unit": "s"}
    for name in CALLS:
        metrics[f"{name}.calls"] = {"value": layers[name]["calls"], "unit": "count"}
    for name, unit in COUNT_METRICS:
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    metrics["cli.bytes_written"] = {
        "value": sum(size for size, _ in worker["artifacts"].values()),
        "unit": "bytes",
    }
    pairs = counts.get("graph.pairs_considered", 0)
    metrics["graph.membership_yield"] = {
        "value": counts.get("graph.memberships", 0) / pairs if pairs else 0.0,
        "unit": "ratio",
    }
    traced = statistics.median(worker["walls"]["traced"])
    plain = statistics.median(worker["walls"]["plain"])
    metrics["tracing_overhead_s"] = {"value": traced - plain, "unit": "s"}
    metrics["trace_coverage"] = {"value": worker["coverage"], "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="grig CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grig", "cli.py")):
        print(f"no grig sources under {root}/src; run from a grig checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )

    try:
        worker = json.loads(
            _run(
                [sys.executable, os.path.join(BENCH, "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
                 "--setup-probes", str(0 if args.trace else SETUP_PROBES)],
                env, deadline,
            )
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    errors = list(worker["errors"])
    if args.trace:
        metrics = per_layer(worker)
        if worker["coverage"] < 0.95:
            errors.append(f"spans cover {worker['coverage']:.3f} of traced wall time (< 0.95)")
    else:
        metrics = end_to_end(worker)
    result = {
        "correct": not errors and worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    details = {
        "machine": machine(),
        "worker": worker,
        "errors": errors,
        "result": result,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)

    for kind, walls in worker["walls"].items():
        print(f"{kind} passes: {len(walls)}, wall_s median {statistics.median(walls):.4f} "
              f"(min {min(walls):.4f}, max {max(walls):.4f})")
    setup = worker["setup_s"]
    if setup:
        print(f"setup_s: median {statistics.median(setup):.4f} of {len(setup)} fresh "
              f"interpreters (min {min(setup):.4f}, max {max(setup):.4f})")
    verdicts = worker["runner_verdicts"]
    if verdicts["total"]:
        print(f"runner 99% verdicts (recorded, not gated): {verdicts['passed']}/{verdicts['total']}")
    if args.trace and (worker["absent"] or worker["uncounted"]):
        print(f"absent names: {worker['absent']}; uncounted: {worker['uncounted']}")
    print("machine: " + json.dumps(details["machine"], sort_keys=True))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
