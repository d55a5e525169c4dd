"""Run one workload's passes in a fresh process and print them as JSON.

    PYTHONPATH=src python3 bench/worker.py --workload W --seed N \
        --seconds S --trace 0|1 --work DIR [--setup-probes K]

bench/run.py starts this process; its peak RSS is the workload's.  A pass
calls ``grig.cli.main`` once per invocation of the workload, in sequence,
in this process.  Passes repeat on the same inputs until the next one
would end after ``--seconds``, with at least MIN_PASSES of each kind.  The
``--setup-probes`` fresh interpreters (bench/setup_probe.py) run between
passes, spread evenly over the same window, so set-up and passes see the
same host conditions and the whole run stays within ``--seconds``.  With
``--trace 1`` plain and traced passes alternate, so the tracing overhead
is measured on the same inputs.  Outputs are checked after each pass,
outside the timed part, and must be byte-identical across passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2


def _prepare(invocations, work):
    """Write each invocation's config; return (invocation, out dir, argv)."""
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)
    prepared = []
    for inv in invocations:
        config_path = os.path.join(work, "configs", f"{inv.name}.json")
        with open(config_path, "w") as fh:
            json.dump(inv.config, fh, indent=2, sort_keys=True)
        out_dir = os.path.join(work, "out", inv.name)
        prepared.append((inv, out_dir, inv.argv(config_path, out_dir)))
    with open(os.path.join(work, "invocations.json"), "w") as fh:
        json.dump([argv for _, _, argv in prepared], fh, indent=2)
    return prepared


def _artifacts(out_dir):
    """(bytes written, sha256) over the directory's files in name order."""
    digest, size = hashlib.sha256(), 0
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return size, digest.hexdigest()


def _setup_probe(work):
    """Seconds of set-up in a fresh interpreter, as bench/setup_probe.py times it."""
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"), work]
    proc = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_pass(cli, prepared, tracer=None):
    for _, out_dir, _ in prepared:
        shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):  # keep the CLI summaries off our stdout
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            for _, _, argv in prepared:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # noqa: BLE001 - a crash is a failed invocation
                    codes.append(traceback.format_exc(limit=3))
            wall = time.perf_counter() - start
    return wall, codes


def _check_pass(prepared, codes):
    """Errors, failed items, runner verdicts and artifact digests of a pass."""
    errors, failed, verdicts, artifacts = [], 0, [], {}
    for (inv, out_dir, _), code in zip(prepared, codes):
        inv_errors = []
        if code != 0:
            inv_errors.append(f"exit {code}")
        else:
            try:
                inv_errors, info = inv.check(out_dir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                inv_errors, info = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
            verdicts += info.get("runner_verdicts", [])
        errors += [f"{inv.name}: {e}" for e in inv_errors]
        if inv_errors:
            failed += inv.items
        artifacts[inv.name] = _artifacts(out_dir)
    return errors, failed, verdicts, artifacts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args()

    import grig.cli as cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"grig was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    invocations = WORKLOADS[args.workload](args.seed)
    prepared = _prepare(invocations, args.work)
    items = sum(inv.items for inv in invocations)

    kinds = ("plain", "traced") if args.trace else ("plain",)
    walls = {kind: [] for kind in kinds}
    layers, counts, coverage = [], [], []
    errors, failed, attempted = [], 0, 0
    verdicts, digests, setup = [], set(), []
    tracer = None
    start = time.perf_counter()
    while True:
        if len(setup) < args.setup_probes and (
            time.perf_counter() - start >= len(setup) * args.seconds / args.setup_probes
        ):
            setup.append(_setup_probe(args.work))
            continue
        for kind in kinds:
            tracer = Tracer() if kind == "traced" else None
            wall, codes = _run_pass(cli, prepared, tracer)
            walls[kind].append(wall)
            pass_errors, pass_failed, verdicts, artifacts = _check_pass(prepared, codes)
            errors += pass_errors
            failed += pass_failed
            attempted += items
            digests.add(json.dumps(artifacts, sort_keys=True))
            if tracer is not None:
                summary = tracer.summary()
                layers.append(summary["layers"])
                counts.append(tracer.counts)
                coverage.append(summary["covered_s"] / wall)
        if len(walls[kinds[0]]) < MIN_PASSES:
            continue
        # the next round, and the probes still due, must end within the window
        round_s = sum(statistics.median(walls[kind]) for kind in kinds)
        probes_s = (args.setup_probes - len(setup)) * statistics.median(setup or [0.0])
        if time.perf_counter() - start + round_s + probes_s > args.seconds:
            break
    while len(setup) < args.setup_probes:
        setup.append(_setup_probe(args.work))

    if len(digests) != 1:
        errors.append(f"artifacts differ between passes at the same seed ({len(digests)} variants)")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "items_per_pass": items,
        "walls": walls,
        "setup_s": setup,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(set(errors)),
        "runner_verdicts": {"passed": sum(v is True for v in verdicts), "total": len(verdicts)},
        "artifacts": json.loads(next(iter(digests))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        if any(c != counts[0] for c in counts):
            result["errors"].append("traced counts differ between passes at the same seed")
        result.update(
            layers={
                name: {
                    "self_s": statistics.median(p[name]["self_s"] for p in layers),
                    "calls": layers[0][name]["calls"],
                }
                for name in layers[0]
            },
            counts=counts[0],
            coverage=statistics.median(coverage),
            absent=tracer.absent,
            uncounted=sorted(tracer.uncounted),
        )
        tracer.write_spans(os.path.join(args.work, "spans.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
