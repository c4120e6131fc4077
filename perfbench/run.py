"""Layer-budget benchmark of the monotone-duality program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing anywhere;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` lists; the
run checks its own output against that file.  Context (CPU count,
Python version, sample counts) goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Labeller, build_family, use_checkout  # noqa: E402

WORKLOADS = ("kernel", "service-unique", "service-hot")

#: Seconds of the traced run the layer probes and passes leave to a serve
#: workload's own two phases.
SERVE_PROBE_BUDGET_S = 14.0


def _expected(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def _probes(instances, labeller: Labeller, workdir: str) -> dict:
    import layers

    metrics = {}
    metrics.update(layers.probe_hashing(instances, labeller))
    metrics.update(layers.probe_codec(instances, labeller))
    metrics.update(layers.probe_service(instances[:60], labeller))
    metrics.update(layers.probe_store(instances, labeller, workdir))
    metrics.update(layers.probe_parallel(labeller))
    return metrics


def _checked(phases: dict, passes: dict, metrics: dict) -> dict:
    return {
        "correct": passes["repeat"] and passes["failed"] == 0 and phases["wrong"] == 0,
        "attempted": passes["attempted"] + phases["attempted"],
        "failed": passes["failed"] + phases["failed"],
        "metrics": metrics,
    }


def traced_kernel(seed: int, workdir: str) -> dict:
    """Layer passes over one kernel cycle, then a short serve-unique
    exchange with a probe server for the net/service/store layers."""
    import kernel
    import serve

    rng = random.Random(seed)
    labeller = Labeller(rng)
    cycle = kernel.build_cycle()
    rng.shuffle(cycle)
    kernel.warm_up(labeller)
    passes = kernel.layer_passes(cycle, labeller)
    server, traffic = serve.prepare(False, rng.randrange(1 << 30), workdir)
    try:
        phases = serve.traced_phases(
            server, traffic, serve.UNIQUE_RATE, serve.UNIQUE_PHASE
        )
    finally:
        server.stop()
    metrics = phases["metrics"]
    metrics.update(passes["metrics"])
    metrics["obs.trace_overhead_frac"] = (
        passes["traced_s"] / passes["plain_s"] - 1,
        "ratio",
    )
    metrics.update(_probes([(e[2], e[3]) for e in cycle], labeller, workdir))
    return _checked(phases, passes, metrics)


def traced_service(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced and traced open-loop phases of the workload's traffic over
    TCP to a ``repro serve`` server, then layer passes and probes over
    instances of the serve mix."""
    import kernel
    import serve

    server, traffic = serve.prepare(workload == "service-hot", seed, workdir)
    if traffic.hot:
        rate = serve.HOT_RATE
        count = int(rate * max((seconds - SERVE_PROBE_BUDGET_S) / 2, 2.0))
    else:
        rate, count = serve.UNIQUE_RATE, serve.UNIQUE_PHASE
    try:
        phases = serve.traced_phases(server, traffic, rate, count)
    finally:
        server.stop()
    labeller = traffic.source.labeller
    cycle = []
    for method in ("bm", "logspace", "fk-b"):
        for family in serve.mix_cycle():
            g, h, dual = build_family(family)
            cycle.append((family, method, g, h, dual))
    passes = kernel.layer_passes(cycle, labeller)
    metrics = phases["metrics"]
    metrics.update(passes["metrics"])
    instances = [traffic.source.next()[:2] for _ in range(100)]
    metrics.update(_probes(instances, labeller, workdir))
    return _checked(phases, passes, metrics)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    if workload == "kernel":
        if trace:
            return traced_kernel(seed, workdir)
        import kernel

        return kernel.run(seed, seconds)
    if trace:
        return traced_service(workload, seed, seconds, workdir)
    import inproc

    return inproc.run(workload, seed, seconds, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout()
    expected = _expected(bool(args.trace))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    started = time.perf_counter()
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    measured = outcome["metrics"]
    if set(measured) != set(expected):
        missing = sorted(set(expected) - set(measured))
        extra = sorted(set(measured) - set(expected))
        raise SystemExit(f"perfbench: metric set mismatch: missing {missing}, extra {extra}")
    metrics = {}
    for name, unit in expected.items():
        value, measured_unit = measured[name]
        if measured_unit != unit:
            raise SystemExit(f"perfbench: {name} measured in {measured_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "samples": outcome.get("samples"),
        "wall_s": round(time.perf_counter() - started, 2),
    }
    print(f"perfbench: {json.dumps(context)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
