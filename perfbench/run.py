"""Benchmark of the fact-checking system: end-to-end latency and a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload guided_gibbs --seed 1 --seconds 30 --trace 0

The program under test is imported from the checkout's ``src/``.  Each run
repeats episodes of the chosen workload (see ``workloads.py``) until
``--seconds`` are spent, checks every episode's outputs, and prints a summary
followed, on the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced episodes on the same inputs and
reports the per-layer metrics (per traced episode) plus the digest parity of
the two.
Everything the run writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Episodes per run, at least: setup_s is the median of the episodes' set-ups.
MIN_EPISODES = 3
#: Traced episodes per traced run, at least (each after an untraced twin).
MIN_TRACED_EPISODES = 2

#: End-to-end metrics: name -> unit.  Every workload reports all of them;
#: the operation behind ``latency_ms`` / ``throughput_per_s`` is the
#: workload's user-facing wait (see ``OPERATION``).
END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "throughput_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

#: The user-facing operation each workload times, under its own name.
OPERATION = {
    "guided_gibbs": "iteration",
    "batch_em": "iteration",
    "stream_ingest": "arrival",
    "service_mixed": "request",
}

#: Workloads whose process runs on one CPU.  The service's handlers hold the
#: GIL while they work, so its threads (clients, HTTP handlers, pool workers)
#: take turns whatever the core count; spread over two virtual CPUs every
#: hand-off between them is a cross-CPU wake-up, whose cost follows the
#: host's load rather than the program's.
ONE_CPU = {"service_mixed"}


def tail(samples: List[float]) -> Tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)`` using the nearest-rank
    definition.  With ten samples or fewer no percentile qualifies; the
    maximum is returned as percentile 100 with nothing beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    percentile = min(99, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n - rank


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> Dict[str, object]:
    """Where a result was measured (also builds the merge kernel up front)."""
    import numpy
    from repro.inference.engine.ckernel import kernel_available

    if os.environ.get("REPRO_NO_CKERNEL"):
        kernel = "disabled (REPRO_NO_CKERNEL)"
    else:
        kernel = "compiled" if kernel_available() else "fallback (no compiler)"
    return {
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "merge_kernel": kernel,
    }


def _episodes(run, seed: int, size: dict, seconds: float, minimum: int, tracer=None):
    """Repeat episodes until ``seconds`` are spent (at least ``minimum``).

    Episode ``i`` runs on the inputs of variant ``i % size["variants"]`` of
    ``seed`` (see ``workloads.input_seed``), so a run averages over several
    generated corpora while every variant still repeats.  The next episode
    starts only if it is expected to end in time; every episode starts from
    a collected heap, so a garbage collection left over from the previous
    one does not land in its timings.
    """
    import workloads

    variants = size.get("variants", 1)
    episodes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        begin = time.perf_counter()
        inputs = workloads.input_seed(seed, len(episodes) % variants)
        episode = run(inputs, size, tracer)
        episode.inputs = inputs
        episodes.append(episode)
        last = time.perf_counter() - begin
        if len(episodes) >= minimum and time.perf_counter() - started + last > seconds:
            return episodes


def _references(episodes) -> Dict[int, str]:
    """The first digest of each input seed: later episodes must repeat it."""
    references: Dict[int, str] = {}
    for episode in episodes:
        references.setdefault(episode.inputs, episode.digest)
    return references


def _problems(episodes, references: Dict[int, str]) -> List[str]:
    problems = []
    for number, episode in enumerate(episodes):
        problems += [f"episode {number}: {text}" for text in episode.problems]
        expected = references[episode.inputs]
        if episode.digest != expected:
            problems.append(f"episode {number}: digest {episode.digest} != {expected}")
    return problems


def end_to_end(workload: str, episodes, attempted: int, failed: int):
    """The end-to-end metrics plus summary lines under per-workload names."""
    samples = [value for episode in episodes for value in episode.op_s]
    wall = sum(episode.wall_s for episode in episodes)
    tail_value, percentile, beyond = tail(samples)
    metrics = {
        "setup_s": statistics.median(episode.setup_s for episode in episodes),
        "latency_ms.p50": 1000 * statistics.median(samples),
        "latency_ms.tail": 1000 * tail_value,
        "throughput_per_s": len(samples) / wall,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    operation = OPERATION[workload]
    lines = [
        f"{operation}_ms.p50 = {metrics['latency_ms.p50']:.3f} ms "
        f"(n={len(samples)})",
        f"{operation}_ms.tail = {metrics['latency_ms.tail']:.3f} ms "
        f"(p{percentile}, {beyond} samples beyond, n={len(samples)})",
        f"{operation}s_per_s = {metrics['throughput_per_s']:.3f} 1/s",
    ]
    if workload == "service_mixed":
        arrivals = sum(episode.extra["arrivals"] for episode in episodes)
        iterations = [v for episode in episodes for v in episode.extra["iteration_s"]]
        it_tail, it_percentile, it_beyond = tail(iterations)
        lines += [
            f"arrivals_per_s = {arrivals / wall:.3f} 1/s",
            f"iteration_ms.p50 = {1000 * statistics.median(iterations):.3f} ms "
            f"(client B step + result, n={len(iterations)})",
            f"iteration_ms.tail = {1000 * it_tail:.3f} ms "
            f"(p{it_percentile}, {it_beyond} samples beyond)",
        ]
    lines += [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(episodes)} set-ups)",
        f"final_precision = {statistics.median(e.precision for e in episodes):.4f} "
        f"(reported, not gated: deterministic per seed)",
        f"failed_share = {failed / attempted:.4f} ({failed} of {attempted})",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
    ]
    return metrics, lines


def per_layer(workload: str, episodes, tracer) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics, per traced episode, plus a table of self-time shares.

    ``<layer>.share`` is the layer's busy time over the episode's wall time
    (set-up included; worker threads can push it above 1).  The dominant
    layer is the one with the most self time while operations were timed.
    """
    from tracing import COUNTERS, SPAN_LAYERS

    count = len(episodes)
    wall = sum(episode.setup_s + episode.wall_s for episode in episodes)
    ops_wall = sum(episode.wall_s for episode in episodes)
    totals = tracer.layer_totals()
    during_ops = tracer.layer_totals(ops_only=True)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics: Dict[str, float] = {}
    lines = [f"{'layer':32s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} "
             f"{'share':>7s} {'ops self share':>14s}"]
    for layer in SPAN_LAYERS:
        entry = totals.get(layer, empty)
        metrics[f"{layer}.calls"] = entry["calls"] / count
        metrics[f"{layer}.busy_s"] = entry["busy_s"] / count
        metrics[f"{layer}.self_s"] = entry["self_s"] / count
        metrics[f"{layer}.share"] = entry["busy_s"] / wall
        lines.append(
            f"{layer:32s} {entry['calls'] / count:9.1f} {entry['busy_s'] / count:9.4f} "
            f"{entry['self_s'] / count:9.4f} {entry['busy_s'] / wall:7.1%} "
            f"{during_ops.get(layer, empty)['self_s'] / ops_wall:14.1%}"
        )
    for counter in COUNTERS:
        metrics[counter] = tracer.counters.get(counter, 0.0) / count
    # Client-side request time not spent in the manager's operation: HTTP,
    # wire parsing, session-lock and worker-pool waits.
    handler_s = totals.get("service.handler", empty)["busy_s"]
    client_s = handler_s
    if workload == "service_mixed":
        client_s = sum(sum(episode.op_s) for episode in episodes)
    metrics["service.overhead_s"] = (client_s - handler_s) / count
    dominant = max(SPAN_LAYERS, key=lambda layer: during_ops.get(layer, empty)["self_s"])
    lines.append(
        f"dominant layer (most self time during operations): {dominant} "
        f"({during_ops[dominant]['self_s'] / ops_wall:.1%} of operation wall time)"
    )
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one benchmark invocation; returns ``(result, summary_lines)``."""
    import tracing
    import workloads

    run = workloads.WORKLOADS[workload]
    sizes = workloads.SIZES[size][workload]
    lines = [f"stamp: {json.dumps(stamp(), sort_keys=True)}"]
    # Warm-up: finish lazy imports and first-call set-up before timing.
    run(seed, workloads.SIZES["smoke"][workload])
    if not trace:
        minimum = max(MIN_EPISODES, sizes.get("variants", 1) + 1)
        episodes = _episodes(run, seed, sizes, seconds, minimum)
    else:
        tracer = tracing.Tracer()
        untraced = []

        def paired(inputs, size, _tracer=None):
            """An untraced episode, then a traced one on the same inputs."""
            plain = run(inputs, size)
            plain.inputs = inputs
            untraced.append(plain)
            gc.collect()
            tracing.install(tracer)
            try:
                return run(inputs, size, tracer)
            finally:
                tracer.remove()

        episodes = _episodes(paired, seed, sizes, seconds, MIN_TRACED_EPISODES)
        metrics, summary = per_layer(workload, episodes, tracer)
        untraced_s = statistics.median(e.setup_s + e.wall_s for e in untraced)
        traced_s = statistics.median(e.setup_s + e.wall_s for e in episodes)
        metrics["trace.untraced_episode_s"] = untraced_s
        metrics["trace.traced_episode_s"] = traced_s
        summary.append(
            f"tracing overhead: {traced_s - untraced_s:+.4f} s per episode "
            f"(median traced {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
            f"{len(episodes)} pairs on the same inputs)"
        )
        tracer.write(str(OUT / f"spans-{workload}.jsonl.gz"))
        # Untraced first: their digests are the references the traced match.
        episodes = untraced + episodes
    references = _references(episodes)
    problems = _problems(episodes, references)
    attempted = sum(episode.attempted for episode in episodes)
    failed = sum(episode.failed for episode in episodes) + sum(
        episode.digest != references[episode.inputs] for episode in episodes
    )
    if not trace:
        metrics, summary = end_to_end(workload, episodes, attempted, failed)
    digests = ", ".join(f"{inputs}: {digest}" for inputs, digest in references.items())
    lines.append(
        f"workload {workload}, seed {seed}: {len(episodes)} episodes, digests by input "
        f"seed {digests}" + (" (traced == untraced)" if trace and not problems else "")
    )
    lines += summary + [f"problem: {text}" for text in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _units(trace: bool) -> Dict[str, str]:
    if not trace:
        return END_TO_END
    from tracing import COUNTERS, SPAN_LAYERS

    units = {}
    for layer in SPAN_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    for counter in COUNTERS:
        units[counter] = "B" if counter.endswith("bytes") else (
            "s" if counter.endswith("_s") else "count")
    units.update({"service.overhead_s": "s", "trace.untraced_episode_s": "s",
                  "trace.traced_episode_s": "s"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload in ONE_CPU and hasattr(os, "sched_setaffinity"):
        # Before numpy is imported, so every thread it or the run starts
        # inherits the mask.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    temporary = OUT / "tmp"
    temporary.mkdir(parents=True, exist_ok=True)
    # The merge kernel and the service spool use temporary directories;
    # keep them inside the checkout.
    os.environ["TMPDIR"] = str(temporary)
    tempfile.tempdir = str(temporary)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"error: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _units(bool(args.trace))
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
