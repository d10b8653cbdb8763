"""End-to-end and per-layer benchmark of the ``repro`` stack.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-join-10k --seed 1 --seconds 10 --trace 0

One process, at most two closed-loop clients.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped.  ``--trace 1`` alternates
untraced quarters of the window (collector pauses are measured there)
with quarters that record spans around each layer's public entry points,
reports the per-layer metrics and writes a Chrome/Perfetto trace to
``e2ebench/traces/<workload>-seed<seed>.json``.  The metric names and
units are the ones BENCHMARK.json declares.

Times are divided, and rates multiplied, by the machine's slowness,
measured with a fixed reference kernel around the moment each timing was
taken (see ``speed.py``); the raw figures are printed too.  The p99
latency is printed, not reported, and only when a run has at least a
thousand answers.

Every answer is checked against central ``evaluate_plan`` on the same
tables; the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any request failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import spans
    import workloads
    from speed import SpeedProbe
except ImportError as error:  # no program to measure next to the benchmark
    sys.stderr.write(f"e2ebench: cannot import the program: {error}\n")
    sys.exit(2)

#: Report a percentile only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


def declared_units(kind: str) -> dict:
    """Metric name -> unit of BENCHMARK.json's ``kind`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def throughput(stats) -> float:
    return stats.answers / stats.serving_s if stats.serving_s > 0 else 0.0


def end_to_end(setup_s: float, setup_slowness: float, stats, probe: SpeedProbe):
    """``(normalised, raw, normalised latencies)`` end-to-end metrics.

    Each latency and write time is divided by the slowness around the
    moment it was taken; throughput is scaled by the same latency-weighted
    factor.
    """
    at = probe.local()
    lat = stats.latencies
    raw = {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "throughput_qps": throughput(stats),
        "grant_ms": statistics.median(stats.grants) * 1e3,
        "revoke_ms": statistics.median(stats.revokes) * 1e3,
        "bytes_per_answer": stats.bytes / max(stats.answers, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scaled = [t / at(end - t / 2) for t, end in zip(lat, stats.finished)]
    normalised = dict(raw)
    normalised["setup_s"] = setup_s / setup_slowness
    normalised["latency_p50_ms"] = percentile(scaled, 50) * 1e3
    normalised["latency_p90_ms"] = percentile(scaled, 90) * 1e3
    normalised["throughput_qps"] = raw["throughput_qps"] * sum(lat) / sum(scaled)
    for name, took, ended in (
        ("grant_ms", stats.grants, stats.grants_at),
        ("revoke_ms", stats.revokes, stats.revokes_at),
    ):
        normalised[name] = statistics.median(
            t / at(end - t / 2) for t, end in zip(took, ended)
        ) * 1e3
    return normalised, raw, scaled


def per_layer(
    workload, recorder, totals, base, traced, gc_monitor, cache_delta,
    base_slowness, slowness,
) -> dict:
    """Per-layer metrics.  Span times are divided by the traced
    windows' slowness, collector pauses (measured in the untraced
    windows) by theirs."""
    answers = max(traced.answers, 1)

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names) / slowness

    def per_call_s(name: str) -> float:
        row = totals.get(name)
        return row["total_s"] / row["calls"] / slowness if row else 0.0

    sql_spans = [n for n in totals if spans.layer_of(n) == "sql"]
    planner = totals.get("core.planner.plan", {"calls": 0, "failed": 0})
    hits, revalidations, lookups = cache_delta
    snapshot = traced.service or {}
    waits = recorder.queue_waits
    return {
        "core.closure.close_ms": per_call_s("core.closure.close") * 1e3,
        "core.closure.extend_ms": per_call_s("core.closure.extend") * 1e3,
        "core.closure.rules": len(workload.system.policy),
        "sql.parse_us": self_s(*sql_spans) / answers * 1e6,
        "algebra.build_us": self_s("algebra.builder.build") / answers * 1e6,
        "core.planner.plan_us": self_s("core.planner.plan") / answers * 1e6,
        "core.planner.infeasible_share": (
            planner["failed"] / planner["calls"] if planner["calls"] else 0.0
        ),
        "core.safety.verify_us": self_s("core.safety.verify") / answers * 1e6,
        "core.plancache.hit_share": hits / lookups if lookups else 0.0,
        "core.plancache.revalidated_share": revalidations / lookups if lookups else 0.0,
        "core.plancache.lookup_us": per_call_s("core.plancache.lookup") * 1e6,
        "distributed.pipeline.self_ms": self_s("distributed.pipeline.run") / answers * 1e3,
        "engine.executor.self_ms": self_s("engine.executor.run") / answers * 1e3,
        "engine.transfers_per_answer": traced.transfers / answers,
        "engine.rows_shipped_per_answer": traced.rows_shipped / answers,
        "engine.operators.join_ms": self_s(
            "engine.operators.join_open", "engine.operators.join_next"
        ) / answers * 1e3,
        "engine.operators.materialize_ms": self_s("engine.operators.materialize")
        / answers * 1e3,
        "engine.data.natural_join_ms": self_s("engine.data.natural_join") / answers * 1e3,
        "service.self_ms": self_s("service.submit", "service.process") / answers * 1e3,
        "service.queue_wait_ms": (
            sum(waits) / len(waits) * 1e3 / slowness if len(waits) else 0.0
        ),
        "service.coalesced_share": (
            snapshot.get("result_coalesced", 0) / snapshot["ok"] if snapshot.get("ok") else 0.0
        ),
        "service.shed_share": (
            snapshot.get("shed", 0) / snapshot["submitted"] if snapshot.get("submitted") else 0.0
        ),
        "sharding.self_ms": self_s("sharding.execute") / answers * 1e3,
        "sharding.certify_us": self_s("sharding.certify") / answers * 1e6,
        "sharding.split_ms": self_s("sharding.split") / answers * 1e3,
        "sharding.shard_run_ms": recorder.total_under(
            "engine.executor.run", "sharding.execute"
        ) / slowness / answers * 1e3,
        "sharding.merge_ms": self_s("sharding.merge") / answers * 1e3,
        "sharding.fallback_share": traced.fallbacks / answers,
        "gc.pause_ms_per_request": gc_monitor.pause_s * 1e3 / base_slowness
        / max(base.attempted, 1),
        "gc.gen2_per_request": gc_monitor.gen2 / max(base.attempted, 1),
        "trace.overhead_ratio": (throughput(base) * base_slowness)
        / (throughput(traced) * slowness),
        "machine.slowness": slowness,
    }


def cache_counts(system):
    """``(hits, revalidations, lookups)`` of the plan cache so far."""
    cache = system.plan_cache
    if cache is None:
        return 0, 0, 0
    stats = cache.stats
    return stats.hits, stats.revalidations, stats.hits + stats.misses


def problems(*windows, writes: bool = True) -> list:
    """Every check the windows failed (and, with ``writes``, a missing
    grant or revoke timing in the last window)."""
    found = []
    for stats in windows:
        found.extend(stats.errors)
        if stats.wrong:
            found.append(f"{stats.wrong} wrong answers")
        if stats.violations:
            found.append(f"{stats.violations} audit violations")
        if stats.fallbacks:
            found.append(f"{stats.fallbacks} sharded runs fell back")
    if writes and (not windows[-1].grants or not windows[-1].revokes):
        found.append("no policy write was timed")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_probe = SpeedProbe()
    setup_s = workload.setup(setup_probe)
    # One untimed pass first: the allocator grows its arenas and the
    # interpreter's caches fill once per process, not once per window.
    warm_up = workload.measure(0.0, SpeedProbe())
    workload.verdict_errors.extend(problems(warm_up, writes=False))
    probe = SpeedProbe()
    if args.trace == 0:
        stats = workload.measure(args.seconds, probe)
        workload.probe_writes(stats, probe)
        windows = (stats,)
        metrics, raw, scaled = end_to_end(setup_s, setup_probe.slowness, stats, probe)
        units = declared_units("end_to_end")
        extra = {
            "answers": stats.answers,
            "writes": len(stats.grants) + len(stats.revokes),
            "setup_slowness": round(setup_probe.slowness, 4),
            "slowness": round(probe.slowness, 4),
        }
        extra.update({f"raw {name}": round(value, 6) for name, value in raw.items()})
        if stats.answers >= P99_MIN_SAMPLES:
            extra["latency_p99_ms"] = round(percentile(scaled, 99) * 1e3, 4)
    else:
        # Untraced and traced quarters alternate, so drift of the machine
        # falls on both sides of the overhead ratio alike.
        quarter = args.seconds / 4.0
        base, traced = workloads.Stats(), workloads.Stats()
        recorder = spans.SpanRecorder()
        traced_probe = SpeedProbe()
        gc_monitor = spans.GcMonitor()
        cache_delta = [0, 0, 0]
        for _ in range(2):
            with gc_monitor:
                base.merge(workload.measure(quarter, probe))
            before = cache_counts(workload.system)
            recorder.next_window()
            undo = spans.install(recorder)
            try:
                traced.merge(workload.measure(quarter, traced_probe, recorder))
            finally:
                spans.restore(undo)
            after = cache_counts(workload.system)
            cache_delta = [d + b - a for d, a, b in zip(cache_delta, before, after)]
        workload.probe_writes(traced, traced_probe)
        windows = (base, traced)
        totals = recorder.totals()
        metrics = per_layer(
            workload, recorder, totals, base, traced, gc_monitor, cache_delta,
            probe.slowness, traced_probe.slowness,
        )
        units = declared_units("per_layer")
        silent = [n for n in workload.expected_spans if n not in totals]
        if silent:
            workload.verdict_errors.append(f"layers recorded no spans: {silent}")
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        recorder.write_chrome_trace(trace_path)
        extra = {
            "spans": len(recorder),
            "trace": os.path.relpath(trace_path, ROOT),
            "untraced slowness": round(probe.slowness, 4),
        }
        print(f"{'span':34s} {'calls':>8s} {'total_ms':>10s} {'self_ms':>10s}")
        for name in sorted(totals):
            row = totals[name]
            print(
                f"{name:34s} {row['calls']:8d} {row['total_s'] * 1e3:10.2f} "
                f"{row['self_s'] * 1e3:10.2f}"
            )

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    found = workload.verdict_errors + problems(*windows)
    attempted = sum(s.attempted for s in windows)
    failed = sum(s.failed + s.wrong for s in windows)
    correct = not found and failed == 0
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value}")
    for message in found:
        print(f"{args.workload} FAILED: {message}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
