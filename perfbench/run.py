#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sp-inproc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up, verdict time, peak
memory of the process tree, throughput); ``--trace 1`` alternates untraced
repetitions with ones whose layer entry points are wrapped in spans, and
reports the per-layer metrics plus the tracing overhead.  Every run checks its outputs
against the workload's anchors.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a failed
check makes the exit code 1.  Spans and a full record of each run are
written under ``.perfbench/`` in the checkout.  See ``perfbench/README.md``
for the metrics, the layers they belong to and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sp-inproc", "replicated3-sym", "sp-shard2", "serve-mix")

#: end-to-end metrics (``--trace 0``), reported by every workload
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

#: per-layer metrics (``--trace 1``); a layer a workload never enters reads 0
PER_LAYER = {
    "reachability.states_explored": "count",
    "reachability.states_stored": "count",
    "reachability.transitions": "count",
    "reachability.states_per_s": "1/s",
    "reachability.explore_self_s": "s",
    "successors.calls": "count",
    "successors.self_s": "s",
    "dbm.close_calls": "count",
    "dbm.close_self_s": "s",
    "dbm.extrapolate_calls": "count",
    "dbm.extrapolate_self_s": "s",
    "federation.covers_calls": "count",
    "federation.covers_self_s": "s",
    "federation.insert_self_s": "s",
    "federation.subsumed_ratio": "ratio",
    "symmetry.canonicalize_calls": "count",
    "symmetry.canonicalize_self_s": "s",
    "symmetry.fold_ratio": "ratio",
    "arch.build_ms": "ms",
    "arch.compile_ms": "ms",
    "zonepool.reuse_ratio": "ratio",
    "shard.handoffs": "count",
    "shard.steals": "count",
    "shard.worker_cpu_s": "s",
    "shard.coordinator_cpu_s": "s",
    "shard.parallel_efficiency": "ratio",
    "oracle.symta_ms": "ms",
    "oracle.mpa_ms": "ms",
    "oracle.des_ms": "ms",
    "oracle.ta_ms": "ms",
    "oracle.ta_explorations": "count",
    "witness.ms": "ms",
    "http.ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "pool.wait_ms": "ms",
    "pool.busy_frac": "ratio",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.coalesced": "count",
    "serve.rejected_queue_full": "count",
    "serve.rejected_quarantined": "count",
    "serve.rejected_invalid": "count",
    "serve.worker_restarts": "count",
    "trace.overhead": "ratio",
}

#: cold starts per run whose median is ``setup_s`` (after one discarded
#: start that fills the bytecode and page caches)
SETUP_STARTS = 7
#: minimum verdicts / serve passes per run, whatever ``--seconds`` says
MIN_REPS = 2
#: per-child time limit, well inside the run's own limit
CHILD_TIMEOUT = 170.0


def this_script(*args: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), *args]


# --------------------------------------------------------------------------
# untraced runs


def cold_start_exact(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until the network is compiled."""
    started = time.perf_counter()
    process = subprocess.Popen(this_script("--child", "setup", "--workload", workload),
                               stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        process.stdout.close()
        process.wait(CHILD_TIMEOUT)
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r} (exit {process.returncode})")
    return elapsed


def cold_start_serve(tmp: str, index: int) -> float:
    """Seconds from launching ``repro-serve`` until ``/healthz`` answers."""
    import workloads as W

    cache = os.path.join(tmp, f"setup{index}.cache.jsonl")
    started = time.perf_counter()
    process, port = W.start_server(SRC, W.server_args(cache, serve_workers()))
    try:
        W.wait_healthy(port)
        return time.perf_counter() - started
    finally:
        W.stop_server(process)


def serve_workers() -> int:
    """Pool size: one worker per connection, never more than the cores."""
    return max(1, min(2, os.cpu_count() or 1))


def setup_samples(start) -> list[float]:
    start(-1)
    return [start(i) for i in range(SETUP_STARTS)]


def measure_exact(name: str, seconds: float) -> dict:
    import measure
    import workloads as W

    workload = W.EXACT[name]
    setup = setup_samples(lambda i: cold_start_exact(name))
    process = subprocess.Popen(
        this_script("--child", "exact", "--workload", name, "--seconds", str(seconds)),
        stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
    watchdog.start()
    try:
        # the child only holds the warmed-up state; the verdict forks and
        # their shard workers are what a verdict costs
        with measure.TreeRSSWatcher(process.pid, include_root=False) as watcher:
            output = process.stdout.read()
            process.wait()
    finally:
        watchdog.cancel()
        if process.returncode is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"measured child exited {process.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    problems, failed = [], 0
    for i, anchors in enumerate(result["anchors"]):
        found = W.check_exact(workload.anchors, anchors)
        failed += bool(found)
        problems += [f"repetition {i}: {p}" for p in found]
    reps = result["reps"]
    peak = max(watcher.peak, result["peak_rss"])
    return {
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": measure.median(setup),
            "verdict_s": measure.median(reps),
            "peak_rss_mb": peak / 2**20,
            "throughput_per_s": len(reps) / sum(reps),
        },
        "samples": {"setup_s": setup, "verdict_s": reps},
        "anchors": result["anchors"][0],
    }


def measure_serve(seed: int, seconds: float) -> dict:
    tmp = tempfile.mkdtemp(dir=os.path.join(OUT, "tmp"))
    try:
        return _measure_serve(tmp, seed, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure_serve(tmp: str, seed: int, seconds: float) -> dict:
    import measure
    import workloads as W

    setup = setup_samples(lambda i: cold_start_serve(tmp, i))
    rounds = W.serve_script(seed)
    payloads = {s: json.dumps(W.catalogue_payload(s)).encode()
                for s in {*W.ANCHORS, *W.WARMUP_SEEDS}}
    samples: dict[str, list[float]] = {"miss": [], "hit": [], "coalesced": []}
    problems: list[str] = []
    digests: list[str] = []
    attempted = failed = 0
    walls: list[float] = []
    peak = 0
    started = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - started < seconds:
        cache = os.path.join(tmp, f"pass{len(walls)}.cache.jsonl")
        process, port = W.start_server(SRC, W.server_args(cache, serve_workers()))
        try:
            with measure.TreeRSSWatcher(process.pid) as watcher:
                W.wait_healthy(port)
                warm = W.run_rounds(port, [(*W.WARMUP_SEEDS, "miss")], payloads)
                t0 = time.perf_counter()
                replies = W.run_rounds(port, rounds, payloads)
                walls.append(time.perf_counter() - t0)
                counters = json.loads(W.request(port, "GET", "/metrics")[2])
        finally:
            W.stop_server(process)
        peak = max(peak, watcher.peak)
        for reply in warm[0]:
            problems += W.check_reply(reply, None)
        kinds, found, bodies, bad = W.check_pass(rounds, replies)
        attempted += 2 * len(rounds)
        failed += bad
        problems += found
        for kind, values in kinds.items():
            samples[kind] += values
        for key in ("rejected_queue_full", "rejected_quarantined", "rejected_invalid",
                    "worker_restarts", "degraded", "quarantined"):
            if counters.get(key):
                problems.append(f"/metrics {key} = {counters[key]}")
        digests.append(W.body_digest(bodies))
    if len(set(digests)) != 1:
        problems.append(f"served bodies differ between passes: {digests}")
    tail = measure.tail_percentile(samples["miss"])
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": measure.median(setup),
            "verdict_s": measure.median(samples["miss"]),
            "peak_rss_mb": peak / 2**20,
            "throughput_per_s": attempted / sum(walls),
        },
        "reported": {
            "failed_frac": failed / attempted,
            "miss_p50_ms": 1e3 * measure.median(samples["miss"]),
            "miss_tail_ms": None if tail is None else 1e3 * tail[1],
            "miss_tail_percentile": None if tail is None else round(tail[0], 1),
            "miss_samples": len(samples["miss"]),
            "hit_p50_ms": 1e3 * measure.median(samples["hit"]),
            "hit_share": len(samples["hit"]) / attempted,
            "coalesced_p50_ms": 1e3 * measure.median(samples["coalesced"]),
            "passes": len(walls),
            "body_digest": digests[0],
        },
        "samples": {"setup_s": setup, **{f"{k}_s": v for k, v in samples.items()}},
    }


# --------------------------------------------------------------------------
# traced runs


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def layer_metrics(recorder, extra: dict) -> dict:
    """Every per-layer metric from the spans, plus *extra* measured values."""
    from tracing import has_ancestor, summarize

    summary = summarize(recorder)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_ns", 0) / 1e9

    def per_call_ms(name: str) -> float:
        n = calls(name)
        return summary[name]["total_ns"] / n / 1e6 if n else 0.0

    top = [(i, stats) for i, stats in recorder.results
           if not has_ancestor(recorder, i, "reachability.explore")]
    total = {key: sum(getattr(stats, key) for _, stats in top)
             for key in ("states_explored", "states_stored", "transitions",
                         "inclusions", "keys_folded")}
    explore_s = sum(recorder.end[i] - recorder.start[i] for i, _ in top) / 1e9
    evicted = sum(rows for _, rows in recorder.evicted)
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update({
        "reachability.states_explored": total["states_explored"],
        "reachability.states_stored": total["states_stored"],
        "reachability.transitions": total["transitions"],
        "reachability.states_per_s":
            total["states_explored"] / explore_s if explore_s else 0.0,
        "reachability.explore_self_s": self_s("reachability.explore"),
        "successors.calls": calls("successors"),
        "successors.self_s": self_s("successors"),
        "dbm.close_calls": calls("dbm.close"),
        "dbm.close_self_s": self_s("dbm.close"),
        "dbm.extrapolate_calls": calls("dbm.extrapolate"),
        "dbm.extrapolate_self_s": self_s("dbm.extrapolate"),
        "federation.covers_calls": calls("federation.covers"),
        "federation.covers_self_s": self_s("federation.covers"),
        "federation.insert_self_s": self_s("federation.insert") + self_s("federation.evict"),
        "federation.subsumed_ratio":
            (total["inclusions"] + evicted) / total["transitions"]
            if total["transitions"] else 0.0,
        "symmetry.canonicalize_calls": calls("symmetry.canonicalize"),
        "symmetry.canonicalize_self_s": self_s("symmetry.canonicalize"),
        "symmetry.fold_ratio":
            total["keys_folded"] / calls("symmetry.canonicalize")
            if calls("symmetry.canonicalize") else 0.0,
        "arch.build_ms": per_call_ms("arch.build"),
        "arch.compile_ms": per_call_ms("arch.compile"),
        "cache.get_ms": per_call_ms("cache.get"),
        "cache.put_ms": per_call_ms("cache.put"),
    })
    requests = calls("http.read")
    if requests:
        http_ns = summary["http.read"]["total_ns"] + summary.get("http.write", {}).get(
            "total_ns", 0)
        metrics["http.ms"] = http_ns / requests / 1e6
    metrics.update(extra)
    return metrics


def _reuse_ratio(before: dict, after: dict) -> float:
    """Share of zone-pool acquisitions between two snapshots served by reuse."""
    acquired = after["acquired"] - before["acquired"]
    return (after["reused"] - before["reused"]) / acquired if acquired else 0.0


def alternate(untraced, traced, seconds: float) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced calls for *seconds* (at least ``MIN_REPS`` pairs).

    Each call takes its repetition number and returns the wall seconds of
    the operation it measures, so installing the shims is not counted.
    Alternating puts both sides in the same phase of a machine whose speed
    drifts, and their medians give the tracing overhead.
    """
    untraced_s: list[float] = []
    traced_s: list[float] = []
    started = time.perf_counter()
    while len(traced_s) < MIN_REPS or time.perf_counter() - started < seconds:
        untraced_s.append(untraced(len(untraced_s)))
        traced_s.append(traced(len(traced_s)))
    return untraced_s, traced_s


def overhead(untraced_s: list[float], traced_s: list[float]) -> dict:
    """``trace.overhead`` and the samples it is the ratio of medians of."""
    import measure

    return {"overhead": measure.median(traced_s) / measure.median(untraced_s),
            "reported": {"trace_pairs": len(traced_s),
                         "untraced_s": untraced_s, "traced_s": traced_s}}


def trace_exact(name: str, seed: int, seconds: float) -> dict:
    import workloads as W
    from repro.core.zonepool import global_zone_pool
    from tracing import SpanRecorder, has_ancestor

    workload = W.EXACT[name]
    W.Prepared(workload, warmup=True).verdict()
    prepared = W.Prepared(workload)
    recorder = SpanRecorder()
    problems: list[str] = []
    failed = 0
    last: dict = {}

    def check(side: str, rep: int, result) -> None:
        nonlocal failed
        found = W.check_exact(workload.anchors, W.verdict_anchors(result))
        failed += bool(found)
        problems.extend(f"{side} repetition {rep}: {p}" for p in found)

    def untraced(rep: int) -> float:
        t0 = time.perf_counter()
        result = prepared.verdict()
        elapsed = time.perf_counter() - t0
        check("untraced", rep, result)
        return elapsed

    def traced(rep: int) -> float:
        # the spans and deltas of the last traced verdict give the metrics
        recorder.clear()
        recorder.install()
        try:
            recorder.enabled = True
            pool0 = global_zone_pool().stats()
            self0 = resource.getrusage(resource.RUSAGE_SELF)
            children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            result = prepared.verdict()
            elapsed = time.perf_counter() - t0
            recorder.enabled = False
            children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            last["worker_cpu"] = _cpu(children1) - _cpu(children0)
            last["coordinator_cpu"] = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0)
            last["pool"] = _reuse_ratio(pool0, global_zone_pool().stats())
        finally:
            recorder.enabled = False
            recorder.uninstall()
        last["statistics"] = result.statistics
        check("traced", rep, result)
        return elapsed

    untraced_s, traced_s = alternate(untraced, traced, seconds)
    stats = last["statistics"]
    explore_s = sum(recorder.end[i] - recorder.start[i] for i, _ in recorder.results
                    if not has_ancestor(recorder, i, "reachability.explore")) / 1e9
    shards = workload.shard_workers
    ratio = overhead(untraced_s, traced_s)
    extra = {
        "zonepool.reuse_ratio": last["pool"],
        "shard.handoffs": stats.shard_handoffs,
        "shard.steals": stats.shard_steals,
        "shard.worker_cpu_s": last["worker_cpu"] if shards else 0.0,
        "shard.coordinator_cpu_s": last["coordinator_cpu"] if shards else 0.0,
        "shard.parallel_efficiency":
            last["worker_cpu"] / (shards * explore_s) if shards and explore_s else 0.0,
        "trace.overhead": ratio["overhead"],
    }
    metrics = layer_metrics(recorder, extra)
    spans = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz")
    recorder.dump(spans)
    return {
        "attempted": 2 * len(traced_s), "failed": failed,
        "problems": problems,
        "metrics": metrics, "spans": spans, "missing_entry_points": recorder.missing,
        "reported": ratio["reported"],
    }


class _PoolProbe:
    """Submit → dispatch → settle times of the hosted server's pool jobs."""

    def __init__(self):
        #: one record per submitted job; the record keeps the job alive, so
        #: its ``id`` cannot be reused while it is being looked up
        self.jobs: dict[int, dict] = {}
        self.records: list[dict] = []
        self._restore: list = []

    def install(self) -> None:
        from multiprocessing.connection import Connection

        from repro.serve.jobs import AnalysisJob
        from repro.serve.pool import ServePool

        probe = self
        submit, send = ServePool.submit, Connection.send

        def traced_submit(pool, job, callback):
            record = {"job": job, "submitted": time.perf_counter()}
            probe.jobs[id(job)] = record
            probe.records.append(record)

            def settle(*args):
                record["settled"] = time.perf_counter()
                return callback(*args)

            return submit(pool, job, settle)

        def traced_send(conn, obj):
            if isinstance(obj, tuple) and len(obj) == 3 and isinstance(obj[2], AnalysisJob):
                record = probe.jobs.get(id(obj[2]))
                if record is not None and record["job"] is obj[2]:
                    record.setdefault("dispatched", time.perf_counter())
            return send(conn, obj)

        ServePool.submit, Connection.send = traced_submit, traced_send
        self._restore = [(ServePool, "submit", submit), (Connection, "send", send)]

    def uninstall(self) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)

    def wait_ms(self, t0: float, t1: float) -> float:
        """Mean submit → dispatch wait of the jobs submitted in ``[t0, t1]``."""
        waits = [r["dispatched"] - r["submitted"] for r in self.records
                 if "dispatched" in r and t0 <= r["submitted"] <= t1]
        return 1e3 * sum(waits) / len(waits) if waits else 0.0

    def busy_frac(self, workers: int, t0: float, t1: float) -> float:
        """Share of ``[t0, t1]`` the *workers* spent between dispatch and settle.

        Each job's busy interval is clipped to the window, so jobs outside
        it (the warm-up) do not count and the result never exceeds 1.
        """
        busy = sum(max(0.0, min(r.get("settled", t1), t1) - max(r["dispatched"], t0))
                   for r in self.records if "dispatched" in r)
        return busy / (workers * (t1 - t0))


def _hosted_server(config):
    """Run an :class:`AnalysisServer` on an event loop in a thread."""
    import asyncio
    import threading

    from repro.serve.server import AnalysisServer

    box: dict = {}
    ready = threading.Event()

    async def body():
        server = AnalysisServer(config)
        await server.start()
        box.update(server=server, loop=asyncio.get_running_loop(),
                   done=asyncio.get_running_loop().create_future())
        ready.set()
        await box["done"]

    def main():
        try:
            asyncio.run(body())
        finally:
            ready.set()

    thread = threading.Thread(target=main, name="hosted-serve", daemon=True)
    thread.start()
    ready.wait(60)
    if "server" not in box:
        raise RuntimeError("hosted server failed to start")

    def stop():
        asyncio.run_coroutine_threadsafe(box["server"].drain(), box["loop"]).result(60)
        box["loop"].call_soon_threadsafe(box["done"].set_result, None)
        thread.join(60)

    return box["server"], stop


def trace_serve(seed: int, seconds: float) -> dict:
    import workloads as W
    from repro.core.zonepool import global_zone_pool
    from repro.serve.jobs import AnalysisJob, analysis_options
    from repro.serve.server import ServerConfig
    from tracing import SpanRecorder, has_ancestor

    options = analysis_options(W.OPTIONS, W.OPTIONS["max_states"], W.OPTIONS["max_seconds"])
    seeds = sorted(W.ANCHORS)
    payloads = {s: W.catalogue_payload(s) for s in {*seeds, *W.WARMUP_SEEDS}}
    jobs = {s: AnalysisJob(name=f"serve/{payloads[s]['model']['name']}",
                           model=payloads[s]["model"], options=options) for s in seeds}
    problems: list[str] = []
    job_failed = 0
    first: dict[int, dict] = {}
    last: dict = {}

    def run_jobs(side: str, rep: int) -> float:
        """The catalogue's jobs in-process; every pass must answer alike."""
        nonlocal job_failed
        t0 = time.perf_counter()
        results = {s: jobs[s].run_in_worker() for s in seeds}
        elapsed = time.perf_counter() - t0
        for s in seeds:
            body = json.dumps(results[s]).encode()
            found = W.check_reply(W.Reply(s, "job", 200, 0.0, body), W.ANCHORS[s])
            if results[s] != first.setdefault(s, results[s]):
                found.append(f"model {s}: {side} pass {rep} differs from the first pass")
            job_failed += bool(found)
            problems.extend(found)
        return elapsed

    def traced(rep: int) -> float:
        # the spans of the last traced pass give the oracle metrics
        recorder.clear()
        recorder.install()
        try:
            recorder.enabled = True
            pool0 = global_zone_pool().stats()
            elapsed = run_jobs("traced", rep)
            last["pool"] = _reuse_ratio(pool0, global_zone_pool().stats())
        finally:
            recorder.enabled = False
            recorder.uninstall()
        return elapsed

    AnalysisJob(name="warmup", model=payloads[W.WARMUP_SEEDS[0]]["model"],
                options=options).run_in_worker()
    recorder = SpanRecorder()
    untraced_s, traced_s = alternate(lambda rep: run_jobs("untraced", rep), traced, seconds)

    # a traced server hosted in this process (http, cache, pool layers)
    recorder.install()
    probe = _PoolProbe()
    probe.install()
    tmp = tempfile.mkdtemp(dir=os.path.join(OUT, "tmp"))
    workers = serve_workers()
    try:
        config = ServerConfig(
            workers=workers, max_states_cap=W.OPTIONS["max_states"],
            max_seconds_cap=W.OPTIONS["max_seconds"], deadline_seconds=120.0,
            cache_path=os.path.join(tmp, "trace.cache.jsonl"))
        server, stop = _hosted_server(config)
        try:
            port = server.port
            wire = {s: json.dumps(p).encode() for s, p in payloads.items()}
            W.run_rounds(port, [(*W.WARMUP_SEEDS, "miss")], wire)
            rounds = W.serve_script(seed)
            recorder.enabled = True
            t0 = time.perf_counter()
            replies = W.run_rounds(port, rounds, wire)
            t1 = time.perf_counter()
            recorder.enabled = False
            counters = json.loads(W.request(port, "GET", "/metrics")[2])
        finally:
            stop()
    finally:
        recorder.enabled = False
        recorder.uninstall()
        probe.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    _kinds, found, _bodies, bad = W.check_pass(rounds, replies)
    problems += found

    n = len(seeds)
    outside_witness = [i for i in range(len(recorder.start))
                       if not has_ancestor(recorder, i, "witness")]

    def per_job_ms(name: str, indices) -> float:
        return sum(recorder.end[i] - recorder.start[i] for i in indices
                   if recorder.names[recorder.name_id[i]] == name) / n / 1e6

    explorations = sum(1 for i, _ in recorder.results
                       if not has_ancestor(recorder, i, "witness")
                       and not has_ancestor(recorder, i, "reachability.explore"))
    ratio = overhead(untraced_s, traced_s)
    extra = {
        "oracle.symta_ms": per_job_ms("oracle.symta", outside_witness),
        "oracle.mpa_ms": per_job_ms("oracle.mpa", outside_witness),
        "oracle.des_ms": per_job_ms("oracle.des", outside_witness),
        "oracle.ta_ms": per_job_ms("oracle.ta", outside_witness),
        "oracle.ta_explorations": explorations / n,
        "witness.ms": per_job_ms("witness", range(len(recorder.start))),
        "zonepool.reuse_ratio": last["pool"],
        "pool.wait_ms": probe.wait_ms(t0, t1),
        "pool.busy_frac": probe.busy_frac(workers, t0, t1),
        "trace.overhead": ratio["overhead"],
        **{f"serve.{key}": counters.get(key, 0)
           for key in ("cache_hits", "cache_misses", "coalesced", "rejected_queue_full",
                       "rejected_quarantined", "rejected_invalid", "worker_restarts")},
    }
    metrics = layer_metrics(recorder, extra)
    spans = os.path.join(OUT, f"spans-serve-mix-seed{seed}.jsonl.gz")
    recorder.dump(spans)
    return {
        "attempted": 2 * n * len(traced_s) + 2 * len(rounds), "failed": job_failed + bad,
        "problems": problems, "metrics": metrics, "spans": spans,
        "missing_entry_points": recorder.missing,
        "reported": ratio["reported"],
    }


# --------------------------------------------------------------------------
# entry point


def child_main(args) -> int:
    """Entry point of the processes this script starts for itself."""
    sys.path.insert(0, SRC)
    import workloads as W

    workload = W.EXACT[args.workload]
    if args.child == "setup":
        W.Prepared(workload).compile()
        print("ready", flush=True)
        return 0
    print(json.dumps(W.run_exact(workload, args.seconds, MIN_REPS)), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "exact"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    import measure

    # every process started below, and every process they leave behind,
    # has ended before this one does, on every way out
    measure.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return child_main(args) if args.child else run_main(args)
    finally:
        measure.reap_children()


def run_main(args) -> int:
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # temporary files of this process and of everything it starts stay
    # inside the checkout
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    import measure

    machine = measure.fingerprint()
    steal0 = measure.cpu_steal()
    if args.trace:
        run = (trace_serve(args.seed, args.seconds) if args.workload == "serve-mix"
               else trace_exact(args.workload, args.seed, args.seconds))
        units = PER_LAYER
    else:
        run = (measure_serve(args.seed, args.seconds) if args.workload == "serve-mix"
               else measure_exact(args.workload, args.seconds))
        units = END_TO_END
    machine["steal_frac"] = measure.cpu_steal(since=steal0)
    correct = not run["problems"] and run["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "correct": correct, **run}
    path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"# machine {json.dumps(machine)}")
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    for name, value in run.get("reported", {}).items():
        print(f"# reported {name} = {value}")
    for name, unit in units.items():
        print(f"{name} = {run['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
