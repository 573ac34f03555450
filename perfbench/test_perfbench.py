"""Tests of the benchmark itself: span arithmetic, names, checks, smokes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    rec = tracing.SpanRecorder()
    root = rec.add_span("root", 0, 100)
    first = rec.add_span("child", 10, 30, root)
    second = rec.add_span("child", 40, 70, root)
    rec.add_span("grandchild", 45, 50, second)
    own = tracing.self_times(rec.start, rec.end, rec.parent)
    assert own == [100 - 20 - 30, 20, 30 - 5, 5]
    summary = tracing.summarize(rec)
    assert summary["child"] == {"calls": 2, "total_ns": 50, "self_ns": 45}
    assert summary["root"]["self_ns"] == 50
    assert first == 1


def test_self_time_clips_and_merges_overlapping_children():
    rec = tracing.SpanRecorder()
    root = rec.add_span("root", 0, 100)
    rec.add_span("a", 20, 60, root)
    rec.add_span("b", 50, 80, root)      # overlaps a: 60..80 is new
    rec.add_span("c", 90, 130, root)     # runs past the parent: 90..100
    own = tracing.self_times(rec.start, rec.end, rec.parent)
    assert own[0] == 100 - (60 - 20) - (80 - 60) - (100 - 90)
    assert min(own) >= 0


def test_clear_forgets_spans_but_keeps_names():
    rec = tracing.SpanRecorder()
    rec.add_span("root", 0, 100)
    rec.results.append((0, None))
    rec.clear()
    assert (len(rec.start), len(rec.parent), rec.results) == (0, 0, [])
    assert rec.add_span("root", 5, 6) == 0 and tracing.summarize(rec)["root"]["calls"] == 1


def test_pool_probe_counts_only_the_scripted_window():
    probe = run._PoolProbe()
    probe.records = [
        {"submitted": 0.0, "dispatched": 0.1, "settled": 0.9},   # warm-up
        {"submitted": 0.0, "dispatched": 0.2, "settled": 1.0},   # warm-up
        {"submitted": 1.0, "dispatched": 1.0, "settled": 2.0},
        {"submitted": 1.0, "dispatched": 1.5, "settled": 2.0},
        {"submitted": 2.0, "dispatched": 2.0, "settled": 3.5},   # runs past t1
        {"submitted": 2.0, "dispatched": 2.0},                   # never settled
    ]
    assert probe.busy_frac(2, 1.0, 3.0) == (1.0 + 0.5 + 1.0 + 1.0) / (2 * 2.0)
    assert probe.wait_ms(1.0, 3.0) == 1e3 * 0.5 / 4
    saturated = run._PoolProbe()
    saturated.records = [{"submitted": 0.0, "dispatched": 0.0, "settled": 9.0}] * 2
    assert saturated.busy_frac(2, 1.0, 3.0) == 1.0


def test_overhead_is_a_ratio_of_medians_over_alternated_pairs():
    calls = []

    def side(name, seconds):
        def call(rep):
            calls.append((name, rep))
            return seconds[rep % len(seconds)]
        return call

    untraced_s, traced_s = run.alternate(side("u", [1.0, 3.0, 2.0]),
                                         side("t", [2.0, 2.4, 9.0]), seconds=0.0)
    assert calls == [("u", 0), ("t", 0), ("u", 1), ("t", 1)]
    ratio = run.overhead([1.0, 3.0, 2.0], [2.0, 2.4, 9.0])
    assert ratio["overhead"] == 2.4 / 2.0 and ratio["reported"]["trace_pairs"] == 3


def test_has_ancestor_walks_the_parent_chain():
    rec = tracing.SpanRecorder()
    top = rec.add_span("witness", 0, 10)
    mid = rec.add_span("oracle.ta", 1, 9, top)
    leaf = rec.add_span("reachability.explore", 2, 8, mid)
    assert tracing.has_ancestor(rec, leaf, "witness")
    assert not tracing.has_ancestor(rec, top, "witness")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(range(10)) is None
    percentile, value = measure.tail_percentile(range(1, 101))
    assert (percentile, value) == (90.0, 90)
    assert measure.median([3, 1, 2]) == 2 and measure.median([1, 2, 3, 4]) == 2.5



# -- process trees ---------------------------------------------------------------


def test_tree_memory_counts_the_children():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        time.sleep(0.3)
        assert child.pid in measure._children(os.getpid())
        with open(f"/proc/{child.pid}/statm", encoding="ascii") as handle:
            child_rss = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        with open("/proc/self/statm", encoding="ascii") as handle:
            own_rss = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        assert measure.tree_rss_bytes(os.getpid()) >= own_rss + child_rss // 2
    finally:
        child.kill()
        child.wait()


def test_orphaned_grandchildren_are_adopted_and_reaped():
    # the shell leaves a sleeper behind; it must be waited for all the same
    script = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import measure\n"
        "measure.adopt_orphans()\n"
        "out = subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "                     capture_output=True, text=True)\n"
        "orphan = int(out.stdout)\n"
        "reaped = measure.reap_children(grace=0.5)\n"
        "print(orphan in reaped, measure._children(os.getpid()) == [])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert out.stdout.split() == ["True", "True"], out.stderr

# -- names and the benchmark declaration ---------------------------------------


def test_every_metric_and_workload_name_is_well_formed():
    for name in (*run.WORKLOADS, *run.END_TO_END, *run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_declaration_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- doctored anchors trip every workload's check -------------------------------


@pytest.mark.parametrize("name", sorted(W.EXACT))
def test_doctored_exact_anchor_is_caught(name):
    anchors = W.EXACT[name].anchors
    assert W.check_exact(anchors, dict(anchors)) == []
    for key, value in anchors.items():
        doctored = {**anchors, key: value + 1 if isinstance(value, int) else "other"}
        assert W.check_exact(doctored, anchors), key


def test_shard_workload_shares_the_in_process_anchors():
    assert W.EXACT["sp-shard2"].anchors is W.EXACT["sp-inproc"].anchors
    assert W.EXACT["replicated3-sym"].anchors["keys_folded"] > 0


def _reply(seed, kind, body, status=200):
    return W.Reply(seed, kind, status, 0.1, json.dumps(body).encode())


def test_doctored_serve_answers_are_caught():
    good = {"status": "checked", "wcrt_ticks": 2, "violations": [],
            "engines": {"ta": {"detail": "exhausted"}}}
    assert W.check_reply(_reply(5, "miss", good), ("checked", 2)) == []
    assert W.check_reply(_reply(5, "miss", good), ("checked", 3))
    assert W.check_reply(_reply(5, "miss", {**good, "violations": ["des > ta"]}), None)
    timed_out = {**good, "engines": {"ta": {"detail": "time-budget"}}}
    assert W.check_reply(_reply(5, "miss", timed_out), None)
    assert W.check_reply(_reply(5, "miss", good, status=429), None)

    rounds = [(5, 5, "coalesce"), (5, 5, "hit")]
    ok = [(_reply(5, "miss", good), _reply(5, "coalesced", good)),
          (_reply(5, "hit", good), _reply(5, "hit", good))]
    _, problems, bodies, failed = W.check_pass(rounds, ok, {5: ("checked", 2)})
    assert (problems, failed) == ([], 0) and set(bodies) == {5}
    drifted = [ok[0], (_reply(5, "hit", {**good, "wcrt_ticks": 2, "x": 1}), ok[1][1])]
    assert W.check_pass(rounds, drifted, {5: ("checked", 2)})[3] == 1
    uncoalesced = [(_reply(5, "miss", good), _reply(5, "miss", good)), ok[1]]
    assert W.check_pass(rounds, uncoalesced, {5: ("checked", 2)})[3] == 1


def test_serve_script_is_seeded_and_covers_the_catalogue():
    assert W.serve_script(3) == W.serve_script(3)
    assert W.serve_script(3) != W.serve_script(4)
    rounds = W.serve_script(3)
    misses = [m for a, b, kind in rounds if kind != "hit" for m in {a, b}]
    assert sorted(misses) == sorted(W.ANCHORS)
    assert sum(kind == "hit" for *_, kind in rounds) == W.HIT_ROUNDS


# -- reduced-size smokes ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.EXACT))
def test_exact_workload_smoke_on_its_warmup_model(name):
    small = dataclasses.replace(W.EXACT[name], variant=W.EXACT[name].warmup_variant)
    result = W.run_exact(small, seconds=0.0, min_reps=2)
    assert len(result["reps"]) == 2 and result["peak_rss"] > 0
    first, second = result["anchors"]
    assert first == second and first["termination"] == "exhausted"


def test_shard_smoke_matches_in_process_bit_for_bit():
    inproc = W.Prepared(W.EXACT["sp-inproc"], warmup=True).verdict()
    sharded = W.Prepared(W.EXACT["sp-shard2"], warmup=True).verdict()
    assert W.verdict_anchors(inproc) == W.verdict_anchors(sharded)


def test_traced_smoke_reports_every_layer_and_restores_the_program():
    from repro.core.dbm import DBM

    original = DBM.close
    prepared = W.Prepared(W.EXACT["sp-inproc"], warmup=True)
    untraced = W.verdict_anchors(prepared.verdict())
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        assert DBM.close is not original
        rec.enabled = True
        traced = W.verdict_anchors(prepared.verdict())
    finally:
        rec.enabled = False
        rec.uninstall()
    assert DBM.close is original and rec.missing == []
    assert traced == untraced
    # the verdict is the public analyze_wcrt call, generator and compile included
    summary = tracing.summarize(rec)
    assert [summary[n]["calls"] for n in ("oracle.ta", "arch.build", "arch.compile")] == [1, 1, 1]
    metrics = run.layer_metrics(rec, {})
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["reachability.states_explored"] == untraced["states_explored"]
    assert metrics["dbm.close_calls"] > 0 and metrics["successors.self_s"] > 0


def test_traced_run_smoke_on_a_small_model(monkeypatch, tmp_path):
    small = dataclasses.replace(W.EXACT["sp-inproc"], variant="po")
    small = dataclasses.replace(small, anchors=W.verdict_anchors(W.Prepared(small).verdict()))
    monkeypatch.setitem(W.EXACT, "sp-inproc", small)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.trace_exact("sp-inproc", seed=0, seconds=0.0)
    assert (result["problems"], result["failed"], result["attempted"]) == ([], 0, 4)
    assert result["reported"]["trace_pairs"] == 2 and result["metrics"]["trace.overhead"] > 0
    assert result["metrics"]["reachability.states_explored"] == small.anchors["states_explored"]


def test_serve_smoke_small_catalogue(tmp_path):
    anchors = {6: ("checked", 3), 9: ("checked", 9)}
    payloads = {s: json.dumps(W.catalogue_payload(s)).encode() for s in anchors}
    rounds = [(6, 9, "miss"), (6, 9, "hit"), (9, 6, "hit")]
    args = W.server_args(str(tmp_path / "cache.jsonl"), 2)
    process, port = W.start_server(run.SRC, args)
    try:
        W.wait_healthy(port)
        replies = W.run_rounds(port, rounds, payloads)
    finally:
        W.stop_server(process)
    assert process.returncode == 0
    samples, problems, bodies, failed = W.check_pass(rounds, replies, anchors)
    assert (problems, failed) == ([], 0)
    assert len(samples["miss"]) == 2 and len(samples["hit"]) == 4
    assert W.body_digest(bodies) == W.body_digest(dict(reversed(bodies.items())))
