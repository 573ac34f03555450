"""The benchmark's workloads, their inputs and their correctness anchors.

Exact workloads (``sp-inproc``, ``replicated3-sym``, ``sp-shard2``) compute
one exact WCRT verdict per repetition with the public ``analyze_wcrt``.  Their
work is fixed: no budget is set, so every repetition explores the same
states, and the anchors below must come out bit for bit.

``serve-mix`` drives a ``repro-serve`` process with a closed loop of two
connections.  Its catalogue is a fixed list of small sampled models; the
seed only orders the requests.  The state budget is the only budget that
can bind (the wall-clock caps sit far above any miss), so the work done
and every response body are independent of machine speed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# exact workloads

#: statistics fields every exact repetition must reproduce exactly
STAT_ANCHORS = ("states_explored", "states_stored", "transitions", "inclusions",
                "states_subsumed_lu", "plans_commuted", "keys_folded",
                "peak_waiting", "termination")

#: the paper's AL+TMC/sp HandleTMC cell under the default reductions; the
#: sharded engine must reproduce the in-process anchors bit for bit, so
#: both workloads share this one record
SP_ANCHORS = {
    "wcrt_ticks": 239081, "is_lower_bound": False,
    "states_explored": 22273, "states_stored": 22273, "transitions": 34787,
    "inclusions": 12515, "states_subsumed_lu": 12515, "plans_commuted": 0,
    "keys_folded": 0, "peak_waiting": 914, "termination": "exhausted",
}

REPLICATED3_ANCHORS = {
    "wcrt_ticks": 5, "is_lower_bound": False,
    "states_explored": 39818, "states_stored": 39818, "transitions": 94238,
    "inclusions": 54421, "states_subsumed_lu": 54421, "plans_commuted": 0,
    "keys_folded": 38247, "peak_waiting": 1123, "termination": "exhausted",
}


@dataclass(frozen=True)
class ExactWorkload:
    name: str
    why: str
    #: "radio" (the AL+TMC case study) or "replicated" (symmetric load)
    family: str
    #: event configuration (radio) or clone count (replicated)
    variant: str
    #: a smaller model of the same family, run once before timing
    warmup_variant: str
    shard_workers: int
    anchors: dict = field(default_factory=dict)

    def model(self, warmup: bool = False):
        """The architecture model and the requirement it measures."""
        variant = self.warmup_variant if warmup else self.variant
        if self.family == "radio":
            from repro.casestudy import build_radio_navigation, configure

            return configure(build_radio_navigation(), "AL+TMC", variant), "TMC"
        from repro.casestudy import REPLICATED_REQUIREMENT, build_replicated_load

        return build_replicated_load(clones=int(variant)), REPLICATED_REQUIREMENT


EXACT = {
    w.name: w for w in (
        ExactWorkload(
            "sp-inproc",
            "the paper's largest case-study cell; time sits in plan firing, "
            "closure and extrapolation",
            "radio", "sp", "po", 0, SP_ANCHORS),
        ExactWorkload(
            "replicated3-sym",
            "same engine, but inclusion/federation and symmetry "
            "canonicalisation dominate",
            "replicated", "3", "2", 0, REPLICATED3_ANCHORS),
        ExactWorkload(
            "sp-shard2",
            "sp-inproc on two forked shard workers: the only path through "
            "core.shard",
            "radio", "sp", "po", 2, SP_ANCHORS),
    )
}


class Prepared:
    """A workload's model and settings, ready for repeated verdicts.

    A verdict is the public ``analyze_wcrt`` call, so it times and checks
    exactly what users (and the differential oracle) run: the network
    generator and compile (a few ms) plus the exact exploration.
    """

    def __init__(self, workload: ExactWorkload, warmup: bool = False):
        from repro.arch import TimedAutomataSettings

        self.model, self.requirement = workload.model(warmup)
        self.settings = TimedAutomataSettings(shard_workers=workload.shard_workers)

    def compile(self):
        """Generate and compile the network once (the cold start's last step)."""
        from repro.arch.generator import build_model

        requirement = self.model.requirement(self.requirement)
        return build_model(self.model, requirement, self.settings.generator).compile()

    def verdict(self):
        """One exact WCRT verdict; returns the engine's ``WCRTResult``."""
        from repro.arch import analyze_wcrt

        return analyze_wcrt(self.model, self.requirement, self.settings).detail


def verdict_anchors(result) -> dict:
    """The machine-independent record of one verdict."""
    stats = result.statistics
    return {
        "wcrt_ticks": result.value,
        "is_lower_bound": result.is_lower_bound,
        **{name: getattr(stats, name) for name in STAT_ANCHORS},
    }


def check_exact(expected: dict, observed: dict) -> list[str]:
    """Every anchor must match exactly; returns the mismatches."""
    return [
        f"{key}: expected {expected[key]!r}, got {observed.get(key)!r}"
        for key in expected if observed.get(key) != expected[key]
    ]


def forked_verdict(prepared: Prepared) -> tuple[float, dict, int]:
    """One verdict in a fresh fork of this process.

    Returns its wall seconds, its anchors and the fork's peak RSS in bytes.
    Every fork starts from the same warmed-up state (the zone pool is
    reset at fork), so repetitions are alike: repeated verdicts in one
    process spread wider (per-verdict variation 12.5% against 8.2% in
    interleaved ``sp-inproc`` verdicts).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the fork: one verdict, its record down the pipe, exit
        status = 1
        try:
            os.close(read_fd)
            t0 = time.perf_counter()
            result = prepared.verdict()
            elapsed = time.perf_counter() - t0
            with os.fdopen(write_fd, "w", encoding="utf-8") as handle:
                json.dump({"elapsed": elapsed, "anchors": verdict_anchors(result)}, handle)
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as handle:
        data = handle.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"verdict fork failed (wait status {status})")
    record = json.loads(data)
    return record["elapsed"], record["anchors"], usage.ru_maxrss * 1024


def run_exact(workload: ExactWorkload, seconds: float, min_reps: int = 2) -> dict:
    """Warm up, then repeat the verdict for *seconds* (at least *min_reps*).

    Each repetition is a :func:`forked_verdict` of this warmed-up process.
    Returns per-repetition wall seconds and anchors, and the verdicts'
    peak RSS.  Runs inside the measured child process.
    """
    Prepared(workload, warmup=True).verdict()
    prepared = Prepared(workload)
    reps: list[float] = []
    anchors: list[dict] = []
    peak = 0
    started = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        elapsed, found, rss = forked_verdict(prepared)
        reps.append(elapsed)
        anchors.append(found)
        peak = max(peak, rss)
    return {"reps": reps, "anchors": anchors, "peak_rss": peak}


# --------------------------------------------------------------------------
# serve-mix

#: analysis options of every catalogue request; the server caps equal them
OPTIONS = {"max_states": 2000, "max_seconds": 120.0, "witness": "earliest"}

#: the catalogue: sampler seeds of ``SMOKE_SAMPLER`` models with the exact
#: ``(status, wcrt_ticks)`` each must be answered with.  Coalesced models
#: cost the most (~0.4 s), so the second copy of a pair always arrives while
#: the first is still computing.
COALESCED = {0: ("checked-inexact", 9), 2: ("checked-inexact", 12),
             4: ("checked", 6), 11: ("checked-inexact", 32),
             12: ("checked-inexact", 9), 13: ("checked", 2)}
PAIRED = {1: ("checked-inexact", 16), 3: ("checked-inexact", None),
          5: ("checked", 2), 8: ("checked-inexact", 18),
          14: ("checked-inexact", None), 16: ("checked-inexact", 7),
          17: ("checked-inexact", 2), 19: ("checked-inexact", 11)}
ANCHORS = {**COALESCED, **PAIRED}
#: the paired models share a round in this fixed order, so the same two
#: jobs always compete for the cores whatever the seed
PAIRS = ((1, 19), (3, 17), (5, 16), (8, 14))
#: hit rounds per pass (two cache hits each).  The mix is synthetic: no
#: traffic record or hit-rate figure exists for ``repro-serve``, so it is
#: sized for the measurement, not taken from users.  32 rounds give 64 hit
#: samples per pass for ``hit_p50_ms`` while misses still take almost all
#: of a pass's time (a hit costs ~1 ms, a miss ~0.2-0.6 s).  A pass is
#: 84 requests: 14 misses, 6 coalesced-or-hit copies and 64 hits (76% hits).
#: ``throughput_per_s`` scales with this share, so serve-mix throughput
#: compares only runs with the same mix.
HIT_ROUNDS = 32
#: warm-up models (one per pool worker), not part of the catalogue
WARMUP_SEEDS = (6, 9)


def catalogue_payload(seed: int) -> dict:
    from repro.diffcheck.sampler import SMOKE_SAMPLER, sample_model
    from repro.diffcheck.serialize import model_to_dict

    return {"model": model_to_dict(sample_model(seed, SMOKE_SAMPLER)),
            "options": dict(OPTIONS)}


def serve_script(seed: int) -> list[tuple[int, int, str]]:
    """Rounds of two concurrent requests ``(model, model, expected)``.

    Each coalesced model is one ``"coalesce"`` round of two identical
    requests, each of ``PAIRS`` one ``"miss"`` round, then ``HIT_ROUNDS``
    ``"hit"`` rounds re-request answered models.  The seed orders the
    rounds and picks the hits; the set of models and pairs is fixed.
    """
    rng = random.Random(seed)
    rounds = [(m, m, "coalesce") for m in COALESCED]
    rounds += [(a, b, "miss") for a, b in PAIRS]
    rng.shuffle(rounds)
    answered = sorted(ANCHORS)
    rounds += [(rng.choice(answered), rng.choice(answered), "hit")
               for _ in range(HIT_ROUNDS)]
    return rounds


#: the cache states a round's two replies may come back with (sorted)
EXPECTED_KINDS = {
    "coalesce": (["coalesced", "miss"], ["hit", "miss"]),
    "miss": (["miss", "miss"],),
    "hit": (["hit", "hit"],),
}


def server_args(cache_path: str, workers: int) -> list[str]:
    return ["--port", "0", "--workers", str(workers),
            "--max-states-cap", str(OPTIONS["max_states"]),
            "--max-seconds-cap", str(OPTIONS["max_seconds"]),
            "--deadline-seconds", "120", "--queue-limit", "32",
            "--cache", cache_path]


def start_server(src: str, args: list[str]) -> tuple[subprocess.Popen, int]:
    """Launch ``repro-serve`` from *src* and return it with its port once it listens."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", *args],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    line = process.stdout.readline()
    if "listening on" not in line:
        stop_server(process)
        raise RuntimeError(f"repro-serve failed to start: {line!r}")
    return process, int(line.rsplit(":", 1)[1])


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


def request(port: int, method: str, path: str, body: "bytes | None" = None):
    """One HTTP exchange: (status, X-Repro-Cache header, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=150)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.getheader("X-Repro-Cache"), response.read()
    finally:
        conn.close()


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if request(port, "GET", "/healthz")[0] == 200:
                return
        except OSError:
            if time.monotonic() > deadline:
                raise
        time.sleep(0.005)


@dataclass
class Reply:
    seed: int
    kind: str
    status: int
    seconds: float
    body: bytes


def run_rounds(port: int, rounds: list[tuple],
               payloads: dict[int, bytes]) -> list[tuple[Reply, Reply]]:
    """Closed loop: two connections send each round together and wait."""
    barrier = threading.Barrier(2, timeout=300)
    replies: list[list] = [[None] * len(rounds), [None] * len(rounds)]
    errors: list[BaseException] = []

    def connection(k: int) -> None:
        try:
            for r, pair in enumerate(rounds):
                barrier.wait()
                t0 = time.perf_counter()
                status, kind, body = request(port, "POST", "/analyze", payloads[pair[k]])
                replies[k][r] = Reply(pair[k], kind or "", status,
                                      time.perf_counter() - t0, body)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=connection, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"serve-mix client failed: {errors[0]!r}")
    return list(zip(replies[0], replies[1]))


def check_reply(reply: Reply, anchor: "tuple[str, int] | None") -> list[str]:
    """One analysis answer: 200, no violation, no time budget, the anchor."""
    if reply.status != 200:
        return [f"model {reply.seed}: HTTP {reply.status}"]
    body = json.loads(reply.body)
    problems = []
    if body.get("violations"):
        problems.append(f"model {reply.seed}: violations {body['violations']}")
    if body.get("engines", {}).get("ta", {}).get("detail") == "time-budget":
        problems.append(f"model {reply.seed}: wall-clock budget fired")
    if anchor is not None and (body.get("status"), body.get("wcrt_ticks")) != anchor:
        problems.append(f"model {reply.seed}: expected {anchor}, got "
                        f"{(body.get('status'), body.get('wcrt_ticks'))}")
    return problems


def check_pass(rounds, replies, anchors=None):
    """Classify and check one pass of replies.

    Returns latency samples per kind (``miss``/``hit``/``coalesced``), the
    problems found, the first body served per model and the number of
    failed replies.  A hit or coalesced body must be byte-identical to its
    model's miss.
    """
    anchors = ANCHORS if anchors is None else anchors
    samples: dict[str, list[float]] = {"miss": [], "hit": [], "coalesced": []}
    problems: list[str] = []
    bodies: dict[int, bytes] = {}
    failed = 0
    for (a, b, expected), pair in zip(rounds, replies):
        kinds = sorted(reply.kind for reply in pair)
        if kinds not in EXPECTED_KINDS[expected]:
            problems.append(f"{expected} round ({a}, {b}) answered as {kinds}")
            failed += 1
        for reply in pair:
            found = check_reply(reply, anchors.get(reply.seed))
            if reply.kind in samples:
                samples[reply.kind].append(reply.seconds)
            else:
                found.append(f"model {reply.seed}: cache state {reply.kind!r}")
            first = bodies.setdefault(reply.seed, reply.body)
            if reply.body != first:
                found.append(f"model {reply.seed}: {reply.kind} body differs")
            failed += bool(found)
            problems += found
    return samples, problems, bodies, failed


def body_digest(bodies: dict[int, bytes]) -> str:
    """Order-independent digest of every model's served body."""
    digest = hashlib.sha256()
    for seed in sorted(bodies):
        digest.update(f"{seed}\0".encode() + bodies[seed] + b"\0")
    return digest.hexdigest()
