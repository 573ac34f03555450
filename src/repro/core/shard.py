"""Sharded exact exploration: the level-synchronous rounds split by key.

:class:`ShardedExplorer` runs the same rounds as the in-process breadth-
first engine (:mod:`repro.core.level`), with the target discrete keys
partitioned across ``SearchOptions.shard_workers`` forked worker processes.
Every discrete key is *owned* by exactly one shard (``crc32(key) %
workers``); the owner holds the key's
:class:`~repro.core.federation.Federation` and decides every candidate
targeting it.  Successor candidates whose target key lives on another shard
are handed off through per-worker :class:`~repro.core.zonepool.SharedZonePool`
outboxes (the pipes carry only ``(offset, count)`` descriptors, the raw zone
rows travel through shared memory).

Round protocol
--------------
1. **ship** (optional): when the coordinator's deterministic count-based
   work-stealing pass finds a skewed frontier, the richest shard ships half
   of its surplus (the highest-sequence states) to the poorest shard.
2. **expand**: every worker runs :func:`repro.core.level.expand` over its
   owned (plus stolen) frontier states below the round horizon -- tagging
   each candidate ``(parent_seq, plan_index)`` -- and routes each candidate
   group to the owner of its (symmetry-folded) target key.
3. **decide**: every worker runs :func:`repro.core.level.decide` over the
   groups it owns and walks the stored candidates in tag order.
4. **merge**: the coordinator lexsorts the reported tags, assigns global
   scalar sequence numbers (``seq`` = scalar BFS pop order), accumulates the
   per-candidate decision records into the statistics, and resolves goals,
   deferred plan errors and the supremum in tag order.

Determinism
-----------
A key's verdicts depend only on the zones earlier-tagged candidates stored
under that key, all of which the owner decides; the tag-order argument of
:mod:`repro.core.level` therefore holds per shard, and verdicts, traces,
witnesses and every comparable :class:`ExplorationStatistics` counter are
bit-identical to the scalar engine (``tests/core/test_shard.py`` and
``tests/core/test_level_engine.py`` pin this, the scaling benchmark enforces
it on the case study with a hard non-zero exit).

Witness traces are reconstructed by *replay*: the coordinator keeps only the
``(parent_seq, plan_index)`` tag of every stored state, walks the tag chain
from the goal back to the root, and re-fires the plan chain from the initial
state through the scalar successor pipeline -- bit-identical zones at a
memory cost independent of the state count.

The round barrier makes distributed termination detection degenerate: the
coordinator relays every message, so its per-round credit accounting
(requests out == replies in, frontier empty, nothing stored) is the
Safra-style termination token collapsed onto a star topology.

Supervision: a worker that dies (fault injection, OOM, a kill) closes its
pipe; the coordinator detects the EOF, tears the fleet down and restarts the
whole exploration once -- the restart is deterministic, so the result is
unchanged.  A second crash raises :class:`AnalysisError`.  Worker-side
*semantic* errors (deferred range violations behind live guards) are not
crashes: they travel back as data and re-raise in the parent exactly where
the scalar engine would have raised them.

A network on which the ample-set (partial-order) reduction has a static
candidate is not sharded: its ignoring proviso reads the passed list
mid-expansion, so it runs the in-process scalar loop like every other
engine configuration.  Symmetry folding and LU extrapolation compose fully
(``docs/performance.md``).
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
import zlib
from array import array

import numpy as np

from repro.core import level
from repro.core.dbm import DBM
from repro.core.federation import Federation
from repro.core.network import CompiledNetwork
from repro.core.properties import BoundFormula
from repro.core.reachability import (
    _UNRECORDED,
    Explorer,
    SearchOptions,
    _SearchNode,
)
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import SemanticsOptions, SymbolicState
from repro.core.zonepool import SharedZonePool
from repro.util.errors import AnalysisError

__all__ = ["ShardedExplorer", "select_explorer"]

#: frontier imbalance (richest minus poorest shard) above which the
#: coordinator ships half the surplus; tests shrink it to force steals
_STEAL_THRESHOLD = 64

#: rows per worker outbox segment; larger hand-off bursts spill inline
_OUTBOX_ROWS = 8192


def _owner_of(key_bytes: bytes, workers: int) -> int:
    """Owner shard of a discrete key (stable across processes and runs)."""
    return zlib.crc32(key_bytes) % workers


def _unpack_key(key_bytes: bytes, n_instances: int) -> tuple[tuple, tuple]:
    """Invert :func:`pack_discrete` (int64 round-trips exactly)."""
    values = array("q")
    values.frombytes(key_bytes)
    return tuple(values[:n_instances]), tuple(values[n_instances:])


class _ShardCrash(Exception):
    """A worker pipe closed unexpectedly: the shard fleet must restart."""


class _ShardFatal(Exception):
    """A worker hit an unexpected exception (deterministic; do not restart)."""

    def __init__(self, error: BaseException):
        super().__init__(repr(error))
        self.error = error


# ------------------------------------------------------------------ pipe framing
def _write_exact(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        try:
            written = os.write(fd, view)
        except OSError as exc:
            raise _ShardCrash(f"shard pipe write failed: {exc}") from None
        view = view[written:]


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    while count:
        try:
            chunk = os.read(fd, count)
        except OSError as exc:
            raise _ShardCrash(f"shard pipe read failed: {exc}") from None
        if not chunk:
            raise _ShardCrash("shard pipe closed unexpectedly")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _send(fd: int, message: object) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    _write_exact(fd, struct.pack("<Q", len(data)) + data)


def _recv(fd: int) -> tuple:
    (length,) = struct.unpack("<Q", _read_exact(fd, 8))
    return pickle.loads(_read_exact(fd, length))


class _EvalSpec:
    """What every shard evaluates on each stored state (built pre-fork).

    The spec closes over bound formulas whose query constants the entry
    point registered *before* the fork, so every worker inherits the exact
    extrapolation the scalar engine would use.
    """

    __slots__ = ("kind", "predicate", "clock_id", "condition")

    def __init__(self, kind, predicate=None, clock_id=None, condition=None):
        self.kind = kind  # "count", "goal" or "sup"
        self.predicate = predicate
        self.clock_id = clock_id
        self.condition = condition


class _ShardWorker:
    """One forked shard: owns a key partition, speaks the round protocol."""

    def __init__(self, rank, workers, read_fd, write_fd, explorer, spec,
                 pool, initial, root_key, attempt):
        self.rank = rank
        self.workers = workers
        self.read_fd = read_fd
        self.write_fd = write_fd
        self.generator = explorer.generator
        self.symmetry = explorer.symmetry
        self.spec = spec
        self.pool = pool
        self.dim = explorer.network.dim
        self.n_instances = len(explorer.network.instances)
        self.attempt = attempt
        self.passed: dict[bytes, Federation] = {}
        #: seq -> (key_bytes, state); stored, not yet expanded
        self.frontier: dict[int, tuple[bytes, SymbolicState]] = {}
        #: stored this round, awaiting sequence numbers (tag order)
        self.unassigned: list[tuple[tuple[int, int], bytes, SymbolicState]] = []
        #: candidate groups this worker generated for itself
        self.local_groups: list[tuple] = []
        self.sup_best: tuple[int, tuple[int, int]] | None = None
        self._injected = False
        if _owner_of(root_key, workers) == rank:
            federation = Federation(self.dim)
            federation.add_uncovered(initial.zone)
            self.passed[root_key] = federation
            self.frontier[0] = (root_key, initial)

    # -------------------------------------------------------------- main loop
    def run(self) -> None:
        try:
            while True:
                message = _recv(self.read_fd)
                tag = message[0]
                if tag == "expand":
                    self._expand(message[1], message[2], message[3])
                elif tag == "decide":
                    self._decide(message[1])
                elif tag == "ship":
                    self._ship(message[1], message[2])
                else:  # pragma: no cover - protocol bug
                    raise AnalysisError(f"unknown shard message {tag!r}")
        except _ShardCrash:
            # the coordinator closed the pipes: normal shutdown
            os._exit(0)
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            try:
                try:
                    pickle.dumps(exc)
                except Exception:
                    exc = AnalysisError(
                        f"shard worker {self.rank} failed: {exc!r}"
                    )
                _send(self.write_fd, ("fatal", exc))
            except _ShardCrash:
                pass
            os._exit(1)

    # -------------------------------------------------------------- expand
    def _install(self, assigned) -> None:
        """Bind the coordinator's sequence numbers to last round's stores."""
        if len(assigned) != len(self.unassigned):  # pragma: no cover
            raise AnalysisError("shard sequence assignment out of step")
        for (tag, key, state), seq in zip(self.unassigned, assigned):
            self.frontier[seq] = (key, state)
        self.unassigned = []

    def _expand(self, upto, assigned, stolen) -> None:
        self._install(assigned)
        for seq, key, row in stolen:
            locations, variables = _unpack_key(key, self.n_instances)
            zone = DBM(self.dim, raw=row)
            self.frontier[seq] = (
                key, SymbolicState(locations, variables, zone, key)
            )
        if not self._injected:
            self._injected = True
            from repro.sweep.faults import maybe_inject

            maybe_inject(f"shard/{self.rank}", self.rank, self.attempt,
                         stage="shard")

        todo = sorted(seq for seq in self.frontier if seq < upto)
        by_key: dict[bytes, list] = {}
        for seq in todo:
            key, state = self.frontier.pop(seq)
            by_key.setdefault(key, []).append((seq, state))
        groups, error = level.expand(self.generator, self.symmetry, (
            (np.array([seq for seq, _ in batch], dtype=np.int64),
             [state for _, state in batch])
            for batch in by_key.values()
        ))

        outgoing: dict[int, list] = {}
        handoffs = 0
        offset = 0
        for group in groups:
            dest = _owner_of(group.key, self.workers)
            if dest == self.rank:
                self.local_groups.append(group)
                continue
            count = len(group.tags)
            handoffs += count
            if self.pool.write(self.rank, offset, group.rows):
                ref = ("shm", offset, count)
                offset += count
            else:
                ref = ("inline", group.rows)
            outgoing.setdefault(dest, []).append(
                (group.key, group.plan_index, group.folded, group.tags, ref)
            )
        _send(self.write_fd, ("expanded", outgoing, error, handoffs))

    # -------------------------------------------------------------- decide
    def _decide(self, incoming) -> None:
        groups = self.local_groups
        self.local_groups = []
        for src, key, plan_index, folded, tags, ref in incoming:
            rows = self.pool.read(src, ref[1], ref[2]) if ref[0] == "shm" else ref[1]
            locations, variables = _unpack_key(key, self.n_instances)
            groups.append(level.CandidateGroup(
                key, locations, variables, plan_index, folded, tags, rows
            ))
        decided = level.decide(self.generator, self.passed, groups, self.dim)

        # tag-ordered walk over the stored candidates: assemble the frontier
        # states and evaluate the query spec in scalar visit order
        spec = self.spec
        goal_tag = None
        pending: dict[bytes, list] = {}
        parents, plans = decided.tags.tolist(), decided.plans.tolist()
        for index in np.flatnonzero(decided.stored).tolist():
            state = decided.state(index)
            pending.setdefault(state.dkey, []).append(state.zone)
            tag = (parents[index], plans[index])
            self.unassigned.append((tag, state.dkey, state))
            if spec.kind == "goal":
                if goal_tag is None and spec.predicate(state):
                    goal_tag = tag
            elif spec.kind == "sup":
                if spec.condition is None or spec.condition.possibly(state):
                    raw_bound = state.zone.upper_bound(spec.clock_id)
                    if self.sup_best is None or raw_bound > self.sup_best[0]:
                        self.sup_best = (raw_bound, tag)
        level.flush(self.passed, pending, self.dim)
        _send(self.write_fd, ("decided", decided.tags, decided.plans,
                              decided.stored, decided.folded, goal_tag,
                              self.sup_best))

    # -------------------------------------------------------------- stealing
    def _ship(self, seqs, assigned) -> None:
        # a ship can ask for seqs assigned at the end of the previous round,
        # which normally travel with the next expand -- so the coordinator
        # delivers them here instead (and sends the expand an empty list)
        self._install(assigned)
        shipped = []
        for seq in seqs:
            key, state = self.frontier.pop(seq)
            # the zone stays in this shard's federation (coverage needs it);
            # the thief gets a copy of the extrapolated matrix
            shipped.append((seq, key, state.zone.m.copy()))
        _send(self.write_fd, ("shipped", shipped))


class _Handle:
    """Coordinator-side record of one forked shard."""

    __slots__ = ("rank", "pid", "read_fd", "write_fd")

    def __init__(self, rank, pid, read_fd, write_fd):
        self.rank = rank
        self.pid = pid
        self.read_fd = read_fd
        self.write_fd = write_fd


class ShardedExplorer(Explorer):
    """The :class:`Explorer` facade over the sharded round protocol.

    Entry points (``sup``, ``check``, ``count_states``) behave exactly like
    the scalar engine's: the overridden :meth:`explore` runs the distributed
    search and then calls the entry point's visit callback once, on the
    replayed goal (or supremum) state, so verdicts, traces and results flow
    through the unmodified post-processing.  Callers that pass a raw
    ``visit`` callable (``reachable_discrete_states``) fall back to the
    in-process engine transparently, as does any configuration sharding
    cannot honour (non-bfs order, no inclusion checking, fewer than two
    workers, no ``os.fork``).
    """

    def __init__(
        self,
        network: CompiledNetwork,
        semantics: SemanticsOptions | None = None,
        search: SearchOptions | None = None,
    ):
        super().__init__(network, semantics, search)
        #: whole-exploration restarts after a worker crash (supervision
        #: metadata, deliberately not part of ExplorationStatistics)
        self.restarts = 0
        self._shard_query = None

    # ------------------------------------------------------------ entry points
    def _check_ef(self, query):
        self._shard_query = ("ef", query)
        try:
            return super()._check_ef(query)
        finally:
            self._shard_query = None

    def _check_ag(self, query):
        self._shard_query = ("ag", query)
        try:
            return super()._check_ag(query)
        finally:
            self._shard_query = None

    def sup(self, query):
        self._shard_query = ("sup", query)
        try:
            return super().sup(query)
        finally:
            self._shard_query = None

    # ------------------------------------------------------------ dispatch
    def _build_spec(self, visit) -> _EvalSpec | None:
        search = self.search
        if (
            search.shard_workers < 2
            or search.order != "bfs"
            or not search.inclusion_checking
            or not hasattr(os, "fork")
            or self._scalar_oracle
            # the ample-set proviso interleaves with the passed-list updates
            # one state at a time: such networks run the in-process scalar loop
            or self._has_ample_candidate()
        ):
            return None
        if self._shard_query is None:
            # a raw visit callback cannot cross the fork; pure exploration can
            return None if visit is not None else _EvalSpec("count")
        kind, query = self._shard_query
        if kind == "ef":
            return _EvalSpec(
                "goal", BoundFormula(query.formula, self.network).possibly
            )
        if kind == "ag":
            return _EvalSpec(
                "goal",
                BoundFormula(query.formula.negate(), self.network).possibly,
            )
        clock_id = self.network.clock_id(query.clock)
        condition = (
            BoundFormula(query.condition, self.network)
            if query.condition is not None
            else None
        )
        return _EvalSpec("sup", None, clock_id, condition)

    def explore(self, visit=None) -> ExplorationStatistics:
        spec = self._build_spec(visit)
        if spec is None:
            return super().explore(visit)
        last_crash = None
        for attempt in (1, 2):
            try:
                return self._explore_sharded(spec, visit, attempt)
            except _ShardFatal as fatal:
                raise fatal.error.with_traceback(None) from None
            except _ShardCrash as crash:
                self.restarts += 1
                last_crash = crash
        raise AnalysisError(
            f"sharded exploration crashed twice ({last_crash}); "
            "the worker fleet could not be supervised back to health"
        )

    # ------------------------------------------------------------ coordinator
    def _explore_sharded(self, spec, visit, attempt) -> ExplorationStatistics:
        options = self.search
        workers = options.shard_workers
        record_traces = options.record_traces
        stats = ExplorationStatistics(search_order="bfs")
        stats.shard_workers = workers
        stats.start_timer()

        initial = self._canonical(self.generator.initial_state(), stats)
        self.generator.extrapolate(initial.zone)
        root_key = initial.discrete_bytes()
        stats.states_stored = 1
        stats.peak_waiting = 1

        if spec.kind == "goal" and spec.predicate(initial):
            if visit is not None:
                visit(initial, _SearchNode(initial, None, None))
            stats.termination = "goal"
            stats.stop_timer()
            return stats
        root_sup = None
        if spec.kind == "sup" and (
            spec.condition is None or spec.condition.possibly(initial)
        ):
            root_sup = initial.zone.upper_bound(spec.clock_id)

        deadline = (
            time.perf_counter() + options.max_seconds
            if options.max_seconds is not None
            else None
        )
        if options.deadline is not None:
            deadline = (
                options.deadline if deadline is None
                else min(deadline, options.deadline)
            )
        max_states = options.max_states

        # warm the fault-injection module before forking so every worker
        # inherits it instead of re-importing on its first expand (imported
        # lazily here: repro.sweep pulls in the analysis layer, which would
        # be a circular import at module scope)
        from repro.sweep.faults import maybe_inject  # noqa: F401

        pool = None
        handles: list[_Handle] = []
        try:
            pool = SharedZonePool(workers, self.network.dim, rows=_OUTBOX_ROWS)
            for rank in range(workers):
                child_read, parent_write = os.pipe()
                parent_read, child_write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(parent_write)
                    os.close(parent_read)
                    # drop the parent ends of earlier siblings so a crashed
                    # worker's pipe EOFs in the coordinator immediately
                    for handle in handles:
                        os.close(handle.read_fd)
                        os.close(handle.write_fd)
                    _ShardWorker(
                        rank, workers, child_read, child_write, self, spec,
                        pool, initial, root_key, attempt,
                    ).run()
                    os._exit(0)  # pragma: no cover - run() never returns
                os.close(child_read)
                os.close(child_write)
                handles.append(_Handle(rank, pid, parent_read, parent_write))

            return self._coordinate(
                spec, visit, stats, handles, initial, root_key, root_sup,
                deadline, max_states, record_traces,
            )
        finally:
            for handle in handles:
                for fd in (handle.write_fd, handle.read_fd):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                try:
                    os.kill(handle.pid, signal.SIGKILL)
                except OSError:
                    pass
                try:
                    os.waitpid(handle.pid, 0)
                except OSError:
                    pass
            if pool is not None:
                pool.close()

    def _reply(self, handle: _Handle, expected: str) -> tuple:
        message = _recv(handle.read_fd)
        if message[0] == "fatal":
            raise _ShardFatal(message[1])
        if message[0] != expected:  # pragma: no cover - protocol bug
            raise AnalysisError(
                f"shard protocol error: expected {expected!r}, "
                f"got {message[0]!r}"
            )
        return message

    def _coordinate(
        self, spec, visit, stats, handles, initial, root_key, root_sup,
        deadline, max_states, record_traces,
    ) -> ExplorationStatistics:
        workers = len(handles)
        #: seq -> (parent_seq, plan_index); seq 0 is the root
        tag_of_seq: list[tuple[int, int] | None] = [None]
        pending: list[list[int]] = [[] for _ in range(workers)]
        pending[_owner_of(root_key, workers)].append(0)
        next_seq = 1
        expanded = 0
        transitions = inclusions = folds = 0
        goal_tag = None
        worker_sup: list[tuple | None] = [None] * workers
        #: sequence numbers assigned at the end of the previous round, to be
        #: delivered with the next expand (aligned to each worker's
        #: tag-sorted unassigned list)
        assignments: list[list[int]] = [[] for _ in range(workers)]

        while True:
            if next_seq == expanded:
                break  # frontier empty: "exhausted" (the default)
            if max_states is not None and expanded >= max_states:
                stats.termination = "state-budget"
                break
            if deadline is not None and time.perf_counter() > deadline:
                stats.termination = "time-budget"
                break
            upto = next_seq if max_states is None else min(next_seq, max_states)

            # deterministic count-based work stealing: the coordinator knows
            # every shard's frontier, so victim, thief and the shipped seqs
            # are pure functions of the (deterministic) assignment history
            stolen: list[list] = [[] for _ in range(workers)]
            if workers > 1:
                counts = [
                    sum(1 for seq in queue if seq < upto) for queue in pending
                ]
                rich = max(range(workers), key=counts.__getitem__)
                poor = min(range(workers), key=counts.__getitem__)
                surplus = counts[rich] - counts[poor]
                if surplus > _STEAL_THRESHOLD:
                    share = surplus // 2
                    shipped_seqs = sorted(
                        seq for seq in pending[rich] if seq < upto
                    )[-share:]
                    if shipped_seqs:
                        # the ship also delivers the victim's outstanding
                        # sequence assignments (a shipped seq may have been
                        # assigned only at the end of the previous round, in
                        # which case it is not in the victim's frontier yet)
                        _send(handles[rich].write_fd,
                              ("ship", shipped_seqs, assignments[rich]))
                        assignments[rich] = []
                        reply = self._reply(handles[rich], "shipped")
                        stolen[poor] = reply[1]
                        moved = set(shipped_seqs)
                        pending[rich] = [
                            seq for seq in pending[rich] if seq not in moved
                        ]
                        pending[poor].extend(shipped_seqs)
                        stats.shard_steals += len(shipped_seqs)

            for handle in handles:
                _send(
                    handle.write_fd,
                    ("expand", upto, assignments[handle.rank],
                     stolen[handle.rank]),
                )
            expanded_replies = [
                self._reply(handle, "expanded") for handle in handles
            ]
            error = None
            for _tag, outgoing, worker_error, handoffs in expanded_replies:
                stats.shard_handoffs += handoffs
                if worker_error is not None and (
                    error is None or worker_error[0] < error[0]
                ):
                    error = worker_error
            for handle in handles:
                incoming = []
                for src, reply in enumerate(expanded_replies):
                    incoming.extend(
                        (src, *group)
                        for group in reply[1].get(handle.rank, ())
                    )
                _send(handle.write_fd, ("decide", incoming))
            decided = [self._reply(handle, "decided") for handle in handles]

            parents = np.concatenate([reply[1] for reply in decided])
            plans = np.concatenate([reply[2] for reply in decided])
            stored = np.concatenate([reply[3] for reply in decided])
            folded = np.concatenate([reply[4] for reply in decided])
            owner = np.concatenate([
                np.full(len(reply[1]), rank, dtype=np.intp)
                for rank, reply in enumerate(decided)
            ])
            for rank, reply in enumerate(decided):
                if reply[5] is not None and (
                    goal_tag is None or reply[5] < goal_tag
                ):
                    goal_tag = reply[5]
                if reply[6] is not None:
                    worker_sup[rank] = reply[6]

            if error is not None and (
                goal_tag is None or error[0] <= goal_tag[0]
            ):
                # the scalar engine raises while generating the successors of
                # seq error[0]; nothing after that expansion exists there
                raise error[1]

            order = np.lexsort((plans, parents))
            parents, plans = parents[order], plans[order]
            stored, folded, owner = stored[order], folded[order], owner[order]
            if goal_tag is not None:
                goal_parent, goal_plan = goal_tag
                keep = (parents < goal_parent) | (
                    (parents == goal_parent) & (plans <= goal_plan)
                )
                parents, plans = parents[keep], plans[keep]
                stored, folded, owner = stored[keep], folded[keep], owner[keep]
            transitions += int(parents.size)
            inclusions += int(parents.size - stored.sum())
            folds += int(folded.sum())

            assign_mask = stored
            if goal_tag is not None:
                # the goal state is stored but never enters the waiting list
                assign_mask = stored & ~(
                    (parents == goal_tag[0]) & (plans == goal_tag[1])
                )
            assignments = [[] for _ in range(workers)]
            for index in np.flatnonzero(assign_mask):
                tag_of_seq.append((int(parents[index]), int(plans[index])))
                rank = int(owner[index])
                assignments[rank].append(next_seq)
                pending[rank].append(next_seq)
                next_seq += 1

            expanded = upto
            for rank in range(workers):
                pending[rank] = [
                    seq for seq in pending[rank] if seq >= upto
                ]
            if goal_tag is not None:
                stats.termination = "goal"
                break

        # ---------------------------------------------------------- assembly
        stats.states_explored = (
            goal_tag[0] + 1 if goal_tag is not None else expanded
        )
        stats.states_stored = len(tag_of_seq) + (1 if goal_tag is not None else 0)
        stats.transitions = transitions
        stats.inclusions = inclusions
        stats.states_subsumed_lu = inclusions if self._lu_active else 0
        stats.keys_folded += folds
        stats.peak_waiting = _replay_peak(tag_of_seq, stats.states_explored)

        if goal_tag is not None and visit is not None:
            chain = _plan_chain(tag_of_seq, goal_tag[0]) + [goal_tag[1]]
            state, node = self._replay_chain(initial, chain, record_traces)
            visit(state, node)
        if spec.kind == "sup" and visit is not None:
            best = None  # (raw, tag or None-for-root)
            if root_sup is not None:
                best = (root_sup, None)
            for candidate in worker_sup:
                if candidate is None:
                    continue
                raw, tag = candidate
                if (
                    best is None
                    or raw > best[0]
                    or (raw == best[0] and best[1] is not None
                        and tag < best[1])
                ):
                    best = (raw, tag)
            if best is not None:
                if best[1] is None:
                    state, node = initial, _SearchNode(initial, None, None)
                else:
                    chain = _plan_chain(tag_of_seq, best[1][0]) + [best[1][1]]
                    state, node = self._replay_chain(
                        initial, chain, record_traces
                    )
                visit(state, node)
        stats.stop_timer()
        return stats

    def _replay_chain(self, initial, plan_chain, record_traces):
        """Re-fire *plan_chain* from the root through the scalar pipeline.

        Bit-identical to the worker-side generation (the batched kernels are
        layer-exact), so the materialised states match the shards' stored
        zones exactly -- this is how goal witnesses and supremum traces are
        reconstructed without keeping any zone rows per sequence number.
        """
        scratch = ExplorationStatistics()  # replay folds were already counted
        state = initial
        node = _SearchNode(initial, None, None)
        for plan_index in plan_chain:
            fired = self.generator.successors(
                state, with_labels=record_traces, extrapolate=False,
                plan_indices=(int(plan_index),),
            )
            label, child = fired[0]
            child = self._canonical(child, scratch)
            self.generator.extrapolate(child.zone)
            node = _SearchNode(
                child, node if record_traces else _UNRECORDED, label
            )
            state = child
        return state, node


def _plan_chain(tag_of_seq, seq) -> list[int]:
    """Plan indices firing the root-to-*seq* chain, in firing order."""
    plan_chain: list[int] = []
    while seq != 0:
        parent_seq, plan_index = tag_of_seq[seq]
        plan_chain.append(plan_index)
        seq = parent_seq
    plan_chain.reverse()
    return plan_chain


def _replay_peak(tag_of_seq, n_expanded) -> int:
    """Scalar ``peak_waiting`` from the stored-child tags.

    Replays the FIFO length evolution: each expansion pops one state and
    appends its stored children (the goal child, which never enters the
    waiting list, is deliberately absent from ``tag_of_seq``).
    """
    children: dict[int, int] = {}
    for seq in range(1, len(tag_of_seq)):
        parent_seq = tag_of_seq[seq][0]
        children[parent_seq] = children.get(parent_seq, 0) + 1
    length = peak = 1
    for seq in range(n_expanded):
        length -= 1
        count = children.get(seq, 0)
        if count:
            length += count
            if length > peak:
                peak = length
    return peak


def select_explorer(
    network: CompiledNetwork,
    semantics: SemanticsOptions | None = None,
    search: SearchOptions | None = None,
) -> Explorer:
    """The right engine for *search*: sharded when it can honour the options.

    Sharding requires at least two workers, breadth-first order, inclusion
    checking and ``os.fork``; anything else gets the in-process engine.
    (:class:`ShardedExplorer` additionally falls back per-call for entry
    points it cannot distribute, so selecting it is always safe.)
    """
    search = search or SearchOptions()
    if (
        search.shard_workers >= 2
        and search.order == "bfs"
        and search.inclusion_checking
        and hasattr(os, "fork")
    ):
        return ShardedExplorer(network, semantics, search)
    return Explorer(network, semantics, search)
