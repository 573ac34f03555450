"""Zone-graph exploration: the reachability engine behind every query.

The engine implements the standard UPPAAL forward exploration with a
*waiting* list of symbolic states still to be expanded and a *passed* list of
states already seen.  The passed list is indexed by the discrete part
(location vector + variable vector) and stores, per discrete state, a set of
maximal zones; a new symbolic state is discarded when its zone is included in
a stored zone (inclusion checking).

Search orders:

* ``"bfs"``  — breadth first (default; shortest counterexamples),
* ``"dfs"``  — depth first,
* ``"rdfs"`` — randomised depth first (successor order shuffled), the
  "structured testing" mode the paper uses to obtain lower bounds on the
  worst-case response times when the exact search does not terminate within
  the budget.

Budgets (``max_states``, ``max_seconds``) make the engine stop early and mark
the result as partial instead of raising, because partial exploration is a
legitimate analysis mode in the paper (Table 1 reports ``> x (df)`` /
``> x (rdf)`` entries obtained that way).
"""

from __future__ import annotations

import random
import time
import warnings
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core import level
from repro.core.dbm import INFINITY_RAW, bound_as_tuple
from repro.core.federation import Federation
from repro.core.network import CompiledNetwork
from repro.core.properties import AG, EF, BoundFormula, Query, StateFormula, Sup, formula_visibility
from repro.core.reductions import ReductionConfig
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import (
    SemanticsOptions,
    SuccessorGenerator,
    SymbolicState,
    TransitionLabel,
    pack_discrete,
)
from repro.util.errors import AnalysisError, ModelError

__all__ = [
    "SearchOptions",
    "ReachabilityResult",
    "SupResult",
    "Explorer",
    "Trace",
    "TraceStep",
]

#: most waiting states one round of the breadth-first engine expands: it
#: bounds the round's candidate rows in memory and how far past an expired
#: deadline one round's batched work can run
_ROUND_WINDOW = 1024
#: fewest waiting states worth a round: below it the batching does not pay
#: for the round's fixed cost, and states expand one at a time
_MIN_ROUND = 16


@dataclass
class SearchOptions:
    """Options of the exploration itself (orthogonal to the semantics)."""

    #: "bfs", "dfs" or "rdfs"
    order: str = "bfs"
    #: stop after expanding this many symbolic states (None = unlimited)
    max_states: int | None = None
    #: stop after this much wall-clock time in seconds (None = unlimited)
    max_seconds: float | None = None
    #: absolute ``time.perf_counter`` instant to stop at (None = unlimited);
    #: combined with ``max_seconds`` by taking whichever comes first -- the
    #: hook through which a supervised sweep imposes one wall-clock deadline
    #: across generation, exploration and witness construction
    deadline: float | None = None
    #: seed of the random generator used by "rdfs"
    seed: int = 0
    #: discard successors whose zone is included in an already stored zone
    inclusion_checking: bool = True
    #: keep parent pointers so that witness/counterexample traces can be built
    record_traces: bool = True
    #: deprecated and ignored: the breadth-first engine batches whole round
    #: windows, not runs of a fixed size (``docs/performance.md``); setting
    #: it warns, and the field goes away in the next release
    block_size: int | None = None
    #: which state-space reductions the engine may apply; accepts a
    #: :class:`ReductionConfig`, a spec string (``"all"``, ``"none"``, a
    #: comma list of canonical names), a dict of flags or ``None`` (all on);
    #: normalised to a :class:`ReductionConfig` by ``__post_init__``
    reductions: ReductionConfig | str | dict | None = None
    #: worker processes the sharded breadth-first engine may fork; 0 and 1
    #: run the same level-synchronous rounds in-process.  Sharding requires
    #: bfs order with inclusion checking and ``os.fork`` --
    #: :func:`repro.core.shard.select_explorer` falls back to the in-process
    #: engine otherwise (see ``docs/performance.md``)
    shard_workers: int = 0

    def __post_init__(self):
        if self.order not in ("bfs", "dfs", "rdfs"):
            raise ModelError(f"unknown search order {self.order!r}")
        if self.block_size is not None:
            warnings.warn(
                "SearchOptions.block_size is deprecated and ignored: the "
                "breadth-first engine batches whole rounds",
                DeprecationWarning, stacklevel=3,
            )
            if self.block_size < 1:
                raise ModelError("block_size must be at least 1")
        if self.shard_workers < 0:
            raise ModelError("shard_workers must be non-negative")
        self.reductions = ReductionConfig.parse(self.reductions)


@dataclass(frozen=True)
class TraceStep:
    """One step of a symbolic trace."""

    label: TransitionLabel | None
    state: SymbolicState


@dataclass(frozen=True)
class Trace:
    """A symbolic run from the initial state to a target state."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final_state(self) -> SymbolicState:
        return self.steps[-1].state

    def format(self, network: CompiledNetwork) -> str:
        """Multi-line human-readable rendering of the trace."""
        lines = []
        for index, step in enumerate(self.steps):
            if step.label is not None:
                lines.append(f"  --[{step.label}]-->")
            lines.append(f"{index:4d}: {step.state.describe(network)}")
        return "\n".join(lines)


@dataclass
class ReachabilityResult:
    """Outcome of an ``E<>`` / ``A[]`` query."""

    query: Query
    #: True / False when the query was decided; None when the exploration was
    #: cut short by a budget before a decision was possible
    holds: bool | None
    #: witness trace (EF) or counterexample trace (AG), when available
    trace: Trace | None
    statistics: ExplorationStatistics

    @property
    def decided(self) -> bool:
        return self.holds is not None

    def __str__(self) -> str:
        verdict = {True: "satisfied", False: "violated", None: "undecided"}[self.holds]
        return f"{self.query}: {verdict} ({self.statistics})"


@dataclass
class SupResult:
    """Outcome of a :class:`~repro.core.properties.Sup` query."""

    query: Sup
    #: largest value of the clock over the matching reachable states, in model
    #: time units; None when no matching state was reached
    value: int | None
    #: True when the supremum is attained (a weak bound), False when it is a
    #: strict limit
    attained: bool
    #: True when the value is only a lower bound (budget exhausted or the
    #: bound hit the extrapolation ceiling)
    is_lower_bound: bool
    statistics: ExplorationStatistics
    #: trace to a state attaining the reported value (when recorded)
    trace: Trace | None = None

    def __str__(self) -> str:
        if self.value is None:
            return f"{self.query}: no matching state reached ({self.statistics})"
        prefix = ">" if self.is_lower_bound else ("=" if self.attained else "<")
        return f"{self.query}: {prefix} {self.value} ({self.statistics})"


class _UnrecordedParent:
    """Sentinel parent of nodes created with ``record_traces=False``.

    Distinguishes "this node is the search root" (parent ``None``, a
    one-step trace is correct) from "the ancestry was deliberately not
    recorded" -- building a trace through the sentinel raises instead of
    silently returning a partial chain.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<unrecorded parent>"


_UNRECORDED = _UnrecordedParent()


class _SearchNode:
    """Internal: a stored symbolic state plus its parent pointer."""

    __slots__ = ("state", "parent", "label")

    def __init__(
        self,
        state: SymbolicState,
        parent: "_SearchNode | _UnrecordedParent | None",
        label: TransitionLabel | None,
    ):
        self.state = state
        self.parent = parent
        self.label = label

    def trace(self) -> Trace:
        steps: list[TraceStep] = []
        node: _SearchNode | _UnrecordedParent | None = self
        while node is not None:
            if node is _UNRECORDED:
                raise AnalysisError(
                    "cannot build a trace: the exploration ran with "
                    "record_traces=False, so parent pointers were not kept; "
                    "re-run with SearchOptions(record_traces=True)"
                )
            steps.append(TraceStep(node.label, node.state))
            node = node.parent
        steps.reverse()
        return Trace(tuple(steps))


class Explorer:
    """Forward zone-graph exploration over a compiled network."""

    #: run every search through the scalar loop (the reference oracle the
    #: tests compare the round engine against)
    _scalar_oracle = False

    def __init__(
        self,
        network: CompiledNetwork,
        semantics: SemanticsOptions | None = None,
        search: SearchOptions | None = None,
    ):
        self.network = network
        self.semantics = semantics or SemanticsOptions()
        self.search = search or SearchOptions()
        reductions = self.search.reductions
        # effective extrapolation: the reductions config upgrades "max" to
        # the per-clock LU grid, and recorded traces force the classical
        # grid back on (witness concretisation is specified against it);
        # "none" always stays "none" (docs/reductions.md, fallback table)
        mode = self.semantics.extrapolation
        if mode != "none":
            if self.search.record_traces:
                mode = "max" if mode == "lu" else mode
            elif reductions.lu_extrapolation:
                mode = "lu"
        if mode != self.semantics.extrapolation:
            self.semantics = replace(self.semantics, extrapolation=mode)
        self.generator = SuccessorGenerator(network, self.semantics)
        #: the verified replication symmetry in effect (None = folding
        #: inert): requires the config flag, a spec attached to the network
        #: and no trace recording -- a canonical trace is not a genuine run
        #: of the unfolded network
        self.symmetry = (
            network.symmetry
            if reductions.symmetry and not self.search.record_traces
            else None
        )
        self._lu_active = mode == "lu"
        # the ample-set reduction leans on inclusion checking for its
        # ignoring proviso ("covered successor => expand fully"); without a
        # coverage-checked passed list it stays off
        self._por = reductions.partial_order and self.search.inclusion_checking

    # ------------------------------------------------------------------ core loop
    def explore(
        self,
        visit: Callable[[SymbolicState, "_SearchNode"], bool] | None = None,
    ) -> ExplorationStatistics:
        """Run the exploration, calling *visit* on every new symbolic state.

        ``visit`` may return ``True`` to stop the search (goal found).  The
        returned statistics record why the exploration terminated.

        Breadth-first search with inclusion checking expands its waiting
        list in level-synchronous rounds (:meth:`_expand_round`) whenever it
        holds at least ``_MIN_ROUND`` states; otherwise, and always for
        dfs/rdfs, the no-inclusion mode and networks whose partial-order
        reduction has an ample candidate, states expand one at a time
        (:meth:`_expand_node`).  Both give identical statistics, verdicts
        and traces.
        """
        options = self.search
        stats = ExplorationStatistics(search_order=options.order)
        stats.start_timer()

        # the passed list is keyed by the *interned* discrete part (location
        # and variable vectors packed into one bytes object): bytes hash and
        # compare in C, unlike the nested int tuples they replace
        passed: dict[bytes, Federation] = {}
        waiting: deque[_SearchNode] = deque()

        initial = self._canonical(self.generator.initial_state(), stats)
        root = _SearchNode(initial, None, None)
        self._store(passed, initial)
        stats.states_stored += 1
        waiting.append(root)
        stats.peak_waiting = 1

        if visit is not None and visit(initial, root):
            stats.termination = "goal"
            stats.stop_timer()
            return stats

        deadline = (
            time.perf_counter() + options.max_seconds if options.max_seconds is not None else None
        )
        if options.deadline is not None:
            deadline = (
                options.deadline if deadline is None
                else min(deadline, options.deadline)
            )
        max_states = options.max_states
        breadth_first = options.order == "bfs"
        rng = random.Random(options.seed) if options.order == "rdfs" else None
        rounds = (
            breadth_first and options.inclusion_checking
            and not self._scalar_oracle and not self._has_ample_candidate()
        )
        while waiting:
            # budgets are checked *before* popping, so an exhausted budget
            # neither drops a pending node nor overshoots states_explored
            if max_states is not None and stats.states_explored >= max_states:
                stats.termination = "state-budget"
                break
            if deadline is not None and time.perf_counter() > deadline:
                stats.termination = "time-budget"
                break
            if rounds and len(waiting) >= _MIN_ROUND:
                termination = self._expand_round(visit, stats, passed, waiting, deadline)
                if termination is not None:
                    stats.termination = termination
                    break
                continue
            node = waiting.popleft() if breadth_first else waiting.pop()
            stats.states_explored += 1
            if self._expand_node(node, passed, waiting, stats, visit, rng):
                stats.termination = "goal"
                break
        stats.stop_timer()
        return stats

    def _has_ample_candidate(self) -> bool:
        """True when the partial-order reduction may commute some edge.

        The ample decision and its ignoring proviso interleave with the
        passed-list updates one state at a time, so such networks expand
        one state at a time; a static check over the edges decides it.
        """
        generator = self.generator
        if not self._por or generator._visibility is None:
            return False
        return any(
            generator._ample_candidate(edge)
            for instance in self.network.instances
            for edges in instance.outgoing
            for edge in edges
        )

    def _expand_round(self, visit, stats, passed, waiting, deadline) -> str | None:
        """One level-synchronous round over the head of the waiting list.

        Pops a window of at most ``_ROUND_WINDOW`` states (and no more than
        the state budget allows), expands and decides it with
        :mod:`repro.core.level`, then walks the stored candidates in tag
        order -- the scalar order -- to build their search nodes, call
        *visit* and update the statistics, so a goal, a deferred plan error
        or an expired deadline cuts the round exactly where a scalar run
        stopped at the same expansion would.  Returns ``"goal"``,
        ``"time-budget"`` or ``None``.
        """
        record_traces = self.search.record_traces
        max_states = self.search.max_states
        generator = self.generator
        dim = self.network.dim
        width = min(len(waiting), _ROUND_WINDOW)
        if max_states is not None:
            width = min(width, max_states - stats.states_explored)
        window = [waiting.popleft() for _ in range(width)]
        by_key: dict[bytes, list[int]] = {}
        for position, node in enumerate(window):
            by_key.setdefault(node.state.discrete_bytes(), []).append(position)
        groups, error = level.expand(generator, self.symmetry, (
            (np.array(positions, dtype=np.int64), [window[p].state for p in positions])
            for positions in by_key.values()
        ))
        decided = level.decide(generator, passed, groups, dim)

        parents = decided.tags.tolist()
        limit = len(parents)
        if error is not None:
            limit = bisect_left(parents, error[0])
        expanded = width
        goal = False
        pending: dict[bytes, list] = {}
        checked = 0
        for index in np.flatnonzero(decided.stored[:limit]).tolist():
            parent = parents[index]
            if deadline is not None and parent > checked:
                # the scalar loop checks the deadline before every pop
                checked = parent
                if time.perf_counter() > deadline:
                    expanded = parent
                    limit = bisect_left(parents, parent)
                    break
            state = decided.state(index)
            pending.setdefault(state.dkey, []).append(state.zone)
            if record_traces:
                group = decided.group(index)
                child = _SearchNode(
                    state, window[parent],
                    generator._plan_label(group.info, group.plan_index),
                )
            else:
                child = _SearchNode(state, _UNRECORDED, None)
            if visit is not None and visit(state, child):
                goal = True
                expanded = parent + 1
                limit = index + 1
                break
            waiting.append(child)
            # the scalar loop would still hold the window's unexpanded tail
            # in its waiting list at this point
            length = len(waiting) + width - parent - 1
            if length > stats.peak_waiting:
                stats.peak_waiting = length
        if error is not None and not goal and expanded == width:
            raise error[1].with_traceback(None)

        stored = int(decided.stored[:limit].sum())
        stats.states_explored += expanded
        stats.transitions += limit
        stats.states_stored += stored
        stats.inclusions += limit - stored
        if self._lu_active:
            stats.states_subsumed_lu += limit - stored
        stats.keys_folded += int(decided.folded[:limit].sum())
        if goal:
            return "goal"
        level.flush(passed, pending, dim)
        if expanded < width:
            waiting.extendleft(reversed(window[expanded:]))
            return "time-budget"
        return None

    def _expand_node(self, node, passed, waiting, stats, visit, rng=None) -> bool:
        """Expand one popped node the scalar way; True when *visit* found a goal.

        The reference semantics every other configuration reproduces: the
        successors are generated in plan order (shuffled for rdfs) and each
        is checked against, and stored into, the passed list at its turn.
        """
        record_traces = self.search.record_traces
        if self._por:
            outcome = self._expand_ample(node, passed, waiting, stats, visit, record_traces)
            if outcome is not None:
                return outcome
        successors = self.generator.successors(
            node.state, with_labels=record_traces, extrapolate=False
        )
        if rng is not None:
            rng.shuffle(successors)
        for label, successor in successors:
            stats.transitions += 1
            successor = self._canonical(successor, stats)
            if self.search.inclusion_checking:
                if not self._store(passed, successor):
                    stats.inclusions += 1
                    if self._lu_active:
                        stats.states_subsumed_lu += 1
                    successor.zone.discard()
                    continue
            else:
                self.generator.extrapolate(successor.zone)
                key = (successor.discrete_bytes(), successor.zone.key())
                federation = passed.setdefault(key, Federation(successor.zone.dim))
                if len(federation):
                    stats.inclusions += 1
                    if self._lu_active:
                        stats.states_subsumed_lu += 1
                    successor.zone.discard()
                    continue
                federation.add(successor.zone)
            stats.states_stored += 1
            child = _SearchNode(successor, node if record_traces else _UNRECORDED, label)
            if visit is not None and visit(successor, child):
                return True
            waiting.append(child)
            if len(waiting) > stats.peak_waiting:
                stats.peak_waiting = len(waiting)
        return False

    def _canonical(self, state: SymbolicState, stats: ExplorationStatistics) -> SymbolicState:
        """Fold *state* onto its symmetry-orbit representative (in place).

        Identity (the common case, memoised per discrete key) returns the
        state untouched; a genuine fold permutes the zone's clocks to follow
        the discrete relabelling and counts one ``keys_folded``.
        """
        spec = self.symmetry
        if spec is None:
            return state
        locations, variables, perm = spec.canonicalize(
            state.locations, state.variables, state.dkey
        )
        if perm is None:
            return state
        stats.keys_folded += 1
        state.zone.permute(perm)
        return SymbolicState(
            locations, variables, state.zone, pack_discrete(locations, variables)
        )

    def _expand_ample(
        self,
        node: _SearchNode,
        passed: dict,
        waiting: deque,
        stats: ExplorationStatistics,
        visit: Callable[[SymbolicState, "_SearchNode"], bool] | None,
        record_traces: bool,
    ) -> bool | None:
        """Try to expand *node* through a singleton ample plan.

        Returns ``None`` when the state has no ample plan or the ignoring
        proviso triggered -- the ample successor was already covered by the
        passed list, or its zone died on the target invariant -- in which
        case the caller falls back to the full expansion (this closes the
        classical ignoring problem: a cycle of ample steps must revisit a
        stored state eventually, and the revisit forces a full expansion).
        Returns ``True`` when the stored ample successor was a goal,
        ``False`` when the commuting succeeded.  A rejected probe is off the
        books: only an accepted ample expansion touches the counters, the
        rejected probe leaves the statistics to the full expansion that
        follows.
        """
        generator = self.generator
        info = generator.plan_info(node.state)
        ample = generator.ample_plan(info)
        if ample is None:
            return None
        folds_before = stats.keys_folded
        probe = generator.successors(
            node.state, with_labels=record_traces, extrapolate=False,
            plan_indices=(ample,),
        )
        if not probe:
            return None
        label, successor = probe[0]
        successor = self._canonical(successor, stats)
        if not self._store(passed, successor):
            successor.zone.discard()
            stats.keys_folded = folds_before
            return None
        stats.transitions += 1
        stats.states_stored += 1
        stats.plans_commuted += len(info.plans) - 1
        child = _SearchNode(successor, node if record_traces else _UNRECORDED, label)
        if visit is not None and visit(successor, child):
            return True
        waiting.append(child)
        if len(waiting) > stats.peak_waiting:
            stats.peak_waiting = len(waiting)
        return False

    def _declare_visibility(
        self, *formulas: StateFormula | None, clocks: tuple[str, ...] = ()
    ) -> None:
        """Declare what the active query observes (POR invisibility gate).

        Called by every query entry point before exploring; with no
        arguments the query observes nothing and every eligible plan may be
        commuted.  Raw :meth:`explore` calls do *not* declare visibility --
        a fresh explorer then keeps the reduction off until some entry
        point states what its visit callback reads.
        """
        if not self._por:
            return
        instances: set[int] = set()
        variables: set[int] = set()
        clock_ids: set[int] = {self.network.clock_id(name) for name in clocks}
        for formula in formulas:
            if formula is None:
                continue
            f_instances, f_variables, f_clocks = formula_visibility(formula, self.network)
            instances |= f_instances
            variables |= f_variables
            clock_ids |= f_clocks
        self.generator.set_visibility(instances, variables, clock_ids)

    def _store(self, passed: dict, state: SymbolicState) -> bool:
        """Insert into the passed list; False when an existing zone covers it.

        The passed list is keyed by the interned bytes form of the discrete
        state (precomputed by the successor plans).  The coverage check runs
        on the *raw* delay-closed zone; extrapolation is applied only to
        states that are actually kept.  The two decisions coincide: for
        canonical zones ``Z ⊆ W`` iff ``Extra(Z) ⊆ W`` whenever ``W`` is a
        stored (extrapolated, hence Extra-fixpoint) zone, because
        extrapolation is monotone, idempotent and extensive.  Skipping
        ``Extra`` (a full Floyd-Warshall re-closure) for every covered
        successor is one of the main wins of the exploration hot path.
        """
        key = state.discrete_bytes()
        federation = passed.get(key)
        if federation is None:
            federation = Federation(state.zone.dim)
            passed[key] = federation
        elif federation.covers(state.zone):
            return False
        self.generator.extrapolate(state.zone)
        federation.add_uncovered(state.zone)
        return True

    # ------------------------------------------------------------------ queries
    def check(self, query: Query) -> ReachabilityResult:
        """Evaluate an :class:`EF` or :class:`AG` query."""
        if isinstance(query, EF):
            return self._check_ef(query)
        if isinstance(query, AG):
            return self._check_ag(query)
        raise ModelError(f"unsupported query {query!r}")

    def _check_ef(self, query: EF) -> ReachabilityResult:
        # query.bind registers the formula's clock constants with the
        # network; scope them to this run like _check_ag and sup do
        saved_constants = self.network.query_constants_snapshot()
        try:
            bound_formula = query.bind(self.network)
            self._declare_visibility(query.formula)
            found: list[_SearchNode] = []

            def visit(state: SymbolicState, node: _SearchNode) -> bool:
                if bound_formula.possibly(state):
                    found.append(node)
                    return True
                return False

            stats = self.explore(visit)
            if found:
                return ReachabilityResult(
                    query, True, found[0].trace() if self.search.record_traces else None, stats
                )
            holds: bool | None = False if stats.exhaustive else None
            return ReachabilityResult(query, holds, None, stats)
        finally:
            self.network.restore_query_constants(saved_constants)

    def _check_ag(self, query: AG) -> ReachabilityResult:
        bound_formula = BoundFormula(query.formula, self.network)
        # A[] φ is violated when ¬φ is possibly satisfied somewhere.
        negated = BoundFormula(query.formula.negate(), self.network)
        # clock constants mentioned by the property must be visible to the
        # extrapolation during *this* run only: scope them so that repeated
        # queries on one explorer do not coarsen each other's abstractions
        saved_constants = self.network.query_constants_snapshot()
        try:
            for clock, constant in negated.max_clock_constant().items():
                self.network.register_query_constant(clock, constant)
            for clock, constant in bound_formula.max_clock_constant().items():
                self.network.register_query_constant(clock, constant)
            # ¬φ observes exactly the atoms of φ
            self._declare_visibility(query.formula)
            violations: list[_SearchNode] = []

            def visit(state: SymbolicState, node: _SearchNode) -> bool:
                if negated.possibly(state):
                    violations.append(node)
                    return True
                return False

            stats = self.explore(visit)
            if violations:
                return ReachabilityResult(
                    query,
                    False,
                    violations[0].trace() if self.search.record_traces else None,
                    stats,
                )
            holds: bool | None = True if stats.exhaustive else None
            return ReachabilityResult(query, holds, None, stats)
        finally:
            self.network.restore_query_constants(saved_constants)

    def sup(self, query: Sup) -> SupResult:
        """Evaluate a :class:`Sup` query by a single exhaustive exploration.

        The query's ceiling and condition constants are registered with the
        network only for the duration of the run (scoped, like ``A[]``).
        """
        network = self.network
        clock_id = network.clock_id(query.clock)
        saved_constants = network.query_constants_snapshot()
        try:
            if query.ceiling is not None:
                network.register_query_constant(clock_id, int(query.ceiling))
            condition = (
                BoundFormula(query.condition, network) if query.condition is not None else None
            )
            if condition is not None:
                for clock, constant in condition.max_clock_constant().items():
                    network.register_query_constant(clock, constant)
            # the supremum reads the queried clock in every matching state;
            # commuted interleavings never lose it: time is frozen while an
            # ample source location is occupied, so the skipped states'
            # clock bounds never exceed their block entry state's
            self._declare_visibility(query.condition, clocks=(query.clock,))

            best_raw = None
            best_node: list[_SearchNode | None] = [None]

            def visit(state: SymbolicState, node: _SearchNode) -> bool:
                nonlocal best_raw
                if condition is not None and not condition.possibly(state):
                    return False
                raw = state.zone.upper_bound(clock_id)
                if best_raw is None or raw > best_raw:
                    best_raw = raw
                    best_node[0] = node
                return False

            stats = self.explore(visit)

            if best_raw is None:
                return SupResult(query, None, False, not stats.exhaustive, stats)

            value, strict = bound_as_tuple(best_raw)
            hit_ceiling = best_raw >= INFINITY_RAW or (
                query.ceiling is not None and value is not None and value >= query.ceiling
            )
            if value is None:
                # the bound was abstracted to infinity: report the ceiling as a
                # lower bound (mirrors the paper's "> x" entries)
                ceiling = (
                    query.ceiling if query.ceiling is not None
                    else network.max_constants[clock_id]
                )
                trace = (
                    best_node[0].trace()
                    if best_node[0] and self.search.record_traces
                    else None
                )
                return SupResult(query, int(ceiling), False, True, stats, trace)
            return SupResult(
                query,
                int(value),
                not strict,
                bool(hit_ceiling or not stats.exhaustive),
                stats,
                best_node[0].trace() if best_node[0] and self.search.record_traces else None,
            )
        finally:
            network.restore_query_constants(saved_constants)

    # ------------------------------------------------------------------ convenience
    def reachable_discrete_states(self) -> set[tuple]:
        """Explore fully and return the set of reachable discrete states.

        Always enumerates the *concrete* discrete space: symmetry folding
        and ample commuting are suspended for the duration of the call, so
        the result is independent of the active reduction config.
        """
        seen: set[tuple] = set()

        def visit(state: SymbolicState, _node: _SearchNode) -> bool:
            seen.add(state.discrete_key())
            return False

        saved_symmetry, saved_por = self.symmetry, self._por
        self.symmetry, self._por = None, False
        try:
            stats = self.explore(visit)
        finally:
            self.symmetry, self._por = saved_symmetry, saved_por
        if not stats.exhaustive:
            raise AnalysisError(
                "exploration budget exhausted before the state space was covered"
            )
        return seen

    def count_states(self) -> ExplorationStatistics:
        """Explore fully (or until the budget) and return the statistics.

        Declares an empty visibility: a pure state count observes nothing,
        so the partial-order reduction may commute every eligible plan.
        """
        self._declare_visibility()
        return self.explore(None)
