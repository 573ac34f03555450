"""The level-synchronous round engine vs the scalar loop: exact equivalence.

Breadth-first search with inclusion checking expands windows of waiting
states as rounds (``repro.core.level``): batched by discrete key, decided in
vectorised passes, committed in tag order.  Everything observable --
verdicts, traces, state/transition/inclusion counts, budget behaviour --
must be identical to the scalar loop (the reference oracle, reached through
``Explorer._scalar_oracle``): the scaling benchmark enforces this against the
seed baseline on the case study, these tests pin it on small networks where
both engines run in milliseconds.
"""

import dataclasses
import itertools

import pytest

from repro.core import (
    AG,
    EF,
    DataProp,
    Explorer,
    Network,
    SearchOptions,
    Sup,
    TimedAutomaton,
)
from repro.util.errors import ModelError


@pytest.fixture(autouse=True)
def _rounds_on_small_frontiers(monkeypatch):
    """These networks are small: run every frontier as a round, however narrow."""
    from repro.core import reachability

    monkeypatch.setattr(reachability, "_MIN_ROUND", 1)


def _interleaved_network(workers=3, period=7, limit=4):
    """Several independent tickers: a frontier rich in shared discrete keys."""
    net = Network("interleaved")
    net.add_variable("n", 0, 0, workers * limit + 1)
    for index in range(workers):
        ta = TimedAutomaton(f"W{index}")
        ta.add_clock("x")
        ta.add_constant("P", period + index)
        ta.add_location("run", invariant="x <= P", initial=True)
        ta.add_edge("run", "run", guard=f"x == P && n < {workers * limit}",
                    updates="n++", resets="x")
        net.add_instance(ta, f"w{index}")
    return net.compile()


def _samekey_network(workers=6, period=7, limit=4):
    """Tickers with *equal* periods: the root expansion already produces a
    run of ``workers`` same-key states, so the second round window is wide."""
    net = Network("samekey")
    net.add_variable("n", 0, 0, workers * limit + 1)
    for index in range(workers):
        ta = TimedAutomaton(f"W{index}")
        ta.add_clock("x")
        ta.add_constant("P", period)
        ta.add_location("run", invariant="x <= P", initial=True)
        ta.add_edge("run", "run", guard=f"x == P && n < {workers * limit}",
                    updates="n++", resets="x")
        net.add_instance(ta, f"w{index}")
    return net.compile()


def _branching_network(depth=6):
    """A branching automaton whose zones repeatedly cover one another."""
    net = Network("branching")
    net.add_variable("steps", 0, 0, depth + 1)
    ta = TimedAutomaton("B")
    ta.add_clock("x")
    ta.add_clock("y")
    ta.add_constant("D", depth)
    ta.add_location("a", invariant="x <= D", initial=True)
    ta.add_location("b", invariant="y <= D")
    ta.add_edge("a", "b", guard=f"steps < {depth}", updates="steps++", resets="y")
    ta.add_edge("a", "b", guard=f"x >= 1 && steps < {depth}", updates="steps++")
    ta.add_edge("b", "a", resets="x")
    net.add_instance(ta, "B")
    return net.compile()


def _stat_tuple(stats, ignore=("elapsed_seconds",)):
    """Every comparable ExplorationStatistics field (wall time excluded)."""
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.compare and field.name not in ignore
    }


def _scalar(compiled, **search_kwargs):
    """An explorer pinned to the scalar loop (the round engine's oracle)."""
    explorer = Explorer(compiled, search=SearchOptions(**search_kwargs))
    explorer._scalar_oracle = True
    return explorer


def _explore_both(compiled, **search_kwargs):
    rounds = Explorer(compiled, search=SearchOptions(**search_kwargs)).count_states()
    scalar = _scalar(compiled, **search_kwargs).count_states()
    return rounds, scalar


class TestBlockedMatchesScalar:
    @pytest.mark.parametrize("network", [_interleaved_network, _branching_network])
    def test_full_exploration_statistics(self, network):
        compiled = network()
        rounds, scalar = _explore_both(compiled)
        assert _stat_tuple(rounds) == _stat_tuple(scalar)
        assert rounds.states_explored > 0

    def test_discrete_state_sets_are_equal(self):
        compiled = _interleaved_network()
        rounds = Explorer(compiled).reachable_discrete_states()
        scalar = _scalar(compiled).reachable_discrete_states()
        assert rounds == scalar

    @pytest.mark.parametrize("budget", [1, 5, 17, 100])
    def test_state_budget_is_exact_in_rounds(self, budget):
        compiled = _interleaved_network()
        stats = Explorer(
            compiled, search=SearchOptions(max_states=budget)
        ).count_states()
        scalar = _scalar(compiled, max_states=budget).count_states()
        assert stats.states_explored <= budget
        assert _stat_tuple(stats) == _stat_tuple(scalar)

    def test_sup_queries_agree(self):
        compiled = _interleaved_network()
        query = Sup("w0.x")
        rounds = Explorer(compiled).sup(query)
        scalar = _scalar(compiled).sup(query)
        assert (rounds.value, rounds.attained, rounds.is_lower_bound) == (
            scalar.value, scalar.attained, scalar.is_lower_bound
        )
        assert _stat_tuple(rounds.statistics) == _stat_tuple(scalar.statistics)

    def test_ef_goal_and_trace_agree(self):
        compiled = _interleaved_network()
        query = EF(DataProp.parse("n == 5"))
        rounds = Explorer(compiled).check(query)
        scalar = _scalar(compiled).check(query)
        assert rounds.holds is True and scalar.holds is True
        # identical witness: same length, same discrete states along the way
        assert len(rounds.trace) == len(scalar.trace)
        assert [step.state.discrete_key() for step in rounds.trace.steps] == [
            step.state.discrete_key() for step in scalar.trace.steps
        ]
        assert _stat_tuple(rounds.statistics) == _stat_tuple(scalar.statistics)

    def test_ag_verdicts_agree(self):
        compiled = _branching_network()
        query = AG(DataProp.parse("steps <= 6"))
        rounds = Explorer(compiled).check(query)
        scalar = _scalar(compiled).check(query)
        assert rounds.holds is True and scalar.holds is True

    def test_block_size_validation(self):
        # deprecated and ignored, but an invalid value is still rejected
        with pytest.warns(DeprecationWarning), pytest.raises(ModelError):
            SearchOptions(block_size=0)

    def test_dfs_orders_are_untouched_by_the_round_engine(self):
        compiled = _branching_network()
        for order in ("dfs", "rdfs"):
            big = Explorer(
                compiled, search=SearchOptions(order=order, seed=3)
            ).count_states()
            one = _scalar(compiled, order=order, seed=3).count_states()
            assert _stat_tuple(big) == _stat_tuple(one)

    def test_deferred_plan_error_raises_in_both_engines(self, monkeypatch):
        """A range violation behind a live guard surfaces in rounds too.

        The error plan fires from a discrete state that several frontier
        states share, so the round engine hits it inside a batched expand --
        the deferred error must propagate exactly like the scalar path, and
        every pooled block buffer must be returned despite the raise.
        """
        net = Network("erroneous")
        net.add_variable("n", 0, 0, 6)
        for index, period in enumerate((2, 3)):  # interleaving => frontier runs
            ticker = TimedAutomaton(f"Tick{index}")
            ticker.add_clock("y")
            ticker.add_constant("Q", period)
            ticker.add_location("run", invariant="y <= Q", initial=True)
            ticker.add_edge("run", "run", guard="y == Q && n < 6", updates="n++", resets="y")
            net.add_instance(ticker, f"t{index}")
        bad = TimedAutomaton("Bad")
        bad.add_clock("x")
        bad.add_location("a", initial=True, invariant="x <= 9")
        bad.add_edge("a", "a", guard="x == 9", updates="n = 9")  # range violation
        net.add_instance(bad, "B")
        compiled = net.compile()

        from repro.core.zonepool import ZonePool

        balance = {"acquired": 0, "released": 0}
        original_acquire = ZonePool.acquire_block
        original_release = ZonePool.release_block

        def counting_acquire(self, rows, dim):
            balance["acquired"] += 1
            return original_acquire(self, rows, dim)

        def counting_release(self, dim, buffer):
            balance["released"] += 1
            original_release(self, dim, buffer)

        monkeypatch.setattr(ZonePool, "acquire_block", counting_acquire)
        monkeypatch.setattr(ZonePool, "release_block", counting_release)
        with pytest.raises(ModelError):
            Explorer(compiled).count_states()
        assert balance["acquired"] > 0  # the batched path actually ran
        assert balance["acquired"] == balance["released"]
        with pytest.raises(ModelError):
            _scalar(compiled).count_states()

    def test_deadline_overshoot_is_bounded_in_round_mode(self, monkeypatch):
        """An expired deadline cuts the commit walk inside a round.

        The fake clock advances one second per reading, so the deadline is
        already past when the round engine commits its second round, a
        window of 6 same-key nodes.  The before-every-parent re-check must
        stop the walk after a single expansion and push the unexpanded tail
        back; checking only between rounds would commit the whole window and
        overshoot to 7 explored states.
        """
        import time as time_module

        compiled = _samekey_network(workers=6)
        explorer = Explorer(compiled, search=SearchOptions(deadline=3.0))
        ticks = itertools.count(1)
        monkeypatch.setattr(time_module, "perf_counter",
                            lambda: float(next(ticks)))
        stats = explorer.count_states()
        assert stats.termination == "time-budget"
        # root + at most one expansion of the popped window
        assert stats.states_explored <= 2

    def test_deadline_stop_matches_scalar_statistics_field_by_field(
        self, monkeypatch
    ):
        """Stats parity at a time-budget stop.

        Stopping mid-round must leave *exactly* the statistics a scalar run
        stopped at the same expansion count reports -- including
        ``peak_waiting``, which the walk accounts with the window's
        unexpanded tail.  Only the termination reason may differ (time vs
        state budget).
        """
        import time as time_module

        compiled = _samekey_network(workers=6)
        explorer = Explorer(compiled, search=SearchOptions(deadline=3.0))
        ticks = itertools.count(1)
        monkeypatch.setattr(time_module, "perf_counter",
                            lambda: float(next(ticks)))
        rounds = explorer.count_states()
        # a *mid-round* stop (root + 1 of the 6-node window): a check only
        # between rounds never reaches this state -- it overshoots the
        # deadline to 7 expansions instead
        assert rounds.states_explored == 2
        scalar = _scalar(compiled, max_states=rounds.states_explored).count_states()
        assert scalar.termination == "state-budget"
        ignore = ("elapsed_seconds", "termination")
        assert _stat_tuple(rounds, ignore) == _stat_tuple(scalar, ignore)

    def test_tiny_round_window_still_exact(self, monkeypatch):
        from repro.core import reachability

        compiled = _interleaved_network()
        monkeypatch.setattr(reachability, "_ROUND_WINDOW", 2)
        capped = Explorer(compiled).count_states()
        scalar = _scalar(compiled).count_states()
        assert _stat_tuple(capped) == _stat_tuple(scalar)
