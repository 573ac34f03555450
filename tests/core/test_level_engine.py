"""Execution twins of the exact engine: scalar loop, rounds, sharded rounds.

The breadth-first exact engine has three execution configurations that must
be observationally identical: the scalar loop (the reference oracle, pinned
through ``Explorer._scalar_oracle``), the level-synchronous rounds in-process
(the default) and the same rounds key-partitioned across two forked shard
workers.  Every twin must agree on the verdict, the WCRT, the full
:class:`ExplorationStatistics` (wall time and shard-only counters excluded)
and the trace, zone for zone -- on the case-study cells and on sampled
models, across queries, reductions, trace recording and budgets.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.arch import TimedAutomataSettings, analyze_wcrt
from repro.arch.generator import build_model
from repro.casestudy import build_radio_navigation, configure
from repro.core import (
    AG,
    EF,
    Explorer,
    Network,
    SearchOptions,
    Sup,
    TimedAutomaton,
    level,
    reachability,
)
from repro.core.shard import ShardedExplorer
from repro.diffcheck.sampler import SMOKE_SAMPLER, sample_model

FORK = hasattr(os, "fork")
ENGINES = ("scalar", "rounds", "shard2") if FORK else ("scalar", "rounds")


@pytest.fixture(autouse=True)
def _rounds_on_small_frontiers(monkeypatch):
    """Sampled models are small: run every frontier as a round, however narrow."""
    monkeypatch.setattr(reachability, "_MIN_ROUND", 1)


def _stats(stats):
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.compare and f.name != "elapsed_seconds"
    }


def _trace(trace):
    """A trace as comparable data: labels, discrete states and raw zones."""
    if trace is None:
        return None
    return [
        (str(step.label), step.state.discrete_key(), step.state.zone.m.tolist())
        for step in trace.steps
    ]


def _wcrt_twins(monkeypatch, model, requirement, **settings):
    """``analyze_wcrt`` under every engine: value, bound flag, stats, trace."""
    out = {}
    for engine in ENGINES:
        with monkeypatch.context() as patch:
            patch.setattr(Explorer, "_scalar_oracle", engine == "scalar")
            result = analyze_wcrt(model, requirement, TimedAutomataSettings(
                shard_workers=2 if engine == "shard2" else 0, **settings
            )).detail
        out[engine] = (result.value, result.is_lower_bound,
                       _stats(result.statistics), _trace(result.trace))
    return out


def _explorer(engine, compiled, **search):
    if engine == "shard2":
        return ShardedExplorer(compiled, search=SearchOptions(shard_workers=2, **search))
    explorer = Explorer(compiled, search=SearchOptions(**search))
    explorer._scalar_oracle = engine == "scalar"
    return explorer


def _assert_twins(out):
    reference = out["scalar"]
    for engine, observed in out.items():
        assert observed == reference, f"{engine} differs from the scalar oracle"


def _sampled(seed):
    model = sample_model(seed, SMOKE_SAMPLER)
    return model, sorted(model.requirements)[0]


# ------------------------------------------------------------ WCRT verdicts


@pytest.mark.parametrize("min_round", [1, 16])
@pytest.mark.parametrize("reductions", ["none", "all"])
@pytest.mark.parametrize("configuration", ["po", "pno"])
def test_case_study_cells(monkeypatch, configuration, reductions, min_round):
    """With the default ``_MIN_ROUND`` narrow frontiers expand one state at
    a time between rounds; the mix must agree too."""
    monkeypatch.setattr(reachability, "_MIN_ROUND", min_round)
    model = configure(build_radio_navigation(), "AL+TMC", configuration)
    out = _wcrt_twins(monkeypatch, model, "TMC", reductions=reductions)
    _assert_twins(out)
    assert out["scalar"][0] in (172106, 239081)


@pytest.mark.parametrize("seed", range(20))
def test_sampled_models(monkeypatch, seed):
    """Sampled models, alternating reductions and trace recording.

    The state budget cuts the larger models mid-round, so the budget stop
    is part of what must agree.
    """
    model, requirement = _sampled(seed)
    out = _wcrt_twins(
        monkeypatch, model, requirement, max_states=1500, seed=1,
        reductions="all" if seed % 2 else "none",
        record_traces=seed % 4 < 2,
    )
    _assert_twins(out)


# ------------------------------------------------------------ queries


def _compiled(seed):
    model, requirement = _sampled(seed)
    generated = build_model(model, model.requirement(requirement))
    return generated, generated.compile()


@pytest.mark.parametrize("record_traces", [True, False])
@pytest.mark.parametrize("reductions", ["none", "all"])
@pytest.mark.parametrize("kind", ["count", "sup", "ef", "ag"])
def test_queries(kind, reductions, record_traces):
    generated, compiled = _compiled(4)
    condition = generated.observer_condition
    out = {}
    for engine in ENGINES:
        explorer = _explorer(engine, compiled, reductions=reductions,
                             record_traces=record_traces)
        if kind == "count":
            stats = explorer.count_states()
            out[engine] = (stats.termination, _stats(stats))
        elif kind == "sup":
            result = explorer.sup(Sup(generated.observer_clock, condition, 200))
            out[engine] = (result.value, result.attained, result.is_lower_bound,
                           _stats(result.statistics), _trace(result.trace))
        else:
            query = EF(condition) if kind == "ef" else AG(condition.negate())
            result = explorer.check(query)
            out[engine] = (result.holds, _stats(result.statistics),
                           _trace(result.trace))
    _assert_twins(out)


@pytest.mark.parametrize("budget", [1, 2, 333, 1000])
def test_state_budget_cuts_mid_round(budget):
    _generated, compiled = _compiled(11)
    out = {}
    for engine in ENGINES:
        # reductions off: this model has an ample candidate, which would
        # route the in-process engine to the scalar loop
        explorer = _explorer(engine, compiled, max_states=budget, reductions="none")
        stats = explorer.count_states()
        out[engine] = _stats(stats)
    _assert_twins(out)
    assert out["rounds"]["states_explored"] == budget
    assert out["rounds"]["termination"] == "state-budget"


@pytest.mark.parametrize("budget", [1, 1 << 18])
def test_within_round_screens_are_chunk_independent(monkeypatch, budget):
    """The screens give brute-force verdicts whatever the chunking."""
    flat = np.random.default_rng(0).integers(0, 4, size=(40, 9))
    monkeypatch.setattr(level, "_COMPARE_BUDGET", budget)
    expected = [any((flat[j] <= flat[i]).all() for i in range(j)) for j in range(40)]
    assert level._covered_by_earlier(flat).tolist() == expected
    # the masked screen's precondition: no unchanged row covers a later one
    unchanged: list[int] = []
    for j in range(40):
        if not any((flat[j] <= flat[i]).all() for i in unchanged):
            unchanged.append(j)
    changed = ~np.isin(np.arange(40), unchanged)
    assert level._covered_by_earlier_masked(flat, changed).tolist() == expected


# ------------------------------------------------------------ routing


def _ample_network():
    """A ticker next to an instance whose urgent hop commutes with it."""
    net = Network("ample")
    ticker = TimedAutomaton("Tick")
    ticker.add_clock("x")
    ticker.add_location("run", invariant="x <= 3", initial=True)
    ticker.add_edge("run", "run", guard="x == 3", resets="x")
    net.add_instance(ticker, "t")
    hopper = TimedAutomaton("Hop")
    hopper.add_clock("y")
    hopper.add_location("wait", invariant="y <= 5", initial=True)
    hopper.add_location("hop", urgent=True)
    hopper.add_location("done")
    hopper.add_edge("wait", "hop", guard="y == 5", resets="y")
    hopper.add_edge("hop", "done")
    hopper.add_edge("done", "wait")
    net.add_instance(hopper, "h")
    return net.compile()


def test_por_ample_networks_keep_their_commuting():
    """A network with a static ample candidate takes the scalar loop."""
    compiled = _ample_network()
    default = Explorer(compiled)
    stats = default.count_states()
    assert default._has_ample_candidate()
    assert stats.plans_commuted > 0
    assert _stats(stats) == _stats(_explorer("scalar", compiled).count_states())


def test_case_study_has_no_ample_candidate():
    """The case study runs the rounds under the default reductions."""
    model = configure(build_radio_navigation(), "AL+TMC", "po")
    generated = build_model(model, model.requirement("TMC"))
    explorer = Explorer(generated.compile())
    explorer.sup(Sup(generated.observer_clock, generated.observer_condition, 400))
    assert not explorer._has_ample_candidate()


# ------------------------------------------------------------ budgets, knobs


def test_tiny_deadline_stops_within_one_round():
    model = configure(build_radio_navigation(), "AL+TMC", "pno")
    generated = build_model(model, model.requirement("TMC"))
    compiled = generated.compile()
    full = Explorer(compiled).count_states()
    stats = Explorer(compiled, search=SearchOptions(max_seconds=0.05)).count_states()
    assert stats.termination == "time-budget"
    assert stats.states_explored < full.states_explored
    # the deadline is checked before every round and every committed parent
    assert stats.elapsed_seconds < 0.05 + 1.0


def test_deadline_overshoot_is_one_round(monkeypatch):
    """A deadline that expires during a round's decide stops after it."""
    _generated, compiled = _compiled(11)
    real_decide = level.decide

    def slow_decide(*args):
        time.sleep(0.3)
        return real_decide(*args)

    monkeypatch.setattr(level, "decide", slow_decide)
    options = SearchOptions(max_seconds=0.1, reductions="none")
    stats = Explorer(compiled, search=options).count_states()
    assert stats.termination == "time-budget"
    assert stats.states_explored == 1  # the root's round, then the stop


def test_block_size_is_deprecated_and_ignored():
    _generated, compiled = _compiled(4)
    with pytest.warns(DeprecationWarning, match="block_size"):
        options = SearchOptions(block_size=1)
    with_knob = Explorer(compiled, search=options).count_states()
    assert _stats(with_knob) == _stats(Explorer(compiled).count_states())
