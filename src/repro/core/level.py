"""Level-synchronous rounds: the batched breadth-first exploration step.

A *round* takes a window of consecutive waiting states (in breadth-first
pop order), fires every plan against each same-discrete-key batch of them
through the stacked kernels (:func:`expand`), groups the candidates by
target key and decides every store/coverage verdict in vectorised passes
(:func:`decide`).  Each candidate is tagged ``(parent, plan_index)``: the
parent's position in pop order and the plan's index in firing order.  The
scalar engine generates candidates in exactly this lexicographic tag order,
and a candidate's verdict depends only on the zones stored under its own key
by candidates with smaller tags -- so deciding each key's candidates in tag
order reproduces the scalar verdicts exactly (``docs/performance.md``).

The in-process engine (:meth:`repro.core.reachability.Explorer.explore`) and
every shard of :class:`repro.core.shard.ShardedExplorer` run these same two
functions; sharding only partitions the target keys across processes.
"""

from __future__ import annotations

import numpy as np

from repro.core.dbm import DBM, DBMStack
from repro.core.federation import _COMPARE_BUDGET, Federation
from repro.core.successors import SymbolicState, pack_discrete

__all__ = ["CandidateGroup", "Round", "decide", "expand", "flush"]

#: most layers handed to one batched kernel call: the stacked kernels keep
#: scratch and pooled buffers per power-of-two size class, so wider calls
#: would buy little dispatch saving for a lot of retained memory
_SLICE = 128


class CandidateGroup:
    """The successors of one plan fired against one batch of parents.

    Every candidate shares the plan's target discrete state (``key``,
    already folded onto its symmetry representative); ``tags`` holds the
    parents' tags in ascending order and ``rows`` their delay-closed, not
    yet extrapolated zones as flat raw rows.
    """

    __slots__ = ("key", "locations", "variables", "plan_index", "folded",
                 "tags", "rows", "info")

    def __init__(self, key, locations, variables, plan_index, folded, tags,
                 rows, info=None):
        self.key = key
        self.locations = locations
        self.variables = variables
        self.plan_index = plan_index
        self.folded = folded
        self.tags = tags
        self.rows = rows
        #: the source key's discrete info (transition labels); None when the
        #: group crossed a process boundary
        self.info = info


def expand(generator, symmetry, batches):
    """Fire every plan against each batch of same-key parents.

    *batches* yields ``(tags, states)`` pairs: an ascending int64 tag array
    and the states it tags, all sharing one discrete key.  Returns the
    candidate groups and the first deferred plan error as ``(tag,
    exception)`` -- the scalar engine raises when it expands that parent --
    or ``None``.
    """
    groups: list[CandidateGroup] = []
    error = None
    for tags, states in batches:
        for start in range(0, len(states), _SLICE):
            part = tags[start:start + _SLICE]
            info, fires = generator.block_successors(states[start:start + _SLICE])
            for fire in fires:
                if fire.error is not None:
                    tag = int(part[fire.node_indices].min())
                    if error is None or tag < error[0]:
                        error = (tag, fire.error)
                    continue
                plan = fire.plan
                locations, variables, key = plan.locations, plan.variables, plan.key_bytes
                folded = False
                if symmetry is not None:
                    locations, variables, perm = symmetry.canonicalize(
                        locations, variables, key
                    )
                    if perm is not None:
                        # the whole stack shares the plan's target key, so one
                        # clock permutation folds every layer
                        fire.stack.permute(perm)
                        key = pack_discrete(locations, variables)
                        folded = True
                count = len(fire.node_indices)
                rows = fire.stack.a.reshape(count, -1).copy()
                fire.stack.discard()
                groups.append(CandidateGroup(
                    key, locations, variables, fire.plan_index, folded,
                    part[fire.node_indices], rows, info,
                ))
    return groups, error


def _covered_by_earlier(flat: np.ndarray) -> np.ndarray:
    """Row mask: row ``j`` is elementwise ``<=`` some EARLIER row ``i < j``.

    Chunked along the candidate axis so the broadcast intermediate stays
    within ``_COMPARE_BUDGET`` however many candidates one key collects.
    """
    k = len(flat)
    out = np.zeros(k, dtype=bool)
    step = max(1, _COMPARE_BUDGET // max(1, k * flat.shape[1]))
    for start in range(1, k, step):  # row 0 has no earlier row
        stop = min(k, start + step)
        block = (flat[:stop, None, :] >= flat[None, start:stop, :]).all(axis=2)
        block &= np.arange(stop)[:, None] < np.arange(start, stop)[None, :]
        out[start:stop] = block.any(axis=0)
    return out


def _covered_by_earlier_masked(flat: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """:func:`_covered_by_earlier` restricted to pairs with a changed row.

    The caller certifies that a pair of UNCHANGED rows cannot cover each
    other (the raw screen eliminated those before extrapolation), so only
    columns and rows flagged in *changed* need comparing.
    """
    k = len(flat)
    cols = np.flatnonzero(changed)
    if len(cols) * k * flat.shape[1] > _COMPARE_BUDGET:
        # mostly-changed rows: the slim pair set would not be slim, and the
        # chunked full screen gives the same verdicts
        return _covered_by_earlier(flat)
    out = np.zeros(k, dtype=bool)
    rows_idx = np.arange(k)
    # changed row j against every earlier row i
    block = (flat[:, None, :] >= flat[None, cols, :]).all(axis=2)
    block &= rows_idx[:, None] < cols[None, :]
    out[cols] = block.any(axis=0)
    # any row j against every earlier CHANGED row i
    block = (flat[cols, None, :] >= flat[None, :, :]).all(axis=2)
    block &= cols[:, None] < rows_idx[None, :]
    out |= block.any(axis=0)
    return out


def _extrapolate_rows(generator, flat: np.ndarray, dim: int) -> np.ndarray:
    """Extrapolate the rows of *flat* in place; returns the changed-row mask."""
    changed = np.zeros(len(flat), dtype=bool)
    for start in range(0, len(flat), _SLICE):
        part = flat[start:start + _SLICE]
        stack = DBMStack(len(part), dim)
        layers = stack.a.reshape(len(part), -1)
        layers[:] = part
        generator.extrapolate_stack(stack)
        changed[start:start + len(part)] = (layers != part).any(axis=1)
        part[:] = layers
        stack.discard()
    return changed


class Round:
    """Every candidate of one round in tag order, with its verdict.

    ``stored[c]`` is the scalar engine's store verdict for candidate ``c``;
    the zones of stored candidates are lifted on demand by :meth:`state`.
    """

    __slots__ = ("tags", "plans", "stored", "folded", "_group", "_layer",
                 "_groups", "_flat", "_dim")

    def __init__(self, tags, plans, stored, group, layer, groups, flat, dim):
        self.tags = tags
        self.plans = plans
        self.stored = stored
        self._group = group
        self._layer = layer
        self._groups = groups
        self._flat = flat
        self._dim = dim
        folded = np.fromiter((g.folded for g in groups), dtype=bool, count=len(groups))
        self.folded = folded[group]

    def group(self, index: int) -> CandidateGroup:
        return self._groups[self._group[index]]

    def state(self, index: int) -> SymbolicState:
        """The extrapolated successor of stored candidate *index* (a new zone)."""
        group = self._groups[self._group[index]]
        zone = DBM._wrap(self._dim, self._flat[self._layer[index]].copy())
        return SymbolicState(group.locations, group.variables, zone, group.key)


def decide(generator, passed: dict, groups: list[CandidateGroup], dim: int) -> Round:
    """Decide every candidate's store verdict against *passed*.

    Per target key: one :meth:`Federation.covers_many` pass against the
    key's federation as it stood before the round, then a two-stage screen
    among the round's own candidates in tag order -- raw against earlier raw
    (a candidate inside an earlier raw candidate is doomed before paying for
    extrapolation, since extrapolation is monotone), then extrapolated
    against earlier extrapolated (``Z <= W  <=>  Extra(Z) <= W`` for stored
    ``W``).  By transitivity of inclusion, a candidate covered by an earlier
    doomed one is also covered by whatever doomed that one, so the screens
    kill exactly the candidates the scalar store-then-check sequence would.
    *passed* is not modified (see :func:`flush`); the groups' rows are
    released.
    """
    by_key: dict[bytes, list[int]] = {}
    for g, group in enumerate(groups):
        by_key.setdefault(group.key, []).append(g)
    keyed = []
    survivors_raw = []
    total = 0
    for key, gids in by_key.items():
        members = [groups[g] for g in gids]
        sizes = [len(m.tags) for m in members]
        tags = np.concatenate([m.tags for m in members])
        plans = np.repeat(np.array([m.plan_index for m in members], dtype=np.int64), sizes)
        owner = np.repeat(np.array(gids, dtype=np.intp), sizes)
        if len(members) == 1:
            raw = members[0].rows
        else:
            order = np.lexsort((plans, tags))
            tags, plans, owner = tags[order], plans[order], owner[order]
            raw = np.concatenate([m.rows for m in members])[order]
        for member in members:
            member.rows = None
        federation = passed.get(key)
        if federation is not None:
            decision = ~federation.covers_many(raw)
        else:
            decision = np.ones(len(raw), dtype=bool)
        kept = np.flatnonzero(decision)
        survivors = None
        if len(kept):
            sub = raw[kept] if len(kept) < len(raw) else raw
            doomed = _covered_by_earlier(sub)
            if doomed.any():
                sub = sub[~doomed]
            survivors = kept[~doomed]
            survivors_raw.append(sub)
        keyed.append((tags, plans, owner, decision, survivors, total))
        total += 0 if survivors is None else len(survivors)

    flat = (np.concatenate(survivors_raw) if survivors_raw
            else np.empty((0, dim * dim), dtype=np.int64))
    del survivors_raw
    changed = _extrapolate_rows(generator, flat, dim)

    layers = []
    for tags, plans, owner, decision, survivors, offset in keyed:
        layer = np.full(len(tags), -1, dtype=np.intp)
        if survivors is not None:
            count = len(survivors)
            positions = np.arange(offset, offset + count)
            touched = changed[offset:offset + count]
            if touched.any():
                # pairs of untouched rows were settled by the raw screen
                alive = ~_covered_by_earlier_masked(flat[offset:offset + count], touched)
                survivors, positions = survivors[alive], positions[alive]
            decision[:] = False
            decision[survivors] = True
            layer[survivors] = positions
        layers.append(layer)

    if keyed:
        tags = np.concatenate([entry[0] for entry in keyed])
        plans = np.concatenate([entry[1] for entry in keyed])
        owner = np.concatenate([entry[2] for entry in keyed])
        stored = np.concatenate([entry[3] for entry in keyed])
        layer = np.concatenate(layers)
        order = np.lexsort((plans, tags))
        tags, plans, owner = tags[order], plans[order], owner[order]
        stored, layer = stored[order], layer[order]
    else:
        tags = plans = np.zeros(0, dtype=np.int64)
        owner = layer = np.zeros(0, dtype=np.intp)
        stored = np.zeros(0, dtype=bool)
    return Round(tags, plans, stored, owner, layer, groups, flat, dim)


def flush(passed: dict, pending: dict[bytes, list[DBM]], dim: int) -> None:
    """Store each key's accepted zones (tag order), one batched insert per key."""
    for key, zones in pending.items():
        federation = passed.get(key)
        if federation is None:
            federation = passed[key] = Federation(dim)
        federation.add_many_uncovered(zones)
