"""Bitmask-encoded partial order and D-set index — the live-path fast lane.

:func:`~repro.protocol.validation.compute_d_set` is a direct
transliteration of §5.1: for each sibling it scans *every other*
sibling looking for an intervening updater, an O(|siblings|²) rule-3
check per item per validation.  Under the live server a busy parent
accumulates hundreds of children, and profiling shows that generator
expression dominating the whole dispatcher (tens of millions of steps
per loadgen run).

This module re-encodes the per-parent structure the three exclusion
rules consult as machine integers, the same playbook the census fast
path used (stage the structure once, then answer each query with a few
bitwise operations):

* children are interned to bit positions **in definition order**, so a
  new child is one more bit and no existing bit ever moves;
* the parent's partial order ``P+`` becomes two arrays of masks —
  ``pred_masks[i]`` / ``succ_masks[i]`` hold the transitive
  predecessors/successors of child ``i`` (aborted children stay in the
  ground set: they still mediate reachability, exactly as the object
  :class:`~repro.core.orders.PartialOrder` closure does);
* each item's *live updaters* become one mask, so rule 3's
  "some other updater lies strictly between ``t_j`` and ``t_i``"
  collapses to ``updaters & succ_masks[j] & pred_masks[i] != 0``.

The rules then read, for transaction ``i`` and item ``d``:

* rule 1+2: candidates = ``updaters(d) & ~succ_masks[i] & ~bit(i)``;
* rule 3: drop candidate ``j`` iff
  ``updaters(d) & succ_masks[j] & pred_masks[i]`` is non-zero;
* predecessor rule: ``members & pred_masks[i]``.

Strictness of ``P+`` makes the self-exclusions of the object path
(``other not in (sibling, txn)``) automatic: ``j ∉ succ_masks[j]`` and
``i ∉ pred_masks[i]``.

The transaction manager keeps one index per parent and updates it in
place: :meth:`ParentIndex.add` on define (after :meth:`ParentIndex.reach`
has cycle-checked the placement) and :meth:`ParentIndex.discard` on
abort.  A full build from the parent's children, order pairs, update
sets and aborted subset happens only when recovery resurrects records.
Bit order is definition order, not name order, so callers that need the
object path's ``sorted(...)`` traversal sort the names they get back.
The object path remains in place as the differential oracle
(``TransactionManager.fast_validation = False`` selects it);
``tests/protocol/test_fastpath_validation.py`` holds the two paths
equal on hypothesis-generated histories, and holds the in-place index
equal to a from-scratch build.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class ParentIndex:
    """Integer-encoded partial order and §5.1 exclusion rules for one
    parent's children."""

    __slots__ = (
        "names",
        "ids",
        "pred_masks",
        "succ_masks",
        "live_mask",
        "_updater_masks",
    )

    def __init__(
        self,
        children: Iterable[str],
        order_pairs: Iterable[tuple[str, str]],
        update_sets: Mapping[str, frozenset[str]],
        aborted: Iterable[str] = (),
    ) -> None:
        # Bit i ↔ names[i], in the order children are added.
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.pred_masks: list[int] = []
        self.succ_masks: list[int] = []
        self.live_mask = 0
        # item -> mask of *live* children declaring it.
        self._updater_masks: dict[str, int] = {}

        # A full build is the same sequence of adds: each covering
        # pair is attached when its later-listed endpoint arrives, so
        # every pair links the new child to one already present.
        order = list(children)
        position = {name: index for index, name in enumerate(order)}
        preds: dict[str, list[str]] = {name: [] for name in order}
        succs: dict[str, list[str]] = {name: [] for name in order}
        for before, after in order_pairs:
            if position[before] < position[after]:
                preds[after].append(before)
            else:
                succs[before].append(after)
        for name in order:
            pred, succ = self.reach(preds[name], succs[name])
            self.add(name, update_sets[name], pred, succ)
        for name in aborted:
            self.discard(name, update_sets[name])

    # -- updates -----------------------------------------------------------

    def reach(
        self, predecessors: Iterable[str], successors: Iterable[str]
    ) -> tuple[int, int]:
        """Transitive (pred, succ) masks of a child placed after
        ``predecessors`` and before ``successors``.

        The placement closes a cycle iff the two masks intersect: some
        declared successor equals or reaches a declared predecessor.
        """
        ids = self.ids
        pred_masks = self.pred_masks
        succ_masks = self.succ_masks
        pred = 0
        for name in predecessors:
            index = ids[name]
            pred |= (1 << index) | pred_masks[index]
        succ = 0
        for name in successors:
            index = ids[name]
            succ |= (1 << index) | succ_masks[index]
        return pred, succ

    def add(
        self, name: str, update_set: frozenset[str], pred: int, succ: int
    ) -> None:
        """Append a live child with the acyclic masks :meth:`reach` gave."""
        index = len(self.names)
        bit = 1 << index
        self.names.append(name)
        self.ids[name] = index
        self.pred_masks.append(pred)
        self.succ_masks.append(succ)
        # Every path through the new child is new: its ancestors now
        # reach it and its descendants, and vice versa.
        pred_masks = self.pred_masks
        succ_masks = self.succ_masks
        down = bit | succ
        for ancestor in _bits(pred):
            succ_masks[ancestor] |= down
        up = bit | pred
        for descendant in _bits(succ):
            pred_masks[descendant] |= up
        self.live_mask |= bit
        updater_masks = self._updater_masks
        for item in update_set:
            updater_masks[item] = updater_masks.get(item, 0) | bit

    def discard(self, name: str, update_set: frozenset[str]) -> None:
        """An aborted child stops updating but keeps its order edges."""
        keep = ~(1 << self.ids[name])
        self.live_mask &= keep
        updater_masks = self._updater_masks
        for item in update_set:
            updater_masks[item] &= keep

    # -- queries -----------------------------------------------------------

    def updater_mask(self, item: str) -> int:
        return self._updater_masks.get(item, 0)

    def precedes(self, before: str, after: str) -> bool:
        """``before P+ after``; False for names outside the index."""
        ids = self.ids
        before_id = ids.get(before)
        after_id = ids.get(after)
        if before_id is None or after_id is None:
            return False
        return bool(self.succ_masks[before_id] >> after_id & 1)

    def d_members(self, txn: str, item: str) -> tuple[int, int]:
        """(members, predecessors) masks under the three §5.1 rules."""
        txn_id = self.ids[txn]
        updaters = self.updater_mask(item)
        pred_of_txn = self.pred_masks[txn_id]
        succ_masks = self.succ_masks
        # Rules 1+2 in one expression; rule 3 per surviving bit.
        remaining = updaters & ~succ_masks[txn_id] & ~(1 << txn_id)
        members = 0
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            sibling_id = low.bit_length() - 1
            if not (updaters & succ_masks[sibling_id] & pred_of_txn):
                members |= low
        return members, members & pred_of_txn

    def names_from(self, mask: int) -> list[str]:
        """Mask → names, in ascending bit (definition) order."""
        names = self.names
        out: list[str] = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(names[low.bit_length() - 1])
        return out

    def predecessor_names(self, txn: str) -> list[str]:
        """All strict ``P+`` predecessors (aborted included), sorted."""
        names = self.names_from(self.pred_masks[self.ids[txn]])
        names.sort()
        return names


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
