"""Task fingerprints as prefix trees plus dissimilarity matching.

After an externally signalled drift, a fixed number of events is buffered and
turned into a prefix tree over per-case activity paths. The tree is compared
against every stored task fingerprint; the share of new root paths absent from
a stored tree is the dissimilarity. Below the threshold the old task (and its
prompts) is reactivated, otherwise a new task is created.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError
from .stream import Event


class PrefixTree:
    """Trie over case activity sequences with per-node visit frequencies.

    Nodes are numbered 1, 2, ... in creation order, the root being 0, so a
    parent always comes before its children; node ``k``'s activity, frequency
    and parent sit at position ``k - 1`` of three flat lists, and one dict
    finds a child by ``(parent, activity)``. ``event_count`` counts every
    inserted event (one node visit each). Cases keep a cursor, so each case's
    path grows one event at a time however the cases interleave.
    """

    def __init__(self):
        self.event_count = 0
        self._activities: list[str] = []
        self._frequencies: list[int] = []
        self._parents: list[int] = []
        self._children: dict[tuple[int, str], int] = {}
        self._cursors: dict[str, int] = {}

    @property
    def is_empty(self) -> bool:
        return not self._children

    def extend_case(self, case_id: str, activity: str) -> None:
        """Grow the case's path by one event."""
        parent = self._cursors.get(case_id, 0)
        node = self._children.get((parent, activity))
        if node is None:
            self._activities.append(activity)
            self._frequencies.append(0)
            self._parents.append(parent)
            node = self._children[(parent, activity)] = len(self._activities)
        self._frequencies[node - 1] += 1
        self._cursors[case_id] = node
        self.event_count += 1

    def node_count(self) -> int:
        return len(self._children)

    def to_dict(self) -> dict:
        """``{activity, frequency, parent}`` per node in creation order; ``parent`` is
        the parent's 1-based position in the list, 0 for the root."""
        nodes = zip(self._activities, self._frequencies, self._parents)
        return {
            "event_count": self.event_count,
            "nodes": [{"activity": a, "frequency": f, "parent": p} for a, f, p in nodes],
        }


@dataclass
class TaskRecord:
    """A recognized task: id, fingerprint tree, its prompt parameters, and how
    often it has become the active task."""

    task_id: int
    tree: PrefixTree
    prompts: object | None = None
    occurrences: int = 1


def build_from_buffer(events: Iterable[Event]) -> PrefixTree:
    """Turn the buffered events into a prefix tree, one path per case in arrival order."""
    tree = PrefixTree()
    for event in events:
        tree.extend_case(event.case_id, event.activity)
    return tree


def dissimilarity(new: PrefixTree, stored: PrefixTree) -> float:
    """Share of the new tree's root paths that the stored tree lacks.

    One pass over the new tree's nodes in creation order maps each to the
    stored node on the same path, or to None once that path leaves the stored
    tree; the Nones are the missing paths.
    """
    if new.is_empty:
        raise ConfigurationError("dissimilarity undefined for an empty new tree")
    same: list[int | None] = [0]  # indexed by new-tree node number, root first
    for activity, parent in zip(new._activities, new._parents):
        at = same[parent]
        same.append(None if at is None else stored._children.get((at, activity)))
    return same.count(None) / new.node_count()


def match_task(new_tree: PrefixTree, store: Sequence[TaskRecord], threshold: float) -> int | None:
    """Return the best-matching task id, or None when everything is too dissimilar.

    The first record with the minimal dissimilarity wins, so with the store
    ordered by task id, ties resolve to the lowest id.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    best_id: int | None = None
    best = float("inf")
    for record in store:
        d = dissimilarity(new_tree, record.tree) if not record.tree.is_empty else 1.0
        if d < best:
            best = d
            best_id = record.task_id
    if best_id is not None and best < threshold:
        return best_id
    return None
