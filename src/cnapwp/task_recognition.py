"""Task fingerprints as prefix trees plus dissimilarity matching.

After an externally signalled drift, a fixed number of events is buffered and
turned into a prefix tree over per-case activity paths. The tree is compared
against every stored task fingerprint; the share of new root paths absent from
a stored tree is the dissimilarity. Below the threshold the old task (and its
prompts) is reactivated, otherwise a new task is created.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigurationError
from .stream import Event


class _Node:
    __slots__ = ("label", "frequency", "children")

    def __init__(self, label: str | None):
        self.label = label
        self.frequency = 0
        self.children: dict[str, _Node] = {}


class PrefixTree:
    """Trie over case activity sequences with per-node visit frequencies.

    ``event_count`` counts every inserted event (one node visit each). Cases
    keep a cursor, so each case's path grows one event at a time however the
    cases interleave.
    """

    def __init__(self):
        self._root = _Node(None)
        self.event_count = 0
        self._cursors: dict[str, _Node] = {}

    @property
    def is_empty(self) -> bool:
        return not self._root.children

    def extend_case(self, case_id: str, activity: str) -> None:
        """Grow the case's path by one event."""
        node = self._cursors.get(case_id, self._root)
        child = node.children.get(activity)
        if child is None:
            child = _Node(activity)
            node.children[activity] = child
        child.frequency += 1
        self._cursors[case_id] = child
        self.event_count += 1

    def node_count(self) -> int:
        return _size_below(self._root)

    def to_dict(self) -> dict:
        """Nested ``{activity, frequency, children}`` entries, children in insertion order."""
        paths: list[dict] = []
        stack = [(self._root, paths)]
        while stack:
            node, out = stack.pop()
            for child in node.children.values():
                entry = {"activity": child.label, "frequency": child.frequency, "children": []}
                out.append(entry)
                stack.append((child, entry["children"]))
        return {"event_count": self.event_count, "paths": paths}


def _size_below(node: _Node) -> int:
    """Number of nodes strictly below ``node``."""
    count, stack = 0, [node]
    while stack:
        children = stack.pop().children
        count += len(children)
        stack.extend(children.values())
    return count


@dataclass
class TaskBuffer:
    """Fixed-capacity event buffer filled right after a drift signal."""

    capacity: int
    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigurationError("buffer capacity must be >= 1")

    @property
    def is_full(self) -> bool:
        return len(self.events) >= self.capacity

    def add(self, event: Event) -> None:
        if self.is_full:
            raise ConfigurationError("buffer already full")
        self.events.append(event)


@dataclass
class TaskRecord:
    """A recognized task: id, fingerprint tree, and its prompt parameters."""

    task_id: int
    tree: PrefixTree
    prompts: object | None = None


def build_from_buffer(buffer: TaskBuffer) -> PrefixTree:
    """Turn a full buffer into a prefix tree, one path per case in arrival order."""
    if not buffer.is_full:
        raise ConfigurationError("buffer must be full before building a tree")
    tree = PrefixTree()
    for event in buffer.events:
        tree.extend_case(event.case_id, event.activity)
    return tree


def dissimilarity(new: PrefixTree, stored: PrefixTree) -> float:
    """Share of the new tree's root paths that the stored tree lacks.

    Computed by walking both trees in lockstep: a new-tree node whose path
    leaves the stored tree contributes itself and its whole subtree.
    """
    if new.is_empty:
        raise ConfigurationError("dissimilarity undefined for an empty new tree")

    missing = 0
    stack = [(new._root, stored._root)]
    while stack:
        new_node, stored_node = stack.pop()
        for label, child in new_node.children.items():
            match = stored_node.children.get(label)
            if match is None:
                missing += 1 + _size_below(child)
            else:
                stack.append((child, match))
    return missing / new.node_count()


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
