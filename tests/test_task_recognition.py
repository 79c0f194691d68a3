"""Prefix-tree fingerprints, dissimilarity, and task matching."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnapwp.errors import ConfigurationError
from cnapwp.stream import Event
from cnapwp.task_recognition import (
    PrefixTree,
    TaskRecord,
    build_from_buffer,
    dissimilarity,
    match_task,
)

from oracles import path_set_dissimilarity, root_paths, tree_of


# -- tree construction -------------------------------------------------------


def test_insert_builds_shared_prefixes():
    tree = tree_of("ab", "ac")
    assert root_paths(tree) == {("a",), ("a", "b"), ("a", "c")}
    assert tree.node_count() == 3
    assert tree.event_count == 4


def test_extend_case_equals_whole_path_insertion():
    incremental = PrefixTree()
    for case, act in [("c1", "a"), ("c2", "a"), ("c1", "b"), ("c2", "c"), ("c1", "d")]:
        incremental.extend_case(case, act)
    whole = tree_of("abd", "ac")
    assert root_paths(incremental) == root_paths(whole)
    assert incremental.node_count() == whole.node_count()
    assert incremental.event_count == whole.event_count


def test_empty_tree_properties():
    tree = PrefixTree()
    assert tree.is_empty
    assert tree.node_count() == 0
    assert root_paths(tree) == frozenset()


def test_to_dict_carries_frequencies():
    tree = tree_of("ab", "ab", "ac")
    dumped = tree.to_dict()
    assert dumped["event_count"] == 6
    assert dumped["nodes"] == [
        {"activity": "a", "frequency": 3, "parent": 0},
        {"activity": "b", "frequency": 2, "parent": 1},
        {"activity": "c", "frequency": 1, "parent": 1},
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=8))
def test_path_set_equals_all_prefixes(paths):
    tree = tree_of(*paths)
    expected = {tuple(p[:k]) for p in paths for k in range(1, len(p) + 1)}
    assert root_paths(tree) == frozenset(expected)
    assert tree.node_count() == len(expected)


# -- dissimilarity -------------------------------------------------------------


def test_dissimilarity_half_missing():
    new = tree_of("ab", "acd")  # paths: a, ab, ac, acd
    stored = tree_of("ab")  # paths: a, ab
    assert dissimilarity(new, stored) == 0.5


def test_dissimilarity_identity_is_zero():
    tree = tree_of("abc", "abd", "ae")
    assert dissimilarity(tree, tree) == 0.0


def test_dissimilarity_disjoint_alphabets_is_one():
    assert dissimilarity(tree_of("abc"), tree_of("xyz")) == 1.0


def test_dissimilarity_is_asymmetric():
    big = tree_of("ab", "ac")
    small = tree_of("ab")
    assert dissimilarity(big, small) == pytest.approx(1 / 3)
    assert dissimilarity(small, big) == 0.0


def test_dissimilarity_empty_new_tree_raises():
    with pytest.raises(ConfigurationError):
        dissimilarity(PrefixTree(), tree_of("a"))


@settings(max_examples=100, deadline=None)
@given(
    new_paths=st.lists(st.text(st.sampled_from("abcde"), min_size=1, max_size=6), min_size=1, max_size=8),
    stored_paths=st.lists(st.text(st.sampled_from("abcde"), min_size=1, max_size=6), max_size=8),
)
def test_dissimilarity_matches_path_set_oracle(new_paths, stored_paths):
    new = tree_of(*new_paths)
    stored = tree_of(*stored_paths) if stored_paths else PrefixTree()
    assert dissimilarity(new, stored) == path_set_dissimilarity(new, stored)


# -- buffered events -------------------------------------------------------------


def test_build_from_buffer_groups_by_case():
    buffer = [Event(case, act) for case, act in [("c1", "a"), ("c2", "x"), ("c1", "b"), ("c2", "y"), ("c1", "c")]]
    tree = build_from_buffer(buffer)
    assert root_paths(tree) == root_paths(tree_of("abc", "xy"))


def test_traversals_handle_paths_deeper_than_the_recursion_limit():
    depth = 3000
    deep = PrefixTree()
    for i in range(depth):
        deep.extend_case("c1", "ab"[i % 2])
    assert deep.node_count() == depth
    nodes = deep.to_dict()["nodes"]
    assert [node["activity"] for node in nodes] == ["ab"[i % 2] for i in range(depth)]
    assert [node["parent"] for node in nodes] == list(range(depth))
    assert dissimilarity(deep, deep) == 0.0
    assert dissimilarity(deep, tree_of("ab")) == (depth - 2) / depth
    assert dissimilarity(deep, tree_of("x")) == 1.0


def test_to_dict_keeps_child_insertion_order():
    tree = tree_of("ac", "ab", "b", "ad")
    nodes = tree.to_dict()["nodes"]
    assert [node["activity"] for node in nodes] == ["a", "c", "b", "b", "d"]
    assert [node["parent"] for node in nodes] == [0, 1, 1, 0, 1]
    assert [node["frequency"] for node in nodes] == [3, 1, 1, 1, 1]


# -- matching --------------------------------------------------------------------


def test_match_returns_best_below_threshold():
    store = [
        TaskRecord(1, tree_of("ab", "ac")),
        TaskRecord(2, tree_of("xy")),
    ]
    new = tree_of("ab", "ac", "ad")  # vs task 1: missing only ad -> 0.25
    assert match_task(new, store, threshold=0.5) == 1


def test_match_rejects_when_all_above_threshold():
    store = [TaskRecord(1, tree_of("pq"))]
    assert match_task(tree_of("ab"), store, threshold=0.5) is None


def test_match_breaks_ties_toward_the_first_record():
    twin_a = TaskRecord(1, tree_of("ab"))
    twin_b = TaskRecord(2, tree_of("ab"))
    assert match_task(tree_of("ab"), [twin_a, twin_b], threshold=0.5) == 1
    assert match_task(tree_of("ab"), [twin_b, twin_a], threshold=0.5) == 2


def test_match_empty_store_returns_none():
    assert match_task(tree_of("a"), [], threshold=0.5) is None


def test_match_counts_empty_stored_tree_as_fully_dissimilar():
    store = [TaskRecord(1, PrefixTree())]
    assert match_task(tree_of("a"), store, threshold=1.0) is None


def test_match_threshold_validation():
    with pytest.raises(ConfigurationError):
        match_task(tree_of("a"), [], threshold=0.0)
    with pytest.raises(ConfigurationError):
        match_task(tree_of("a"), [], threshold=1.1)


def test_match_threshold_is_exclusive():
    store = [TaskRecord(1, tree_of("ab"))]
    new = tree_of("ab", "cd", "ef")  # dissimilarity 4/6 = 2/3 against task 1
    assert match_task(new, store, threshold=2 / 3) is None
    assert match_task(new, store, threshold=2 / 3 + 1e-9) == 1
