"""Brute-force prefix-tree oracles that the tree walks in ``cnapwp.task_recognition`` are checked against."""
from cnapwp.task_recognition import PrefixTree


def tree_of(*paths):
    """A tree holding each path as one case, built through ``extend_case`` as the engine builds it."""
    tree = PrefixTree()
    for case, path in enumerate(paths):
        for activity in path:
            tree.extend_case(str(case), activity)
    return tree


def root_paths(tree):
    """Every non-empty root path in the tree, read off its ``to_dict`` dump."""
    paths, stack = set(), [((), tree.to_dict()["paths"])]
    while stack:
        prefix, entries = stack.pop()
        for entry in entries:
            path = prefix + (entry["activity"],)
            paths.add(path)
            stack.append((path, entry["children"]))
    return frozenset(paths)


def path_set_dissimilarity(new, stored):
    """The share of the new tree's root paths missing from the stored tree."""
    new_paths = root_paths(new)
    return len(new_paths - root_paths(stored)) / len(new_paths)
