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
    """Every non-empty root path in the tree, each rebuilt from its ``to_dict`` dump by following ``parent``."""
    nodes = tree.to_dict()["nodes"]
    paths = set()
    for node in nodes:
        path = []
        while node is not None:
            path.append(node["activity"])
            node = nodes[node["parent"] - 1] if node["parent"] else None
        paths.add(tuple(reversed(path)))
    return frozenset(paths)


def path_set_dissimilarity(new, stored):
    """The share of the new tree's root paths missing from the stored tree."""
    new_paths = root_paths(new)
    return len(new_paths - root_paths(stored)) / len(new_paths)
