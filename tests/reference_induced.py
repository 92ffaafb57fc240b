"""The set-based tests of an induced subgraph, from before they were
written over vertex bitmasks, kept as a reference.

Differential tests compare :func:`ksystems.graphs.induced_flaw` and the
face code built on it with these: ``induced_leaves`` and
``is_k_regular_set`` list each vertex's neighbours inside the set, and
``induces_connected`` is a breadth-first search over a Python set.  The
reference ``facets_from_2faces`` walks its 2-faces with
``induced_leaves``.  Only the id checks come from the package.
"""

from __future__ import annotations

from ksystems.graphs import as_tuple, check_vertex_ids


def induced_leaves(g, t):
    """For each vertex of ``t``, in order, its neighbours inside ``t``."""
    inside = set(t).__contains__
    return [tuple(filter(inside, g.adjacency[v])) for v in t]


def is_k_regular_set(g, t, k):
    t = as_tuple(t, "vertex set")
    check_vertex_ids(g.n, t)
    inside = set(t).__contains__
    return all(len(tuple(filter(inside, g.adjacency[v]))) == k for v in t)


def induces_connected(g, t):
    members = set(t)
    if not members:
        return False
    start = min(members)
    reached = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w in members and w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == len(members)
