"""The acyclic-orientation stream and the H^k scoring of ksystems 0.1.0
as they were before ``minimize_hk`` scored orientations from a table of
in-degree weights, kept as a reference.

There the stream was one sequential generator (also run under a prefix
of fixed edge directions, which is left out here), and every orientation
was scored through the public, input-checking ``indegree_histogram`` and
``hk_sum``.  Differential tests compare the package with these: the same
orientations in the same order, and the same least H^k with the same
first witness.  Only the result types and the two scoring functions come
from the package.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

from ksystems.graphs import Orientation, PolytopeGraph, hk_sum, indegree_histogram


def _bfs_edge_order(g: PolytopeGraph) -> list[int]:
    pos = {0: 0}
    queue = [0]
    for u in queue:
        for w in g.adjacency[u]:
            if w not in pos:
                pos[w] = len(pos)
                queue.append(w)
    return sorted(
        range(len(g.edges)),
        key=lambda e: tuple(sorted((pos[g.edges[e][0]], pos[g.edges[e][1]]))),
    )


def _reaches(out: list[int], src: int, dst: int) -> bool:
    seen = 0
    frontier = out[src]
    while frontier:
        if (frontier >> dst) & 1:
            return True
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= out[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
    return False


def acyclic_orientations(g: PolytopeGraph) -> Iterator[Orientation]:
    """Every acyclic orientation, edges in BFS edge order, head bit 0
    before 1 (no budget)."""
    m = len(g.edges)
    order = _bfs_edge_order(g)
    heads = [-1] * m
    out = [0] * g.n
    fp = g.fingerprint

    def rec(pos: int) -> Iterator[Orientation]:
        if pos == m:
            yield Orientation(heads=tuple(heads), graph_fingerprint=fp)
            return
        e = order[pos]
        u, v = g.edges[e]
        for bit, t, h in ((0, v, u), (1, u, v)):
            if not _reaches(out, h, t):
                heads[e] = bit
                out[t] |= 1 << h
                yield from rec(pos + 1)
                out[t] &= ~(1 << h)

    yield from rec(0)


def least_hk(
    g: PolytopeGraph, k: int | str, orientations: Iterable[Orientation]
) -> tuple[int, Orientation] | None:
    """H^k and the first orientation attaining the least H^k, if any."""
    scored = ((hk_sum(indegree_histogram(g, o), k), o) for o in orientations)
    return min(scored, key=itemgetter(0), default=None)
