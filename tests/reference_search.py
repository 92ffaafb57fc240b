"""Earlier search code of ksystems 0.1.0, kept as a reference.

The acyclic-orientation stream and the H^k scoring as they were before
``minimize_hk`` scored orientations from a table of in-degree weights.
There the stream was one sequential generator (also run under a prefix
of fixed edge directions, which is left out here), and every orientation
was scored through the public, input-checking ``indegree_histogram`` and
``hk_sum``.

The sink checks and the k-sink counterexample search as they were before
the search checked orientations from out-masks: each orientation went
through the input-checking ``unique_sink_per_set`` and ``is_aof_oracle``,
each with its own topological sort and its own sink count over
out-neighbour lists.

The orientation stream as it was before it kept reachability masks: a
recursive generator that ran a depth-first search over out-masks for
every edge direction it tried.  The listing of connected k-regular
candidate sets as it was before it grew bitmasks: Python sets copied at
every state and a dict of degrees rebuilt at each.  The merged variants
of a cover as they were before they were built over bitmasks: a dict of
pairwise independence verdicts over Python sets, and blocks as lists of
member indices.  And the out-neighbour lists, which the package no
longer uses.

Differential tests compare the package with these: the same orientations
in the same order, the same least H^k with the same first witness, the
same sink verdicts and errors, the same first k-sink counterexample, the
same candidate sets and cap errors, and the same merged variants in the
same order.  Only the result types, the input checks, the topological
sort, the orientation stream, the faces and the two scoring functions
come from the package.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

from ksystems.errors import CandidateCapExceeded, EmptySubset, InvalidParams, NotAcyclic
from ksystems.graphs import (
    Orientation,
    PolytopeGraph,
    as_tuple,
    check_bound,
    directed_edges,
    hk_sum,
    indegree_histogram,
    is_int,
    require_int,
    topological_order,
)
from ksystems.oracle import Instance, faces_from_incidence
from ksystems.search import enumerate_acyclic_orientations
from ksystems.systems import SetSystem, check_k_range, check_system_bound


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


def connected_k_regular_sets(
    g: PolytopeGraph, k: int, candidate_cap: int = 10**6
) -> list[tuple[int, ...]]:
    """All vertex sets inducing a connected k-regular subgraph, sorted,
    grown over Python sets."""
    check_k_range(g, k)
    require_int(candidate_cap, "candidate_cap", 0)
    adj = [set(a) for a in g.adjacency]
    found: list[tuple[int, ...]] = []

    def grow(current: set[int], forb: set[int]) -> None:
        deg = {v: len(adj[v] & current) for v in current}
        if all(c == k for c in deg.values()):
            if len(found) >= candidate_cap:
                raise CandidateCapExceeded(
                    f"more than {candidate_cap} candidate sets"
                )
            found.append(tuple(sorted(current)))
            return
        pivot: int | None = None
        for v in sorted(current):
            if deg[v] < k:
                free = adj[v] - current - forb
                if deg[v] + len(free) < k:
                    return
                if pivot is None:
                    pivot = min(free)
        assert pivot is not None
        joins = adj[pivot] & current
        if len(joins) <= k and all(deg[x] < k for x in joins):
            grow(current | {pivot}, forb)
        grow(current, forb | {pivot})

    for r in range(g.n):
        grow({r}, set(range(r)))
    found.sort()
    return found


def _independent_members(g: PolytopeGraph, a: set[int], b: set[int]) -> bool:
    """No shared vertices and no edges between: their union is then an
    induced disjoint union, still k-regular."""
    if a & b:
        return False
    adj = g.adjacency
    return not any(x in b for v in a for x in adj[v])


def _merged_variants(
    g: PolytopeGraph, base: list[tuple[int, ...]]
) -> Iterator[list[tuple[int, ...]]]:
    """Coarsenings of a cover obtained by merging pairwise independent
    members into single (disconnected) sets, yielded one at a time."""
    m = len(base)
    vsets = [set(t) for t in base]
    compat: dict[tuple[int, int], bool] = {}
    for i in range(m):
        for j in range(i + 1, m):
            compat[(i, j)] = _independent_members(g, vsets[i], vsets[j])

    blocks: list[list[int]] = []

    def assign(i: int) -> Iterator[list[tuple[int, ...]]]:
        if i == m:
            if any(len(b) > 1 for b in blocks):
                yield [tuple(sorted(v for idx in b for v in base[idx])) for b in blocks]
            return
        for b in blocks:
            if all(compat[(j, i)] for j in b):
                b.append(i)
                yield from assign(i + 1)
                b.pop()
        blocks.append([i])
        yield from assign(i + 1)
        blocks.pop()

    return assign(0)


def out_adjacency(g: PolytopeGraph, o: Orientation) -> list[list[int]]:
    """Out-neighbour lists of the directed graph."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for tail, head in directed_edges(g, o):
        out[tail].append(head)
    return out


def least_hk(
    g: PolytopeGraph, k: int | str, orientations: Iterable[Orientation]
) -> tuple[int, Orientation] | None:
    """H^k and the first orientation attaining the least H^k, if any."""
    scored = ((hk_sum(indegree_histogram(g, o), k), o) for o in orientations)
    return min(scored, key=itemgetter(0), default=None)


def sinks_in_subset(g: PolytopeGraph, o: Orientation, w: Iterable[int]) -> set[int]:
    ids = as_tuple(w, "subset")
    if not ids:
        raise EmptySubset("subset must be non-empty")
    for v in ids:
        if not is_int(v) or not 0 <= v < g.n:
            raise InvalidParams(f"vertex id {v!r} outside 0..{g.n - 1}")
    members = set(ids)
    if topological_order(g, o).cycle is not None:
        raise NotAcyclic("orientation has a directed cycle")
    out = out_adjacency(g, o)
    sinks = {v for v in members if not any(x in members for x in out[v])}
    if not sinks:
        raise AssertionError("acyclic induced orientation lost its sink")
    return sinks


def unique_sink_per_set(
    g: PolytopeGraph, o: Orientation, s: SetSystem
) -> tuple[bool, tuple[int, ...] | None]:
    check_bound(g, o)
    check_system_bound(g, s)
    if topological_order(g, o).cycle is not None:
        raise NotAcyclic("orientation has a directed cycle")
    out = out_adjacency(g, o)
    for t in s.sets:
        members = set(t)
        sinks = sum(1 for v in t if not any(x in members for x in out[v]))
        if sinks != 1:
            return False, t
    return True, None


def polygon_is_aof(g: PolytopeGraph, o: Orientation) -> bool:
    if g.d != 2:
        raise InvalidParams(f"polygon check needs d = 2, got d={g.d}")
    if topological_order(g, o).cycle is not None:
        return False
    out = out_adjacency(g, o)
    return sum(1 for v in range(g.n) if not out[v]) == 1


def is_aof_oracle(inst: Instance, o: Orientation) -> bool:
    g = inst.graph
    if topological_order(g, o).cycle is not None:
        return False
    out = out_adjacency(g, o)
    if sum(1 for v in range(g.n) if not out[v]) != 1:
        return False
    for k in range(1, g.d):
        for t in faces_from_incidence(inst, k).sets:
            members = set(t)
            sinks = sum(1 for v in t if not any(x in members for x in out[v]))
            if sinks != 1:
                return False
    return True


def search_k_sink_counterexample(
    inst: Instance, k: int, budget: int = 2**22
) -> Orientation | None:
    g = inst.graph
    faces = faces_from_incidence(inst, k)
    for o in enumerate_acyclic_orientations(g, budget):
        ok, _ = unique_sink_per_set(g, o, faces)
        if ok and not is_aof_oracle(inst, o):
            return o
    return None
