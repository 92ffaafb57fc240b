"""Graph and orientation primitives for claimed simple polytope graphs.

A :class:`PolytopeGraph` is the abstract vertex-edge graph of a claimed
simple d-polytope: d-regular, connected, simple, with a canonical edge
indexing that orientations refer to.  An :class:`Orientation` assigns a
head to every edge and binds to its graph by fingerprint, so orientation
documents can be checked against the graph they were produced for.

Acyclicity is deliberately a checked property, not a type invariant:
refuting a bad certificate requires representing arbitrary orientations.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    Disconnected,
    DuplicateEdge,
    EmptySubset,
    FingerprintMismatch,
    InvalidParams,
    KOutOfRange,
    NotAcyclic,
    NotRegular,
    SelfLoop,
)

#: Sentinel k accepted by :func:`hk_sum` and the searches: weight each
#: in-degree i by 2**i instead of binom(i, k), summing over all k at once.
ALL = "all"


@dataclass(frozen=True)
class PolytopeGraph:
    """Validated d-regular connected graph with canonical edge indexing.

    Vertices are dense ids 0..n-1.  ``edges[e]`` is the pair (u, v) with
    u < v, and the list is sorted lexicographically; the position e is
    the edge index used by orientations.  Validity never implies
    polytopality, only the graph-checkable conditions.
    """

    d: int
    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    fingerprint: str

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map each canonical edge pair to its index."""
        return {e: i for i, e in enumerate(self.edges)}


@dataclass(frozen=True)
class Orientation:
    """Direction assignment for every edge of a fingerprinted graph.

    ``heads[e]`` selects which endpoint of canonical edge e is the head;
    the edge points toward its head.  An orientation may contain directed
    cycles; operations that need acyclicity check for it explicitly.
    """

    heads: tuple[int, ...]
    graph_fingerprint: str


@dataclass(frozen=True)
class HVector:
    """In-degree histogram (h_0, ..., h_d) of an orientation."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class TopoResult:
    """Outcome of a topological sort: exactly one field is set.

    ``order`` lists all vertices with every edge pointing forward.
    ``cycle`` lists distinct vertices v0, v1, ... closing a directed
    cycle v0 -> v1 -> ... -> v0.
    """

    order: tuple[int, ...] | None
    cycle: tuple[int, ...] | None


def graph_fingerprint(d: int, n: int, edges: Iterable[tuple[int, int]]) -> str:
    """Hex digest binding documents to a graph: hash of d, n, sorted edges."""
    canon = sorted(sorted(e) for e in edges)
    doc = {"d": d, "edges": canon, "n": n}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def is_int(x: object) -> bool:
    """True for an ``int`` that is not a ``bool``: the one test every
    integer argument and vertex id from outside the package passes."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_tuple(values: Iterable, what: str) -> tuple:
    """The items of a caller's collection, or InvalidParams naming ``what``
    when it is not a collection at all."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidParams(f"{what} must be a list, got {values!r}") from None


def validate_graph(d: int, n: int, edge_list: Iterable[Iterable[int]]) -> PolytopeGraph:
    """Build a PolytopeGraph, rejecting anything that is not a simple
    d-regular connected graph on vertices 0..n-1."""
    if not is_int(d) or d < 1:
        raise InvalidParams(f"d must be an integer >= 1, got {d!r}")
    if not is_int(n) or n < 2:
        raise InvalidParams(f"n must be an integer >= 2, got {n!r}")

    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in as_tuple(edge_list, "edges"):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidParams(f"edge {pair!r} is not a pair of vertex ids") from None
        for x in (u, v):
            if not is_int(x) or not 0 <= x < n:
                raise InvalidParams(f"vertex id {x!r} outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        canonical.append(e)
    canonical.sort()

    # Degrees come before any per-vertex storage: a huge n with few edges
    # fails at a vertex no larger than 2|E|, without allocating n lists.
    degree = Counter(x for e in canonical for x in e)
    for v in range(n):
        if degree[v] != d:
            raise NotRegular(f"vertex {v} has degree {degree[v]}, expected {d}")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in canonical:
        nbrs[u].append(v)
        nbrs[v].append(u)

    # d-regularity makes |E| = n*d/2 automatic; connectivity is not.
    reached = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != n:
        missing = min(set(range(n)) - reached)
        raise Disconnected(f"vertex {missing} unreachable from vertex 0")

    return PolytopeGraph(
        d=d,
        n=n,
        edges=tuple(canonical),
        adjacency=tuple(tuple(sorted(a)) for a in nbrs),
        fingerprint=graph_fingerprint(d, n, canonical),
    )


def induced_leaves(g: PolytopeGraph, t: Sequence[int]) -> list[tuple[int, ...]]:
    """For each vertex of ``t``, in order, its neighbours inside ``t``.

    These are the leaves of the one frame each vertex spans in the
    subgraph induced on ``t``; its induced degree is their number.
    """
    inside = set(t).__contains__
    adj = g.adjacency
    return [tuple(filter(inside, adj[v])) for v in t]


def induces_connected(g: PolytopeGraph, t: Iterable[int]) -> bool:
    """True when the non-empty vertex set ``t`` induces a connected subgraph."""
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


def make_orientation(g: PolytopeGraph, heads: Iterable[int]) -> Orientation:
    """Bind a heads bit-vector to ``g``, validating shape and values:
    one integer 0 or 1 per canonical edge."""
    bits = as_tuple(heads, "heads")
    if len(bits) != len(g.edges) or not all(is_int(b) and b in (0, 1) for b in bits):
        raise InvalidParams("heads must give one bit per canonical edge")
    return Orientation(heads=bits, graph_fingerprint=g.fingerprint)


def check_bound(g: PolytopeGraph, o: Orientation) -> None:
    """Raise unless ``o`` is a well-formed orientation of exactly ``g``."""
    if o.graph_fingerprint != g.fingerprint:
        raise FingerprintMismatch(
            f"orientation bound to {o.graph_fingerprint[:12]}..., "
            f"graph is {g.fingerprint[:12]}..."
        )
    if len(o.heads) != len(g.edges) or any(b not in (0, 1) for b in o.heads):
        raise InvalidParams("heads must give one bit per canonical edge")


def directed_edges(g: PolytopeGraph, o: Orientation) -> list[tuple[int, int]]:
    """Edges of ``o`` as (tail, head) pairs in canonical edge order."""
    check_bound(g, o)
    return [
        (e[1 - b], e[b])
        for e, b in zip(g.edges, o.heads)
    ]


def out_adjacency(g: PolytopeGraph, o: Orientation) -> list[list[int]]:
    """Out-neighbour lists of the directed graph."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for tail, head in directed_edges(g, o):
        out[tail].append(head)
    return out


def topological_order(g: PolytopeGraph, o: Orientation) -> TopoResult:
    """Sort the vertices so every edge points forward, or exhibit a cycle.

    The order is deterministic (smallest available vertex first).  On
    failure the returned witness is a directed cycle of distinct
    vertices, found by walking predecessors inside the unsorted part.
    """
    check_bound(g, o)
    out: list[list[int]] = [[] for _ in range(g.n)]
    indeg = [0] * g.n
    for tail, head in directed_edges(g, o):
        out[tail].append(head)
        indeg[head] += 1

    avail = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(avail)
    order: list[int] = []
    remaining = indeg[:]
    while avail:
        v = heapq.heappop(avail)
        order.append(v)
        for w in out[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                heapq.heappush(avail, w)
    if len(order) == g.n:
        return TopoResult(order=tuple(order), cycle=None)

    # Every leftover vertex keeps a predecessor among the leftovers, so a
    # backward walk must revisit a vertex and close a directed cycle.
    left = {v for v in range(g.n) if remaining[v] > 0}
    preds: dict[int, list[int]] = {v: [] for v in left}
    for tail, head in directed_edges(g, o):
        if tail in left and head in left:
            preds[head].append(tail)
    cur = min(left)
    path = [cur]
    pos = {cur: 0}
    while True:
        cur = min(p for p in preds[cur] if p in left)
        if cur in pos:
            tail_part = path[pos[cur] + 1 :]
            cycle = [cur] + list(reversed(tail_part))
            return TopoResult(order=None, cycle=tuple(cycle))
        pos[cur] = len(path)
        path.append(cur)


def is_acyclic(g: PolytopeGraph, o: Orientation) -> bool:
    """True when ``o`` has no directed cycle."""
    return topological_order(g, o).cycle is None


def indegree_histogram(g: PolytopeGraph, o: Orientation) -> HVector:
    """Count vertices by in-degree; acyclicity is not required."""
    check_bound(g, o)
    indeg = [0] * g.n
    for e, b in zip(g.edges, o.heads):
        indeg[e[b]] += 1
    counts = [0] * (g.d + 1)
    for v in range(g.n):
        counts[indeg[v]] += 1
    return HVector(tuple(counts))


def hk_sum(h: HVector, k: int | str) -> int:
    """Weighted histogram sum: sum_i h_i * binom(i, k), exactly.

    With ``k=ALL`` the weight is 2**i, which equals the sum of the
    binomial-weighted sums over every k at once.
    """
    d = len(h.counts) - 1
    if k == ALL:
        return sum(c << i for i, c in enumerate(h.counts))
    if not is_int(k) or not 0 <= k <= d:
        raise KOutOfRange(f"k must be 0..{d} or ALL, got {k!r}")
    return sum(c * math.comb(i, k) for i, c in enumerate(h.counts))


def sinks_in_subset(g: PolytopeGraph, o: Orientation, w: Iterable[int]) -> set[int]:
    """Sinks of the orientation induced on vertex subset ``w``.

    Requires an acyclic orientation; the induced orientation is then
    acyclic too and has at least one sink.
    """
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
    if not sinks:  # impossible for acyclic input; guard against bugs
        raise AssertionError("acyclic induced orientation lost its sink")
    return sinks


def reverse_orientation(o: Orientation) -> Orientation:
    """Flip every edge; an involution that reverses the histogram."""
    return Orientation(
        heads=tuple(1 - b for b in o.heads),
        graph_fingerprint=o.graph_fingerprint,
    )
