"""Graph and orientation primitives for claimed simple polytope graphs.

A :class:`PolytopeGraph` is the abstract vertex-edge graph of a claimed
simple d-polytope: d-regular, connected, simple, with a canonical edge
indexing that orientations refer to.  Its constructor checks every
graph, however it is built, so a fingerprint names one graph.  An
:class:`Orientation` assigns a head to every edge and binds to its graph
by fingerprint, so orientation documents can be checked against the
graph they were produced for.

Acyclicity is deliberately a checked property, not a type invariant:
refuting a bad certificate requires representing arbitrary orientations.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import eq, lt
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

    The constructor is the one gate, however the graph is built:
    ``PolytopeGraph(d, n, edges)``, :func:`validate_graph` (the same
    constructor), :func:`dataclasses.replace`, the document parser or the
    generators.  It refuses anything that is not a simple d-regular
    connected graph on vertices 0..n-1 and keeps the edges canonical.
    ``adjacency`` and ``fingerprint`` are derived there: they are fields
    that no constructor argument and no :func:`dataclasses.replace` can
    set.  So every graph has passed the checks, and its fingerprint, a
    digest of (d, n, edges), names one graph: the bindings of
    orientations and families trust it.

    An edge list whose pairs are all lists or tuples of two ids that
    pass :func:`plain_vertex_ids` is checked in bulk
    (:func:`_bulk_edges`).  It is its own canonical form when every pair
    is ascending and the pairs are strictly increasing, as in every
    document the package writes; in any other order it is sorted first.
    Any other list, and one with a loop or a repeated edge, is walked
    pair by pair, which names the first fault in list order.  Degrees
    are counted in one pass over the ids, and the neighbours of each
    vertex come out ascending from the sorted edges.  Connectivity is
    the flood of :func:`induces_connected` over ``neighbour_masks``; a
    disconnected graph is refused naming the least vertex not reached
    from vertex 0.

    Equality compares every field; the hash reads (d, n, fingerprint)
    only, since the fingerprint is a digest of the edges.

    ``neighbour_masks`` is derived from ``adjacency`` by the connectivity
    check and kept: it is no field, so equality, hash, ``repr`` and the
    constructor ignore it, and :mod:`pickle` and :mod:`copy` carry it.
    """

    d: int
    n: int
    edges: tuple[tuple[int, int], ...] = field(hash=False)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, hash=False)
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        d = require_int(self.d, "d", 1)
        n = require_int(self.n, "n", 2)
        pairs = as_tuple(self.edges, "edges")
        canonical = _bulk_edges(n, pairs)
        if canonical is None:
            canonical = _walked_edges(n, pairs)

        # Degrees come before any per-vertex storage: a huge n with few
        # edges fails at a vertex no larger than 2|E|, without allocating
        # n lists.
        degree = Counter(chain.from_iterable(canonical))
        if len(degree) != n or {*degree.values()} != {d}:
            v = next(v for v in range(n) if degree[v] != d)
            raise NotRegular(f"vertex {v} has degree {degree[v]}, expected {d}")
        # (u, w) with u < w sorted: each vertex meets its smaller neighbours
        # as the second of a pair, ascending, before its larger ones as the first
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "adjacency", tuple(map(tuple, nbrs)))
        object.__setattr__(self, "fingerprint", _canonical_digest(d, n, canonical))
        # d-regularity makes |E| = n*d/2 automatic; connectivity is not.
        left = _unreached(self.neighbour_masks, (1 << n) - 1)
        if left:
            missing = (left & -left).bit_length() - 1
            raise Disconnected(f"vertex {missing} unreachable from vertex 0")

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map each canonical edge pair to its index."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """The neighbours of each vertex as a bitmask (bit w for the edge
        to w): the adjacency every test of an induced subgraph reads."""
        bit = [1 << v for v in range(self.n)].__getitem__
        return tuple([sum(map(bit, nbrs)) for nbrs in self.adjacency])


#: Build a graph, rejecting anything that is not a simple d-regular
#: connected graph: the constructor of :class:`PolytopeGraph`, under the
#: name the package has always exported.
validate_graph = PolytopeGraph


@dataclass(frozen=True)
class Orientation:
    """Direction assignment for every edge of a fingerprinted graph.

    ``heads[e]`` selects which endpoint of canonical edge e is the head;
    the edge points toward its head.  An orientation may contain directed
    cycles; operations that need acyclicity check for it explicitly.

    Every acyclic orientation a search visits is one of these, so the
    constructor writes the two fields straight into the instance dict,
    in two thirds of the time the generated frozen ``__init__`` takes;
    fields, equality, hash, ``repr``, :func:`dataclasses.replace`,
    :mod:`pickle` and :mod:`copy` are the dataclass's own.
    """

    heads: tuple[int, ...]
    graph_fingerprint: str

    def __init__(self, heads: tuple[int, ...], graph_fingerprint: str) -> None:
        self.__dict__["heads"] = heads
        self.__dict__["graph_fingerprint"] = graph_fingerprint


@dataclass(frozen=True)
class HVector:
    """In-degree histogram (h_0, ..., h_d) of an orientation.

    The counts are kept as a tuple, converted by :func:`as_tuple`, so an
    h-vector built from a list equals and hashes like one built from a
    tuple.  They must be non-empty, and every count must pass
    :func:`require_int` and be non-negative; the constructor raises
    InvalidParams otherwise.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = as_tuple(self.counts, "h-vector")
        if not counts:
            raise InvalidParams("h-vector must not be empty")
        for c in counts:
            require_int(c, "h-vector entry")
        if min(counts) < 0:
            raise InvalidParams("h-vector entries must be non-negative")
        object.__setattr__(self, "counts", counts)


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
    return _canonical_digest(d, n, sorted(sorted(e) for e in edges))


#: The encoder of every fingerprint: sorted keys, no whitespace, and no
#: check for cycles, which a list of integer pairs cannot hold.
_DIGEST_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _canonical_digest(d: int, n: int, canon: Sequence[Sequence[int]]) -> str:
    """:func:`graph_fingerprint` of an edge list already canonical: each
    pair ascending, the pairs sorted."""
    blob = _DIGEST_JSON.encode({"d": d, "edges": canon, "n": n})
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def is_int(x: object) -> bool:
    """True for an ``int`` that is not a ``bool``: the one test every
    integer argument and vertex id from outside the package passes."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(value: object, what: str, least: int | None = None) -> int:
    """``value``, when it passes :func:`is_int` and is at least ``least``;
    otherwise InvalidParams naming ``what``."""
    if not is_int(value) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise InvalidParams(f"{what} must be an integer{bound}, got {value!r}")
    return value


def plain_vertex_ids(n: int, ids: Sequence) -> bool:
    """True when every item of ``ids`` is of type ``int`` (not a subclass)
    and lies in 0..n-1: a test of the whole sequence by its types and its
    min and max."""
    return {*map(type, ids)} <= {int} and (not ids or 0 <= min(ids) and max(ids) < n)


def check_vertex_ids(n: int, ids: Sequence) -> None:
    """Raise InvalidParams naming the first item of ``ids`` that is not a
    vertex id 0..n-1 passing :func:`is_int`.

    Ids that are all of type ``int`` are checked by their min and max
    (:func:`plain_vertex_ids`); any other ids (bools, floats, ``IntEnum``
    members, ...) one at a time.
    """
    if plain_vertex_ids(n, ids):
        return
    for v in ids:
        if not is_int(v) or not 0 <= v < n:
            raise InvalidParams(f"vertex id {v!r} outside 0..{n - 1}")


def member_ids(n: int, members: Iterable[Iterable], what: str) -> list:
    """The vertex ids of ``members``, flattened in order, after
    :func:`check_vertex_ids`.

    This is the check on the members of a family built directly, which has
    not been through the checks of its constructor: a member that is not
    a collection (a number, None, or an iterator, which one reading uses
    up) raises InvalidParams naming it as a ``what``, before any id is
    looked at.
    """
    try:
        ids = [*chain.from_iterable(members)]
        sized = sum(map(len, members)) == len(ids)
    except TypeError:
        sized = False
    if not sized:
        for raw in as_tuple(members, f"{what}s"):
            if not isinstance(raw, Collection):
                raise InvalidParams(f"{what} {raw!r} is not a set of vertex ids")
        raise InvalidParams(f"{what}s hold other than as many ids as their lengths")
    check_vertex_ids(n, ids)
    return ids


def as_tuple(values: Iterable, what: str) -> tuple:
    """The items of a caller's collection, or InvalidParams naming ``what``
    when it is not a collection at all."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidParams(f"{what} must be a list, got {values!r}") from None


def _bulk_edges(n: int, pairs: Sequence) -> list[tuple[int, int]] | None:
    """The canonical edge list of ``pairs``, checked in bulk, or None when
    the bulk checks do not all hold: every pair a list or tuple of two ids
    passing :func:`plain_vertex_ids`, no loop, no edge twice.  Pairs that
    are all ascending and strictly increasing are compared, never sorted."""
    if not {*map(type, pairs)} <= {list, tuple} or not {*map(len, pairs)} <= {2}:
        return None
    ids = [*chain.from_iterable(pairs)]
    if not plain_vertex_ids(n, ids):
        return None
    us, vs = ids[0::2], ids[1::2]
    if all(map(lt, us, vs)):
        edges = [*zip(us, vs)]
        if all(map(lt, edges, edges[1:])):
            return edges
        edges.sort()
    elif any(map(eq, us, vs)):
        return None
    else:
        edges = sorted(zip(map(min, us, vs), map(max, us, vs)))
    return edges if all(map(lt, edges, edges[1:])) else None


def _walked_edges(n: int, pairs: Sequence) -> list[tuple[int, int]]:
    """The canonical edge list of ``pairs``, walked one pair at a time:
    InvalidParams for a pair that is not two vertex ids of 0..n-1,
    SelfLoop and DuplicateEdge for the first loop or repeat."""
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidParams(f"edge {pair!r} is not a pair of vertex ids") from None
        check_vertex_ids(n, (u, v))
        if u == v:
            raise SelfLoop(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        canonical.append(e)
    canonical.sort()
    return canonical


def induced_flaw(
    nbr: Sequence[int],
    t: Sequence[int],
    mask: int,
    k: int,
    *,
    connected: bool = True,
) -> str | None:
    """The first test the subgraph induced on ``t`` fails: ``"regular"``
    when some vertex of ``t`` has other than k neighbours in ``t``, then
    ``"connected"`` when that subgraph is not connected; None when it
    passes both, or the first when ``connected`` is false.

    ``nbr`` is a graph's :attr:`PolytopeGraph.neighbour_masks` and
    ``mask`` is :func:`vertex_mask` of ``t``, which the caller holds; the
    ids of ``t`` are not checked.  A degree is the popcount of a
    neighbour mask cut to ``mask``, and connectivity is
    :func:`induces_connected`.  The empty set is regular and not
    connected.  This is the one test of an induced subgraph in the package.
    """
    for v in t:
        if (nbr[v] & mask).bit_count() != k:
            return "regular"
    if not connected or induces_connected(nbr, mask):
        return None
    return "connected"


def induces_connected(nbr: Sequence[int], mask: int) -> bool:
    """True when the vertex bitmask ``mask`` induces a connected subgraph;
    false for the empty mask.

    ``nbr`` is a graph's :attr:`PolytopeGraph.neighbour_masks`, and the
    test is the flood of :func:`_unreached`.  This is the one
    connectivity test in the package: the :class:`PolytopeGraph`
    constructor runs the same flood over the whole graph.
    """
    return bool(mask) and not _unreached(nbr, mask)


def _unreached(nbr: Sequence[int], mask: int) -> int:
    """The vertices of the bitmask ``mask`` that a flood inside ``mask``
    from its lowest vertex does not reach, as a bitmask; 0 for the empty
    mask.

    ``nbr`` is a graph's :attr:`PolytopeGraph.neighbour_masks`.  The
    flood takes each vertex at most once and stops when none is left to
    reach: O(|mask|) operations on integers of n bits.
    """
    frontier = mask & -mask
    left = mask ^ frontier
    while frontier and left:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & left
        left ^= new
        frontier |= new
    return left


def make_orientation(g: PolytopeGraph, heads: Iterable[int]) -> Orientation:
    """Bind a heads bit-vector to ``g``, validating shape and values:
    one integer 0 or 1 per canonical edge."""
    o = Orientation(heads=as_tuple(heads, "heads"), graph_fingerprint=g.fingerprint)
    check_bound(g, o)
    return o


def check_bound(g: PolytopeGraph, o: Orientation) -> None:
    """Raise unless ``o`` is a well-formed orientation of exactly ``g``:
    bound to it (:func:`check_fingerprint`), with one integer 0 or 1 (not
    a bool, not a float) per canonical edge."""
    check_fingerprint(g, o.graph_fingerprint, "orientation")
    check_heads(o.heads, len(g.edges))


def check_heads(heads: object, m: int | None = None) -> None:
    """Raise InvalidParams unless ``heads`` is a collection of integers 0
    or 1 (not bools, not floats), ``m`` of them when ``m`` is given: the
    test of :func:`check_bound` and :func:`reverse_orientation`."""
    try:
        sized = len(heads) == m or m is None
        fits = sized and {*map(type, heads)} <= {int} and {*heads} <= {0, 1}
    except TypeError:  # heads with no length: None, 7, an iterator
        fits = False
    if not fits:
        raise InvalidParams("heads must give one bit per canonical edge")


def check_fingerprint(g: PolytopeGraph, bound: object, what: str) -> None:
    """Raise FingerprintMismatch unless ``bound``, the fingerprint a
    ``what`` built for some graph carries, is that of ``g``.  The message
    shows a string fingerprint by its first 12 characters, anything else
    by its ``repr``."""
    if bound != g.fingerprint:
        shown = f"{bound[:12]}..." if isinstance(bound, str) else repr(bound)
        raise FingerprintMismatch(
            f"{what} bound to {shown}, graph is {g.fingerprint[:12]}..."
        )


def directed_edges(g: PolytopeGraph, o: Orientation) -> list[tuple[int, int]]:
    """Edges of ``o`` as (tail, head) pairs in canonical edge order."""
    check_bound(g, o)
    return [
        (e[1 - b], e[b])
        for e, b in zip(g.edges, o.heads)
    ]


def out_masks(g: PolytopeGraph, o: Orientation) -> list[int]:
    """Out-neighbours of each vertex as a bitmask (bit w for the edge to w).

    Nothing is checked: the caller has checked that ``o`` is bound to ``g``.
    """
    out = [0] * g.n
    for (u, v), b in zip(g.edges, o.heads):
        if b:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return out


def vertex_mask(t: Iterable[int]) -> int:
    """The vertex set ``t`` as a bitmask."""
    mask = 0
    for v in t:
        mask |= 1 << v
    return mask


def first_without_unique_sink(
    out: Sequence[int], sets: Iterable[tuple[Sequence[int], int]]
) -> Sequence[int] | None:
    """The first vertex set t of ``sets``, given as pairs (t, bitmask of
    t), on which the orientation of out-masks ``out`` does not induce
    exactly one sink; None when it induces one on each.

    A sink of t is a vertex of t with no out-neighbour in its mask, and
    the count of a set stops at its second sink.  An acyclic orientation
    induces at least one sink on every non-empty set.
    """
    for t, mask in sets:
        sinks = 0
        for v in t:
            if not out[v] & mask:
                if sinks:
                    return t
                sinks = 1
        if not sinks:
            return t
    return None


def unique_sinks(out: list[int], families: Iterable[Iterable]) -> bool:
    """True when the acyclic orientation of out-masks ``out`` has one sink on
    the whole graph and one on each set of each family in ``families``,
    given as pairs (set, bitmask): the AOF test of
    :func:`~ksystems.oracle.is_aof_oracle`, the k-sink search and
    :func:`~ksystems.certificates.polygon_is_aof`.

    The whole graph has one sink when exactly one out-mask is empty; the
    families are tested in order by :func:`first_without_unique_sink`,
    each drawn only when the test reaches it.  Acyclicity is the caller's
    to check.
    """
    return out.count(0) == 1 and all(
        first_without_unique_sink(out, faces) is None for faces in families
    )


def topological_order(g: PolytopeGraph, o: Orientation) -> TopoResult:
    """Sort the vertices so every edge points forward, or exhibit a cycle.

    The order is deterministic (smallest available vertex first).  On
    failure the returned witness is a directed cycle of distinct
    vertices, found by walking predecessors inside the unsorted part.
    """
    arcs = directed_edges(g, o)
    out: list[list[int]] = [[] for _ in range(g.n)]
    indeg = [0] * g.n
    for tail, head in arcs:
        out[tail].append(head)
        indeg[head] += 1

    avail = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(avail)
    order: list[int] = []
    while avail:  # indeg[w] counts the edges into w from unsorted vertices
        v = heapq.heappop(avail)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(avail, w)
    if len(order) == g.n:
        return TopoResult(order=tuple(order), cycle=None)

    # Every leftover vertex keeps a predecessor among the leftovers, so a
    # backward walk must revisit a vertex and close a directed cycle.
    left = {v for v in range(g.n) if indeg[v] > 0}
    preds: dict[int, list[int]] = {v: [] for v in left}
    for tail, head in arcs:
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
    check_vertex_ids(g.n, ids)
    if topological_order(g, o).cycle is not None:
        raise NotAcyclic("orientation has a directed cycle")
    out, mask = out_masks(g, o), vertex_mask(ids)
    sinks = {v for v in ids if not out[v] & mask}
    if not sinks:  # impossible for acyclic input; guard against bugs
        raise AssertionError("acyclic induced orientation lost its sink")
    return sinks


def reverse_orientation(o: Orientation) -> Orientation:
    """Flip every edge; an involution that reverses the histogram.  Heads
    that fail :func:`check_heads` raise InvalidParams; with no graph at
    hand, their number is not checked."""
    check_heads(o.heads)
    return Orientation(
        heads=tuple(1 - b for b in o.heads),
        graph_fingerprint=o.graph_fingerprint,
    )
