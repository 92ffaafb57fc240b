"""The face code of ksystems before each piece of work was done once,
kept as a reference.

Differential tests compare the package with three functions of it:

- ``make_instance`` checks every vertex pair: adjacent pairs must share
  d-1 facets, non-adjacent pairs must not.
- ``faces_from_incidence`` intersects the facets of each (d-k)-subset of
  every vertex's facets, so each k-face once per vertex of it.
- ``facets_from_2faces`` runs the transport closure from every one of the
  n*d seeds, so it rebuilds each facet once per state in it.

The k-system validator and the set-system constructor come from the
package; ``make_instance`` walks the facets itself, one at a time, with
the messages of the package, and returns the plain record of
``reference_gate``, not the package's Instance, whose constructor runs the
package's checks; ``induced_leaves`` and the set-based tests of an induced
subgraph come from ``reference_induced``.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from ksystems.errors import (
    DimensionTooSmall,
    InconsistentTransport,
    InvalidParams,
    KMismatch,
    KOutOfRange,
    NotCycleSystem,
    NotSimple,
)
from ksystems.graphs import is_int
from ksystems.oracle import _rational_rows
from ksystems.systems import (
    check_system_bound,
    make_set_system,
    validate_k_system,
)

from reference_gate import Instance
from reference_induced import induced_leaves, induces_connected, is_k_regular_set


def facet_tuples(n, facets):
    """Each facet as a sorted tuple of vertex ids 0..n-1, checked one
    facet at a time, in order."""
    try:
        facets = tuple(facets)
    except TypeError:
        raise InvalidParams(f"facets must be a list, got {facets!r}") from None
    for raw in facets:
        try:
            t = tuple(sorted(raw))
            repeats = len(set(t)) != len(t)
        except TypeError:
            raise InvalidParams(f"facet {raw!r} is not a set of vertex ids") from None
        if repeats:
            raise InvalidParams(f"facet {t} repeats a vertex")
        for v in t:
            if not is_int(v) or not 0 <= v < n:
                raise InvalidParams(f"vertex id {v!r} outside 0..{n - 1}")
        yield t


def make_instance(name, graph, facets, coords=None):
    d, n = graph.d, graph.n
    canon = []
    seen = set()
    for t in facet_tuples(n, facets):
        if t in seen:
            raise NotSimple(f"facet {t} listed twice")
        seen.add(t)
        canon.append(t)
    canon.sort()

    membership = [set() for _ in range(n)]
    for i, t in enumerate(canon):
        for v in t:
            membership[v].add(i)
    for v in range(n):
        if len(membership[v]) != d:
            raise NotSimple(
                f"vertex {v} lies on {len(membership[v])} facets, expected {d}"
            )

    adj_sets = [set(a) for a in graph.adjacency]
    for i, t in enumerate(canon):
        if not is_k_regular_set(graph, t, d - 1):
            raise NotSimple(f"facet #{i} does not induce a (d-1)-regular subgraph")
        if not induces_connected(graph, t):
            raise NotSimple(f"facet #{i} induces a disconnected subgraph")

    for u in range(n):
        for v in range(u + 1, n):
            shared = len(membership[u] & membership[v])
            adjacent = v in adj_sets[u]
            if adjacent and shared != d - 1:
                raise NotSimple(
                    f"edge ({u},{v}) shares {shared} facets, expected {d - 1}"
                )
            if not adjacent and shared == d - 1:
                raise NotSimple(
                    f"non-adjacent pair ({u},{v}) shares {d - 1} facets"
                )

    frozen_coords = None
    if coords is not None:
        rows = _rational_rows(coords, "coordinates")
        if len(rows) != n:
            raise InvalidParams(f"{len(rows)} coordinate rows for {n} vertices")
        dims = {len(r) for r in rows}
        if len(dims) != 1 or min(dims) < 1:
            raise InvalidParams("coordinate rows must share a positive dimension")
        frozen_coords = tuple(rows)

    return Instance(name=name, graph=graph, facets=tuple(canon), coords=frozen_coords)


def faces_from_incidence(inst, k):
    g = inst.graph
    d = g.d
    if not is_int(k) or not 0 <= k <= d - 1:
        raise KOutOfRange(f"k must satisfy 0 <= k <= d-1 = {d - 1}, got {k!r}")
    facet_sets = [frozenset(t) for t in inst.facets]
    membership = [[] for _ in range(g.n)]
    for i, t in enumerate(inst.facets):
        for v in t:
            membership[v].append(i)

    found = set()
    for v in range(g.n):
        for chosen in combinations(membership[v], d - k):
            face = frozenset.intersection(*(facet_sets[i] for i in chosen))
            found.add(tuple(sorted(face)))

    for t in sorted(found):
        if len(t) < k + 1 or not is_k_regular_set(g, t, k):
            raise NotSimple(f"facet intersection {t} is not a {k}-face")
        if not induces_connected(g, t):
            raise NotSimple(f"facet intersection {t} is disconnected")

    return make_set_system(g, k, sorted(found))


def facets_from_2faces(g, f2):
    if g.d < 3:
        raise DimensionTooSmall(f"facet reconstruction needs d >= 3, got d={g.d}")
    check_system_bound(g, f2)
    if f2.k != 2:
        raise KMismatch(f"expected a 2-system, got k={f2.k}")
    report = validate_k_system(g, f2)
    if not report.valid:
        raise NotCycleSystem(
            f"not a valid 2-system: {report.defect_lines()[0]}"
        )
    for i, t in enumerate(f2.sets):
        if not induces_connected(g, t):
            raise NotCycleSystem(f"member #{i} induces a disconnected subgraph")

    step = [
        {m: dict.fromkeys(w for w in nbrs if w != m) for m in nbrs}
        for nbrs in g.adjacency
    ]
    for t in f2.sets:
        leaves = dict(zip(t, induced_leaves(g, t)))
        cycle = [t[0], leaves[t[0]][0]]
        while len(cycle) < len(t):
            x, y = leaves[cycle[-1]]
            cycle.append(y if x == cycle[-2] else x)
        for j, u in enumerate(cycle):
            before, after = cycle[j - 1], cycle[(j + 1) % len(cycle)]
            step[u][before][after] = cycle[(j + 2) % len(cycle)]
            step[u][after][before] = cycle[j - 2]

    facets = set()
    vertex_count = [0] * g.n
    for r in range(g.n):
        for x in g.adjacency[r]:
            missing = {r: x}
            queue = deque([r])
            while queue:
                u = queue.popleft()
                for w, m in step[u][missing[u]].items():
                    if w not in missing:
                        missing[w] = m
                        queue.append(w)
                    elif missing[w] != m:
                        raise InconsistentTransport(
                            f"facet seeded at ({r}, missing {x}): vertex {w} "
                            f"should miss both {missing[w]} and {m}"
                        )
            facet = tuple(sorted(missing))
            if facet not in facets:
                facets.add(facet)
                for v in facet:
                    vertex_count[v] += 1

    for t in sorted(facets):
        if not is_k_regular_set(g, t, g.d - 1):
            raise InconsistentTransport(
                f"reconstructed facet {t} is not (d-1)-regular"
            )
    bad = [v for v in range(g.n) if vertex_count[v] != g.d]
    if bad:
        raise InconsistentTransport(
            f"vertex {bad[0]} lies in {vertex_count[bad[0]]} reconstructed "
            f"facets, expected {g.d}"
        )
    return make_set_system(g, g.d - 1, sorted(facets))
