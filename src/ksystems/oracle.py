"""Reference instances: generators, face enumeration, geometric orientations.

An :class:`Instance` couples a polytope graph with its vertex-facet
incidences (and optionally exact rational coordinates).  The incidences
are the ground truth the combinatorial machinery is tested against:
faces of any dimension fall out of intersecting facets, and a generic
linear functional on coordinates produces an orientation with a unique
sink on every face.

Generators cover products of simplices and cubes plus combinatorial
vertex truncation, enough to build the worked examples (prisms, the
3-cube with two opposite corners of one quadrilateral face cut off).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DegenerateWeights,
    InvalidParams,
    KOutOfRange,
    NoCoordinates,
    NotSimple,
)
from .graphs import (
    Orientation,
    PolytopeGraph,
    induces_connected,
    is_int,
    out_adjacency,
    topological_order,
    validate_graph,
)
from .systems import SetSystem, is_k_regular_set, make_set_system, vertex_sets


@dataclass(frozen=True)
class Instance:
    """A claimed simple polytope: graph, facet vertex sets, optional coords.

    Facets are canonical sorted tuples in lexicographic order.  Coordinates,
    when present, are exact rationals, one vector per vertex, all of the
    same dimension.  Construction via :func:`make_instance` enforces the
    simplicity bookkeeping: every vertex on exactly d facets, facets
    inducing connected (d-1)-regular subgraphs, and adjacency equivalent
    to sharing exactly d-1 facets.
    """

    name: str
    graph: PolytopeGraph
    facets: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[Fraction, ...], ...] | None


def make_instance(
    name: str,
    graph: PolytopeGraph,
    facets: Iterable[Iterable[int]],
    coords: Sequence[Sequence[Fraction | int]] | None = None,
) -> Instance:
    """Canonicalize and cross-check an instance (see :class:`Instance`)."""
    d, n = graph.d, graph.n
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for t in vertex_sets(graph, facets, "facet"):
        if t in seen:
            raise NotSimple(f"facet {t} listed twice")
        seen.add(t)
        canon.append(t)
    canon.sort()

    membership: list[set[int]] = [set() for _ in range(n)]
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

    frozen_coords: tuple[tuple[Fraction, ...], ...] | None = None
    if coords is not None:
        rows = _rational_rows(coords, "coordinates")
        if len(rows) != n:
            raise InvalidParams(f"{len(rows)} coordinate rows for {n} vertices")
        dims = {len(r) for r in rows}
        if len(dims) != 1 or min(dims) < 1:
            raise InvalidParams("coordinate rows must share a positive dimension")
        frozen_coords = tuple(rows)

    return Instance(name=name, graph=graph, facets=tuple(canon), coords=frozen_coords)


def _rational_rows(rows: Iterable[Iterable], what: str) -> list[tuple[Fraction, ...]]:
    """Rows of caller values as exact rationals.  Every rational taken from
    a caller passes through here, so a malformed one raises InvalidParams."""
    try:
        return [tuple(map(Fraction, row)) for row in rows]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidParams(f"{what} must be rational numbers: {exc}") from None


def simplex(d: int) -> Instance:
    """The d-simplex: complete graph on d+1 vertices, facets = all d-subsets.

    Vertex 0 sits at the origin, vertex i at the i-th unit vector.
    """
    if not is_int(d) or d < 1:
        raise InvalidParams(f"simplex dimension must be >= 1, got {d!r}")
    n = d + 1
    graph = validate_graph(d, n, combinations(range(n), 2))
    facets = [tuple(v for v in range(n) if v != skip) for skip in range(n)]
    coords = [
        tuple(Fraction(1 if i == j + 1 else 0) for j in range(d))
        for i in range(n)
    ]
    return make_instance(f"simplex({d})", graph, facets, coords)


def cube(d: int) -> Instance:
    """The d-cube on 0/1 vectors; vertex id v has coordinate j = bit j of v.

    Facets are the 2d coordinate half-spaces x_j = 0 and x_j = 1.
    """
    if not is_int(d) or d < 1:
        raise InvalidParams(f"cube dimension must be >= 1, got {d!r}")
    n = 1 << d
    edges = [
        (v, v | (1 << j))
        for v in range(n)
        for j in range(d)
        if not v & (1 << j)
    ]
    graph = validate_graph(d, n, edges)
    facets = [
        tuple(v for v in range(n) if (v >> j) & 1 == b)
        for j in range(d)
        for b in (0, 1)
    ]
    coords = [tuple(Fraction((v >> j) & 1) for j in range(d)) for v in range(n)]
    return make_instance(f"cube({d})", graph, facets, coords)


def product(a: Instance, b: Instance) -> Instance:
    """Cartesian product: vertex pairs, facets = facet x whole on either side.

    Coordinates concatenate when both factors carry them.
    """
    na, nb = a.graph.n, b.graph.n
    d = a.graph.d + b.graph.d

    def pid(va: int, vb: int) -> int:
        return va * nb + vb

    edges: list[tuple[int, int]] = []
    for u, v in a.graph.edges:
        edges.extend((pid(u, w), pid(v, w)) for w in range(nb))
    for u, v in b.graph.edges:
        edges.extend((pid(w, u), pid(w, v)) for w in range(na))
    graph = validate_graph(d, na * nb, edges)

    facets = [
        tuple(pid(x, y) for x in fa for y in range(nb))
        for fa in a.facets
    ]
    facets.extend(
        tuple(pid(x, y) for x in range(na) for y in fb)
        for fb in b.facets
    )

    coords = None
    if a.coords is not None and b.coords is not None:
        coords = [
            a.coords[va] + b.coords[vb]
            for va in range(na)
            for vb in range(nb)
        ]
    return make_instance(f"product({a.name},{b.name})", graph, facets, coords)


def truncate_vertex(inst: Instance, v: int) -> Instance:
    """Cut off vertex v, combinatorially (coordinates are dropped).

    The vertex figure of a simple polytope is a simplex, so the d cut
    edges spawn d new pairwise-adjacent vertices, one per former edge
    {v, u}, each also adjacent to its u.  Old facets through v trade v
    for the new vertices on their edges; the cut itself is a new facet.
    """
    g = inst.graph
    d, n = g.d, g.n
    if not is_int(v) or not 0 <= v < n:
        raise InvalidParams(f"vertex id {v!r} outside 0..{n - 1}")
    nbrs = g.adjacency[v]

    def remap(u: int) -> int:
        return u if u < v else u - 1

    new_id = {u: n - 1 + i for i, u in enumerate(nbrs)}
    edges: list[tuple[int, int]] = [
        (remap(x), remap(y)) for x, y in g.edges if v not in (x, y)
    ]
    edges.extend((remap(u), new_id[u]) for u in nbrs)
    edges.extend(combinations(sorted(new_id.values()), 2))
    graph = validate_graph(d, n - 1 + d, edges)

    facets: list[tuple[int, ...]] = []
    for t in inst.facets:
        if v in t:
            kept = [remap(u) for u in t if u != v]
            kept.extend(new_id[u] for u in nbrs if u in set(t))
            facets.append(tuple(kept))
        else:
            facets.append(tuple(remap(u) for u in t))
    facets.append(tuple(sorted(new_id.values())))

    return make_instance(f"truncate({inst.name},{v})", graph, facets, None)


def fig1() -> Instance:
    """3-cube with two opposite corners of one quadrilateral facet cut off.

    Cutting vertex 0 = (0,0,0) first renumbers its diagonal partner
    (1,1,0) from id 3 to id 2; both lie on the facet z = 0 and are not
    adjacent.  The result has 12 vertices, 18 edges and 8 facets.
    """
    once = truncate_vertex(cube(3), 0)
    inst = truncate_vertex(once, 2)
    return Instance(
        name="fig1", graph=inst.graph, facets=inst.facets, coords=None
    )


#: family name -> (generator, the type of each of its parameters)
_GENERATORS = {
    "simplex": (simplex, (int,)),
    "cube": (cube, (int,)),
    "product": (product, (Instance, Instance)),
    "truncate": (truncate_vertex, (Instance, int)),
    "fig1": (fig1, ()),
}


def generate(family: str, *args) -> Instance:
    """Dispatch by family name: simplex d, cube d, product a b,
    truncate inst v, fig1.

    The family name and the number and types of the parameters are
    checked here; their values are checked by the generator.
    """
    if not isinstance(family, str) or family not in _GENERATORS:
        raise InvalidParams(f"unknown family {family!r}")
    make, types = _GENERATORS[family]
    if len(args) != len(types) or not all(map(isinstance, args, types)):
        want = ", ".join(t.__name__ for t in types)
        got = ", ".join(type(a).__name__ for a in args)
        raise InvalidParams(f"{family} takes ({want}), got ({got})")
    return make(*args)


#: Most (instance, k) pairs :func:`faces_from_incidence` keeps; the least
#: recently used pair goes first, so memory stays flat over many instances.
FACES_CACHE_SIZE = 128


@lru_cache(maxsize=FACES_CACHE_SIZE)
def faces_from_incidence(inst: Instance, k: int) -> SetSystem:
    """Vertex sets of all k-faces, 0 <= k <= d-1, from facet intersections.

    In a simple polytope the faces through a vertex form a Boolean
    lattice: every (d-k)-subset of its d facets meets in a distinct
    k-face.  Each face is checked to induce a connected k-regular
    subgraph on at least k+1 vertices, which catches corrupted inputs.
    """
    g = inst.graph
    d = g.d
    if not is_int(k) or not 0 <= k <= d - 1:
        raise KOutOfRange(f"k must satisfy 0 <= k <= d-1 = {d - 1}, got {k!r}")
    facet_sets = [frozenset(t) for t in inst.facets]
    membership: list[list[int]] = [[] for _ in range(g.n)]
    for i, t in enumerate(inst.facets):
        for v in t:
            membership[v].append(i)

    found: set[tuple[int, ...]] = set()
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


def f_vector(inst: Instance) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}): number of k-faces for each k."""
    return tuple(
        len(faces_from_incidence(inst, k).sets) for k in range(inst.graph.d)
    )


def geometric_aof(inst: Instance, weights: Sequence[Fraction | int | str]) -> Orientation:
    """Orient every edge toward the larger value of a linear functional.

    Weights are exact rationals and must separate all vertices; ties
    raise with the offending pair so the caller can perturb.
    """
    if inst.coords is None:
        raise NoCoordinates(f"instance {inst.name} carries no coordinates")
    (w,) = _rational_rows([weights], "weights")
    dim = len(inst.coords[0])
    if len(w) != dim:
        raise InvalidParams(f"{len(w)} weights for {dim} coordinates")
    values = [
        sum((wj * cj for wj, cj in zip(w, row)), Fraction(0))
        for row in inst.coords
    ]
    ranking = sorted(range(inst.graph.n), key=lambda v: values[v])
    for a, b in zip(ranking, ranking[1:]):
        if values[a] == values[b]:
            raise DegenerateWeights(f"vertices {a} and {b} tie at {values[a]}")
    heads = tuple(
        0 if values[u] > values[v] else 1 for u, v in inst.graph.edges
    )
    return Orientation(heads=heads, graph_fingerprint=inst.graph.fingerprint)


def is_aof_oracle(inst: Instance, o: Orientation) -> bool:
    """Definition check: acyclic with a unique sink in every non-empty face.

    Faces of dimension k = 1..d-1 come from the facet incidences; the
    whole polytope contributes the unique-global-sink requirement.
    Vertices trivially have one sink each, so k = 0 is skipped.
    """
    g = inst.graph
    if topological_order(g, o).cycle is not None:
        return False
    out = out_adjacency(g, o)
    if sum(1 for v in range(g.n) if not out[v]) != 1:
        return False
    for k in range(1, g.d):
        for t in faces_from_incidence(inst, k).sets:
            members = set(t)
            sinks = sum(
                1 for v in t if not any(x in members for x in out[v])
            )
            if sinks != 1:
                return False
    return True
