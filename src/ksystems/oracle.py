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

import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DegenerateWeights,
    InvalidParams,
    NoCoordinates,
    NotSimple,
)
from .graphs import (
    Orientation,
    PolytopeGraph,
    check_vertex_ids,
    induced_flaw,
    induces_connected,
    out_masks,
    require_int,
    topological_order,
    unique_sinks,
    validate_graph,
    vertex_mask,
)
from .systems import (
    SetSystem,
    _keep_masks,
    _member_masks,
    _prove,
    canonical_members,
    check_k_range,
)


@dataclass(frozen=True)
class Instance:
    """A claimed simple polytope: graph, facet vertex sets, optional coords.

    The constructor is the one gate, however the instance is built:
    ``Instance(...)``, :func:`make_instance` (the same constructor),
    :func:`dataclasses.replace`, or the generators.  It refuses a name
    that is not a string and a graph that is not a :class:`PolytopeGraph`,
    checks the facets as a family (:func:`~ksystems.systems.canonical_members`),
    and then the simplicity bookkeeping: every vertex on exactly d facets,
    facets inducing connected (d-1)-regular subgraphs (tested on the
    vertex masks the family check built), adjacency equivalent to sharing
    exactly d-1 facets, and at d = 3 Euler's relation.  Facets are kept as
    canonical sorted tuples in lexicographic order; coordinates, when
    present, as exact rationals, one vector per vertex, all of the same
    dimension.

    Adjacent vertices must share d-1 facets and no other pair may.  That
    is checked without visiting every vertex pair: each vertex is filed
    under each (d-1)-subset of its d facets, so the pairs sharing d-1
    facets are the pairs filed together exactly once.  On a simple
    polytope each group filed together is one edge and each edge is one
    group, and one pass accepts exactly that: as many groups as edges,
    and every edge among them, so no group repeats and none is anything
    but an edge.  Only otherwise are the pairs of every group counted and
    each edge looked up among them.  That is O(n * d) filings and checks.
    Of the bad pairs, the smallest (u, v) is reported, as a loop over all
    pairs would report it.

    At d = 3, f_0 - f_1 + f_2 = 2 with f_1 = 3n/2 asks for n/2 + 2
    facets, which the checks above do not imply: on the Petersen graph
    the hemi-dodecahedron's six pentagons pass them all.  The count is
    checked after the pairs, so every refusal above keeps its message.
    At d >= 4 the relation needs every f_k and is not checked.

    The facets through each vertex, ``membership``, are derived from the
    canonical facets on first read and kept, as the graph keeps its
    ``neighbour_masks``; the checks read both, and so does
    :func:`faces_from_incidence`.  Neither is a field: neither can be
    passed in, equality, hash and ``repr`` ignore them,
    :func:`dataclasses.replace` builds them anew, and :mod:`pickle` and
    :mod:`copy` carry them.  The hash reads the name and the graph only,
    so the faces cache looks an instance up in constant time.
    """

    name: str
    graph: PolytopeGraph
    facets: tuple[tuple[int, ...], ...] = field(hash=False)
    coords: tuple[tuple[Fraction, ...], ...] | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidParams("instance name must be a string")
        graph = self.graph
        if not isinstance(graph, PolytopeGraph):
            raise InvalidParams(
                f"instance graph must be a PolytopeGraph, got {type(graph).__name__}"
            )
        d, n = graph.d, graph.n
        canon, masks = canonical_members(graph, self.facets, "facet", 0, NotSimple)
        object.__setattr__(self, "facets", tuple(canon))

        membership = self.membership
        for v, on in enumerate(membership):
            if len(on) != d:
                raise NotSimple(f"vertex {v} lies on {len(on)} facets, expected {d}")

        nbr = graph.neighbour_masks
        for i, (t, mask) in enumerate(zip(canon, masks)):
            flaw = induced_flaw(nbr, t, mask, d - 1)
            if flaw == "regular":
                raise NotSimple(f"facet #{i} does not induce a (d-1)-regular subgraph")
            if flaw == "connected":
                raise NotSimple(f"facet #{i} induces a disconnected subgraph")

        groups = _meets(membership, d - 1).values()
        edges = graph.edges
        if len(groups) != len(edges) or not {*map(tuple, groups)}.issuperset(edges):
            _check_pairs(graph, membership, groups)
        if d == 3 and len(canon) != n // 2 + 2:
            raise NotSimple(
                f"{len(canon)} facets on {n} vertices break Euler's relation: "
                f"a simple 3-polytope has n/2 + 2 = {n // 2 + 2}"
            )

        coords = self.coords
        if coords is not None:
            coords = tuple(_rational_rows(coords, "coordinates"))
            if len(coords) != n:
                raise InvalidParams(f"{len(coords)} coordinate rows for {n} vertices")
            dims = {len(r) for r in coords}
            if len(dims) != 1 or min(dims) < 1:
                raise InvalidParams("coordinate rows must share a positive dimension")

        object.__setattr__(self, "coords", coords)

    @cached_property
    def membership(self) -> tuple[tuple[int, ...], ...]:
        """The indices of the facets through each vertex, ascending."""
        on: list[list[int]] = [[] for _ in range(self.graph.n)]
        for i, t in enumerate(self.facets):
            for v in t:
                on[v].append(i)
        return tuple(map(tuple, on))


def _check_pairs(
    graph: PolytopeGraph,
    membership: Sequence[Sequence[int]],
    groups: Iterable[Sequence[int]],
) -> None:
    """Raise NotSimple for the smallest pair (u, v) that is an edge not
    sharing d-1 facets, or not an edge and sharing d-1 facets; ``groups``
    are the vertices filed under each (d-1)-subset of a vertex's facets."""
    d = graph.d
    # every vertex lies on d facets, so a pair sharing s >= d-1 of them is
    # filed together C(s, d-1) times: once for s = d-1, d times for s = d
    filed: Counter[tuple[int, int]] = Counter()
    for group in groups:
        filed.update(combinations(group, 2))
    bad = []
    for u, v in graph.edges:
        if (times := filed.pop((u, v), 0)) != 1:
            shared = d if times else len({*membership[u]} & {*membership[v]})
            bad.append(
                ((u, v), f"edge ({u},{v}) shares {shared} facets, expected {d - 1}")
            )
    bad.extend(
        ((u, v), f"non-adjacent pair ({u},{v}) shares {d - 1} facets")
        for (u, v), times in filed.items()
        if times == 1
    )
    if bad:
        raise NotSimple(min(bad)[1])


#: Canonicalize and cross-check an instance: the constructor of
#: :class:`Instance`, under the name the package has always exported.
make_instance = Instance


def _meets(
    membership: Sequence[Sequence[int]], size: int
) -> dict[tuple[int, ...], list[int]]:
    """Each ``size``-subset of the facets through some vertex, mapped to the
    vertices on all of its facets (their intersection), ascending.  Each
    vertex is filed under each ``size``-subset of its own facets; no
    intersection is computed."""
    meets: dict[tuple[int, ...], list[int]] = {}
    for v, on in enumerate(membership):
        for chosen in combinations(on, size):
            meets.setdefault(chosen, []).append(v)
    return meets


def _rational_rows(rows: Iterable[Iterable], what: str) -> list[tuple[Fraction, ...]]:
    """Rows of caller values as exact rationals.  Every rational taken from
    a caller passes through here, so a malformed one raises InvalidParams.

    A string's decimal exponent may not exceed the number of digits Python
    converts from a digit string (``sys.get_int_max_str_digits()``, no
    bound when that is 0): ``Fraction('1e1000000000')`` would spend hours
    writing out the power of ten.
    """

    def exact(x: object) -> Fraction:
        exp = isinstance(x, str) and re.search(r"e([-+]?\d+)\s*$", x, re.I)
        if exp and 0 < (limit := sys.get_int_max_str_digits()) < abs(int(exp[1])):
            raise ValueError(f"exponent of {x!r} exceeds {limit}")
        return Fraction(x)

    try:
        return [tuple(map(exact, row)) for row in rows]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidParams(f"{what} must be rational numbers: {exc}") from None


#: Most edges a generator builds.  The size of every list a generator
#: builds and checks grows with the edge count, so a dimension whose
#: polytope has more edges is refused before any list exists: the largest
#: cube is cube(11) (11 264 edges), the largest simplex simplex(180)
#: (16 290 edges), and a product must stay within it too.
MAX_EDGES = 1 << 14


def _refuse_oversized(what: str, too_big: bool) -> None:
    if too_big:
        raise InvalidParams(f"{what} has more than MAX_EDGES = {MAX_EDGES} edges")


def simplex(d: int) -> Instance:
    """The d-simplex: complete graph on d+1 vertices, facets = all d-subsets.

    Vertex 0 sits at the origin, vertex i at the i-th unit vector.
    """
    require_int(d, "simplex dimension", 1)
    _refuse_oversized(f"simplex({d})", d * (d + 1) // 2 > MAX_EDGES)
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
    require_int(d, "cube dimension", 1)
    # d * 2^(d-1) edges; past MAX_EDGES.bit_length() the power alone exceeds it
    _refuse_oversized(
        f"cube({d})", d > MAX_EDGES.bit_length() or d << (d - 1) > MAX_EDGES
    )
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
    _refuse_oversized(f"product({a.name},{b.name})", na * nb * d // 2 > MAX_EDGES)

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
    check_vertex_ids(n, (v,))
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
    twice = truncate_vertex(truncate_vertex(cube(3), 0), 2)
    return make_instance("fig1", twice.graph, twice.facets, twice.coords)


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
#: The keys are typed, so a k of 1.0 or True is refused as on a miss rather
#: than answered from the entry for 1.
FACES_CACHE_SIZE = 128


@lru_cache(maxsize=FACES_CACHE_SIZE, typed=True)
def faces_from_incidence(inst: Instance, k: int) -> SetSystem:
    """Vertex sets of all k-faces, 0 <= k <= d-1, from facet intersections.

    In a simple polytope the faces through a vertex form a Boolean
    lattice: every (d-k)-subset of its d facets meets in a distinct
    k-face.  The faces are found by filing each vertex under each
    (d-k)-subset of its facets, not by intersecting facets.  The faces
    are distinct sorted tuples of vertex ids, listed in order, so the
    family is bound to the graph as it stands, without
    :func:`~ksystems.systems.make_set_system`.

    The checks of the :class:`Instance` constructor have proved most of
    what a face check would show:

    - **The misses bijection.**  Each facet through a vertex v induces a
      (d-1)-regular subgraph, so it misses exactly one neighbour of v;
      each neighbour shares d-1 facets with v, so it misses exactly one
      of v's facets.  So "misses" pairs the d neighbours of v with its d
      facets one to one.
    - **k-regularity.**  A (d-k)-subset T of v's facets therefore holds
      the k neighbours whose missed facet is outside T: every facet
      intersection is k-regular, and non-empty.
    - **Each k-frame once.**  A face through v is filed under a
      (d-k)-subset T of v's facets.  A frame (v, L), L a k-subset of v's
      neighbours, lies in it iff no vertex of L misses a facet of T,
      that is iff T is the d-k facets of v that L does not miss: exactly
      one T.  Two subsets T of v's facets hold different neighbours of
      v, so listing the faces by vertex set merges no two of them, and
      each frame lies in exactly one listed face.  With k-regularity,
      every family returned is a valid k-system of the graph.
    - **F_0 and F_1.**  No two vertices share all d facets.  If u and w
      did, a neighbour x of u would share d-1 facets with u, hence with
      w, so it would be adjacent to w as well; the facet of x that misses
      u then misses w too, and x would have two neighbours outside a
      facet in which it has d-1 of its d neighbours.  So F_0 is the
      vertices.  And F_1 is the edges: the 1-face of v that misses a
      facet holds v, the one neighbour of v that misses that facet, and
      no other vertex, since a vertex sharing d-1 facets with v is its
      neighbour.
    - **F_{d-1}** is the facets, which were checked themselves.

    So F_0, F_1 and F_{d-1} come without any filing, the instance's
    ``membership`` and its graph's ``neighbour_masks`` are read as the
    constructor kept them, and the other faces
    are checked to be connected only, by
    :func:`~ksystems.graphs.induces_connected`, a few operations on n-bit
    integers per vertex of a face.  A face can be disconnected: the
    checks bound the facets and the pairs of facets through a vertex,
    not the intersections of more.  On a simple polytope the output lists
    each vertex C(d, k) times; the filing costs O(d) per listing:
    O(n * C(d, k) * d) in all.

    Every family returned is thus a valid k-system of ``inst.graph``
    whose members induce connected subgraphs (vertices and edges are
    connected, the facets were checked), and it carries that record
    (:func:`~ksystems.systems._prove`).  The record trusts the
    fingerprint: every graph that carries it equals ``inst.graph``, so
    :func:`~ksystems.certificates.facets_from_2faces` does not check
    F_2 again on any of them.  The faces of 2 <= k <= d-2 also keep the vertex masks
    built for the connectivity test (:func:`~ksystems.systems._keep_masks`).
    """
    g = inst.graph
    d = g.d
    check_k_range(g, k, least=0)
    masks = None
    if k in (0, 1, d - 1):
        if k == d - 1:
            found = inst.facets
        else:
            found = g.edges if k else tuple((v,) for v in range(g.n))
    else:
        found = tuple(sorted(set(map(tuple, _meets(inst.membership, d - k).values()))))
        nbr = g.neighbour_masks
        masks = [*map(vertex_mask, found)]
        for t, mask in zip(found, masks):
            if not induces_connected(nbr, mask):
                raise NotSimple(f"facet intersection {t} is disconnected")
    faces = SetSystem(k=k, sets=found, graph_fingerprint=g.fingerprint)
    _prove(faces)
    if masks is not None:
        _keep_masks(faces, masks)
    return faces


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


def _face_masks(inst: Instance, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The k-faces, each with its vertex bitmask."""
    faces = faces_from_incidence(inst, k)
    return [*zip(faces.sets, _member_masks(inst.graph, faces))]


def is_aof_oracle(inst: Instance, o: Orientation) -> bool:
    """Definition check: acyclic with a unique sink on the polytope and on
    every face of dimension k = 2..d-1.

    The faces come from the facet incidences, one dimension at a time and
    only when the test reaches it; a vertex, and an edge under any acyclic
    orientation, has one sink, so F_0 and F_1 are neither fetched nor
    tested.  An orientation with other than one global sink is refused
    before any face is fetched.
    """
    g = inst.graph
    if topological_order(g, o).cycle is not None:
        return False
    faces = map(partial(_face_masks, inst), range(2, g.d))
    return unique_sinks(out_masks(g, o), faces)
