"""The input checks of ksystems 0.1.0 (as of its one-implementation
refactor), kept as a reference for the checks on caller data.

There the constructors and the document parsers each checked caller
data in their own copy of the loops.  Differential tests compare the
package with these: what they accept must come out the same, what they
refuse with a package error must be refused with the same error, and
what made them crash must now be refused with ``InvalidParams``.  Only
the result types (but for the instance, a plain record here), the error
types and the graph fingerprint come from the package; the
induced-subgraph tests come from ``reference_induced``.  A graph is built
by the package's constructor, which checks it again, once the reference
has accepted it, and the reference's own adjacency and fingerprint are
asserted to be the graph's.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from ksystems.certificates import AofCertificate, FaceCertificate
from ksystems.errors import (
    DegenerateWeights,
    Disconnected,
    DuplicateEdge,
    DuplicateSet,
    FingerprintMismatch,
    InvalidParams,
    NoCoordinates,
    NotRegular,
    NotSimple,
    SelfLoop,
)
from ksystems.graphs import (
    HVector,
    Orientation,
    PolytopeGraph,
    graph_fingerprint,
)
from ksystems.systems import SetSystem

from reference_induced import induces_connected, is_k_regular_set

#: An instance as the reference makes it: a plain record of the four
#: fields, since the package's Instance would run the package's own checks
#: inside the reference.  It prints as the package's Instance prints.
Instance = namedtuple("Instance", ["name", "graph", "facets", "coords"])

# -- constructors ---------------------------------------------------------------

def validate_graph(d, n, edge_list):
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidParams(f"d must be an integer >= 1, got {d!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidParams(f"n must be an integer >= 2, got {n!r}")
    canonical = []
    seen = set()
    for pair in edge_list:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidParams(f"edge {pair!r} is not a pair of vertex ids") from None
        for x in (u, v):
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise InvalidParams(f"vertex id {x!r} outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        canonical.append(e)
    canonical.sort()
    nbrs = [[] for _ in range(n)]
    for u, v in canonical:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        if len(nbrs[v]) != d:
            raise NotRegular(f"vertex {v} has degree {len(nbrs[v])}, expected {d}")
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
    g = PolytopeGraph(d, n, canonical)
    assert g.adjacency == tuple(tuple(sorted(a)) for a in nbrs)
    assert g.fingerprint == graph_fingerprint(d, n, canonical)
    return g


def make_orientation(g, heads):
    bits = tuple(heads)
    if len(bits) != len(g.edges) or any(b not in (0, 1) for b in bits):
        raise InvalidParams("heads must give one bit per canonical edge")
    return Orientation(heads=bits, graph_fingerprint=g.fingerprint)


def make_set_system(g, k, sets):
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParams(f"k must be an integer >= 0, got {k!r}")
    canon = []
    seen = set()
    for raw in sets:
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise InvalidParams(f"set {t} repeats a vertex")
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
                raise InvalidParams(f"vertex id {v!r} outside 0..{g.n - 1}")
        if len(t) < k + 1:
            raise InvalidParams(
                f"set {t} has {len(t)} vertices; a {k}-regular subgraph needs >= {k + 1}"
            )
        if t in seen:
            raise DuplicateSet(f"set {t} listed twice")
        seen.add(t)
        canon.append(t)
    canon.sort()
    return SetSystem(k=k, sets=tuple(canon), graph_fingerprint=g.fingerprint)


def make_instance(name, graph, facets, coords=None):
    d, n = graph.d, graph.n
    canon = []
    seen = set()
    for raw in facets:
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise InvalidParams(f"facet {t} repeats a vertex")
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InvalidParams(f"vertex id {v!r} outside 0..{n - 1}")
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
        rows = [tuple(Fraction(c) for c in row) for row in coords]
        if len(rows) != n:
            raise InvalidParams(f"{len(rows)} coordinate rows for {n} vertices")
        dims = {len(r) for r in rows}
        if len(dims) != 1 or min(dims) < 1:
            raise InvalidParams("coordinate rows must share a positive dimension")
        frozen_coords = tuple(rows)
    return Instance(name=name, graph=graph, facets=tuple(canon), coords=frozen_coords)


def geometric_aof(inst, weights):
    if inst.coords is None:
        raise NoCoordinates(f"instance {inst.name} carries no coordinates")
    w = tuple(Fraction(x) for x in weights)
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


# -- document parsers -------------------------------------------------------------

def _require_keys(doc, keys, what):
    if not isinstance(doc, dict):
        raise InvalidParams(f"{what} document must be a JSON object")
    if set(doc) != keys:
        raise InvalidParams(
            f"{what} document needs keys {sorted(keys)}, got {sorted(doc)}"
        )


def _require_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParams(f"{what} must be an integer, got {value!r}")
    return value


def _require_pairs(value, what):
    if not isinstance(value, list):
        raise InvalidParams(f"{what} must be a list")
    pairs = []
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidParams(f"{what} entries must be pairs, got {item!r}")
        pairs.append((_require_int(item[0], what), _require_int(item[1], what)))
    return pairs


def _require_int_lists(value, what):
    if not isinstance(value, list):
        raise InvalidParams(f"{what} must be a list")
    return [
        [_require_int(v, what) for v in _as_list(item, what)] for item in value
    ]


def _as_list(item, what):
    if not isinstance(item, list):
        raise InvalidParams(f"{what} entries must be lists, got {item!r}")
    return item


def parse_graph(doc):
    _require_keys(doc, {"d", "n", "edges"}, "graph")
    return validate_graph(
        _require_int(doc["d"], "d"),
        _require_int(doc["n"], "n"),
        _require_pairs(doc["edges"], "edges"),
    )


def parse_orientation(doc, g):
    _require_keys(doc, {"graph_fingerprint", "heads"}, "orientation")
    if doc["graph_fingerprint"] != g.fingerprint:
        raise FingerprintMismatch("orientation document bound to a different graph")
    if not isinstance(doc["heads"], list):
        raise InvalidParams("heads must be a list of 0/1")
    return make_orientation(g, [_require_int(b, "heads") for b in doc["heads"]])


def parse_set_system(doc, g):
    _require_keys(doc, {"graph_fingerprint", "k", "sets"}, "set system")
    if doc["graph_fingerprint"] != g.fingerprint:
        raise FingerprintMismatch("set system document bound to a different graph")
    return make_set_system(
        g, _require_int(doc["k"], "k"), _require_int_lists(doc["sets"], "sets")
    )


def parse_h_vector(doc):
    if not isinstance(doc, list) or not doc:
        raise InvalidParams("h-vector document must be a non-empty list")
    counts = [_require_int(c, "h-vector entry") for c in doc]
    if any(c < 0 for c in counts):
        raise InvalidParams("h-vector entries must be non-negative")
    return HVector(tuple(counts))


def parse_instance(doc):
    _require_keys(doc, {"name", "d", "graph", "facets", "coords"}, "instance")
    if not isinstance(doc["name"], str):
        raise InvalidParams("instance name must be a string")
    g = parse_graph(doc["graph"])
    if _require_int(doc["d"], "d") != g.d:
        raise InvalidParams("instance d disagrees with its graph")
    coords = None
    if doc["coords"] is not None:
        coords = []
        for row in _as_list(doc["coords"], "coords"):
            parsed_row = []
            for entry in _as_list(row, "coords"):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)
                ):
                    raise InvalidParams(
                        f"coordinates must be [num, den] string pairs, got {entry!r}"
                    )
                try:
                    parsed_row.append(Fraction(int(entry[0]), int(entry[1])))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidParams(f"bad rational {entry!r}: {exc}") from exc
            coords.append(parsed_row)
    return make_instance(
        doc["name"], g, _require_int_lists(doc["facets"], "facets"), coords
    )


def parse_certificate(doc, g):
    if not isinstance(doc, dict) or "type" not in doc:
        raise InvalidParams("certificate document needs a 'type' key")
    kind = doc["type"]
    if kind == "faces":
        _require_keys(doc, {"type", "k", "sets", "orientation"}, "face certificate")
        k = _require_int(doc["k"], "k")
        o = parse_orientation(doc["orientation"], g)
        s = make_set_system(g, k, _require_int_lists(doc["sets"], "sets"))
        return FaceCertificate(k=k, claimed_sets=s, witness_orientation=o)
    if kind == "aof":
        _require_keys(doc, {"type", "sets", "orientation"}, "AOF certificate")
        o = parse_orientation(doc["orientation"], g)
        s = make_set_system(g, 2, _require_int_lists(doc["sets"], "sets"))
        return AofCertificate(candidate_orientation=o, witness_two_system=s)
    raise InvalidParams(f"unknown certificate type {kind!r}")
