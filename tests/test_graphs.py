import copy
import dataclasses
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import graphs
from ksystems.errors import (
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
from ksystems.graphs import first_without_unique_sink, induced_flaw, vertex_mask

import reference_gate
import reference_search as ref
from reference_induced import induced_leaves
from conftest import cycle_graph


def test_validate_graph_canonicalizes_edges():
    g = ks.validate_graph(2, 3, [(2, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edge_index() == {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    assert g.adjacency[0] == (1, 2)


def test_validate_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        ks.validate_graph(2, 3, [(0, 0), (1, 2), (0, 2)])


def test_validate_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        ks.validate_graph(2, 3, [(0, 1), (1, 0), (1, 2)])


def test_validate_graph_rejects_wrong_degree():
    with pytest.raises(NotRegular):
        ks.validate_graph(2, 4, [(0, 1), (1, 2), (2, 3)])
    # every listed vertex has degree d, and vertex 3 is on no edge
    triangle = [(0, 1), (1, 2), (0, 2)]
    for validate in (ks.validate_graph, reference_gate.validate_graph):
        with pytest.raises(NotRegular, match="^vertex 3 has degree 0, expected 2$"):
            validate(2, 5, triangle)


def test_validate_graph_rejects_disconnected():
    two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(Disconnected):
        ks.validate_graph(2, 6, two_triangles)
    # two K4s on the even and the odd ids: the least unreachable vertex is 1
    two_k4s = [e for part in (range(0, 8, 2), range(1, 8, 2)) for e in combinations(part, 2)]
    messages = []
    for validate in (ks.validate_graph, reference_gate.validate_graph):
        with pytest.raises(Disconnected) as refused:
            validate(3, 8, two_k4s)
        messages.append(str(refused.value))
    assert messages == ["vertex 1 unreachable from vertex 0"] * 2


#: Generator graphs by degree, the parts of the disjoint unions below.
UNION_PARTS = {
    3: [ks.simplex(3), ks.cube(3), ks.product(ks.cube(1), ks.simplex(2)), ks.fig1()],
    4: [ks.simplex(4), ks.cube(4), ks.product(ks.simplex(2), ks.simplex(2))],
}


@pytest.mark.parametrize("seed", range(16))
def test_disjoint_unions_are_refused_as_the_reference_refuses_them(seed):
    # two or three generator graphs side by side, relabelled at random:
    # the same Disconnected message as the reference's breadth-first
    # search, on the canonical, the sorted and the walked route
    rng = random.Random(seed)
    d = rng.choice(sorted(UNION_PARTS))
    parts = [inst.graph for inst in rng.choices(UNION_PARTS[d], k=rng.choice([2, 3]))]
    n = sum(g.n for g in parts)
    perm = rng.sample(range(n), n)
    edges, base = [], 0
    for g in parts:
        edges += [(perm[u + base], perm[v + base]) for u, v in g.edges]
        base += g.n
    rng.shuffle(edges)
    with pytest.raises(Disconnected) as refused:
        reference_gate.validate_graph(d, n, edges)
    want = str(refused.value)
    routes = [sorted(map(sorted, edges)), edges, [iter(e) for e in edges]]
    for pairs in routes:
        with pytest.raises(Disconnected) as refused:
            ks.validate_graph(d, n, pairs)
        assert str(refused.value) == want


@pytest.mark.parametrize("d,n", [(0, 1), (2, 0), (-1, 5)])
def test_validate_graph_rejects_bad_parameters(d, n):
    with pytest.raises(InvalidParams):
        ks.validate_graph(d, n, [])


@pytest.mark.parametrize("edge_list", [[(0, 1, 2)], [(0,)], [5], [None]])
def test_validate_graph_rejects_malformed_pairs(edge_list):
    with pytest.raises(InvalidParams, match="not a pair of vertex ids"):
        ks.validate_graph(2, 3, edge_list)


def test_induced_leaves_and_connectivity(cube3):
    g = cube3.graph
    assert induced_leaves(g, (0, 1, 2, 3)) == [(1, 2), (0, 3), (0, 3), (1, 2)]
    assert induced_leaves(g, (0, 1, 7)) == [(1,), (0,), ()]
    nbr = g.neighbour_masks
    assert nbr[0] == 0b10110

    def flaw(t, k, **kw):
        return induced_flaw(nbr, t, vertex_mask(t), k, **kw)

    assert flaw((0, 1, 2, 3), 2) is None
    assert flaw((0, 1, 7), 1) == "regular"
    assert flaw((0, 1, 6, 7), 1) == "connected"
    assert flaw((0, 1, 6, 7), 1, connected=False) is None
    assert flaw((), 0) == "connected"


def test_neighbour_masks_are_kept_and_are_no_field(cube3):
    g = cube3.graph
    masks = g.neighbour_masks
    assert masks is g.neighbour_masks and type(masks) is tuple
    assert masks == tuple(sum(1 << w for w in nbrs) for nbrs in g.adjacency)
    assert "neighbour_masks" not in {f.name for f in dataclasses.fields(g)}
    with pytest.raises(TypeError):
        ks.PolytopeGraph(g.d, g.n, g.edges, g.adjacency, g.fingerprint, masks)
    # pickle and copy carry the kept masks
    for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert vars(other)["neighbour_masks"] == masks
    # replace and the constructors build them anew, in the connectivity check
    for other in (
        dataclasses.replace(g),
        ks.PolytopeGraph(g.d, g.n, g.edges),
        reference_gate.validate_graph(g.d, g.n, g.edges),
    ):
        assert vars(other)["neighbour_masks"] == masks
        assert vars(other)["neighbour_masks"] is not masks
        assert other == g and hash(other) == hash(g) and repr(other) == repr(g)


def test_orientation_is_a_frozen_dataclass(square):
    heads, fp = (0, 1, 1, 0), square.fingerprint
    o = ks.Orientation(heads, fp)
    assert o == ks.Orientation(heads=heads, graph_fingerprint=fp)
    assert o == ks.make_orientation(square, heads)
    assert o != ks.Orientation((1, 1, 1, 0), fp) and o != ks.Orientation(heads, "x")
    assert hash(o) == hash((heads, fp))
    assert repr(o) == f"Orientation(heads={heads!r}, graph_fingerprint={fp!r})"
    assert [f.name for f in dataclasses.fields(o)] == ["heads", "graph_fingerprint"]
    assert vars(o) == {"heads": heads, "graph_fingerprint": fp}
    for name in ("heads", "graph_fingerprint", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(o, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(o, name)
    with pytest.raises(TypeError):
        ks.Orientation(heads)
    with pytest.raises(TypeError):
        ks.Orientation(heads, fp, None)
    flipped = dataclasses.replace(o, heads=(1, 0, 0, 1))
    assert flipped == ks.Orientation((1, 0, 0, 1), fp) and o.heads == heads
    assert dataclasses.replace(o) == o
    for other in (pickle.loads(pickle.dumps(o)), copy.copy(o), copy.deepcopy(o)):
        assert type(other) is ks.Orientation
        assert other == o and hash(other) == hash(o) and vars(other) == vars(o)


def test_fingerprint_ignores_edge_order(cube3):
    g = cube3.graph
    shuffled = list(g.edges)
    random.Random(7).shuffle(shuffled)
    shuffled = [(v, u) for u, v in shuffled]
    assert ks.graph_fingerprint(g.d, g.n, shuffled) == g.fingerprint


#: Fingerprints of ksystems 0.1.0's documents: a change to the digest
#: would unbind every document written before it.
FINGERPRINTS = {
    "cube(3)": (
        ks.cube,
        (3,),
        "8e4ce7b9c344b0c14b673b7acbb1d50dffe286ff29bee6d75a1bb7f849f24ddc",
    ),
    "fig1": (
        ks.fig1,
        (),
        "470cf29128afc1571130ac79b81ff46f465b302d9fab8166e7bd097ee88482f9",
    ),
    "simplex(3) x simplex(2)": (
        lambda: ks.product(ks.simplex(3), ks.simplex(2)),
        (),
        "571288cfd76e902f79d4f69f370079154411cf3909525801c881782595938ac7",
    ),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_fingerprints_are_pinned_on_every_route(monkeypatch, name):
    # the canonical list is compared, a shuffled one with reversed pairs
    # sorted in bulk, and pairs of another type walked one at a time: one
    # graph, one fingerprint
    make, args, digest = FINGERPRINTS[name]
    g = make(*args).graph
    assert g.fingerprint == digest
    assert ks.graph_fingerprint(g.d, g.n, g.edges) == digest
    shuffled = [(v, u) for u, v in random.Random(11).sample(g.edges, len(g.edges))]
    walks = []
    real_walk = graphs._walked_edges
    monkeypatch.setattr(
        graphs, "_walked_edges", lambda n, pairs: walks.append(n) or real_walk(n, pairs)
    )
    routes = {
        "canonical": [list(e) for e in g.edges],
        "shuffled": shuffled,
        "walked": [iter(e) for e in shuffled],
    }
    assert g == reference_gate.validate_graph(g.d, g.n, shuffled)
    for route, pairs in routes.items():
        rebuilt = ks.validate_graph(g.d, g.n, pairs)
        assert rebuilt == g, route
        assert rebuilt.fingerprint == digest and rebuilt.adjacency == g.adjacency
    assert walks == [g.n]


def test_fingerprint_separates_graphs(cube3, simplex3):
    assert cube3.graph.fingerprint != simplex3.graph.fingerprint


def test_make_orientation_checks_length(square):
    with pytest.raises(InvalidParams):
        ks.make_orientation(square, [0, 1])
    with pytest.raises(InvalidParams):
        ks.make_orientation(square, [0, 1, 2, 0])


def test_check_bound_rejects_foreign_orientation(cube3, simplex3):
    o = ks.make_orientation(simplex3.graph, [0] * 6)
    with pytest.raises(FingerprintMismatch):
        ks.check_bound(cube3.graph, o)


def test_directed_edges_heads():
    g = cycle_graph(3)
    o = ks.make_orientation(g, [1, 1, 1])
    # heads bit selects the larger endpoint, so every edge points up
    assert set(ks.directed_edges(g, o)) == {(0, 1), (0, 2), (1, 2)}
    rev = ks.reverse_orientation(o)
    assert set(ks.directed_edges(g, rev)) == {(1, 0), (2, 0), (2, 1)}


def test_topological_order_linear_extension(cube3):
    g = cube3.graph
    o = ks.make_orientation(g, [1] * 12)
    res = ks.topological_order(g, o)
    assert res.cycle is None
    pos = {v: i for i, v in enumerate(res.order)}
    for tail, head in ks.directed_edges(g, o):
        assert pos[tail] < pos[head]
    # Kahn with a min-heap: ties break toward the smaller vertex id
    assert res.order[0] == 0
    assert res.order == (0, 1, 2, 3, 4, 5, 6, 7)


def test_topological_order_cycle_witness(square):
    # 0 -> 1 -> 2 -> 3 -> 0
    heads = [1, 0, 1, 1]
    o = ks.make_orientation(square, heads)
    res = ks.topological_order(square, o)
    assert res.order is None
    cyc = res.cycle
    assert cyc is not None and len(cyc) >= 3
    assert len(set(cyc)) == len(cyc)
    arcs = set(ks.directed_edges(square, o))
    for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
        assert (a, b) in arcs


def test_topological_order_checks_the_orientation_once(monkeypatch, square):
    from ksystems import graphs

    calls = []
    check = graphs.check_bound
    monkeypatch.setattr(graphs, "check_bound", lambda *a: calls.append(a) or check(*a))
    o = ks.make_orientation(square, [1, 0, 1, 1])
    calls.clear()
    assert ks.topological_order(square, o).cycle == (0, 1, 2, 3)
    assert len(calls) == 1


def _has_cycle_dfs(g, o):
    """Independent check: colour-marking DFS over the out-adjacency."""
    out = ref.out_adjacency(g, o)
    state = [0] * g.n
    for start in range(g.n):
        if state[start]:
            continue
        stack = [(start, iter(out[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if state[w] == 1:
                    return True
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return False


def test_is_acyclic_agrees_with_dfs(cube3):
    g = cube3.graph
    rng = random.Random(2024)
    for _ in range(200):
        o = ks.make_orientation(g, [rng.randint(0, 1) for _ in g.edges])
        assert ks.is_acyclic(g, o) == (not _has_cycle_dfs(g, o))


def test_indegree_histogram_matches_direct_count(cube3):
    g = cube3.graph
    rng = random.Random(5)
    for _ in range(50):
        o = ks.make_orientation(g, [rng.randint(0, 1) for _ in g.edges])
        h = ks.indegree_histogram(g, o)
        indeg = [0] * g.n
        for _, head in ks.directed_edges(g, o):
            indeg[head] += 1
        for i, c in enumerate(h.counts):
            assert c == indeg.count(i)


@given(bits=st.lists(st.integers(0, 1), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_histogram_identities(bits):
    g = ks.cube(3).graph
    o = ks.make_orientation(g, bits)
    h = ks.indegree_histogram(g, o)
    assert sum(h.counts) == g.n
    assert ks.hk_sum(h, 0) == g.n
    assert ks.hk_sum(h, 1) == len(g.edges)
    assert ks.hk_sum(h, ks.ALL) == sum(c << i for i, c in enumerate(h.counts))


def test_hk_sum_range_checks():
    h = ks.HVector((1, 3, 3, 1))
    assert ks.hk_sum(h, 2) == 6  # 3*C(2,2) + 1*C(3,2)
    assert ks.hk_sum(h, 3) == 1
    with pytest.raises(KOutOfRange):
        ks.hk_sum(h, 4)
    with pytest.raises(KOutOfRange):
        ks.hk_sum(h, -1)


def test_sinks_in_subset(cube3):
    g = cube3.graph
    o = ks.make_orientation(g, [1] * 12)  # everything points to the larger id
    assert ks.sinks_in_subset(g, o, frozenset(range(8))) == frozenset({7})
    assert ks.sinks_in_subset(g, o, frozenset({0, 1, 2, 3})) == frozenset({3})
    with pytest.raises(EmptySubset):
        ks.sinks_in_subset(g, o, frozenset())


# Out-masks by hand: 0 -> 1, 1 -> 0, 2 -> 0; vertices 3 and 4 point nowhere.
OUT = [1 << 1, 1 << 0, 1 << 0, 0, 0]
ONE = ((0, 2), 0b00101)  # 0 is the one sink: its out-neighbour 1 is outside
NONE = ((0, 1), 0b00011)  # a directed cycle: no sink
THREE = ((2, 3, 4), 0b11100)


@pytest.mark.parametrize(
    "sets,want",
    [
        ([ONE, NONE, THREE], NONE[0]),
        ([ONE, THREE, NONE], THREE[0]),
        ([ONE, ONE], None),
        ([], None),
    ],
)
def test_first_without_unique_sink_counts_sinks(sets, want):
    assert first_without_unique_sink(OUT, sets) == want


def test_the_sink_count_stops_at_the_second_sink():
    def two_sinks_then_fail():
        yield 3
        yield 4
        raise AssertionError("read past the second sink")

    t = two_sinks_then_fail()
    assert first_without_unique_sink(OUT, [ONE, (t, 0b11000)]) is t


def test_sinks_in_subset_requires_acyclic(square):
    o = ks.make_orientation(square, [1, 0, 1, 1])
    with pytest.raises(NotAcyclic):
        ks.sinks_in_subset(square, o, frozenset({0, 1}))


def test_reverse_orientation_mirrors_histogram(cube3):
    g = cube3.graph
    rng = random.Random(11)
    for _ in range(20):
        o = ks.make_orientation(g, [rng.randint(0, 1) for _ in g.edges])
        h = ks.indegree_histogram(g, o)
        hr = ks.indegree_histogram(g, ks.reverse_orientation(o))
        assert hr.counts == tuple(reversed(h.counts))
