"""The orientation search agrees with the earlier code kept in
``reference_search``: the same acyclic orientations in the same order;
from ``minimize_hk`` the same least H^k with the same first witness as
scoring every orientation through ``indegree_histogram`` and ``hk_sum``;
from the sink checks the same verdicts and errors; from
``search_k_sink_counterexample`` the same first witness, or None;
from ``connected_k_regular_sets`` the same sorted candidate sets, or the
same cap error; and from ``_merged_variants`` the same coarsenings of a
cover in the same order."""

import random
from itertools import islice, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import oracle, search
from ksystems.chromatic import acyclic_orientation_count
from ksystems.errors import (
    BudgetExceeded,
    CandidateCapExceeded,
    KSystemsError,
)
from ksystems.graphs import vertex_mask

import reference_search as ref
from conftest import cycle_graph

TRIANGLE = ks.simplex(2)
INSTANCES = {
    "cube3": ks.cube(3),
    "prism": ks.product(ks.cube(1), TRIANGLE),
    "fig1": ks.fig1(),
}
# d = 4 and 24 edges: past the default budget, and its 927 828 acyclic
# orientations take about 10 s per minimization, so it is compared on a
# prefix of its stream and on a sample of its orientations
TRIANGLE_X_SQUARE = ks.product(TRIANGLE, ks.cube(2)).graph


def _ks(g):
    return [*range(g.d + 1), ks.ALL]


def _relabelled(g, perm):
    return ks.validate_graph(g.d, g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _same_minimum(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("name", INSTANCES)
def test_orientation_stream_matches_reference(name):
    g = INSTANCES[name].graph
    assert list(ks.enumerate_acyclic_orientations(g)) == list(ref.acyclic_orientations(g))


@pytest.mark.parametrize(
    "g",
    [ks.cube(1).graph, TRIANGLE.graph, ks.cube(2).graph],
    ids=["one_edge", "triangle", "square"],
)
def test_orientation_stream_matches_reference_on_the_fewest_edges(g):
    # one edge (m = 1) is streamed on its own; a triangle has one edge
    # before the last two; a polygon has 2^m - 2 acyclic orientations
    got = list(ks.enumerate_acyclic_orientations(g))
    assert got == list(ref.acyclic_orientations(g))
    assert len(got) == 2 ** len(g.edges) - 2 * (len(g.edges) > 1)


def test_orientation_budget_is_exact_and_checked_at_the_call():
    g = ks.cube(1).graph
    assert len(list(ks.enumerate_acyclic_orientations(g, budget=2))) == 2
    with pytest.raises(BudgetExceeded, match="2\\^1 orientations exceed budget 1"):
        ks.enumerate_acyclic_orientations(g, budget=1)


def test_orientation_stream_prefix_matches_reference_past_the_default_budget():
    g = TRIANGLE_X_SQUARE
    got = islice(ks.enumerate_acyclic_orientations(g, budget=2 ** len(g.edges)), 20_000)
    assert list(got) == list(islice(ref.acyclic_orientations(g), 20_000))


@pytest.mark.parametrize("k", [0, 1, 2, 3, ks.ALL])
@pytest.mark.parametrize("name", INSTANCES)
def test_minimize_hk_matches_reference(name, k):
    g = INSTANCES[name].graph
    _same_minimum(ks.minimize_hk(g, k), ref.least_hk(g, k, ref.acyclic_orientations(g)))


def test_minimize_hk_matches_reference_on_sampled_orientations(monkeypatch):
    # acyclic orientations of triangle x square, each edge towards the
    # later end in a random vertex order; repeats and ties included
    g = TRIANGLE_X_SQUARE
    rng = random.Random(7)
    sample = []
    for _ in range(3000):
        rank = rng.sample(range(g.n), g.n)
        sample.append(ks.make_orientation(g, [int(rank[v] > rank[u]) for u, v in g.edges]))
    monkeypatch.setattr(search, "enumerate_acyclic_orientations", lambda g, budget: iter(sample))
    for k in _ks(g):
        _same_minimum(ks.minimize_hk(g, k), ref.least_hk(g, k, sample))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["cube3", "prism"]), st.data())
def test_minimize_hk_matches_reference_after_relabelling(name, data):
    g = INSTANCES[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    k = data.draw(st.sampled_from(_ks(rg)))
    assert list(ks.enumerate_acyclic_orientations(rg)) == list(ref.acyclic_orientations(rg))
    _same_minimum(ks.minimize_hk(rg, k), ref.least_hk(rg, k, ref.acyclic_orientations(rg)))


def test_min_h2_is_f2_on_fig1():
    inst = INSTANCES["fig1"]
    value, witness = ks.minimize_hk(inst.graph, 2)
    assert value == len(ks.faces_from_incidence(inst, 2).sets) == 8
    assert ks.is_aof_oracle(inst, witness)


# -- the sink checks and the k-sink search ------------------------------------

TET = ks.simplex(3)
SINK_INSTANCES = {
    "square": ks.cube(2),
    "cube3": ks.cube(3),
    "prism": INSTANCES["prism"],
    "simplex4": ks.simplex(4),
    "trunc2_tet": ks.truncate_vertex(ks.truncate_vertex(TET, 0), 0),
    "tet_x_segment": ks.product(TET, ks.cube(1)),
}


def _heads(o):
    return None if o is None else o.heads


def _outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except KSystemsError as exc:
        return type(exc), str(exc)


def _agree(name, *args):
    """The package and the reference give the same outcome."""
    return _outcome(getattr(ks, name), *args) == _outcome(getattr(ref, name), *args)


def _relabelled_instance(inst, perm):
    g = inst.graph
    graph = _relabelled(g, perm)
    return ks.make_instance(inst.name, graph, [[perm[v] for v in t] for t in inst.facets])


@pytest.mark.parametrize(
    "name,k",
    [(name, k) for name, inst in SINK_INSTANCES.items() for k in range(inst.graph.d)],
)
def test_k_sink_search_matches_reference(name, k):
    inst = SINK_INSTANCES[name]
    got = ks.search_k_sink_counterexample(inst, k)
    assert _heads(got) == _heads(ref.search_k_sink_counterexample(inst, k))
    # with k <= 1 the witness is the first acyclic orientation that is not
    # an AOF (a simplex has none); tet x segment with k = 3 has a real
    # counterexample (see test_search.py)
    expect_witness = (k <= 1 and name != "simplex4") or (name, k) == ("tet_x_segment", 3)
    assert (got is not None) == expect_witness


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["cube3", "prism", "simplex4"]), st.data())
def test_k_sink_search_matches_reference_after_relabelling(name, data):
    inst = SINK_INSTANCES[name]
    relabelled = _relabelled_instance(inst, data.draw(st.permutations(range(inst.graph.n))))
    k = data.draw(st.integers(1, inst.graph.d - 1))
    got = ks.search_k_sink_counterexample(relabelled, k)
    assert _heads(got) == _heads(ref.search_k_sink_counterexample(relabelled, k))


def test_k_sink_search_errors_match_reference(cube3):
    for k, budget in [(3, 10), (-1, 2**20), (2, 100), (2, 2.0**20), (1.0, 2**20)]:
        assert _agree("search_k_sink_counterexample", cube3, k, budget)


@pytest.mark.parametrize("name", ["cube3", "tet_x_segment"])
def test_k_sink_search_fetches_only_the_faces_it_tests(monkeypatch, name):
    # a vertex and an edge have one sink under any acyclic orientation, so
    # the 0- and 1-faces are neither tested nor fetched; the k-faces come
    # first, and each dimension is fetched once
    inst = SINK_INSTANCES[name]
    fetched = []
    faces = oracle.faces_from_incidence

    def counted(inst, k):
        fetched.append(k)
        return faces(inst, k)

    monkeypatch.setattr(oracle, "faces_from_incidence", counted)
    for k in range(inst.graph.d):
        want = _heads(ref.search_k_sink_counterexample(inst, k))
        fetched.clear()
        assert _heads(ks.search_k_sink_counterexample(inst, k)) == want
        assert min(fetched, default=2) >= 2 and len(set(fetched)) == len(fetched)
        if k >= 2:
            assert fetched[0] == k


# -- where forced edges dominate ---------------------------------------------

# The sweep takes bit 0 wherever both directions are open and comes back
# only to those nodes; an edge whose direction the arcs above it force is
# set without a new closure.  These graphs have many forced nodes.
FORCED = {
    "simplex4": SINK_INSTANCES["simplex4"],
    "tet_x_segment": SINK_INSTANCES["tet_x_segment"],
    "triangle_x_triangle": ks.product(TRIANGLE, TRIANGLE),
    "trunc2_tet": SINK_INSTANCES["trunc2_tet"],
}
# forced nodes of the reference sweep, all positions counted: 1.62, 1.32,
# 1.25 and 0.46 per leaf (cube3 has 0.41, the pentagonal prism 0.33)
FORCED_NODES = {
    "simplex4": 194,
    "tet_x_segment": 6640,
    "triangle_x_triangle": 23906,
    "trunc2_tet": 718,
}


def _forced_and_leaves(g):
    """Nodes of the reference sweep where one direction of the edge would
    close a cycle, and the sweep's leaves."""
    order = ref._bfs_edge_order(g)
    out = [0] * g.n
    counts = [0, 0]

    def walk(pos):
        if pos == len(order):
            counts[1] += 1
            return
        u, v = g.edges[order[pos]]
        arcs = [(t, h) for t, h in ((v, u), (u, v)) if not ref._reaches(out, h, t)]
        counts[0] += len(arcs) == 1
        for t, h in arcs:
            out[t] |= 1 << h
            walk(pos + 1)
            out[t] &= ~(1 << h)

    walk(0)
    return counts


def _reference_stream(monkeypatch):
    """Make the reference k-sink search draw the reference stream."""
    monkeypatch.setattr(
        ref, "enumerate_acyclic_orientations", lambda g, budget: ref.acyclic_orientations(g)
    )


@pytest.mark.parametrize("name", FORCED)
def test_orientation_stream_matches_reference_where_edges_are_forced(name):
    g = FORCED[name].graph
    got = list(ks.enumerate_acyclic_orientations(g))
    assert got == list(ref.acyclic_orientations(g))
    assert len(got) == acyclic_orientation_count(g.n, g.edges)
    assert _forced_and_leaves(g) == [FORCED_NODES[name], len(got)]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(FORCED)), st.data())
def test_orientation_stream_matches_reference_where_edges_are_forced_after_relabelling(name, data):
    g = FORCED[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    got = list(ks.enumerate_acyclic_orientations(rg))
    assert got == list(ref.acyclic_orientations(rg))
    assert len(got) == acyclic_orientation_count(rg.n, rg.edges)


@pytest.mark.parametrize("k", [2, ks.ALL])
@pytest.mark.parametrize("name", FORCED)
def test_minimize_hk_matches_reference_where_edges_are_forced(name, k):
    g = FORCED[name].graph
    _same_minimum(ks.minimize_hk(g, k), ref.least_hk(g, k, ref.acyclic_orientations(g)))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(FORCED)), st.sampled_from([2, ks.ALL]), st.data())
def test_minimize_hk_matches_reference_where_edges_are_forced_after_relabelling(name, k, data):
    g = FORCED[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    _same_minimum(ks.minimize_hk(rg, k), ref.least_hk(rg, k, ref.acyclic_orientations(rg)))


@pytest.mark.parametrize("k", [2, 3])
def test_k_sink_search_matches_reference_where_edges_are_forced(monkeypatch, k):
    # tet x segment holds a 3-sink counterexample; for k = 2 the paper's
    # theorem rules one out.  The reference draws the reference stream.
    inst = FORCED["tet_x_segment"]
    _reference_stream(monkeypatch)
    want = ref.search_k_sink_counterexample(inst, k)
    assert (want is None) == (k == 2)
    assert ks.search_k_sink_counterexample(inst, k) == want


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_k_sink_search_matches_reference_where_edges_are_forced_after_relabelling(data):
    inst = FORCED["tet_x_segment"]
    relabelled = _relabelled_instance(inst, data.draw(st.permutations(range(inst.graph.n))))
    k = data.draw(st.sampled_from([2, 3]))
    want = ks.search_k_sink_counterexample(relabelled, k)
    with pytest.MonkeyPatch.context() as mp:
        _reference_stream(mp)
        assert want == ref.search_k_sink_counterexample(relabelled, k)
    assert (want is None) == (k == 2)


def _families(inst):
    """Set systems on the graph: every F_k, the connected k-regular sets,
    and some arbitrary subsets (which may induce no sink structure at all)."""
    g = inst.graph
    rng = random.Random(g.n)
    families = [ks.faces_from_incidence(inst, k) for k in range(g.d)]
    families += [
        ks.make_set_system(g, k, ks.connected_k_regular_sets(g, k)) for k in range(2, g.d)
    ]
    subsets = {tuple(sorted(rng.sample(range(g.n), rng.randint(2, g.n)))) for _ in range(12)}
    families.append(ks.make_set_system(g, 1, sorted(subsets)))
    return families


@pytest.mark.parametrize("name", ["cube3", "prism"])
def test_sink_checks_match_reference_on_every_orientation(name):
    # all 2^|E| orientations, cyclic ones included
    inst = SINK_INSTANCES[name]
    g = inst.graph
    families = _families(inst)
    rng = random.Random(len(g.edges))
    for heads in product((0, 1), repeat=len(g.edges)):
        o = ks.make_orientation(g, heads)
        assert ks.is_aof_oracle(inst, o) == ref.is_aof_oracle(inst, o)
        s = rng.choice(families)
        assert _agree("unique_sink_per_set", g, o, s)
        assert _agree("sinks_in_subset", g, o, rng.choice(s.sets))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(SINK_INSTANCES)), st.data())
def test_sink_checks_match_reference_on_random_orientations(name, data):
    inst = SINK_INSTANCES[name]
    g = inst.graph
    m = len(g.edges)
    o = ks.make_orientation(g, data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    assert ks.is_aof_oracle(inst, o) == ref.is_aof_oracle(inst, o)
    for s in _families(inst):
        assert _agree("unique_sink_per_set", g, o, s)
    subset = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    assert _agree("sinks_in_subset", g, o, subset)


def test_sink_check_errors_match_reference(cube3, prism):
    g = cube3.graph
    o = ks.make_orientation(g, [0] * len(g.edges))
    foreign_o = ks.make_orientation(prism.graph, [0] * len(prism.graph.edges))
    foreign_s = ks.faces_from_incidence(prism, 2)
    f2 = ks.faces_from_incidence(cube3, 2)
    for args in [(g, foreign_o, f2), (g, o, foreign_s), (g, foreign_o, foreign_s)]:
        assert _agree("unique_sink_per_set", *args)
    for w in [[], ["a"], [8], None, [0, 0, 3]]:
        assert _agree("sinks_in_subset", g, o, w)
    assert _agree("sinks_in_subset", g, foreign_o, [0])
    assert _agree("polygon_is_aof", g, o)


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_polygon_is_aof_matches_reference_on_every_orientation(m):
    g = ks.validate_graph(2, m, [(i, (i + 1) % m) for i in range(m)])
    for heads in product((0, 1), repeat=m):
        o = ks.make_orientation(g, heads)
        assert ks.polygon_is_aof(g, o) == ref.polygon_is_aof(g, o)


# -- the candidate listing ------------------------------------------------------

C5 = cycle_graph(5)
PENTAGON = ks.make_instance("polygon(5)", C5, C5.edges)
TRI_TRI_SEGMENT = ks.product(ks.product(TRIANGLE, TRIANGLE), ks.cube(1))
CANDIDATE_INSTANCES = {
    **INSTANCES,
    **SINK_INSTANCES,
    # where branching on the most constrained deficient vertex and on the
    # lowest one visit the most different states
    "tri_x_tri_x_segment": TRI_TRI_SEGMENT,
    "square_x_pentagon": ks.product(ks.cube(2), PENTAGON),
    "triangle_x_square": ks.product(TRIANGLE, ks.cube(2)),
}


@pytest.mark.parametrize(
    "name,k",
    [
        (name, k)
        for name, inst in CANDIDATE_INSTANCES.items()
        for k in range(2, inst.graph.d)
    ],
)
def test_candidates_match_reference(name, k):
    g = CANDIDATE_INSTANCES[name].graph
    assert ks.connected_k_regular_sets(g, k) == ref.connected_k_regular_sets(g, k)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["cube3", "fig1", "simplex4", "trunc2_tet", "tet_x_segment"]), st.data())
def test_candidates_match_reference_after_relabelling(name, data):
    g = CANDIDATE_INSTANCES[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    k = data.draw(st.integers(2, g.d - 1))
    assert ks.connected_k_regular_sets(rg, k) == ref.connected_k_regular_sets(rg, k)


@pytest.mark.parametrize(
    "inst,k",
    [(ks.cube(4), 3), (INSTANCES["fig1"], 2), (TRI_TRI_SEGMENT, 3)],
    ids=["cube4", "fig1", "tri_x_tri_x_segment"],
)
def test_candidate_cap_matches_reference_at_every_cap(inst, k):
    g = inst.graph
    total = len(ref.connected_k_regular_sets(g, k))
    for cap in range(1, total + 2):
        assert _agree("connected_k_regular_sets", g, k, cap)
    assert _outcome(ks.connected_k_regular_sets, g, k, total)[0] == "returned"
    assert _outcome(ks.connected_k_regular_sets, g, k, total - 1)[0] is CandidateCapExceeded


def test_candidate_errors_match_reference(cube3):
    g = cube3.graph
    for k, cap in [(1, 10), (3, 10), (-1, 10), (2.0, 10), (2, 10.0), (2, None), (2, 0)]:
        assert _agree("connected_k_regular_sets", g, k, cap)


# -- the merged variants -------------------------------------------------------

MERGE_INSTANCES = {
    "triangle_x_square": ks.product(TRIANGLE, ks.cube(2)),
    "tet_x_triangle": ks.product(TET, TRIANGLE),
    "cube4": ks.cube(4),
    "fig1": INSTANCES["fig1"],
}


def _covers(g, k):
    """Every exact cover of the connected candidates, as member lists."""
    candidates = ks.connected_k_regular_sets(g, k)
    for cover in search._exact_covers(g, k, candidates, [*map(vertex_mask, candidates)]):
        yield [candidates[i] for i in cover]


def _same_merges(g, base):
    got = [sets for sets, _ in search._merged_variants(g, base, [*map(vertex_mask, base)])]
    assert got == list(ref._merged_variants(g, base))
    return len(got)


@pytest.mark.parametrize(
    "name,k",
    [("triangle_x_square", 2), ("triangle_x_square", 3), ("tet_x_triangle", 2),
     ("tet_x_triangle", 3), ("tet_x_triangle", 4), ("cube4", 3), ("fig1", 2)],
)
def test_merged_variants_match_reference_on_every_cover(name, k):
    g = MERGE_INSTANCES[name].graph
    merges = sum(_same_merges(g, base) for base in _covers(g, k))
    if (name, k) == ("triangle_x_square", 2):
        assert merges == 114  # over its 38 covers


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["triangle_x_square", "tet_x_triangle", "fig1"]), st.data())
def test_merged_variants_match_reference_after_relabelling(name, data):
    g = MERGE_INSTANCES[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    for base in islice(_covers(rg, 2), 8):
        _same_merges(rg, base)


def _can_merge(g, pool):
    """The members of ``pool`` independent of some other member."""
    masks = [*map(vertex_mask, pool)]
    closed = [vertex_mask({x for v in t for x in g.adjacency[v]} | set(t)) for t in pool]
    return [t for t, vm in zip(pool, masks) if any(not vm & c for c in closed)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["cube4", "triangle_x_square"]), st.data())
def test_merged_variants_match_reference_on_any_member_list(name, data):
    # members need not form a cover: any list of candidates, overlapping or
    # adjacent ones included, in any order.  Only 24 of cube4's 224
    # candidates and 4 of triangle x square's 55 can merge, so half the
    # draws come from those, interleaved with members that cannot merge
    g = MERGE_INSTANCES[name].graph
    pool = ks.connected_k_regular_sets(g, 2)
    mergeable = _can_merge(g, pool)
    assert len(mergeable) == {"cube4": 24, "triangle_x_square": 4}[name]
    draw = st.one_of(st.sampled_from(mergeable), st.sampled_from(pool))
    base = data.draw(st.lists(draw, max_size=12))
    _same_merges(g, base)


def test_merged_variants_keep_members_that_cannot_merge_in_place():
    # two pairs of opposite squares of cube4, (a, a') and (b, b'),
    # interleaved with three squares that meet each square of the list:
    # the pairs merge, the three stay where they are
    g = MERGE_INSTANCES["cube4"].graph
    a, a_, b, b_ = (1, 5, 9, 13), (2, 6, 10, 14), (0, 4, 8, 12), (3, 7, 11, 15)
    fillers = [(0, 1, 2, 3), (0, 1, 4, 5), (4, 5, 6, 7)]
    base = [a, fillers[0], b, fillers[1], a_, fillers[2], b_]
    assert _same_merges(g, base) == 3
    for sets in ref._merged_variants(g, base):
        assert [t for t in sets if t in fillers] == fillers


def test_covers_with_no_independent_pair_have_no_merged_variants():
    # in each of cube3's two connected 2-systems any two members meet or
    # are joined by an edge
    g = ks.cube(3).graph
    covers = list(_covers(g, 2))
    assert len(covers) == 2
    for base in covers:
        assert _same_merges(g, base) == 0
