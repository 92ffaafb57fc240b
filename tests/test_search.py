import re
import time
from collections import Counter
from itertools import combinations, islice

import pytest

import ksystems as ks
from ksystems import search
from ksystems.chromatic import acyclic_orientation_count
from ksystems.errors import (
    BudgetExceeded,
    CandidateCapExceeded,
    InvalidParams,
    KOutOfRange,
)

from conftest import cycle_graph


@pytest.fixture(scope="module")
def k33():
    return ks.validate_graph(3, 6, [(a, b) for a in range(3) for b in range(3, 6)])


@pytest.fixture(scope="module")
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return ks.validate_graph(3, 10, outer + spokes + inner)


def _induces_connected(g, vertices):
    members = set(vertices)
    seen = {min(members)}
    stack = [min(members)]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


@pytest.mark.parametrize("m,count", [(3, 6), (4, 14), (5, 30)])
def test_polygon_orientation_counts(m, count):
    g = cycle_graph(m)
    orients = list(ks.enumerate_acyclic_orientations(g))
    assert len(orients) == count
    assert len({o.heads for o in orients}) == count
    assert acyclic_orientation_count(m, g.edges) == count


def test_enumeration_is_deterministic_and_acyclic(cube3):
    g = cube3.graph
    first = list(ks.enumerate_acyclic_orientations(g))
    second = list(ks.enumerate_acyclic_orientations(g))
    assert [o.heads for o in first] == [o.heads for o in second]
    assert first[0].heads == (0,) * 12
    assert all(ks.is_acyclic(g, o) for o in first[:100])


def test_enumeration_budget(cube3):
    with pytest.raises(BudgetExceeded):
        list(ks.enumerate_acyclic_orientations(cube3.graph, budget=100))


def test_enumeration_budget_is_checked_at_the_call(cube3):
    # before the first next(): a caller learns of the refusal up front
    with pytest.raises(BudgetExceeded):
        ks.enumerate_acyclic_orientations(cube3.graph, budget=100)
    with pytest.raises(InvalidParams, match="budget must be an integer"):
        ks.enumerate_acyclic_orientations(cube3.graph, budget=2.0**12)


def test_minimize_hk_cube(cube3):
    g = cube3.graph
    value, witness = ks.minimize_hk(g, ks.ALL)
    assert value == 27
    assert ks.indegree_histogram(g, witness).counts == (1, 3, 3, 1)
    value2, witness2 = ks.minimize_hk(g, 2)
    assert value2 == 6
    assert ks.is_aof_oracle(cube3, witness2)


def test_minimize_hk_rejects_bad_k(cube3):
    with pytest.raises(KOutOfRange):
        ks.minimize_hk(cube3.graph, 7)
    with pytest.raises(KOutOfRange):
        ks.minimize_hk(cube3.graph, -1)


def test_connected_k_regular_sets_cube(cube3):
    g = cube3.graph
    cands = ks.connected_k_regular_sets(g, 2)
    assert sorted(len(c) for c in cands) == [4] * 6 + [6] * 4
    f2 = set(ks.faces_from_incidence(cube3, 2).sets)
    assert f2 < set(cands)
    # candidates come out sorted and duplicate-free
    assert list(cands) == sorted(set(cands))


def test_connected_k_regular_sets_simplex(simplex4):
    # in a complete graph the k-regular connected sets are the (k+1)-cliques
    cands = ks.connected_k_regular_sets(simplex4.graph, 3)
    assert sorted(len(c) for c in cands) == [4] * 5


def test_candidate_cap(fig1):
    with pytest.raises(CandidateCapExceeded):
        ks.connected_k_regular_sets(fig1.graph, 2, candidate_cap=3)
    # on the 1200-gon prism the search first grows a path over more than
    # 1 000 vertices, past Python's recursion limit, before it meets a set
    cycle = cycle_graph(1200)
    prism = ks.product(ks.cube(1), ks.make_instance("polygon(1200)", cycle, cycle.edges))
    with pytest.raises(CandidateCapExceeded, match="^more than 0 candidate sets$"):
        ks.connected_k_regular_sets(prism.graph, 2, candidate_cap=0)


def test_enumerate_k_systems_cube3(cube3):
    g = cube3.graph
    systems = list(ks.enumerate_k_systems(g, 2))
    assert len(systems) == 2
    by_sizes = {tuple(sorted(len(x) for x in s.sets)) for s in systems}
    assert by_sizes == {(4,) * 6, (6,) * 4}
    for s in systems:
        assert ks.validate_k_system(g, s).valid


def test_enumerate_k_systems_fig1(fig1):
    g = fig1.graph
    all_systems = list(ks.enumerate_k_systems(g, 2))
    connected = list(ks.enumerate_k_systems(g, 2, include_merged=False))
    assert len(all_systems) == 6
    assert len(connected) == 3
    assert sorted(len(s.sets) for s in all_systems) == [5, 5, 6, 6, 7, 8]
    assert sorted(len(s.sets) for s in connected) == [6, 6, 8]
    # the merged variants are exactly the systems with a disconnected member
    merged = [s for s in all_systems if s not in connected]
    assert len(merged) == 3
    for s in merged:
        assert any(not _induces_connected(g, t) for t in s.sets)
    for s in connected:
        assert all(_induces_connected(g, t) for t in s.sets)


def test_merged_member_covers_same_frames(fig1):
    g = fig1.graph
    seven = next(s for s in ks.enumerate_k_systems(g, 2) if len(s.sets) == 7)
    assert (6, 7, 8, 9, 10, 11) in seven.sets
    assert ks.validate_k_system(g, seven).valid


def test_count_cap_truncates_stream(fig1):
    got = list(ks.enumerate_k_systems(fig1.graph, 2, count_cap=2))
    assert len(got) == 2


@pytest.fixture(scope="module")
def triangle_x_square():
    return ks.product(ks.simplex(2), ks.cube(2)).graph


@pytest.mark.parametrize("count_cap", [1, 5])
def test_count_cap_streams_match_across_jobs(triangle_x_square, count_cap):
    stream = list(ks.enumerate_k_systems(triangle_x_square, 2, count_cap=count_cap))
    assert len(stream) == count_cap


@pytest.mark.parametrize(
    "call,name,value",
    [
        ("enumerate_acyclic_orientations", "budget", None),
        ("enumerate_acyclic_orientations", "budget", -1),
        ("minimize_hk", "budget", None),
        ("minimize_hk", "budget", -1),
        ("connected_k_regular_sets", "candidate_cap", None),
        ("connected_k_regular_sets", "candidate_cap", -3),
        ("enumerate_k_systems", "candidate_cap", -1),
        ("max_k_system", "candidate_cap", -3),
        ("enumerate_k_systems", "count_cap", None),
        ("enumerate_k_systems", "count_cap", 0),
        ("enumerate_k_systems", "count_cap", -1),
        ("enumerate_k_systems", "candidate_cap", "10"),
        ("max_k_system", "count_cap", True),
        ("max_k_system", "candidate_cap", 2.0),
        ("connected_k_regular_sets", "candidate_cap", 10.0),
    ],
)
def test_search_arguments_must_be_integers(cube3, call, name, value):
    fn = getattr(search, call)
    args = (cube3.graph,) if call == "enumerate_acyclic_orientations" else (cube3.graph, 2)
    least = 1 if name == "count_cap" else 0
    refusal = f"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidParams, match=refusal):
        result = fn(*args, **{name: value})
        if call.startswith("enumerate"):
            list(result)


def test_enumerate_k_systems_checks_arguments_before_listing(monkeypatch, cube3):
    def listing(*args):
        raise AssertionError("candidates listed before the arguments were checked")

    monkeypatch.setattr(search, "connected_k_regular_sets", listing)
    with pytest.raises(InvalidParams, match="count_cap must be an integer"):
        next(ks.enumerate_k_systems(cube3.graph, 2, count_cap=2.5))


def test_merged_variants_stop_at_count_cap():
    # the first cover of triangle^3 has 68 members: listing all of its
    # coarsenings before yielding the first would not finish in minutes
    triangle = ks.simplex(2)
    g = ks.product(ks.product(triangle, triangle), triangle).graph
    start = time.perf_counter()
    first, merged = islice(ks.enumerate_k_systems(g, 2), 2)
    assert time.perf_counter() - start < 60
    assert len(first.sets) == 68 and len(merged.sets) < 68
    assert all(
        set(t) == set().union(*(b for b in first.sets if set(b) <= set(t)))
        for t in merged.sets
    )


def test_max_k_system_is_the_largest_of_the_first_covers(fig1):
    sizes = [len(s.sets) for s in ks.enumerate_k_systems(fig1.graph, 2, include_merged=False)]
    assert sizes == [6, 6, 8]
    assert len(ks.max_k_system(fig1.graph, 2, count_cap=2).sets) == 6
    assert len(ks.max_k_system(fig1.graph, 2, count_cap=3).sets) == 8


def test_simplex_systems_are_unique(simplex3, simplex4):
    for inst in (simplex3, simplex4):
        g = inst.graph
        for k in range(2, g.d):
            systems = list(ks.enumerate_k_systems(g, k))
            assert len(systems) == 1
            assert set(systems[0].sets) == set(
                ks.faces_from_incidence(inst, k).sets
            )


def test_a_cover_deeper_than_the_recursion_limit_is_found():
    # the one 2-system of simplex(19) is its 1 140 triangles: the exact
    # cover chooses 1 140 members, and the merged variants place 1 140
    g = ks.simplex(19).graph
    (only,) = ks.enumerate_k_systems(g, 2)
    assert only.sets == tuple(combinations(range(20), 3))
    assert ks.max_k_system(g, 2) == only


def test_max_k_system_prefers_faces(cube3, prism):
    for inst in (cube3, prism):
        best = ks.max_k_system(inst.graph, 2)
        assert set(best.sets) == set(ks.faces_from_incidence(inst, 2).sets)


def test_max_k_system_none_when_no_cover(k33):
    assert list(ks.enumerate_k_systems(k33, 2)) == []
    assert ks.max_k_system(k33, 2) is None


def test_petersen_has_pentagon_system(petersen):
    # six pentagons cover all 30 frames exactly once; the Petersen graph
    # is no polytope graph, but the search works on any regular graph
    best = ks.max_k_system(petersen, 2)
    assert best is not None
    assert sorted(len(s) for s in best.sets) == [5] * 6
    assert ks.validate_k_system(petersen, best).valid


def test_counterexample_search_comes_up_empty(cube3, prism):
    # k = 2: the paper's theorem
    assert ks.search_k_sink_counterexample(cube3, 2) is None
    assert ks.search_k_sink_counterexample(prism, 2) is None


def test_counterexample_search_budget(fig1):
    with pytest.raises(BudgetExceeded):
        ks.search_k_sink_counterexample(fig1, 2, budget=1000)


def test_counterexample_search_finds_one_for_k3_on_tet_x_segment():
    # unique sinks on F_3 (the facets) do not force an AOF when d = 4:
    # the witness has two sinks on a square 2-face
    inst = ks.product(ks.simplex(3), ks.cube(1))
    g = inst.graph
    witness = ks.search_k_sink_counterexample(inst, 3)
    assert witness is not None and ks.is_acyclic(g, witness)
    assert not ks.is_aof_oracle(inst, witness)
    assert ks.unique_sink_per_set(g, witness, ks.faces_from_incidence(inst, 3)) == (True, None)
    ok, square = ks.unique_sink_per_set(g, witness, ks.faces_from_incidence(inst, 2))
    assert not ok and len(square) == 4
    assert len(ks.sinks_in_subset(g, witness, square)) == 2


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("recipe,k", [("cube3", 2), ("tet_x_segment", 3), ("tet_x_segment", 1)])
def test_counterexample_search_cost(monkeypatch, recipe, k):
    from ksystems import certificates, graphs, oracle

    inst = ks.cube(3) if recipe == "cube3" else ks.product(ks.simplex(3), ks.cube(1))
    calls = Counter()
    _counting(monkeypatch, oracle, "faces_from_incidence", calls)
    _counting(monkeypatch, search, "enumerate_acyclic_orientations", calls)
    for module in (graphs, oracle, certificates):
        _counting(monkeypatch, module, "topological_order", calls)
    found = ks.search_k_sink_counterexample(inst, k)
    assert (found is None) == (recipe == "cube3")
    # the faces once per dimension, the stream drawn through the module name,
    # and no topological sort of orientations the stream built
    assert 1 <= calls["faces_from_incidence"] <= inst.graph.d
    assert calls["enumerate_acyclic_orientations"] == 1
    assert calls["topological_order"] == 0


def test_counterexample_search_checks_k_before_the_budget(cube3):
    with pytest.raises(KOutOfRange):
        ks.search_k_sink_counterexample(cube3, 3, budget=1)
    with pytest.raises(KOutOfRange, match=r"^k must satisfy 0 <= k <= d-1 = 2, got -1$"):
        ks.search_k_sink_counterexample(cube3, -1, budget=2.5)
    with pytest.raises(BudgetExceeded):
        ks.search_k_sink_counterexample(cube3, 2, budget=1)
