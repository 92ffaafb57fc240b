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


def test_parallel_enumeration_matches(cube3):
    g = cube3.graph
    seq = [o.heads for o in ks.enumerate_acyclic_orientations(g)]
    for jobs in (1, 2, 3):
        par = ks.enumerate_acyclic_orientations(g, jobs=jobs)
        assert [o.heads for o in par] == seq


def test_minimize_hk_cube(cube3):
    g = cube3.graph
    value, witness = ks.minimize_hk(g, ks.ALL)
    assert value == 27
    assert ks.indegree_histogram(g, witness).counts == (1, 3, 3, 1)
    value2, witness2 = ks.minimize_hk(g, 2)
    assert value2 == 6
    assert ks.is_aof_oracle(cube3, witness2)


def test_minimize_hk_parallel_matches(cube3):
    g = cube3.graph
    for k in (2, ks.ALL):
        seq = ks.minimize_hk(g, k)
        for jobs in (1, 2, 3):
            par = ks.minimize_hk(g, k, jobs=jobs)
            assert seq[0] == par[0]
            assert seq[1].heads == par[1].heads


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


def test_workers_stop_at_count_cap(monkeypatch, triangle_x_square):
    # its first frame has one candidate, so one worker holds all 38 covers
    sent = []

    def in_process(jobs, worker, tasks):
        results = [worker(*task) for task in tasks]
        sent.extend(len(r) for r in results)
        return results

    monkeypatch.setattr(search, "_fan_out", in_process)
    got = list(ks.enumerate_k_systems(triangle_x_square, 2, count_cap=1, jobs=2))
    assert len(got) == 1
    assert sent and max(sent) <= 1


@pytest.mark.parametrize("count_cap", [1, 5])
def test_count_cap_streams_match_across_jobs(triangle_x_square, count_cap):
    streams = [
        [s.sets for s in ks.enumerate_k_systems(triangle_x_square, 2, count_cap=count_cap, jobs=jobs)]
        for jobs in (1, 2, 3)
    ]
    assert len(streams[0]) == count_cap
    assert streams[1] == streams[0] and streams[2] == streams[0]


@pytest.mark.parametrize(
    "call,name,value",
    [
        ("enumerate_acyclic_orientations", "budget", None),
        ("enumerate_acyclic_orientations", "jobs", "2"),
        ("minimize_hk", "budget", None),
        ("minimize_hk", "jobs", 1.5),
        ("connected_k_regular_sets", "candidate_cap", None),
        ("enumerate_k_systems", "count_cap", None),
        ("enumerate_k_systems", "candidate_cap", "10"),
        ("enumerate_k_systems", "jobs", None),
        ("max_k_system", "count_cap", True),
        ("max_k_system", "candidate_cap", 2.0),
    ],
)
def test_search_arguments_must_be_integers(cube3, call, name, value):
    fn = getattr(search, call)
    args = (cube3.graph,) if call == "enumerate_acyclic_orientations" else (cube3.graph, 2)
    with pytest.raises(InvalidParams, match=f"{name} must be an integer"):
        result = fn(*args, **{name: value})
        if call.startswith("enumerate"):
            list(result)


def test_max_k_system_is_the_largest_of_the_first_covers(fig1):
    sizes = [len(s.sets) for s in ks.enumerate_k_systems(fig1.graph, 2, include_merged=False)]
    assert sizes == [6, 6, 8]
    assert len(ks.max_k_system(fig1.graph, 2, count_cap=2).sets) == 6
    assert len(ks.max_k_system(fig1.graph, 2, count_cap=3).sets) == 8


def test_parallel_k_systems_match(cube3, fig1):
    for inst in (cube3, fig1):
        seq = [s.sets for s in ks.enumerate_k_systems(inst.graph, 2)]
        for jobs in (1, 2, 3):
            par = [
                s.sets for s in ks.enumerate_k_systems(inst.graph, 2, jobs=jobs)
            ]
            assert seq == par


def test_simplex_systems_are_unique(simplex3, simplex4):
    for inst in (simplex3, simplex4):
        g = inst.graph
        for k in range(2, g.d):
            systems = list(ks.enumerate_k_systems(g, k))
            assert len(systems) == 1
            assert set(systems[0].sets) == set(
                ks.faces_from_incidence(inst, k).sets
            )


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
    assert ks.search_k_sink_counterexample(cube3, 2) is None
    assert ks.search_k_sink_counterexample(prism, 2) is None


def test_counterexample_search_budget(fig1):
    with pytest.raises(BudgetExceeded):
        ks.search_k_sink_counterexample(fig1, 2, budget=1000)
