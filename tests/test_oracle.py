import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import comb
from pathlib import Path

import pytest

import ksystems as ks
from ksystems import fileio, oracle
from ksystems.graphs import induced_flaw, vertex_mask
from ksystems.oracle import FACES_CACHE_SIZE
from ksystems.errors import (
    DegenerateWeights,
    InvalidParams,
    KOutOfRange,
    NoCoordinates,
    NotSimple,
)

import reference_faces
import reference_gate
import reference_search
from test_search import _counting


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_counts(d):
    inst = ks.cube(d)
    g = inst.graph
    assert g.n == 2**d
    assert len(g.edges) == d * 2 ** (d - 1)
    assert len(inst.facets) == 2 * d
    assert inst.name == f"cube({d})"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_simplex_counts(d):
    inst = ks.simplex(d)
    g = inst.graph
    assert g.n == d + 1
    assert len(g.edges) == comb(d + 1, 2)
    assert len(inst.facets) == d + 1


def test_generate_dispatch():
    assert ks.generate("cube", 3).graph.fingerprint == ks.cube(3).graph.fingerprint
    assert ks.generate("simplex", 2).name == "simplex(2)"
    with pytest.raises(InvalidParams):
        ks.generate("orthoplex", 3)


def test_product_combinatorics(prism):
    g = prism.graph
    assert g.d == 3 and g.n == 6 and len(g.edges) == 9
    assert prism.name == "product(cube(1),simplex(2))"
    assert len(prism.facets) == 2 + 3  # two triangles, three quadrilaterals
    sizes = sorted(len(f) for f in prism.facets)
    assert sizes == [3, 3, 4, 4, 4]
    # coordinates concatenate: 1 + 2 dimensions
    assert all(len(row) == 3 for row in prism.coords)


def test_product_of_products():
    c2 = ks.product(ks.cube(1), ks.cube(1))
    assert c2.graph.fingerprint == ks.cube(2).graph.fingerprint
    four = ks.product(c2, c2)
    assert four.graph.d == 4
    assert four.graph.n == 16
    assert ks.f_vector(four) == ks.f_vector(ks.cube(4))


def test_truncate_vertex_counts(cube3):
    t = ks.truncate_vertex(cube3, 0)
    g = t.graph
    assert t.name == "truncate(cube(3),0)"
    assert g.n == 8 + 3 - 1
    assert len(g.edges) == 15
    assert ks.f_vector(t) == (10, 15, 7)
    assert t.coords is None  # truncation is combinatorial only
    with pytest.raises(InvalidParams):
        ks.truncate_vertex(cube3, 8)


def test_fig1_shape(fig1):
    g = fig1.graph
    assert (g.d, g.n, len(g.edges)) == (3, 12, 18)
    assert ks.f_vector(fig1) == (12, 18, 8)
    sizes = sorted(len(f) for f in fig1.facets)
    assert sizes == [3, 3, 4, 5, 5, 5, 5, 6]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_simplex_f_vector(d):
    fv = ks.f_vector(ks.simplex(d))
    assert fv == tuple(comb(d + 1, k + 1) for k in range(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_f_vector(d):
    fv = ks.f_vector(ks.cube(d))
    assert fv == tuple(comb(d, k) * 2 ** (d - k) for k in range(d))


def test_faces_from_incidence_low_k(cube3):
    f0 = ks.faces_from_incidence(cube3, 0)
    assert f0.sets == tuple((v,) for v in range(8))
    f1 = ks.faces_from_incidence(cube3, 1)
    assert set(f1.sets) == set(cube3.graph.edges)
    with pytest.raises(KOutOfRange, match=r"^k must satisfy 0 <= k <= d-1 = 2, got 3$"):
        ks.faces_from_incidence(cube3, 3)


def test_faces_of_cube3_are_the_quadrilaterals(cube3):
    f2 = ks.faces_from_incidence(cube3, 2)
    expected = {
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 4, 5),
        (2, 3, 6, 7),
        (0, 2, 4, 6),
        (1, 3, 5, 7),
    }
    assert set(f2.sets) == expected


def test_make_instance_rejects_duplicate_facet(cube3):
    facets = [list(f) for f in cube3.facets]
    with pytest.raises(NotSimple):
        ks.make_instance("dup", cube3.graph, facets[:-1] + [facets[0]])


def test_make_instance_rejects_wrong_incidence_count(cube3):
    facets = [list(f) for f in cube3.facets]
    with pytest.raises(NotSimple):
        ks.make_instance("short", cube3.graph, facets[:-1])


def test_make_instance_rejects_irregular_facet(cube3):
    facets = [list(f) for f in cube3.facets]
    a = next(i for i, f in enumerate(facets) if set(f) == {0, 1, 2, 3})
    b = next(i for i, f in enumerate(facets) if set(f) == {4, 5, 6, 7})
    facets[a], facets[b] = [0, 1, 2, 4], [3, 5, 6, 7]
    with pytest.raises(NotSimple):
        ks.make_instance("swapped", cube3.graph, facets)


def test_make_instance_rejects_nonadjacent_overlap(cube3):
    # four hexagons hit every vertex thrice, but non-adjacent vertices
    # then share d-1 facets, which no simple polytope allows
    hexes = [s for s in ks.connected_k_regular_sets(cube3.graph, 2) if len(s) == 6]
    assert len(hexes) == 4
    with pytest.raises(NotSimple):
        ks.make_instance("hexcube", cube3.graph, [list(h) for h in hexes])


def test_make_instance_rejects_empty_facet(cube3):
    facets = [list(f) for f in cube3.facets] + [[]]
    with pytest.raises(NotSimple, match="disconnected"):
        ks.make_instance("empty", cube3.graph, facets)


def _relabelled(inst, perm):
    g = inst.graph
    graph = ks.validate_graph(g.d, g.n, [(perm[u], perm[v]) for u, v in g.edges])
    facets = [[perm[v] for v in t] for t in inst.facets]
    return ks.make_instance(inst.name, graph, facets)


def test_faces_cache_is_bounded(cube3):
    bound = FACES_CACHE_SIZE
    assert ks.faces_from_incidence.cache_info().maxsize == bound
    perms = islice(permutations(range(cube3.graph.n)), bound + 10)
    for perm in perms:
        ks.faces_from_incidence(_relabelled(cube3, perm), 2)
        assert ks.faces_from_incidence.cache_info().currsize <= bound
    inst = _relabelled(cube3, tuple(reversed(range(cube3.graph.n))))
    first = ks.faces_from_incidence(inst, 1)
    hits = ks.faces_from_incidence.cache_info().hits
    assert ks.faces_from_incidence(inst, 1) is first
    assert ks.faces_from_incidence.cache_info().hits == hits + 1


def test_graphs_built_from_edges_in_any_order_hash_and_compare_equal(cube3):
    g = cube3.graph
    shuffled = [(v, u) for u, v in reversed(g.edges)]
    twin = ks.validate_graph(g.d, g.n, shuffled)
    assert twin == g and twin is not g and hash(twin) == hash(g)
    assert hash(g) == hash((g.d, g.n, g.fingerprint))


def test_instances_differing_in_facets_or_coords_are_separate_cache_entries(cube3):
    # the hash reads the name and the graph only; equality reads every field
    faces = ks.faces_from_incidence(cube3, 2)
    others = [
        dataclasses.replace(cube3, coords=None),
        dataclasses.replace(cube3, coords=[[2 * c for c in row] for row in cube3.coords]),
    ]
    for other in others:
        assert other != cube3 and hash(other) == hash(cube3)
        misses = ks.faces_from_incidence.cache_info().misses
        assert ks.faces_from_incidence(other, 2) == faces
        assert ks.faces_from_incidence.cache_info().misses == misses + 1
    # the facets are kept in canonical order, so the same facets listed in
    # another order make an equal instance: one entry
    reordered = dataclasses.replace(cube3, facets=[t[::-1] for t in reversed(cube3.facets)])
    assert reordered == cube3 and reordered.facets == cube3.facets
    assert ks.faces_from_incidence(reordered, 2) is faces
    assert ks.faces_from_incidence(cube3, 2) is faces


def test_a_cached_answer_goes_to_no_instance_a_miss_would_refuse(cube3):
    # 7.0 == 7 and hashes alike, so an instance holding it was an equal key,
    # answered from the cache; the constructor now refuses it first
    ks.faces_from_incidence(cube3, 2)
    facets = cube3.facets[:-1] + ((4, 5, 6, 7.0),)
    with pytest.raises(InvalidParams, match=r"^vertex id 7\.0 outside 0\.\.7$"):
        ks.Instance(cube3.name, cube3.graph, facets, cube3.coords)
    # and a k equal to a cached one is refused as on a miss
    ks.faces_from_incidence(cube3, 1)
    for k in (1.0, True):
        with pytest.raises(KOutOfRange):
            ks.faces_from_incidence(cube3, k)


def test_instance_hash_is_declared_and_equality_is_by_field(cube3):
    faces = ks.faces_from_incidence(cube3, 2)
    twin = ks.cube(3)
    assert twin == cube3 and twin is not cube3 and hash(twin) == hash(cube3)
    assert hash(cube3) == hash((cube3.name, cube3.graph))
    info = ks.faces_from_incidence.cache_info()
    # an equal instance and a repeated (instance, k) both hit the cache
    assert ks.faces_from_incidence(twin, 2) is faces
    assert ks.faces_from_incidence(cube3, 2) is faces
    after = ks.faces_from_incidence.cache_info()
    assert (after.hits, after.misses) == (info.hits + 2, info.misses)
    # a relabelled instance is another key
    perm = tuple(reversed(range(cube3.graph.n)))
    relabelled = dataclasses.replace(_relabelled(cube3, perm), name="cube(3) reversed")
    assert relabelled != cube3
    ks.faces_from_incidence(relabelled, 2)
    assert ks.faces_from_incidence.cache_info().misses == after.misses + 1
    assert dataclasses.replace(cube3, name="renamed") != cube3
    assert ks.faces_from_incidence.__wrapped__(twin, 2) == faces


def test_instance_copy_in_another_process_hashes_afresh(cube3, tmp_path):
    # string hashes differ between processes: a pickled copy must not carry
    # the hash cached here
    hash(cube3)
    blob = tmp_path / "cube3.pickle"
    blob.write_bytes(pickle.dumps(cube3))
    src = str(Path(ks.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (
        "import pickle, sys, ksystems as ks\n"
        "copy = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "assert hash(copy) == hash(ks.cube(3)) and {copy: 1}[ks.cube(3)] == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, str(blob)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "1"},
    )
    assert proc.returncode == 0, proc.stderr


#: One instance from each generator, and from the dispatch over them.
GENERATED = {
    "simplex": lambda: ks.simplex(4),
    "cube": lambda: ks.cube(4),
    "product": lambda: ks.product(ks.simplex(2), ks.cube(2)),
    "truncate_vertex": lambda: ks.truncate_vertex(ks.cube(3), 5),
    "fig1": ks.fig1,
    "generate": lambda: ks.generate("product", ks.simplex(3), ks.simplex(2)),
}


def _twin(inst):
    """``inst`` built again by the constructor, from its own fields."""
    return ks.Instance(inst.name, inst.graph, inst.facets, inst.coords)


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_generated_instances_skip_the_proved_face_work(monkeypatch, family):
    # F_0, F_1 and F_{d-1} are read off without filing and no face is
    # tested for regularity; the faces are the reference's
    inst = GENERATED[family]()
    faces = ks.faces_from_incidence.__wrapped__
    calls = Counter()
    _counting(monkeypatch, oracle, "_meets", calls)
    _counting(monkeypatch, oracle, "induced_flaw", calls)
    d = inst.graph.d
    for k in range(d):
        want = reference_faces.faces_from_incidence(inst, k)
        calls.clear()
        assert faces(inst, k) == want
        assert calls["_meets"] == (k not in (0, 1, d - 1))
        assert calls["induced_flaw"] == 0


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return ks.validate_graph(3, 10, outer + inner + spokes)


def test_a_3_polytope_has_euler_s_count_of_facets():
    # the Petersen graph is no 3-polytope graph (it is not planar); of the
    # C(12, 6) families of six of its induced pentagons, two (the
    # hemi-dodecahedron's, f_0 - f_1 + f_2 = 1) pass every other check of
    # the constructor, and the reference accepts them
    g = _petersen()
    nbr = g.neighbour_masks
    pentagons = [
        t for t in combinations(range(10), 5)
        if induced_flaw(nbr, t, vertex_mask(t), 2) is None
    ]
    assert len(pentagons) == 12
    euler = "6 facets on 10 vertices break Euler's relation: a simple 3-polytope has n/2 + 2 = 7"
    broke_euler = 0
    for family in combinations(pentagons, 6):
        with pytest.raises(NotSimple) as refused:
            ks.make_instance("petersen", g, family)
        if str(refused.value) == euler:
            broke_euler += 1
            assert reference_gate.make_instance("petersen", g, family).facets == family
    assert broke_euler == 2


def test_membership_cannot_be_passed_in(cube3):
    assert [f.name for f in dataclasses.fields(ks.Instance)] == [
        "name", "graph", "facets", "coords"
    ]
    with pytest.raises(TypeError):
        ks.Instance(cube3.name, cube3.graph, cube3.facets, None, cube3.membership)
    with pytest.raises(TypeError):
        ks.Instance(cube3.name, cube3.graph, cube3.facets, None, membership=cube3.membership)
    with pytest.raises(TypeError):
        dataclasses.replace(cube3, membership=cube3.membership)
    # pickle and copy carry it; every constructor builds it afresh from
    # the facets it checked
    for other in (pickle.loads(pickle.dumps(cube3)), copy.copy(cube3), copy.deepcopy(cube3)):
        assert vars(other)["membership"] == cube3.membership
    for other in (dataclasses.replace(cube3, name="renamed"), _twin(cube3)):
        assert other.membership == cube3.membership
        assert other.membership is not cube3.membership


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_membership_lists_the_facets_through_each_vertex(family):
    inst = GENERATED[family]()
    assert inst.membership is inst.membership
    assert inst.membership == tuple(
        tuple(i for i, t in enumerate(inst.facets) if v in t) for v in range(inst.graph.n)
    )
    # equality, hash and repr ignore it, and a read builds it again
    twin = _twin(inst)
    del vars(twin)["membership"]
    assert twin == inst and hash(twin) == hash(inst) and repr(twin) == repr(inst)
    assert twin.membership == inst.membership


def test_a_faces_op_builds_the_neighbour_masks_once(monkeypatch):
    # the faces workload's op: parse, every k-face, facets from the 2-faces
    text = json.dumps(fileio.instance_doc(ks.cube(6)))
    kept = ks.PolytopeGraph.__dict__["neighbour_masks"]
    builds = []
    build = kept.func
    monkeypatch.setattr(kept, "func", lambda g: builds.append(g) or build(g))
    inst = fileio.parse_instance(json.loads(text))
    faces = [ks.faces_from_incidence.__wrapped__(inst, k) for k in range(inst.graph.d)]
    facets = ks.facets_from_2faces(inst.graph, faces[2])
    assert facets.sets == inst.facets
    assert builds == [inst.graph]


@pytest.mark.parametrize("name", ["cube6", "prism"])
def test_a_faces_op_checks_each_family_once(monkeypatch, name):
    # the faces workload's op again: F_2 comes from faces_from_incidence,
    # which proved it, so facets_from_2faces neither validates it nor tests
    # its members' connectivity; faces_from_incidence tests each face of
    # 2 <= k <= d-2 once (the constructor tests the facets, by induced_flaw)
    from ksystems import certificates

    made = ks.cube(6) if name == "cube6" else ks.product(ks.cube(1), ks.simplex(2))
    text = json.dumps(fileio.instance_doc(made))
    calls = Counter()
    _counting(monkeypatch, certificates, "validate_k_system", calls)
    for module in (oracle, certificates):
        calls[module] = Counter()
        _counting(monkeypatch, module, "induces_connected", calls[module])
    inst = fileio.parse_instance(json.loads(text))
    faces = [ks.faces_from_incidence.__wrapped__(inst, k) for k in range(inst.graph.d)]
    facets = ks.facets_from_2faces(inst.graph, faces[2])
    assert facets.sets == inst.facets
    assert calls["validate_k_system"] == 0
    assert calls[certificates]["induces_connected"] == 0
    tested = sum(len(faces[k].sets) for k in range(2, inst.graph.d - 1))
    assert calls[oracle]["induces_connected"] == tested


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_a_checked_instance_and_its_twin_are_one_key(family):
    inst = GENERATED[family]()
    twin = _twin(inst)
    assert twin == inst and hash(twin) == hash(inst)
    assert {inst: 1}[twin] == 1
    assert repr(twin) == repr(inst)


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_pickled_and_copied_instances_keep_equality_and_faces(family):
    inst = GENERATED[family]()
    faces = ks.faces_from_incidence.__wrapped__
    for other in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
        assert other == inst and hash(other) == hash(inst)
        for k in range(inst.graph.d):
            assert faces(other, k) == faces(inst, k)


def test_make_instance_coordinate_checks(cube3):
    facets = [list(f) for f in cube3.facets]
    with pytest.raises(InvalidParams):
        ks.make_instance("flat", cube3.graph, facets, [tuple()] * 8)
    with pytest.raises(InvalidParams):
        ks.make_instance("short", cube3.graph, facets, [(Fraction(1),)] * 7)


def test_geometric_aof_cube(cube3):
    o = ks.geometric_aof(cube3, [Fraction(1), Fraction(2), Fraction(4)])
    g = cube3.graph
    h = ks.indegree_histogram(g, o)
    assert h.counts == (1, 3, 3, 1)
    assert ks.is_aof_oracle(cube3, o)
    # weights 1,2,4 order vertices by their id, so the sink is vertex 7
    assert ks.sinks_in_subset(g, o, frozenset(range(8))) == frozenset({7})


def test_geometric_aof_reversal_is_aof(cube3):
    o = ks.geometric_aof(cube3, [Fraction(1), Fraction(2), Fraction(4)])
    assert ks.is_aof_oracle(cube3, ks.reverse_orientation(o))


def test_geometric_aof_errors(cube3, fig1):
    with pytest.raises(DegenerateWeights):
        ks.geometric_aof(cube3, [Fraction(0), Fraction(1), Fraction(2)])
    with pytest.raises(InvalidParams):
        ks.geometric_aof(cube3, [Fraction(1)])
    with pytest.raises(NoCoordinates):
        ks.geometric_aof(fig1, [Fraction(1), Fraction(2), Fraction(4)])


def test_is_aof_oracle_rejects_non_aof(prism):
    bad = next(
        o
        for o in ks.enumerate_acyclic_orientations(prism.graph)
        if not ks.is_aof_oracle(prism, o)
    )
    assert ks.is_acyclic(prism.graph, bad)
    # a failure is always visible on some proper face or as a second sink
    g = prism.graph
    full = frozenset(range(g.n))
    faces = [frozenset(s) for s in ks.faces_from_incidence(prism, 2).sets]
    assert (
        len(ks.sinks_in_subset(g, bad, full)) != 1
        or any(len(ks.sinks_in_subset(g, bad, f)) != 1 for f in faces)
    )


@pytest.mark.parametrize("recipe", ["cube4", "tet_x_segment"])
def test_is_aof_oracle_fetches_only_the_faces_it_tests(monkeypatch, recipe):
    # a vertex, and an edge under an acyclic orientation, has one sink, so
    # F_0 and F_1 are never fetched; F_2..F_{d-1} at most once each, and no
    # face at all when the whole polytope has two sinks
    inst = ks.cube(4) if recipe == "cube4" else ks.product(ks.simplex(3), ks.cube(1))
    g = inst.graph
    fetched = []
    faces = oracle.faces_from_incidence

    def counted(inst, k):
        fetched.append(k)
        return faces(inst, k)

    monkeypatch.setattr(oracle, "faces_from_incidence", counted)
    assert ks.is_aof_oracle(inst, ks.geometric_aof(inst, [1, 2, 4, 8]))
    assert fetched == list(range(2, g.d))

    def toward_later(order):
        pos = {v: i for i, v in enumerate(order)}
        return ks.make_orientation(g, [int(pos[v] > pos[u]) for u, v in g.edges])

    # an order ending in two non-adjacent vertices makes both sinks of the
    # whole polytope
    last = next(v for v in range(1, g.n) if v not in g.adjacency[0])
    fetched.clear()
    assert not ks.is_aof_oracle(
        inst, toward_later([v for v in range(g.n) if v not in (0, last)] + [0, last])
    )
    assert fetched == []

    rng = random.Random(g.n)
    for _ in range(40):
        o = toward_later(rng.sample(range(g.n), g.n))
        fetched.clear()
        assert ks.is_aof_oracle(inst, o) == reference_search.is_aof_oracle(inst, o)
        assert min(fetched, default=2) >= 2 and len(set(fetched)) == len(fetched)


def test_is_aof_oracle_rejects_cyclic():
    inst = ks.simplex(2)
    o = ks.make_orientation(inst.graph, [1, 0, 1])  # 0->1->2->0
    assert not ks.is_aof_oracle(inst, o)
