"""The face code agrees with the code kept in ``reference_faces``, which
did the same work many times over: the same k-faces or the same refusal
from ``faces_from_incidence``, the same facets or the same refusal (error
type and message) from ``facets_from_2faces``, and the same instance or
the same refusal from ``make_instance``, which is the constructor of
``Instance``, however it is reached.  ``facets_from_2faces`` also gives the
same facets from an F_2 that ``faces_from_incidence`` recorded as proved,
without checking it, on its graph or an equal one parsed again, as from
the same family without the record, checked in full."""

import json
import random
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import combinations, islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import certificates, fileio, systems
from ksystems.errors import (
    InconsistentTransport,
    InvalidParams,
    KSystemsError,
    NotCycleSystem,
    NotSimple,
)
from ksystems.oracle import Instance
from ksystems.search import connected_k_regular_sets
from ksystems.systems import _proved

import reference_faces as ref
import reference_gate
from conftest import cycle_graph
from test_frames_differential import mutated_2face_families
from test_search import _counting

TRIANGLE = ks.simplex(2)


def _cut(inst, times):
    for _ in range(times):
        inst = ks.truncate_vertex(inst, 0)
    return inst


INSTANCES = {
    "cube3": ks.cube(3),
    "cube4": ks.cube(4),
    "cube5": ks.cube(5),
    "prism": ks.product(ks.cube(1), TRIANGLE),
    "fig1": ks.fig1(),
    "triangle_x_square": ks.product(TRIANGLE, ks.cube(2)),
    "triangle_cubed": ks.product(ks.product(TRIANGLE, TRIANGLE), TRIANGLE),
    "tet_x_tet": ks.product(ks.simplex(3), ks.simplex(3)),
    "cube3_cut2": _cut(ks.cube(3), 2),
    "cube3_cut5": _cut(ks.cube(3), 5),
}


def _relabelled(graph, family, perm):
    """``graph`` and ``family`` with vertex v renamed perm[v]."""
    g = ks.validate_graph(graph.d, graph.n, [(perm[u], perm[v]) for u, v in graph.edges])
    return g, [sorted(perm[v] for v in t) for t in family]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KSystemsError as exc:
        return type(exc), str(exc)


def _made(make, *args):
    """The instance ``make`` builds from ``args``, as the tuple of its four
    fields (a package Instance and a reference record alike), or the type
    and message of its refusal."""
    try:
        inst = make(*args)
    except KSystemsError as exc:
        return type(exc), str(exc)
    return inst.name, inst.graph, inst.facets, inst.coords


def _vertex_covers(g):
    """Every family of connected (d-1)-regular sets with each vertex on
    exactly d members: facet lists that pass every check of make_instance
    up to the pair check.  The polytope's own facets are one of them."""
    sets = connected_k_regular_sets(g, g.d - 1)
    covers = []

    def extend(start, chosen, on):
        if all(c == g.d for c in on):
            covers.append(chosen)
        for j in range(start, len(sets)):
            if all(on[v] < g.d for v in sets[j]):
                inside = set(sets[j])
                extend(j + 1, chosen + [sets[j]], [c + (v in inside) for v, c in enumerate(on)])

    extend(0, [], [0] * g.n)
    return covers


PAIR_CASES = ["cube3", "cube4", "prism", "fig1", "triangle_x_square", "cube3_cut2"]
FACET_LISTS = {name: _vertex_covers(INSTANCES[name].graph) for name in PAIR_CASES}


# -- faces_from_incidence -------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(INSTANCES)), st.data())
def test_faces_match_reference_on_relabelled_instances(name, data):
    inst = INSTANCES[name]
    perm = data.draw(st.permutations(range(inst.graph.n)))
    g, facets = _relabelled(inst.graph, inst.facets, perm)
    relabelled = ks.make_instance(name, g, facets)
    for k in range(g.d):
        got = ks.faces_from_incidence(relabelled, k)
        assert got == ref.faces_from_incidence(relabelled, k)
    _assert_faces_match_reference(relabelled)


def _assert_faces_match_reference(inst):
    """For every k, ``inst`` gives the same faces or refusal as the
    reference; the cache is bypassed."""
    for k in range(inst.graph.d):
        got = _outcome(ks.faces_from_incidence.__wrapped__, inst, k)
        assert got == _outcome(ref.faces_from_incidence, inst, k)


def _constructors(base):
    """Every way to build an instance on the graph of ``base``, given its
    name, graph, facets and coordinates: make_instance, Instance,
    dataclasses.replace on ``base`` (which keeps its name, graph and
    coordinates), and the reference."""
    return [
        ks.make_instance,
        Instance,
        lambda name, g, facets, coords: replace(base, facets=facets),
        ref.make_instance,
    ]


def _assert_constructors_agree(base, facets):
    """Every constructor of :func:`_constructors` builds the same instance
    from ``facets`` on the graph of ``base``, or refuses them with the same
    error type and message; an instance built gives the reference's faces.
    Returns whether the facets were accepted."""
    args = (base.name, base.graph, facets, base.coords)
    outcomes = [_made(make, *args) for make in _constructors(base)]
    assert outcomes == outcomes[:1] * len(outcomes)
    if len(outcomes[0]) == 4:  # the four fields of an instance built
        _assert_faces_match_reference(ks.make_instance(*args))
        return True
    return False


@pytest.mark.parametrize("name", PAIR_CASES)
def test_faces_and_refusals_match_reference_on_unchecked_facets(name):
    # facet lists no constructor has checked yet, which make_instance may
    # refuse, also with a facet listed twice, as given and sorted: every way
    # to build an instance accepts or refuses them alike
    base = INSTANCES[name]
    accepted = 0
    for facets in FACET_LISTS[name]:
        for listed in (facets, facets + facets[:1], sorted(facets)):
            accepted += _assert_constructors_agree(base, listed)
    assert accepted >= 2  # the polytope's own facets, as given and sorted


#: Facets that meet in a disconnected k-regular face for k = 0, 1 and 2:
#: two non-adjacent vertices, two disjoint edges and two disjoint squares,
#: each listed as the only facet, d times over
SPLIT_FACETS = [
    ("cube3", (0, 3)),
    ("cube3", (0, 1, 6, 7)),
    ("cube4", (0, 1, 2, 3, 12, 13, 14, 15)),
]


@pytest.mark.parametrize("name,facet", SPLIT_FACETS)
def test_disconnected_faces_are_refused_as_the_reference_refuses_them(name, facet):
    # no instance holds these facets: every constructor refuses the repeated
    # facet, as the reference does, and so does replace on a checked
    # instance, which keeps no proof of the facets it replaced
    base = INSTANCES[name]
    for facets in ([facet] * base.graph.d, [facet]):
        assert not _assert_constructors_agree(base, facets)
    with pytest.raises(NotSimple, match=re.escape(f"facet {facet} listed twice")):
        replace(base, facets=(facet,) * base.graph.d)


def _pseudomanifold_dual():
    """The dual of a 3-pseudomanifold whose edge xy has two disjoint link
    cycles, a0a1a2 and b0b1b2: its 42 tetrahedra are the vertices, two of
    them adjacent when they share a triangle, and the stars of its 12
    vertices are the facets (d = 4).  The 2-face of the edge xy is the
    six tetrahedra through it, two disjoint triangles of the graph."""
    x, y, z = 0, 1, 2
    a, b, c = (3, 4, 5), (6, 7, 8), (9, 10, 11)

    def strip(p, q):  # an annulus of six triangles from cycle p to cycle q
        return [
            t
            for i, j in ((0, 1), (1, 2), (2, 0))
            for t in ((p[i], p[j], q[i]), (p[j], q[i], q[j]))
        ]

    A, A2 = strip(a, b), strip(a, c) + strip(c, b)
    link_xy = [(u, v) for p in (a, b) for u, v in combinations(p, 2)]
    tets = sorted(
        tuple(sorted(t))
        for t in [(x, y, *e) for e in link_xy]
        + [(x, *t) for t in A]
        + [(y, *t) for t in A2]
        + [(z, *t) for t in A + A2]
    )
    edges = [
        (i, j)
        for (i, s), (j, t) in combinations(enumerate(tets), 2)
        if len({*s} & {*t}) == 3
    ]
    g = ks.validate_graph(4, len(tets), edges)
    return g, [[i for i, t in enumerate(tets) if w in t] for w in range(12)]


def test_a_checked_instance_can_have_a_disconnected_face():
    # the constructor's checks bound facets and pairs of facets only, so a
    # 2-face of a checked instance can fall apart; faces_from_incidence and
    # the k-sink search refuse it as the reference does
    g, facets = _pseudomanifold_dual()
    inst = ks.make_instance("pseudomanifold", g, facets)
    assert _made(ref.make_instance, "pseudomanifold", g, facets) == _made(
        ks.make_instance, "pseudomanifold", g, facets
    )
    assert [len(ks.faces_from_incidence(inst, k).sets) for k in (0, 1, 3)] == [42, 84, 12]
    _assert_faces_match_reference(inst)
    refusal = _outcome(ref.faces_from_incidence, inst, 2)
    assert refusal[0] is NotSimple and refusal[1].endswith("is disconnected")
    assert _outcome(ks.faces_from_incidence, inst, 2) == refusal
    assert _outcome(ks.search_k_sink_counterexample, inst, 2) == refusal


def test_the_references_do_not_build_the_package_instance(monkeypatch):
    # were the package's Instance built in a reference, its checks would
    # run there too and hide a divergence
    def refuse(self):
        raise AssertionError("the package's Instance was built")

    cube3 = INSTANCES["cube3"]
    monkeypatch.setattr(Instance, "__post_init__", refuse)
    for reference in (ref, reference_gate):
        got = reference.make_instance(cube3.name, cube3.graph, cube3.facets, cube3.coords)
        assert tuple(got) == (cube3.name, cube3.graph, cube3.facets, cube3.coords)


# -- facets_from_2faces ---------------------------------------------------------


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_2face_families())
def test_facets_from_2faces_matches_reference_on_mutated_families(case):
    g, s = case
    assert _outcome(ks.facets_from_2faces, g, s) == _outcome(ref.facets_from_2faces, g, s)


# Every generator instance of the corpora, for the record that
# faces_from_incidence leaves on the families it returns
def _prism(m):
    polygon = cycle_graph(m)
    return ks.product(ks.cube(1), ks.make_instance(f"polygon({m})", polygon, polygon.edges))


RECORDED = {
    **{f"simplex{d}": partial(ks.simplex, d) for d in (3, 4, 5)},
    **{f"cube{d}": partial(ks.cube, d) for d in (3, 4, 5, 6, 7)},
    **{f"prism{m}": partial(_prism, m) for m in (3, 5, 8)},
    "triangle_x_square": lambda: INSTANCES["triangle_x_square"],
    "triangle_cubed": lambda: INSTANCES["triangle_cubed"],
    "tet_x_tet": lambda: INSTANCES["tet_x_tet"],
    "tet_x_triangle": lambda: ks.product(ks.simplex(3), TRIANGLE),
    "cube3_cut2": lambda: INSTANCES["cube3_cut2"],
    "cube3_cut5": lambda: INSTANCES["cube3_cut5"],
    "cube4_cut1": lambda: _cut(ks.cube(4), 1),
    "fig1": ks.fig1,
}


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(RECORDED))
def test_facets_from_a_recorded_f2_match_the_full_checks(monkeypatch, name, seed):
    # the instance in its own labelling (seed None) and in three seeded
    # relabellings, parsed twice from one document: two equal graph objects
    base = RECORDED[name]()
    perm = list(range(base.graph.n))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    g, facets = _relabelled(base.graph, base.facets, perm)
    text = json.dumps(fileio.instance_doc(ks.make_instance(name, g, facets)))
    inst = fileio.parse_instance(json.loads(text))
    g, twin = inst.graph, fileio.parse_instance(json.loads(text)).graph
    f2 = ks.faces_from_incidence.__wrapped__(inst, 2)
    assert twin == g and twin is not g and _proved(f2)

    calls = Counter()
    _counting(monkeypatch, certificates, "validate_k_system", calls)
    _counting(monkeypatch, certificates, "induces_connected", calls)
    expected = ref.facets_from_2faces(g, f2)
    assert expected.sets == inst.facets
    runs = [(g, f2), (g, replace(f2)), (twin, f2)]
    checks = []
    for graph, family in runs:
        calls.clear()
        assert ks.facets_from_2faces(graph, family) == expected
        checks.append((calls["validate_k_system"], calls["induces_connected"]))
    # the record spares both checks on every graph with its fingerprint,
    # a second graph object too; an unrecorded copy runs them in full
    assert checks == [(0, 0), (1, len(f2.sets)), (0, 0)]


@pytest.mark.parametrize(
    "name", ["simplex3", "cube3", "prism3", "prism5", "prism8", "cube3_cut2", "cube3_cut5", "fig1"]
)
def test_an_unrecorded_f2_of_a_3_polytope_is_transported_to_its_members(monkeypatch, name):
    # at d = 3 only a recorded F_2 is its own output; the same family
    # rebuilt by replace or make_set_system is checked and transported,
    # which gives its members back (one postcondition test per facet)
    inst = RECORDED[name]()
    g = inst.graph
    f2 = ks.faces_from_incidence.__wrapped__(inst, 2)
    assert g.d == 3 and f2.sets == inst.facets
    calls = Counter()
    _counting(monkeypatch, certificates, "induced_flaw", calls)
    runs = {"recorded": f2, "replaced": replace(f2), "made": ks.make_set_system(g, 2, f2.sets)}
    for how, family in runs.items():
        calls.clear()
        facets = ks.facets_from_2faces(g, family)
        assert facets == ks.SetSystem(k=2, sets=f2.sets, graph_fingerprint=g.fingerprint)
        assert calls["induced_flaw"] == (0 if how == "recorded" else len(f2.sets)), how


@pytest.mark.parametrize("name", ["cube3", "cube5", "fig1", "tet_x_triangle", "cube3_cut5"])
def test_a_family_built_directly_has_its_ids_checked_and_masks_built_once(monkeypatch, name):
    # F_2 and F_2 less each member in turn, as SetSystems of list members
    # built directly: one id check and one mask per member a call, the
    # same facets or refusal as the reference, and nothing kept on the
    # caller's family, so a member changed later is checked again
    inst = RECORDED[name]()
    g = inst.graph
    sets = ks.faces_from_incidence.__wrapped__(inst, 2).sets
    families = [sets, *(sets[:i] + sets[i + 1 :] for i in range(len(sets)))]
    calls = Counter()
    _counting(monkeypatch, systems, "member_ids", calls)
    masked = []  # the arguments of vertex_mask: list members, tuple leaves
    real_mask = systems.vertex_mask
    monkeypatch.setattr(systems, "vertex_mask", lambda t: masked.append(t) or real_mask(t))
    refusals = set()
    for members in families:
        bare = ks.SetSystem(k=2, sets=[*map(list, members)], graph_fingerprint=g.fingerprint)
        calls.clear()
        masked.clear()
        got = _outcome(ks.facets_from_2faces, g, bare)
        assert calls["member_ids"] == 1
        assert [t for t in masked if type(t) is list] == bare.sets
        assert got == _outcome(ref.facets_from_2faces, g, bare)
        assert vars(bare).keys() == {"k", "sets", "graph_fingerprint"}
        if isinstance(got, tuple):
            refusals.add(got[0])
    assert ks.facets_from_2faces(g, ks.SetSystem(2, sets, g.fingerprint)).sets == inst.facets
    assert refusals == {NotCycleSystem}
    bare.sets[-1][-1] = 99
    with pytest.raises(InvalidParams, match=f"^vertex id 99 outside 0..{g.n - 1}$"):
        ks.facets_from_2faces(g, bare)


# 2-systems of cube4 that transport refuses: in most a seed contradicts
# itself, in some only after the closure from the first seed gave a
# consistent facet; in a few every closure is consistent and a facet found
# is not (d-1)-regular
CUBE4 = INSTANCES["cube4"].graph


def _contradicts(g, s):
    outcome = _outcome(ref.facets_from_2faces, g, s)
    return isinstance(outcome, tuple) and outcome[0] is InconsistentTransport


CONTRADICTIONS = [
    s.sets
    for s in islice(ks.enumerate_k_systems(CUBE4, 2, include_merged=False), 600)
    if _contradicts(CUBE4, s)
]


def _seed(message):
    """The seed (r, x) named in a transport contradiction, or None for a
    refusal of the facets found."""
    seeded = re.match(r"facet seeded at \((\d+), missing (\d+)\)", message)
    return seeded and (int(seeded[1]), int(seeded[2]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CONTRADICTIONS), st.permutations(range(CUBE4.n)))
def test_first_contradiction_matches_reference_on_relabelled_families(family, perm):
    g, sets = _relabelled(CUBE4, family, perm)
    s = ks.make_set_system(g, 2, sets)
    assert _outcome(ks.facets_from_2faces, g, s) == _outcome(ref.facets_from_2faces, g, s)


def test_contradictions_after_a_consistent_facet_match_reference():
    first = (0, CUBE4.adjacency[0][0])
    later = 0
    for family in CONTRADICTIONS:
        s = ks.make_set_system(CUBE4, 2, family)
        want = _outcome(ref.facets_from_2faces, CUBE4, s)
        assert _outcome(ks.facets_from_2faces, CUBE4, s) == want
        later += _seed(want[1]) not in (None, first)
    assert later >= 5


#: The 3-polytopes, where the package returns the 2-faces as the facets
#: without running the transport
THREE_POLYTOPES = {
    "simplex3": ks.simplex(3),
    **{name: INSTANCES[name] for name in ["cube3", "prism", "fig1", "cube3_cut2"]},
}


def _and_each_with_one_dropped(g, s):
    """``s``, then ``s`` less each of its members in turn."""
    yield s
    for i in range(len(s.sets)):
        yield ks.make_set_system(g, 2, s.sets[:i] + s.sets[i + 1 :])


@pytest.mark.parametrize("name", THREE_POLYTOPES)
def test_every_2_system_of_a_3_polytope_matches_reference(name):
    # every 2-system the search yields, merged ones too, and each of them
    # less one member: the same facets or the same refusal; a 2-system of
    # induced cycles, F_2 or not, is its own facet system
    inst = THREE_POLYTOPES[name]
    g = inst.graph
    accepted, refused = [], []
    for s in ks.enumerate_k_systems(g, 2):
        for family in _and_each_with_one_dropped(g, s):
            want = _outcome(ref.facets_from_2faces, g, family)
            assert _outcome(ks.facets_from_2faces, g, family) == want
            if isinstance(want, ks.SetSystem):
                assert want.sets == family.sets
                accepted.append(want.sets)
            else:
                refused.append(want[1])
    assert inst.facets in accepted
    assert any(reason.startswith("not a valid 2-system") for reason in refused)


#: Polytopes of d >= 4 with triangular 2-faces: the frames (u | v, w),
#: (v | u, w) and (w | u, v) of a triangle share one closed mask, and two
#: frames of different triangles share a leaf mask
TRIANGLE_CORNERS = {
    "simplex4": ks.simplex(4),
    "simplex5": ks.simplex(5),
    "tet_x_triangle": ks.product(ks.simplex(3), TRIANGLE),
    "triangle_cubed": INSTANCES["triangle_cubed"],
}


@pytest.mark.parametrize("name", TRIANGLE_CORNERS)
def test_triangle_corners_match_reference_after_relabelling(name):
    inst = TRIANGLE_CORNERS[name]
    rng = random.Random(name)
    perm = list(range(inst.graph.n))
    for _ in range(4):
        g, facets = _relabelled(inst.graph, inst.facets, perm)
        relabelled = ks.make_instance(name, g, facets)
        f2 = ks.faces_from_incidence(relabelled, 2)
        got = ks.facets_from_2faces(g, f2)
        assert got == ref.facets_from_2faces(g, f2)
        assert got.sets == relabelled.facets
        for family in islice(_and_each_with_one_dropped(g, f2), 1, 6):
            want = _outcome(ref.facets_from_2faces, g, family)
            assert _outcome(ks.facets_from_2faces, g, family) == want
        rng.shuffle(perm)


# -- make_instance --------------------------------------------------------------


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PAIR_CASES), st.data())
def test_make_instance_matches_reference_on_relabelled_facet_systems(name, data):
    g0 = INSTANCES[name].graph
    family = data.draw(st.sampled_from(FACET_LISTS[name]))
    g, facets = _relabelled(g0, family, data.draw(st.permutations(range(g0.n))))
    got = _made(ks.make_instance, name, g, facets)
    assert got == _made(ref.make_instance, name, g, facets)
    if len(got) == 4:  # the four fields of an instance built
        _assert_faces_match_reference(ks.make_instance(name, g, facets))


@st.composite
def mutated_facet_lists(draw):
    """A generator instance's facets after a few vertex moves, swaps,
    drops and additions, and facet drops and copies."""
    name = draw(st.sampled_from(sorted(INSTANCES)))
    g = INSTANCES[name].graph
    facets = [list(t) for t in INSTANCES[name].facets]
    vertices = st.integers(0, g.n - 1)
    ops = ["move", "swap", "drop_vertex", "add_vertex", "drop_facet", "copy_facet"]
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        a, b = (draw(st.integers(0, len(facets) - 1)) for _ in range(2))
        if op in ("move", "swap", "drop_vertex") and facets[a]:
            v = facets[a].pop(draw(st.integers(0, len(facets[a]) - 1)))
            if op == "move" and v not in facets[b]:
                facets[b].append(v)
            if op == "swap" and facets[b]:
                u = facets[b].pop(draw(st.integers(0, len(facets[b]) - 1)))
                facets[a].append(u)
                facets[b].append(v)
        if op == "add_vertex" and (v := draw(vertices)) not in facets[a]:
            facets[a].append(v)
        if op == "drop_facet" and len(facets) > 1:
            facets.pop(a)
        if op == "copy_facet":
            facets.append(list(facets[a]))
    return name, g, facets


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_facet_lists())
def test_make_instance_matches_reference_on_mutated_facets(case):
    name, g, facets = case
    got = _made(ks.make_instance, name, g, facets)
    assert got == _made(ref.make_instance, name, g, facets)
    if len(got) == 4:  # the four fields of an instance built
        _assert_faces_match_reference(ks.make_instance(name, g, facets))


# fig1's graph with 7 connected 2-regular facets, every vertex on 3 of
# them, that fail the pair check both ways: non-adjacent (0,1), (0,2), ...
# share 2 facets, and edges (2,3) and (4,5) share 3, (2,4) and (3,5) one
BOTH_WAYS = [
    (0, 1, 2, 3, 7, 8, 9, 10),
    (0, 1, 4, 5, 6, 7, 9, 11),
    (0, 2, 3, 6, 8),
    (1, 4, 5, 10, 11),
    (2, 3, 4, 5),
    (6, 7, 8),
    (9, 10, 11),
]


@pytest.mark.parametrize(
    "first,message",
    [
        ((), "non-adjacent pair (0,1) shares 2 facets"),
        # relabel so the edge (2,3) becomes (0,1), the smallest bad pair
        ((2, 3), "edge (0,1) shares 3 facets, expected 2"),
    ],
)
def test_make_instance_reports_the_smallest_bad_pair(first, message):
    fig1 = INSTANCES["fig1"].graph
    order = list(first) + [v for v in range(fig1.n) if v not in first]
    g, facets = _relabelled(fig1, BOTH_WAYS, [order.index(v) for v in range(fig1.n)])
    with pytest.raises(NotSimple) as raised:
        ks.make_instance("both", g, facets)
    assert str(raised.value) == message
    with pytest.raises(NotSimple) as expected:
        reference_gate.make_instance("both", g, facets)
    assert str(expected.value) == message
