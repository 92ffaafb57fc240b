import copy
import dataclasses
import pickle
import re
from collections import Counter
from enum import IntEnum
from itertools import combinations

import pytest

import ksystems as ks
from ksystems import certificates, systems
from ksystems.errors import (
    DuplicateSet,
    FingerprintMismatch,
    InvalidParams,
    KOutOfRange,
    KSystemsError,
    NotRegular,
    NotSimple,
)
from ksystems.graphs import vertex_mask
from ksystems.systems import _MASKS, _proved

from test_search import _counting


@pytest.mark.parametrize(
    "maker,d,k",
    [
        (lambda: ks.cube(3), 3, 2),
        (lambda: ks.cube(4), 4, 2),
        (lambda: ks.cube(4), 4, 3),
        (lambda: ks.simplex(4), 4, 2),
        (lambda: ks.simplex(4), 4, 3),
    ],
)
def test_frame_count(maker, d, k):
    inst = maker()
    g = inst.graph
    frames = list(ks.enumerate_k_frames(g, k))
    assert len(frames) == ks.frame_count(g, k)
    assert len(frames) == len(set(frames))


def test_frames_by_hand_on_triangle_prism(prism):
    g = prism.graph
    frames = list(ks.enumerate_k_frames(g, 2))
    # every vertex has degree 3, so it roots C(3,2) = 3 frames
    assert len(frames) == 6 * 3
    roots = [f.root for f in frames]
    assert all(roots.count(v) == 3 for v in range(6))
    for f in frames:
        assert f.leaves == tuple(sorted(f.leaves))
        for leaf in f.leaves:
            assert leaf in g.adjacency[f.root]


def test_frame_key_format():
    f = ks.KFrame(root=4, leaves=(1, 7))
    assert f.key() == "(4|1,7)"


def test_frame_is_its_root_leaves_tuple():
    f = ks.KFrame(root=4, leaves=(1, 7))
    assert f == (4, (1, 7))
    assert hash(f) == hash((4, (1, 7)))
    frames = [ks.KFrame(4, (2, 3)), ks.KFrame(3, (5, 6)), f, ks.KFrame(4, (1, 2))]
    assert sorted(frames) == [(3, (5, 6)), (4, (1, 2)), (4, (1, 7)), (4, (2, 3))]


def test_check_k_range(cube3):
    ks.check_k_range(cube3.graph, 2)
    for bad in (1, 3):
        with pytest.raises(KOutOfRange, match=rf"^k must satisfy 2 <= k <= d-1 = 2, got {bad}$"):
            ks.check_k_range(cube3.graph, bad)
    # faces and the k-sink search take k from 0
    ks.check_k_range(cube3.graph, 0, least=0)
    for bad in (-1, 3, 1.0):
        with pytest.raises(KOutOfRange, match=rf"^k must satisfy 0 <= k <= d-1 = 2, got {bad}$"):
            ks.check_k_range(cube3.graph, bad, least=0)


def test_make_set_system_canonicalizes(cube3):
    g = cube3.graph
    s = ks.make_set_system(g, 2, [[3, 1, 0, 2], [4, 5, 7, 6]])
    assert s.sets == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert s.k == 2
    assert s.graph_fingerprint == g.fingerprint


def test_make_set_system_rejections(cube3):
    g = cube3.graph
    with pytest.raises(DuplicateSet):
        ks.make_set_system(g, 2, [[0, 1, 3, 2], [0, 1, 2, 3]])
    with pytest.raises(InvalidParams):
        ks.make_set_system(g, 2, [[0, 1]])  # needs >= k+1 vertices
    with pytest.raises(InvalidParams):
        ks.make_set_system(g, 2, [[0, 1, 99]])


CUBE3 = ks.cube(3)
VERTEX = IntEnum("VERTEX", [(f"v{i}", i) for i in range(8)])


def _range_or_list(t):
    """``t`` as a range when its ids are consecutive, else as a list."""
    run = range(min(t), max(t) + 1)
    return run if sorted(t) == list(run) else list(t)


#: Ways to write a member: as the bulk pass takes it (lists, tuples), or as
#: only the walk takes it (sets, ranges among lists, IntEnum ids).
FORMS = {
    "lists": list,
    "tuples": tuple,
    "sets": set,
    "ranges": _range_or_list,
    "int_enum": lambda t: [VERTEX(v) for v in t],
}
#: The two constructors that take a family from outside.
BUILDS = {
    "make_set_system": lambda family: ks.make_set_system(CUBE3.graph, 2, family),
    "make_instance": lambda family: ks.make_instance(
        "cube(3)", CUBE3.graph, family, CUBE3.coords
    ),
}


def _outcome(build, family):
    try:
        return "ok", BUILDS[build](family)
    except KSystemsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_every_form_of_a_family_builds_the_same(build, form):
    # the facets of cube(3), which are also its 2-faces, written in reverse
    family = [FORMS[form](t[::-1]) for t in CUBE3.facets[::-1]]
    want = CUBE3 if build == "make_instance" else ks.faces_from_incidence(CUBE3, 2)
    assert _outcome(build, family) == ("ok", want)


#: One fault each, in the facets of cube(3) written as lists.
FAULTS = {
    "too_small": lambda fam: [fam[0][:2], *fam[1:]],
    "listed_twice": lambda fam: [*fam, fam[0]],
    "repeats_a_vertex": lambda fam: [[fam[0][0], *fam[0]], *fam[1:]],
}
NAMED = {
    ("make_set_system", "too_small"): (
        InvalidParams, "set (0, 1) has 2 vertices; a 2-regular subgraph needs >= 3"
    ),
    ("make_set_system", "listed_twice"): (DuplicateSet, "set (0, 1, 2, 3) listed twice"),
    ("make_set_system", "repeats_a_vertex"): (
        InvalidParams, "set (0, 0, 1, 2, 3) repeats a vertex"
    ),
    ("make_instance", "too_small"): (NotSimple, "vertex 2 lies on 2 facets, expected 3"),
    ("make_instance", "listed_twice"): (NotSimple, "facet (0, 1, 2, 3) listed twice"),
    ("make_instance", "repeats_a_vertex"): (
        InvalidParams, "facet (0, 0, 1, 2, 3) repeats a vertex"
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_the_bulk_pass_and_the_walk_name_the_same_fault(build, fault):
    lists = FAULTS[fault]([list(t) for t in CUBE3.facets])
    # a set cannot repeat a vertex, so that member stays a list; one set in
    # the family is enough for the bulk pass to leave it to the walk
    walked = [t if len(set(t)) < len(t) else set(t) for t in lists]
    assert _outcome(build, lists) == _outcome(build, walked) == NAMED[build, fault]


def test_is_k_regular_set(cube3):
    g = cube3.graph
    assert ks.is_k_regular_set(g, {0, 1, 2, 3}, 2)
    assert not ks.is_k_regular_set(g, {0, 1, 2, 4}, 2)  # star around 0
    assert ks.is_k_regular_set(g, set(range(8)), 3)


def test_is_k_regular_set_refuses_a_k_that_is_not_a_non_negative_integer(cube3):
    # "k", -1 and 1.5 used to answer False, and True answered as k = 1; k is
    # checked before the family, as make_set_system checks it, in its words
    g = cube3.graph
    for k in ("k", -1, 1.5, True, None):
        refusal = f"^k must be an integer >= 0, got {re.escape(repr(k))}$"
        with pytest.raises(InvalidParams, match=refusal):
            ks.is_k_regular_set(g, {0, 1, 2, 3}, k)
        with pytest.raises(InvalidParams, match=refusal):
            ks.make_set_system(g, k, [[0, 1, 2, 3]])
        with pytest.raises(InvalidParams, match="^k must be"):
            ks.is_k_regular_set(g, [99], k)
    assert ks.is_k_regular_set(g, {0, 1, 2, 3}, 2)
    assert not ks.is_k_regular_set(g, {0, 1, 2, 3}, 1)
    assert not ks.is_k_regular_set(g, {0, 1}, 0)


def test_face_family_is_k_system(cube3, cube4, simplex4, prism, fig1):
    for inst in (cube3, cube4, simplex4, prism, fig1):
        g = inst.graph
        for k in range(2, g.d):
            fk = ks.faces_from_incidence(inst, k)
            report = ks.validate_k_system(g, fk)
            assert report.valid, report.format()
            assert sum(len(s) for s in fk.sets) == ks.frame_count(g, k)


def _covering_members_bruteforce(g, sets, frame):
    """How many members contain the frame, by direct subset checks."""
    node_set = {frame.root, *frame.leaves}
    return sum(1 for s in sets if node_set <= set(s))


def test_frame_coverage_matches_bruteforce(cube3):
    g = cube3.graph
    hexes = sorted(s for s in ks.connected_k_regular_sets(g, 2) if len(s) == 6)
    quads = ks.faces_from_incidence(cube3, 2).sets
    # a deliberately wrong family: all six quads plus one hexagon
    s = ks.make_set_system(g, 2, [list(t) for t in quads] + [list(hexes[0])])
    coverage = ks.frame_coverage(g, s)
    assert len(coverage) == ks.frame_count(g, 2)
    for frame, count in coverage.items():
        assert count == _covering_members_bruteforce(g, s.sets, frame)
    assert sorted(coverage.values()).count(2) == 6  # hexagon double-covers 6 frames


def test_frame_coverage_rejects_irregular_member(cube3):
    g = cube3.graph
    s = ks.make_set_system(g, 2, [[0, 1, 2, 4]])
    with pytest.raises(NotRegular):
        ks.frame_coverage(g, s)


def test_validate_reports_missing_frames(cube3):
    g = cube3.graph
    quads = list(ks.faces_from_incidence(cube3, 2).sets)
    report = ks.validate_k_system(g, ks.make_set_system(g, 2, quads[:-1]))
    assert not report.valid
    lines = report.defect_lines()
    assert lines and all("covered 0 times" in line for line in lines)


def test_validate_reports_irregular_member(cube3):
    g = cube3.graph
    s = ks.make_set_system(g, 2, [[0, 1, 2, 4], [4, 5, 6, 7]])
    report = ks.validate_k_system(g, s)
    assert not report.valid
    assert any("not 2-regular" in line for line in report.defect_lines())
    assert report.format().startswith("INVALID")


def test_validate_reports_double_coverage(cube3):
    g = cube3.graph
    quads = list(ks.faces_from_incidence(cube3, 2).sets)
    hexagon = next(
        s for s in ks.connected_k_regular_sets(g, 2) if len(s) == 6
    )
    swapped = [list(t) for t in quads[1:]] + [list(hexagon)]
    report = ks.validate_k_system(g, ks.make_set_system(g, 2, swapped))
    assert not report.valid
    counts = sorted(report.coverage.values())
    assert counts[0] == 0 or counts[-1] >= 2


@pytest.mark.parametrize("k", [2, 3])
def test_a_valid_report_covers_every_frame_once(cube4, k):
    g = cube4.graph
    report = ks.validate_k_system(g, ks.faces_from_incidence(cube4, k))
    assert report.valid
    want = dict.fromkeys(ks.enumerate_k_frames(g, k), 1)
    assert list(report.coverage.items()) == list(want.items())


def test_validate_valid_report_is_quiet(cube3):
    g = cube3.graph
    report = ks.validate_k_system(g, ks.faces_from_incidence(cube3, 2))
    assert report.valid
    assert report.defect_lines() == []
    assert report.format() == "VALID 2-system (6 sets)"


def test_check_system_bound(cube3, simplex3):
    s = ks.faces_from_incidence(simplex3, 2)
    with pytest.raises(FingerprintMismatch):
        ks.check_system_bound(cube3.graph, s)


def test_all_two_element_subsets_of_adjacency_are_frames(cube4):
    g = cube4.graph
    seen = {(f.root, f.leaves) for f in ks.enumerate_k_frames(g, 2)}
    for v in range(g.n):
        for pair in combinations(g.adjacency[v], 2):
            assert (v, pair) in seen


def _recorded(inst):
    """F_2 of ``inst`` as faces_from_incidence returns it, with its record."""
    f2 = ks.faces_from_incidence.__wrapped__(inst, 2)
    assert _proved(f2)
    return f2


def _masks(s):
    """The member masks a family keeps, or None."""
    return vars(s).get(_MASKS)


def test_checked_families_keep_their_member_masks(cube4):
    g = cube4.graph
    kept = [
        _recorded(cube4),
        ks.faces_from_incidence.__wrapped__(ks.cube(5), 3),
        ks.make_set_system(g, 2, _recorded(cube4).sets),
        ks.make_set_system(g, 2, [list(reversed(t)) for t in reversed(cube4.facets)]),
        ks.make_set_system(g, 2, [{*t} for t in cube4.facets]),  # the walk
        ks.make_set_system(g, 3, []),
    ]
    for s in kept:
        assert _masks(s) == [*map(vertex_mask, s.sets)]


def test_the_record_is_no_field_and_cannot_be_passed_in(cube4):
    g = cube4.graph
    f2 = _recorded(cube4)
    assert [f.name for f in dataclasses.fields(ks.SetSystem)] == [
        "k",
        "sets",
        "graph_fingerprint",
    ]
    fields = (f2.k, f2.sets, f2.graph_fingerprint)
    with pytest.raises(TypeError):
        ks.SetSystem(*fields, g)
    with pytest.raises(TypeError):
        ks.SetSystem(*fields, _proved=True)
    with pytest.raises(TypeError):
        dataclasses.replace(f2, _proved=True)
    masks = [*map(vertex_mask, f2.sets)]
    with pytest.raises(TypeError):
        ks.SetSystem(*fields, _member_masks=masks)
    with pytest.raises(TypeError):
        dataclasses.replace(f2, _member_masks=masks)
    built = [
        ks.SetSystem(*fields),
        ks.make_set_system(g, 2, f2.sets),
        dataclasses.replace(f2),
        dataclasses.replace(f2, sets=f2.sets),
    ]
    assert not any(map(_proved, built))
    assert [_masks(s) is None for s in built] == [True, False, True, True]


def test_equality_hash_and_repr_ignore_the_record_and_copy_keeps_it(cube4):
    g = cube4.graph
    f2 = _recorded(cube4)
    bare = dataclasses.replace(f2)
    assert bare == f2 and hash(bare) == hash(f2) and repr(bare) == repr(f2)
    assert {bare: 1}[f2] == 1
    kept = copy.copy(f2)
    assert kept == f2 and kept is not f2 and _proved(kept)
    assert not _proved(copy.copy(bare))
    assert _masks(kept) == _masks(f2) is not None and _masks(copy.copy(bare)) is None
    made = ks.make_set_system(g, 2, f2.sets)
    assert made == f2 and repr(made) == repr(f2) and _masks(copy.copy(made)) is not None


def test_a_pickled_family_stays_recorded(monkeypatch, cube4):
    # pickle and copy carry both records; the flag trusts the fingerprint,
    # so a family copied alone, or with a copy of its graph, is trusted on
    # every graph bound to it and validated on none
    g = cube4.graph
    f2 = _recorded(cube4)
    calls = Counter()
    _counting(monkeypatch, certificates, "validate_k_system", calls)
    copies = [pickle.loads(pickle.dumps(f2)), copy.deepcopy(f2)]
    for graph, family in pickle.loads(pickle.dumps((g, f2))), copy.deepcopy((g, f2)):
        assert graph == g and graph is not g
        copies.append(family)
        assert ks.facets_from_2faces(graph, family).sets == cube4.facets
    for family in [f2, *copies]:
        assert family == f2 and _proved(family)
        assert _masks(family) == _masks(f2) is not None
        assert ks.facets_from_2faces(g, family).sets == cube4.facets
    assert calls["validate_k_system"] == 0
    made = ks.make_set_system(g, 2, f2.sets)
    for family in pickle.loads(pickle.dumps(made)), copy.deepcopy(made):
        assert family == made and _masks(family) == _masks(made) is not None
        assert not _proved(family)


def test_a_recorded_f2_pickled_alone_carries_no_graph(monkeypatch):
    # the flag is a bool: cube7's F_2 pickles to its sets, its masks and
    # the flag, and is trusted on the graph when it comes back
    inst = ks.cube(7)
    g = inst.graph
    f2 = ks.faces_from_incidence.__wrapped__(inst, 2)
    blob = pickle.dumps(f2)
    assert b"PolytopeGraph" not in blob and len(blob) <= 16179
    family = pickle.loads(blob)
    assert family == f2 and _proved(family)
    calls = Counter()
    for name in ("validate_k_system", "induces_connected", "_member_masks"):
        _counting(monkeypatch, certificates, name, calls)
    _counting(monkeypatch, systems, "member_ids", calls)
    assert ks.facets_from_2faces(g, family).sets == inst.facets
    assert calls == {"_member_masks": 1}


@pytest.mark.parametrize("bad", [-1, 16, 10**12, True, 1.0])
def test_families_built_directly_are_checked_before_any_mask(cube4, bad):
    # a mask of -1 would raise ValueError, of 10**12 MemoryError: the ids
    # of a family with no masks kept are checked first
    g = cube4.graph
    f2 = _recorded(cube4)
    sets = (*f2.sets[:-1], (*f2.sets[-1][:-1], bad))
    s = ks.SetSystem(k=2, sets=sets, graph_fingerprint=g.fingerprint)
    o = ks.geometric_aof(cube4, [1, 2, 4, 8])
    calls = [
        lambda: ks.validate_k_system(g, s),
        lambda: ks.unique_sink_per_set(g, o, s),
        lambda: ks.facets_from_2faces(g, s),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match=f"^vertex id {re.escape(repr(bad))} outside 0..15$"):
            call()
