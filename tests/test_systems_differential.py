"""The k-system validator agrees with the reference two-pass validator on
mutated face families: the same verdict, regularity flags, coverage and
defect lines, and the same refusal from ``frame_coverage``; the first
defect is the first line.  The frame keys of the exact cover are
positions in frame order."""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems.errors import NotRegular
from ksystems.search import _frame_keys

import reference_systems as ref

TRIANGLE = ks.simplex(2)
INSTANCES = {
    "cube3": ks.cube(3),
    "cube4": ks.cube(4),
    "prism": ks.product(ks.cube(1), TRIANGLE),
    "simplex4": ks.simplex(4),
    "fig1": ks.fig1(),
    "truncated_cube4": ks.truncate_vertex(ks.cube(4), 0),
    "triangle_cubed": ks.product(ks.product(TRIANGLE, TRIANGLE), TRIANGLE),
}
CASES = [
    ("cube3", 2),
    ("cube4", 2),
    ("cube4", 3),
    ("prism", 2),
    ("simplex4", 2),
    ("simplex4", 3),
    ("fig1", 2),
    ("truncated_cube4", 2),
    ("truncated_cube4", 3),
    ("triangle_cubed", 2),
]
REGULAR = {
    (name, k): ks.connected_k_regular_sets(INSTANCES[name].graph, k)
    for name, k in CASES
}


@st.composite
def mutated_families(draw):
    """F_k of an instance after a few drops, additions, swaps and
    additions of arbitrary (mostly irregular) vertex sets.  A swap for a
    candidate of the same size keeps the sum of member sizes at the
    number of frames, so only repeated frame keys can refute it.  The
    last kind adds an arbitrary set and a candidate not yet in the
    family together, so that an irregular member and repeated frames
    meet in one family."""
    name, k = draw(st.sampled_from(CASES))
    inst = INSTANCES[name]
    g = inst.graph
    family = list(ks.faces_from_incidence(inst, k).sets)
    ops = ["drop", "add", "swap", "same_size", "irregular", "irregular_and_repeated"]
    for op in draw(st.lists(st.sampled_from(ops), max_size=4)):
        if op in ("drop", "swap") and family:
            family.pop(draw(st.integers(0, len(family) - 1)))
        if op in ("add", "swap"):
            family.append(draw(st.sampled_from(REGULAR[(name, k)])))
        if op == "same_size" and family:
            size = len(family.pop(draw(st.integers(0, len(family) - 1))))
            alike = [t for t in REGULAR[(name, k)] if len(t) == size]
            if alike:  # none for an irregular member of a size no candidate has
                family.append(draw(st.sampled_from(alike)))
        if op in ("irregular", "irregular_and_repeated"):
            vertices = st.integers(0, g.n - 1)
            family.append(tuple(sorted(draw(st.sets(vertices, min_size=k + 1)))))
        if op == "irregular_and_repeated":
            # on F_k, every candidate that is not a face repeats a frame
            new = [t for t in REGULAR[(name, k)] if t not in family]
            family.append(draw(st.sampled_from(new or REGULAR[(name, k)])))
    return g, ks.make_set_system(g, k, dict.fromkeys(family))


def _coverage_or_refusal(frame_coverage, g, s):
    try:
        return frame_coverage(g, s)
    except NotRegular as exc:
        return str(exc)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_families())
def test_validator_matches_reference(case):
    g, s = case
    got = ks.validate_k_system(g, s)
    want = ref.validate_k_system(g, s)
    assert got.valid == want.valid
    assert got.set_is_regular == want.set_is_regular
    assert got.defect_lines() == want.defect_lines()  # before coverage is read
    assert got.first_defect() == (got.defect_lines() or [None])[0]
    assert list(got.coverage.items()) == list(want.coverage.items())
    assert got.defect_lines() == want.defect_lines()
    assert _coverage_or_refusal(ks.frame_coverage, g, s) == _coverage_or_refusal(
        ref.frame_coverage, g, s
    )


@pytest.mark.parametrize("name,k", CASES)
def test_face_families_match_reference(name, k):
    inst = INSTANCES[name]
    s = ks.faces_from_incidence(inst, k)
    got = ks.validate_k_system(inst.graph, s)
    want = ref.validate_k_system(inst.graph, s)
    assert got.valid and want.valid
    assert got.coverage == want.coverage == ks.frame_coverage(inst.graph, s)


def _report(g, s):
    r = ks.validate_k_system(g, s)
    return r.valid, r.set_is_regular, r.defect_lines(), list(r.coverage.items())


def _direct(s):
    """``s`` built directly: the same members, no masks kept."""
    return ks.SetSystem(k=s.k, sets=s.sets, graph_fingerprint=s.graph_fingerprint)


@pytest.mark.parametrize("variant", ["genuine", "dropped", "added", "irregular"])
@pytest.mark.parametrize("name,k", CASES)
def test_kept_masks_give_the_report_of_a_family_built_directly(name, k, variant):
    # the mutation kinds of the certify workload, on families that kept
    # their member masks (make_set_system, faces_from_incidence)
    inst = INSTANCES[name]
    g = inst.graph
    faces = ks.faces_from_incidence(inst, k)
    family = list(faces.sets)
    if variant == "dropped":
        family.pop(len(family) // 2)
    if variant == "added":  # the union of two members
        family.append(tuple(sorted({*family[0], *family[-1]})))
    if variant == "irregular":  # a member and one outside neighbour
        t = family.pop()
        family.append((*t, min(x for v in t for x in g.adjacency[v] if x not in t)))
    kept = [ks.make_set_system(g, k, family)]
    if variant == "genuine" and 2 <= k <= g.d - 2:
        kept.append(faces)
    for s in kept:
        assert vars(s).get("_member_masks") is not None
        assert _report(g, s) == _report(g, _direct(s))
        assert (variant == "genuine") == _report(g, s)[0]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_families())
def test_kept_masks_give_the_report_of_a_family_built_directly_when_mutated(case):
    g, s = case
    assert _report(g, s) == _report(g, _direct(s))


def test_equal_total_family_with_repeated_frames_is_invalid(cube3):
    # every member 2-regular and 4 + 6 + 6 + 4 + 4 = 24 = 8 * binom(3, 2),
    # the number of frames, yet frames repeat (and others go uncovered)
    g = cube3.graph
    family = [(0, 1, 2, 3), (0, 1, 2, 5, 6, 7), (0, 1, 3, 4, 6, 7), (0, 1, 4, 5), (0, 2, 4, 6)]
    s = ks.make_set_system(g, 2, family)
    assert sum(map(len, s.sets)) == ks.frame_count(g, 2)
    got = ks.validate_k_system(g, s)
    want = ref.validate_k_system(g, s)
    assert not got.valid and not want.valid
    assert got.set_is_regular == want.set_is_regular == (True,) * 5
    assert list(got.coverage.items()) == list(want.coverage.items())
    assert got.defect_lines() == want.defect_lines() != []


@pytest.mark.parametrize("name,k", CASES)
def test_frame_keys_are_positions_in_frame_order(name, k):
    g = INSTANCES[name].graph
    table = _frame_keys(g, k)
    keys = [
        table[f.root][sum(1 << x for x in f.leaves)] for f in ks.enumerate_k_frames(g, k)
    ]
    assert keys == list(range(ks.frame_count(g, k)))
    assert sum(map(len, table)) == len(keys)


def test_one_member_verdict_and_defects_skip_the_key_table():
    # one member of simplex(16), k = 8: 9 frames of the 17 * binom(16, 8)
    # = 218 790
    g = ks.simplex(16).graph
    s = ks.SetSystem(k=8, sets=(tuple(range(9)),), graph_fingerprint=g.fingerprint)
    covered = {ks.KFrame(v, tuple(x for x in range(9) if x != v)) for v in range(9)}
    want = [
        f"frame {ks.KFrame(root, leaves).key()} covered 0 times"
        for root in range(g.n)
        for leaves in combinations(g.adjacency[root], 8)
        if (root, leaves) not in covered
    ]
    report = ks.validate_k_system(g, s)
    assert not report.valid
    assert report.set_is_regular == (True,)
    assert report.defect_lines() == want
    assert len(want) == ks.frame_count(g, 8) - 9


def test_valid_verdict_skips_the_key_table():
    inst = INSTANCES["cube4"]
    s = ks.faces_from_incidence(inst, 2)
    report = ks.validate_k_system(inst.graph, s)
    assert report.valid
    assert report.set_is_regular == (True,) * len(s.sets)
    assert report.defect_lines() == []
    assert report.roots == report.leaf_masks == []
