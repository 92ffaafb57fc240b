import itertools
from fractions import Fraction

import pytest

import ksystems as ks
from ksystems import certificates, systems
from ksystems.errors import (
    DimensionTooSmall,
    InconsistentTransport,
    KMismatch,
    NotAcyclic,
    NotCycleSystem,
)

W3 = [Fraction(1), Fraction(2), Fraction(4)]
WP = [Fraction(1), Fraction(3), Fraction(9)]


def test_unique_sink_per_set_happy_path(cube3):
    g = cube3.graph
    o = ks.geometric_aof(cube3, W3)
    f2 = ks.faces_from_incidence(cube3, 2)
    ok, witness = ks.unique_sink_per_set(g, o, f2)
    assert ok and witness is None


def test_unique_sink_per_set_finds_double_sink(square):
    # 0->1, 0->3, 2->1, 2->3: both 1 and 3 are sinks of the square
    o = ks.make_orientation(square, [1, 1, 0, 1])
    full = ks.make_set_system(square, 2, [[0, 1, 2, 3]])
    ok, witness = ks.unique_sink_per_set(square, o, full)
    assert not ok
    assert witness == (0, 1, 2, 3)


def test_unique_sink_per_set_requires_acyclic(square):
    o = ks.make_orientation(square, [1, 0, 1, 1])
    full = ks.make_set_system(square, 2, [[0, 1, 2, 3]])
    with pytest.raises(NotAcyclic):
        ks.unique_sink_per_set(square, o, full)


def test_face_certificate_verifies(cube3):
    g = cube3.graph
    cert = ks.FaceCertificate(
        k=2,
        claimed_sets=ks.faces_from_incidence(cube3, 2),
        witness_orientation=ks.geometric_aof(cube3, W3),
    )
    verdict = ks.verify_face_certificate(g, cert)
    assert verdict.verified
    assert verdict.format() == "VERIFIED"


def test_face_certificate_any_aof_witness_works(cube3):
    # the witness need not be geometric; any orientation attaining
    # H^k = f_k settles the claim
    g = cube3.graph
    _, witness = ks.minimize_hk(g, 2)
    cert = ks.FaceCertificate(
        k=2,
        claimed_sets=ks.faces_from_incidence(cube3, 2),
        witness_orientation=witness,
    )
    assert ks.verify_face_certificate(g, cert).verified


def test_face_certificate_refutes_bad_system(cube3):
    g = cube3.graph
    quads = list(ks.faces_from_incidence(cube3, 2).sets)
    cert = ks.FaceCertificate(
        k=2,
        claimed_sets=ks.make_set_system(g, 2, quads[:-1]),
        witness_orientation=ks.geometric_aof(cube3, W3),
    )
    verdict = ks.verify_face_certificate(g, cert)
    assert not verdict.verified
    assert verdict.failed_check == "k-system"
    assert verdict.format().startswith("REFUTED")


def test_k_system_refutation_stops_at_the_first_defect(monkeypatch):
    # one member of simplex(16), k = 8, against 17 * binom(16, 8) = 218 790
    # frames: root 0's first leaf set is the member's frame and its second
    # the first defect, so two k-subsets are drawn, not one per frame
    g = ks.simplex(16).graph
    s = ks.SetSystem(k=8, sets=(tuple(range(9)),), graph_fingerprint=g.fingerprint)
    cert = ks.FaceCertificate(8, s, ks.make_orientation(g, [1] * len(g.edges)))
    drawn = []

    def combinations(pool, r):
        for leaves in itertools.combinations(pool, r):
            drawn.append(leaves)
            yield leaves

    monkeypatch.setattr(systems, "combinations", combinations)
    assert ks.verify_face_certificate(g, cert) == ks.Verdict(
        False,
        "k-system",
        "claimed sets are not a k-system (frame (0|1,2,3,4,5,6,7,9) covered 0 times)",
    )
    assert len(drawn) == 2


def test_face_certificate_refutes_cyclic_witness(simplex3):
    g = simplex3.graph
    heads = [1, 0, 1] + [1] * 3  # directed triangle on 0,1,2 plus edges to 3
    cert = ks.FaceCertificate(
        k=2,
        claimed_sets=ks.faces_from_incidence(simplex3, 2),
        witness_orientation=ks.make_orientation(g, heads),
    )
    verdict = ks.verify_face_certificate(g, cert)
    assert not verdict.verified
    assert verdict.failed_check == "acyclic"


def test_cyclic_orientations_are_refuted_in_the_same_words(monkeypatch, simplex3):
    # one refutation for all three verifiers, naming the orientation's
    # role; the sort is looked up in the module, where tracers replace it
    g = simplex3.graph
    cyclic = ks.make_orientation(g, [1, 0, 1, 1, 1, 1])  # 0->1->2->0
    f2 = ks.faces_from_incidence(simplex3, 2)
    sorted_by = []

    def topological_order(g, o):
        sorted_by.append(o)
        return ks.topological_order(g, o)

    monkeypatch.setattr(certificates, "topological_order", topological_order)
    verdicts = [
        ks.verify_face_certificate(g, ks.FaceCertificate(2, f2, cyclic)),
        ks.verify_aof_certificate(g, ks.AofCertificate(cyclic, f2)),
        ks.verify_smaller_h2(g, ks.make_orientation(g, [1] * 6), cyclic),
    ]
    assert verdicts == [
        ks.Verdict(False, "acyclic", f"{role} contains directed cycle 0->1->2")
        for role in ("witness", "candidate", "competitor")
    ]
    assert sorted_by == [cyclic] * 3


def test_face_certificate_refutes_count_mismatch(cube3):
    g = cube3.graph
    # any non-AOF acyclic witness has H^2 > 6 (the sweep in the
    # acceptance tests checks the set equality exhaustively)
    bad = next(
        o
        for o in ks.enumerate_acyclic_orientations(g)
        if not ks.is_aof_oracle(cube3, o)
    )
    cert = ks.FaceCertificate(
        k=2,
        claimed_sets=ks.faces_from_incidence(cube3, 2),
        witness_orientation=bad,
    )
    verdict = ks.verify_face_certificate(g, cert)
    assert not verdict.verified
    assert verdict.failed_check == "count"


def test_face_certificate_k_mismatch(cube3):
    g = cube3.graph
    cert = ks.FaceCertificate(
        k=3,
        claimed_sets=ks.faces_from_incidence(cube3, 2),
        witness_orientation=ks.geometric_aof(cube3, W3),
    )
    with pytest.raises(KMismatch):
        ks.verify_face_certificate(g, cert)


def test_verify_larger_system_both_ways(fig1):
    g = fig1.graph
    f2 = ks.faces_from_incidence(fig1, 2)
    seven = next(
        s for s in ks.enumerate_k_systems(g, 2) if len(s.sets) == 7
    )
    # F_2 disproves the seven-member family's maximality claim
    assert ks.verify_larger_system(g, seven, f2).verified
    # ... but not the other way around
    verdict = ks.verify_larger_system(g, f2, seven)
    assert not verdict.verified
    assert "not more than" in verdict.reason


def test_verify_larger_system_rejects_invalid_competitor(cube3):
    g = cube3.graph
    f2 = ks.faces_from_incidence(cube3, 2)
    broken = ks.make_set_system(g, 2, [list(t) for t in f2.sets[:-1]])
    verdict = ks.verify_larger_system(g, f2, broken)
    assert not verdict.verified


def test_aof_certificate_verified_and_refuted(cube3):
    g = cube3.graph
    f2 = ks.faces_from_incidence(cube3, 2)
    good = ks.AofCertificate(
        candidate_orientation=ks.geometric_aof(cube3, W3),
        witness_two_system=f2,
    )
    assert ks.verify_aof_certificate(g, good).verified

    bad_o = next(
        o
        for o in ks.enumerate_acyclic_orientations(g)
        if not ks.is_aof_oracle(cube3, o)
    )
    bad = ks.AofCertificate(candidate_orientation=bad_o, witness_two_system=f2)
    verdict = ks.verify_aof_certificate(g, bad)
    assert not verdict.verified
    assert verdict.failed_check == "count"


def test_aof_certificate_needs_dimension_three(square):
    full = ks.make_set_system(square, 2, [[0, 1, 2, 3]])
    cert = ks.AofCertificate(
        candidate_orientation=ks.make_orientation(square, [1, 1, 1, 1]),
        witness_two_system=full,
    )
    with pytest.raises(DimensionTooSmall):
        ks.verify_aof_certificate(square, cert)


def test_aof_certificate_witness_must_be_two_system(cube3):
    g = cube3.graph
    f3ish = ks.make_set_system(g, 3, [list(range(8))])
    cert = ks.AofCertificate(
        candidate_orientation=ks.geometric_aof(cube3, W3),
        witness_two_system=f3ish,
    )
    with pytest.raises(KMismatch):
        ks.verify_aof_certificate(g, cert)


def _around(g, o, face):
    """``o`` with the edges of the 2-face ``face``, an induced cycle,
    turned to run around it."""
    inside = set(face)
    walk = [face[0]]
    while len(walk) < len(face):
        nxt = (x for x in g.adjacency[walk[-1]] if x in inside and x not in walk)
        walk.append(next(nxt))
    index = g.edge_index()
    heads = list(o.heads)
    for a, b in zip(walk, walk[1:] + walk[:1]):
        heads[index[min(a, b), max(a, b)]] = int(b > a)
    return ks.make_orientation(g, heads)


# per instance and mutant of (F_2, an AOF): the failed check, then the
# reasons of the face and of the AOF verifier; None when both verify
VERDICTS = {
    "cube": [
        ("genuine", None, None, None),
        (
            "dropped_member",
            "k-system",
            "claimed sets are not a k-system (frame (0|1,2) covered 0 times)",
            "witness is not a 2-system (frame (0|1,2) covered 0 times)",
        ),
        (
            "irregular_member",
            "k-system",
            "claimed sets are not a k-system (set #1 not 2-regular)",
            "witness is not a 2-system (set #1 not 2-regular)",
        ),
        (
            "cyclic",
            "acyclic",
            "witness contains directed cycle 0->1->3->2",
            "candidate contains directed cycle 0->1->3->2",
        ),
        (
            "not_aof",
            "count",
            "|S| = 6 but H^2(witness) = 7",
            "|witness| = 6 but H^2(candidate) = 7",
        ),
    ],
    "fig1": [
        ("genuine", None, None, None),
        (
            "dropped_member",
            "k-system",
            "claimed sets are not a k-system (frame (0|6,9) covered 0 times)",
            "witness is not a 2-system (frame (0|6,9) covered 0 times)",
        ),
        (
            "irregular_member",
            "k-system",
            "claimed sets are not a k-system (set #0 not 2-regular)",
            "witness is not a 2-system (set #0 not 2-regular)",
        ),
        (
            "cyclic",
            "acyclic",
            "witness contains directed cycle 0->6->7->1->10->9",
            "candidate contains directed cycle 0->6->7->1->10->9",
        ),
        (
            "not_aof",
            "count",
            "|S| = 8 but H^2(witness) = 11",
            "|witness| = 8 but H^2(candidate) = 11",
        ),
    ],
    "triangle_x_segment": [
        ("genuine", None, None, None),
        (
            "dropped_member",
            "k-system",
            "claimed sets are not a k-system (frame (0|1,2) covered 0 times)",
            "witness is not a 2-system (frame (0|1,2) covered 0 times)",
        ),
        (
            "irregular_member",
            "k-system",
            "claimed sets are not a k-system (set #1 not 2-regular)",
            "witness is not a 2-system (set #1 not 2-regular)",
        ),
        (
            "cyclic",
            "acyclic",
            "witness contains directed cycle 0->1->3->2",
            "candidate contains directed cycle 0->1->3->2",
        ),
        (
            "not_aof",
            "count",
            "|S| = 5 but H^2(witness) = 6",
            "|witness| = 5 but H^2(candidate) = 6",
        ),
    ],
}
VERDICT_INSTANCES = {
    "cube": lambda: ks.cube(3),
    "fig1": ks.fig1,
    "triangle_x_segment": lambda: ks.product(ks.simplex(2), ks.cube(1)),
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_face_and_aof_verifiers_give_one_verdict_in_their_words(name):
    # one verified (S, O) proves both S = F_2 and "O is an AOF", so the
    # two verifiers agree on every check; only the role words differ.
    # fig1 carries no coordinates, so the AOF is the first H^2 minimizer
    inst = VERDICT_INSTANCES[name]()
    g = inst.graph
    f2 = ks.faces_from_incidence(inst, 2)
    aof = ks.minimize_hk(g, 2)[1]
    first = f2.sets[0]
    extra = (*first, min(x for x in g.adjacency[first[0]] if x not in first))
    assert ks.is_aof_oracle(inst, aof) and not ks.is_k_regular_set(g, extra, 2)
    not_aof = next(
        o for o in ks.enumerate_acyclic_orientations(g) if not ks.is_aof_oracle(inst, o)
    )
    inputs = {
        "genuine": (f2, aof),
        "dropped_member": (ks.make_set_system(g, 2, f2.sets[1:]), aof),
        "irregular_member": (ks.make_set_system(g, 2, [*f2.sets, extra]), aof),
        "cyclic": (f2, _around(g, aof, first)),
        "not_aof": (f2, not_aof),
    }
    for variant, check, face_reason, aof_reason in VERDICTS[name]:
        s, o = inputs[variant]
        face = ks.verify_face_certificate(g, ks.FaceCertificate(2, s, o))
        candidate = ks.verify_aof_certificate(g, ks.AofCertificate(o, s))
        assert face == ks.Verdict(check is None, check, face_reason), variant
        assert candidate == ks.Verdict(check is None, check, aof_reason), variant


def test_polygon_is_aof(square):
    assert ks.polygon_is_aof(square, ks.make_orientation(square, [1, 1, 1, 1]))
    two_sinks = ks.make_orientation(square, [1, 1, 0, 1])
    assert not ks.polygon_is_aof(square, two_sinks)


def test_verify_smaller_h2(cube3):
    g = cube3.graph
    aof = ks.geometric_aof(cube3, W3)
    non_aof = next(
        o
        for o in ks.enumerate_acyclic_orientations(g)
        if not ks.is_aof_oracle(cube3, o)
    )
    assert ks.verify_smaller_h2(g, non_aof, aof).verified
    assert not ks.verify_smaller_h2(g, aof, non_aof).verified
    # competitor with a directed cycle never refutes anything
    loop = ks.make_orientation(g, [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0])
    assert not ks.is_acyclic(g, loop)
    verdict = ks.verify_smaller_h2(g, aof, loop)
    assert not verdict.verified
    assert verdict.failed_check == "acyclic"


@pytest.mark.parametrize(
    "make",
    [
        lambda: ks.cube(3),
        lambda: ks.cube(4),
        lambda: ks.product(ks.cube(1), ks.simplex(2)),
        lambda: ks.fig1(),
    ],
)
def test_facets_from_2faces_matches_oracle(make):
    inst = make()
    g = inst.graph
    rec = ks.facets_from_2faces(g, ks.faces_from_incidence(inst, 2))
    assert set(rec.sets) == set(ks.faces_from_incidence(inst, g.d - 1).sets)
    assert rec.k == g.d - 1


def test_facets_from_2faces_rejects_corrupted_family(cube3):
    g = cube3.graph
    quads = sorted(ks.faces_from_incidence(cube3, 2).sets)
    hexagon = next(
        s for s in ks.connected_k_regular_sets(g, 2) if len(s) == 6
    )
    bad_sets = [list(hexagon)] + [list(t) for t in quads[1:]]
    bad = ks.make_set_system(g, 2, bad_sets)
    with pytest.raises((NotCycleSystem, InconsistentTransport)):
        ks.facets_from_2faces(g, bad)


def test_facets_from_2faces_rejects_disconnected_member(fig1):
    g = fig1.graph
    seven = next(s for s in ks.enumerate_k_systems(g, 2) if len(s.sets) == 7)
    with pytest.raises(NotCycleSystem):
        ks.facets_from_2faces(g, seven)


def test_facets_from_2faces_dimension_and_k_checks(square, cube3):
    full = ks.make_set_system(square, 2, [[0, 1, 2, 3]])
    with pytest.raises(DimensionTooSmall):
        ks.facets_from_2faces(square, full)
    f3 = ks.make_set_system(cube3.graph, 3, [list(range(8))])
    with pytest.raises(KMismatch):
        ks.facets_from_2faces(cube3.graph, f3)


def test_facets_from_2faces_accepts_consistent_nonpolytopal_input(cube3):
    # the four hexagons form a valid 2-system whose transport closes up
    # on itself; reconstruction cannot tell it apart from face data
    g = cube3.graph
    hexsys = next(
        s
        for s in ks.enumerate_k_systems(g, 2)
        if all(len(x) == 6 for x in s.sets)
    )
    out = ks.facets_from_2faces(g, hexsys)
    assert set(out.sets) == set(hexsys.sets)
