import json
from fractions import Fraction

import pytest

import ksystems as ks
from ksystems import fileio
from ksystems.errors import FingerprintMismatch, InvalidParams


def test_canonical_json_is_sorted_and_compact():
    text = fileio.canonical_json({"b": [1, 2], "a": {"y": 0, "x": 1}})
    assert text == '{"a":{"x":1,"y":0},"b":[1,2]}\n'


def test_graph_doc_round_trip(cube3):
    g = cube3.graph
    doc = fileio.graph_doc(g)
    again = fileio.parse_graph(json.loads(fileio.canonical_json(doc)))
    assert again == g
    assert fileio.canonical_json(fileio.graph_doc(again)) == fileio.canonical_json(doc)


def test_parse_graph_schema_errors():
    with pytest.raises(InvalidParams):
        fileio.parse_graph({"d": 2, "n": 3})  # missing edges
    with pytest.raises(InvalidParams):
        fileio.parse_graph({"d": 2, "n": 3, "edges": [[0, 1, 2]]})
    with pytest.raises(InvalidParams):
        fileio.parse_graph({"d": "2", "n": 3, "edges": []})
    with pytest.raises(InvalidParams):
        fileio.parse_graph([1, 2, 3])


def test_orientation_doc_round_trip(cube3):
    g = cube3.graph
    o = ks.make_orientation(g, [1, 0] * 6)
    doc = fileio.orientation_doc(o)
    again = fileio.parse_orientation(doc, g)
    assert again.heads == o.heads
    assert fileio.canonical_json(fileio.orientation_doc(again)) == fileio.canonical_json(doc)


def test_orientation_doc_fingerprint_mismatch(cube3, simplex3):
    o = ks.make_orientation(simplex3.graph, [0] * 6)
    with pytest.raises(FingerprintMismatch):
        fileio.parse_orientation(fileio.orientation_doc(o), cube3.graph)


def test_orientation_doc_bad_heads(cube3):
    g = cube3.graph
    doc = {"graph_fingerprint": g.fingerprint, "heads": [0] * 11}
    with pytest.raises(InvalidParams):
        fileio.parse_orientation(doc, g)
    doc = {"graph_fingerprint": g.fingerprint, "heads": [0] * 11 + [2]}
    with pytest.raises(InvalidParams):
        fileio.parse_orientation(doc, g)


def test_set_system_doc_round_trip(cube3):
    s = ks.faces_from_incidence(cube3, 2)
    doc = fileio.set_system_doc(s)
    again = fileio.parse_set_system(doc, cube3.graph)
    assert again == s
    assert fileio.canonical_json(fileio.set_system_doc(again)) == fileio.canonical_json(doc)


def test_h_vector_doc_round_trip():
    h = ks.HVector((1, 3, 3, 1))
    doc = fileio.h_vector_doc(h)
    assert doc == [1, 3, 3, 1]
    assert fileio.parse_h_vector(doc) == h
    with pytest.raises(InvalidParams):
        fileio.parse_h_vector([])
    with pytest.raises(InvalidParams):
        fileio.parse_h_vector([1, -1])
    with pytest.raises(InvalidParams):
        fileio.parse_h_vector([1, "3"])


@pytest.mark.parametrize(
    "make",
    [
        lambda: ks.cube(3),
        lambda: ks.simplex(4),
        lambda: ks.product(ks.cube(1), ks.simplex(2)),
        lambda: ks.fig1(),
    ],
)
def test_instance_doc_round_trip(make):
    inst = make()
    doc = fileio.instance_doc(inst)
    again = fileio.parse_instance(json.loads(fileio.canonical_json(doc)))
    assert again.name == inst.name
    assert again.graph == inst.graph
    assert again.facets == inst.facets
    assert again.coords == inst.coords
    assert fileio.canonical_json(fileio.instance_doc(again)) == fileio.canonical_json(doc)


def test_instance_doc_fractional_coords(cube3):
    third = [
        tuple(Fraction(c, 3) for c in row) for row in cube3.coords
    ]
    inst = ks.make_instance(
        "small-cube", cube3.graph, [list(f) for f in cube3.facets], third
    )
    doc = fileio.instance_doc(inst)
    assert doc["coords"][7] == [["1", "3"]] * 3
    again = fileio.parse_instance(doc)
    assert again.coords == inst.coords


def test_instance_doc_errors(cube3):
    doc = fileio.instance_doc(cube3)
    bad = dict(doc, d=4)
    with pytest.raises(InvalidParams):
        fileio.parse_instance(bad)
    bad = dict(doc, coords=[[["1", "0"]] * 3] * 8)  # zero denominator
    with pytest.raises(InvalidParams):
        fileio.parse_instance(bad)
    bad = dict(doc, coords=[[[1, 3]] * 3] * 8)  # numbers, not strings
    with pytest.raises(InvalidParams):
        fileio.parse_instance(bad)


def test_certificate_docs_round_trip(cube3):
    g = cube3.graph
    o = ks.geometric_aof(cube3, [Fraction(1), Fraction(2), Fraction(4)])
    f2 = ks.faces_from_incidence(cube3, 2)

    face_cert = ks.FaceCertificate(k=2, claimed_sets=f2, witness_orientation=o)
    doc = fileio.face_certificate_doc(face_cert)
    parsed = fileio.parse_certificate(json.loads(fileio.canonical_json(doc)), g)
    assert isinstance(parsed, ks.FaceCertificate)
    assert parsed.k == 2
    assert parsed.claimed_sets == f2
    assert parsed.witness_orientation.heads == o.heads

    aof_cert = ks.AofCertificate(candidate_orientation=o, witness_two_system=f2)
    doc = fileio.aof_certificate_doc(aof_cert)
    parsed = fileio.parse_certificate(doc, g)
    assert isinstance(parsed, ks.AofCertificate)
    assert parsed.witness_two_system == f2


def test_parse_certificate_errors(cube3):
    g = cube3.graph
    with pytest.raises(InvalidParams):
        fileio.parse_certificate({"no": "type"}, g)
    with pytest.raises(InvalidParams):
        fileio.parse_certificate({"type": "gradient"}, g)
    o = ks.make_orientation(g, [0] * 12)
    doc = fileio.face_certificate_doc(
        ks.FaceCertificate(
            k=2,
            claimed_sets=ks.faces_from_incidence(cube3, 2),
            witness_orientation=o,
        )
    )
    with pytest.raises(InvalidParams):
        fileio.parse_certificate(dict(doc, extra=1), g)


def test_write_and_read_files(tmp_path, cube3):
    path = tmp_path / "graph.json"
    fileio.write_json(path, fileio.graph_doc(cube3.graph))
    raw = path.read_text()
    assert raw.endswith("\n") and '"d":3' in raw
    assert fileio.parse_graph(fileio.read_json(path)) == cube3.graph


def test_read_json_missing_file(tmp_path):
    with pytest.raises(InvalidParams):
        fileio.read_json(tmp_path / "nope.json")


def test_read_json_refuses_a_path_holding_nul(tmp_path):
    with pytest.raises(InvalidParams, match="cannot read"):
        fileio.read_json(f"{tmp_path}/no\0pe.json")


def test_read_json_bad_payload(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParams):
        fileio.read_json(path)


# bytes that are not UTF-8, nesting too deep for the decoder, and an
# integer past the interpreter's digit limit: each is refused as input
UNREADABLE_PAYLOADS = {
    "latin1": (b'{"d": 3, "n": "\xe9"}', "cannot read"),
    "deep": (b"[" * 200_000 + b"]" * 200_000, "is not valid JSON"),
    "digits": (b"1" * 5000, "is not valid JSON"),
}


@pytest.mark.parametrize("payload,message", UNREADABLE_PAYLOADS.values(), ids=UNREADABLE_PAYLOADS)
def test_read_json_refuses_unreadable_payloads(tmp_path, payload, message):
    path = tmp_path / "doc.json"
    path.write_bytes(payload)
    with pytest.raises(InvalidParams, match=message):
        fileio.read_json(path)
