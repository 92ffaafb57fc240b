import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksystems as ks
from ksystems import fileio, search
from ksystems.cli import build_parser, main


@pytest.fixture()
def cube3_files(tmp_path, cube3):
    inst = tmp_path / "cube3.json"
    graph = tmp_path / "graph.json"
    fileio.write_json(inst, fileio.instance_doc(cube3))
    fileio.write_json(graph, fileio.graph_doc(cube3.graph))
    return {"inst": str(inst), "graph": str(graph), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_instance(capsys, tmp_path):
    out = tmp_path / "c2.json"
    code, stdout, _ = run(capsys, "gen", "cube", "2", "-o", str(out))
    assert code == 0 and stdout == ""
    doc = json.loads(out.read_text())
    assert doc["name"] == "cube(2)" and doc["graph"]["n"] == 4


def test_gen_stdout_and_fig1(capsys):
    code, stdout, _ = run(capsys, "gen", "fig1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["graph"]["n"] == 12 and doc["coords"] is None


def test_gen_product_and_truncate(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "cube", "1", "-o", str(a))
    run(capsys, "gen", "simplex", "2", "-o", str(b))
    code, stdout, _ = run(capsys, "gen", "product", str(a), str(b))
    assert code == 0
    assert json.loads(stdout)["graph"]["n"] == 6
    c = tmp_path / "c.json"
    run(capsys, "gen", "cube", "3", "-o", str(c))
    code, stdout, _ = run(capsys, "gen", "truncate", str(c), "0")
    assert code == 0
    assert json.loads(stdout)["graph"]["n"] == 10


GEN_REFUSALS = {
    ("gen", "cube", "x"): "cannot read x",
    ("gen", "cube"): "cube takes (int), got ()",
    ("gen", "octahedron", "3"): "unknown family 'octahedron'",
    ("gen", "fig1", "3"): "fig1 takes (), got (int)",
    ("gen", "product", "1", "2"): "product takes (Instance, Instance), got (int, int)",
    ("gen", "cube", "nosuchfile.json"): "cannot read nosuchfile.json",
    ("gen", "octahedron", "missing.json"): "unknown family 'octahedron'",
    ("gen", "cube", "40"): "cube(40) has more than MAX_EDGES = 16384 edges",
    ("gen", "simplex", "30000"): "simplex(30000) has more than MAX_EDGES = 16384 edges",
}


@pytest.mark.parametrize("argv", list(GEN_REFUSALS))
def test_gen_rejects_bad_params(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {GEN_REFUSALS[argv]}" in err


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_an_output_that_cannot_be_written_is_invalid_input(capsys, cube3_files, target):
    # a file in a directory that does not exist, and a directory
    out = cube3_files["dir"] / target
    orient = cube3_files["dir"] / "orient.json"
    fileio.write_json(orient, fileio.orientation_doc(ks.geometric_aof(ks.cube(3), [1, 2, 4])))
    for argv in (
        ("gen", "cube", "3", "-o", str(out)),
        ("hvector", cube3_files["graph"], str(orient), "-o", str(out)),
    ):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")


def test_faces_subcommand(capsys, cube3_files):
    code, stdout, _ = run(capsys, "faces", cube3_files["inst"], "-k", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["sets"]) == 6


def test_hvector_and_hk(capsys, cube3_files, tmp_path):
    orient = tmp_path / "orient.json"
    code, _, _ = run(
        capsys,
        "aof-geometric",
        cube3_files["inst"],
        "--weights",
        "1,2,4",
        "-o",
        str(orient),
    )
    assert code == 0
    code, stdout, _ = run(capsys, "hvector", cube3_files["graph"], str(orient))
    assert code == 0 and stdout.strip() == "1 3 3 1"
    hfile = tmp_path / "h.json"
    run(capsys, "hvector", cube3_files["graph"], str(orient), "-o", str(hfile))
    code, stdout, _ = run(capsys, "hk", str(hfile), "-k", "2")
    assert code == 0 and stdout.strip() == "6"
    code, stdout, _ = run(capsys, "hk", str(hfile), "-k", "all")
    assert code == 0 and stdout.strip() == "27"
    code, _, err = run(capsys, "hk", str(hfile), "-k", "two")
    assert code == 2


def test_aof_geometric_rejects_bad_weights(capsys, cube3_files):
    code, _, err = run(
        capsys, "aof-geometric", cube3_files["inst"], "--weights", "1,2,fish"
    )
    assert code == 2
    code, _, err = run(
        capsys, "aof-geometric", cube3_files["inst"], "--weights", "0,1,2"
    )
    assert code == 2  # degenerate: two vertices tie
    code, _, err = run(
        capsys, "aof-geometric", cube3_files["inst"], "--weights", "1e1000000000,1,1"
    )
    assert code == 2
    assert "exponent of '1e1000000000' exceeds" in err


def test_certify_faces_verified_and_refuted(capsys, cube3_files, cube3, tmp_path):
    o = ks.geometric_aof(cube3, [1, 2, 4])
    f2 = ks.faces_from_incidence(cube3, 2)
    cert = tmp_path / "cert.json"
    fileio.write_json(
        cert,
        fileio.face_certificate_doc(
            ks.FaceCertificate(k=2, claimed_sets=f2, witness_orientation=o)
        ),
    )
    code, stdout, _ = run(capsys, "certify", "faces", cube3_files["graph"], str(cert))
    assert code == 0 and stdout.strip() == "VERIFIED"

    broken = ks.make_set_system(cube3.graph, 2, [list(t) for t in f2.sets[:-1]])
    fileio.write_json(
        cert,
        fileio.face_certificate_doc(
            ks.FaceCertificate(k=2, claimed_sets=broken, witness_orientation=o)
        ),
    )
    code, stdout, _ = run(capsys, "certify", "faces", cube3_files["graph"], str(cert))
    assert code == 1 and stdout.startswith("REFUTED")


def test_certify_kind_must_match_document(capsys, cube3_files, cube3, tmp_path):
    o = ks.geometric_aof(cube3, [1, 2, 4])
    f2 = ks.faces_from_incidence(cube3, 2)
    cert = tmp_path / "cert.json"
    fileio.write_json(
        cert,
        fileio.aof_certificate_doc(
            ks.AofCertificate(candidate_orientation=o, witness_two_system=f2)
        ),
    )
    code, _, err = run(capsys, "certify", "faces", cube3_files["graph"], str(cert))
    assert code == 2


def test_refute_faces(capsys, fig1, tmp_path):
    g = fig1.graph
    graph = tmp_path / "g.json"
    fileio.write_json(graph, fileio.graph_doc(g))
    f2 = ks.faces_from_incidence(fig1, 2)
    seven = next(s for s in ks.enumerate_k_systems(g, 2) if len(s.sets) == 7)
    claimed, larger = tmp_path / "claimed.json", tmp_path / "larger.json"
    fileio.write_json(claimed, fileio.set_system_doc(seven))
    fileio.write_json(larger, fileio.set_system_doc(f2))
    code, stdout, _ = run(capsys, "refute", "faces", str(graph), str(claimed), str(larger))
    assert code == 0 and stdout.strip() == "VERIFIED"
    code, stdout, _ = run(capsys, "refute", "faces", str(graph), str(larger), str(claimed))
    assert code == 1 and stdout.startswith("REFUTED")


def test_refute_aof(capsys, cube3_files, cube3, tmp_path):
    g = cube3.graph
    aof = ks.geometric_aof(cube3, [1, 2, 4])
    non_aof = next(
        o
        for o in ks.enumerate_acyclic_orientations(g)
        if not ks.is_aof_oracle(cube3, o)
    )
    claimed, smaller = tmp_path / "claimed.json", tmp_path / "smaller.json"
    fileio.write_json(claimed, fileio.orientation_doc(non_aof))
    fileio.write_json(smaller, fileio.orientation_doc(aof))
    code, stdout, _ = run(capsys, "refute", "aof", cube3_files["graph"], str(claimed), str(smaller))
    assert code == 0 and stdout.strip() == "VERIFIED"


def test_facets_from_2faces_subcommand(capsys, cube3_files, cube3, tmp_path):
    f2file = tmp_path / "f2.json"
    fileio.write_json(f2file, fileio.set_system_doc(ks.faces_from_incidence(cube3, 2)))
    code, stdout, _ = run(
        capsys, "facets-from-2faces", cube3_files["graph"], str(f2file)
    )
    assert code == 0
    doc = json.loads(stdout)
    assert sorted(map(tuple, doc["sets"])) == sorted(cube3.facets)


def test_facets_from_2faces_reports_refutation(capsys, cube3_files, cube3, tmp_path):
    g = cube3.graph
    quads = sorted(ks.faces_from_incidence(cube3, 2).sets)
    hexagon = next(s for s in ks.connected_k_regular_sets(g, 2) if len(s) == 6)
    bad = ks.make_set_system(g, 2, [list(hexagon)] + [list(t) for t in quads[1:]])
    f2file = tmp_path / "bad.json"
    fileio.write_json(f2file, fileio.set_system_doc(bad))
    code, _, err = run(capsys, "facets-from-2faces", cube3_files["graph"], str(f2file))
    assert code == 1
    assert "refuted:" in err


def test_enum_orient_streams_lines(capsys, tmp_path, square):
    graph = tmp_path / "sq.json"
    fileio.write_json(graph, fileio.graph_doc(square))
    code, stdout, _ = run(capsys, "enum-orient", str(graph))
    lines = stdout.splitlines()
    assert code == 0 and len(lines) == 14
    heads = [tuple(json.loads(line)["heads"]) for line in lines]
    assert len(set(heads)) == 14


def test_enum_orient_budget_exit(capsys, cube3_files):
    code, _, err = run(capsys, "enum-orient", cube3_files["graph"], "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_min_hk_subcommand(capsys, cube3_files):
    code, stdout, _ = run(capsys, "min-hk", cube3_files["graph"], "-k", "all")
    assert code == 0
    value, witness = stdout.splitlines()
    assert value == "27"
    assert len(json.loads(witness)["heads"]) == 12
    code, stdout, _ = run(capsys, "min-hk", cube3_files["graph"], "-k", "2")
    assert code == 0 and stdout.splitlines()[0] == "6"
    # one process per search: there is no --jobs option
    with pytest.raises(SystemExit) as exc:
        main(["min-hk", cube3_files["graph"], "-k", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_enum_and_max_ksystems(capsys, cube3_files):
    code, stdout, _ = run(capsys, "enum-ksystems", cube3_files["graph"], "-k", "2")
    assert code == 0
    assert len(stdout.splitlines()) == 2
    code, stdout, _ = run(capsys, "max-ksystem", cube3_files["graph"], "-k", "2")
    assert code == 0
    assert len(json.loads(stdout)["sets"]) == 6


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_ksystem_refuses_a_count_cap_below_one(capsys, cube3_files, cap):
    argv = ["max-ksystem", cube3_files["graph"], "-k", "2", "--count-cap", cap]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"count_cap must be an integer >= 1, got {cap}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["enum-orient", "--budget", "-1"], "budget must be an integer >= 0, got -1"),
        (
            ["enum-ksystems", "-k", "2", "--candidate-cap", "-3"],
            "candidate_cap must be an integer >= 0, got -3",
        ),
    ],
)
def test_searches_refuse_a_negative_budget_or_candidate_cap(
    capsys, cube3_files, argv, message
):
    # both used to exit 3, as if a budget of -1 had been spent
    argv = [argv[0], cube3_files["graph"], *argv[1:]]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert message in err


def test_enum_ksystems_streams_with_one_job(capsys, cube3_files, cube3, monkeypatch):
    systems = list(ks.enumerate_k_systems(cube3.graph, 2))
    written = []

    def one_at_a_time(*args, **kwargs):
        for s in systems:
            yield s
            # the system just yielded is on stdout before the next is made
            written.append(capsys.readouterr().out)

    monkeypatch.setattr(search, "enumerate_k_systems", one_at_a_time)
    code, stdout, _ = run(capsys, "enum-ksystems", cube3_files["graph"], "-k", "2")
    assert code == 0 and stdout == ""
    docs = [fileio.canonical_json(fileio.set_system_doc(s)) for s in systems]
    assert written == docs


def test_max_ksystem_negative_exit(capsys, tmp_path):
    k33 = ks.validate_graph(3, 6, [(a, b) for a in range(3) for b in range(3, 6)])
    graph = tmp_path / "k33.json"
    fileio.write_json(graph, fileio.graph_doc(k33))
    code, stdout, err = run(capsys, "max-ksystem", str(graph), "-k", "2")
    assert code == 1 and stdout == ""
    assert "no k-system" in err


def test_is_aof_subcommand(capsys, cube3_files, cube3, tmp_path):
    orient = tmp_path / "o.json"
    fileio.write_json(
        orient, fileio.orientation_doc(ks.geometric_aof(cube3, [1, 2, 4]))
    )
    code, stdout, _ = run(capsys, "is-aof", cube3_files["inst"], str(orient))
    assert code == 0 and stdout.strip() == "true"
    non_aof = next(
        o
        for o in ks.enumerate_acyclic_orientations(cube3.graph)
        if not ks.is_aof_oracle(cube3, o)
    )
    fileio.write_json(orient, fileio.orientation_doc(non_aof))
    code, stdout, _ = run(capsys, "is-aof", cube3_files["inst"], str(orient))
    assert code == 1 and stdout.strip() == "false"


def test_counterexample_search_subcommand(capsys, cube3_files):
    code, stdout, err = run(
        capsys, "search-k-sink-counterexample", cube3_files["inst"], "-k", "2"
    )
    assert code == 1 and stdout == ""
    assert "no counterexample" in err


def test_counterexample_search_subcommand_prints_a_witness(capsys, tmp_path):
    # tet x segment with k = 3 = d - 1: unique sinks on all facets, not an AOF
    inst = ks.product(ks.simplex(3), ks.cube(1))
    path = tmp_path / "tet_prism.json"
    fileio.write_json(path, fileio.instance_doc(inst))
    code, stdout, _ = run(capsys, "search-k-sink-counterexample", str(path), "-k", "3")
    assert code == 0
    o = fileio.parse_orientation(json.loads(stdout), inst.graph)
    assert o == ks.search_k_sink_counterexample(inst, 3)
    assert not ks.is_aof_oracle(inst, o)


def test_missing_file_is_invalid_input(capsys):
    code, _, err = run(capsys, "faces", "/nonexistent/inst.json", "-k", "2")
    assert code == 2


@pytest.mark.parametrize(
    "payload", [b'{"heads": "\xe9"}', b"[" * 200_000 + b"]" * 200_000], ids=["latin1", "deep"]
)
@pytest.mark.parametrize("command", [["hvector"], ["certify", "faces"]], ids=["hvector", "certify"])
def test_unreadable_document_is_invalid_input(capsys, cube3_files, tmp_path, command, payload):
    doc = tmp_path / "doc.json"
    doc.write_bytes(payload)
    code, stdout, err = run(capsys, *command, cube3_files["graph"], str(doc))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ")


def test_fingerprint_mismatch_is_invalid_input(capsys, cube3_files, simplex3, tmp_path):
    orient = tmp_path / "o.json"
    fileio.write_json(
        orient,
        fileio.orientation_doc(ks.make_orientation(simplex3.graph, [0] * 6)),
    )
    code, _, err = run(capsys, "hvector", cube3_files["graph"], str(orient))
    assert code == 2


def test_module_entry_point():
    # the child imports the ksystems under test, whether installed or not
    src = str(Path(ks.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ksystems", "gen", "cube", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "cube(2)"


def test_readme_commands_parse():
    # every ksys line of the README's shell block, comments dropped, is a
    # command line the parser accepts (no file is read)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["ksys"]]
    assert len(commands) > 20
    for argv in commands:
        build_parser().parse_args(argv)
