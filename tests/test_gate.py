"""Caller data meets one check, at the constructor that owns it.

The constructors and document parsers are compared with the checks of
ksystems 0.1.0 kept in ``reference_gate``, on valid inputs with JSON-like
values put into, taken out of or added to any position.  Where the
reference returns a result or raises a package error, the package gives
the same result, or the same error type and message.  Where the
reference crashed with anything else, the package raises
``InvalidParams``.  Documents the reference refused are still refused
with an ``InvalidInput``; only the wording may differ.
"""

import dataclasses
import json
import random
import re
import sys
import tracemalloc
from collections.abc import Iterator
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import fileio, oracle
from ksystems.errors import (
    InvalidInput,
    InvalidParams,
    KSystemsError,
    NotRegular,
    NotSimple,
)
from ksystems.graphs import is_int

import reference_gate as ref

CUBE3 = ks.cube(3)
G = CUBE3.graph
FIG1 = ks.fig1()

# Small integers hit valid vertex ids, sizes and bits; the large ones are
# out of every range.
INTS = st.integers(-2, 12) | st.sampled_from([2**31, 2**64, -(2**64)])
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats(-20, 20)
    | st.sampled_from([0.5, 1.0, float("nan"), float("inf")])
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


def positions(value, path=()):
    """Every path into nested lists, tuples and dicts, the root included."""
    yield path
    if isinstance(value, (list, tuple)):
        for i, x in enumerate(value):
            yield from positions(x, path + (i,))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from positions(value[key], path + (key,))


def edited(value, path, edit):
    """A copy of ``value`` with ``edit`` applied to the container at ``path``."""
    if not path:
        return edit(value)
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: edited(value[head], rest, edit)}
    items = list(value)
    items[head] = edited(items[head], rest, edit)
    return items


@st.composite
def mutated(draw, base):
    """``base`` after one to three edits: a value replaced by a JSON-like
    value, an item deleted, or a JSON-like item added to a list or dict."""
    value = base
    for _ in range(draw(st.integers(1, 3))):
        paths = list(positions(value))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        where, last = path[:-1], path[-1]
        new = draw(JSON)
        kind = draw(st.sampled_from(["replace", "delete", "add"]))

        def edit(container, kind=kind, last=last, new=new):
            if isinstance(container, dict):
                out = dict(container)
                if kind == "replace":
                    out[last] = new
                elif kind == "delete":
                    del out[last]
                else:
                    out[f"{last}_"] = new
                return out
            out = list(container)
            if kind == "replace":
                out[last] = new
            elif kind == "delete":
                del out[last]
            else:
                out.insert(last, new)
            return out

        value = edited(value, where, edit)
    return value


def outcome(fn, *args):
    """("ok", repr of the result), (error type, message), or ("leak", name)."""
    try:
        return "ok", repr(fn(*args))
    except KSystemsError as exc:
        return type(exc), str(exc)
    except Exception as exc:  # what the reference let escape
        return "leak", type(exc).__name__


def _lists(rows):
    return [list(r) for r in rows]


ORIENTATION = ks.geometric_aof(CUBE3, [1, 2, 4])
F2 = ks.faces_from_incidence(CUBE3, 2)

# constructor -> (its arguments as one list, call with those arguments)
CONSTRUCTORS = {
    "validate_graph": (
        [3, 8, _lists(G.edges)],
        lambda m, a: m.validate_graph(*a),
    ),
    # the same graph with its pairs shuffled and reversed: a well-formed
    # list out of canonical order, which is sorted in bulk
    "validate_graph_shuffled": (
        [3, 8, [[v, u] for u, v in random.Random(3).sample(G.edges, len(G.edges))]],
        lambda m, a: m.validate_graph(*a),
    ),
    # the constructor called by its own name, and dataclasses.replace on
    # cube(3)'s graph: the same gate, compared with the reference's
    # validate_graph
    "PolytopeGraph": (
        [3, 8, _lists(G.edges)],
        lambda m, a: (m.validate_graph if m is ref else m.PolytopeGraph)(*a),
    ),
    "replace_graph": (
        [3, 8, _lists(G.edges)],
        lambda m, a: (
            m.validate_graph(*a)
            if m is ref
            else dataclasses.replace(G, d=a[0], n=a[1], edges=a[2])
        ),
    ),
    "make_orientation": (
        [list(ORIENTATION.heads)],
        lambda m, a: m.make_orientation(G, *a),
    ),
    "make_set_system": (
        [2, _lists(F2.sets)],
        lambda m, a: m.make_set_system(G, *a),
    ),
    "make_instance": (
        ["cube(3)", _lists(CUBE3.facets), _lists(CUBE3.coords)],
        lambda m, a: m.make_instance(a[0], G, *a[1:]),
    ),
    "geometric_aof": ([[1, 2, 4]], lambda m, a: m.geometric_aof(CUBE3, *a)),
}

#: The constructors that build a graph, each way.
GRAPH_CONSTRUCTORS = {
    "validate_graph",
    "validate_graph_shuffled",
    "PolytopeGraph",
    "replace_graph",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_constructors_match_reference(name, data):
    base, call = CONSTRUCTORS[name]
    args = data.draw(mutated(base))
    if len(args) != len(base):
        return  # a deleted or added argument is a programming error, not data
    got = outcome(call, ks, args)
    if name in GRAPH_CONSTRUCTORS and is_int(args[1]) and args[1] > 4096:
        # The reference allocates one list per vertex before it looks at
        # the edges; see test_huge_vertex_count_fails_without_allocating.
        assert got[0] not in ("ok", "leak") and issubclass(got[0], KSystemsError)
        return
    want = outcome(call, ref, args)
    if name == "make_instance" and not isinstance(args[0], str):
        # any name was accepted, and parse_instance then refused the
        # instance's own document
        assert got == (InvalidParams, "instance name must be a string")
    elif want[0] == "leak":
        assert got[0] is InvalidParams, (want, got)
    elif (
        name == "make_orientation"
        and want[0] == "ok"
        and not all(is_int(b) for b in args[0])
    ):
        # bools and integral floats were accepted as heads, and the floats
        # then crashed indegree_histogram
        assert got == (InvalidParams, "heads must give one bit per canonical edge")
    else:
        assert got == want


def _doc(d):
    return json.loads(fileio.canonical_json(d))


# parser -> (a valid document, parse it)
DOCUMENTS = {
    "graph": (_doc(fileio.graph_doc(G)), lambda m, doc: m.parse_graph(doc)),
    "orientation": (
        _doc(fileio.orientation_doc(ORIENTATION)),
        lambda m, doc: m.parse_orientation(doc, G),
    ),
    "set_system": (
        _doc(fileio.set_system_doc(F2)),
        lambda m, doc: m.parse_set_system(doc, G),
    ),
    "h_vector": ([1, 3, 3, 1], lambda m, doc: m.parse_h_vector(doc)),
    "instance": (
        _doc(fileio.instance_doc(CUBE3)),
        lambda m, doc: m.parse_instance(doc),
    ),
    "instance_without_coords": (
        _doc(fileio.instance_doc(FIG1)),
        lambda m, doc: m.parse_instance(doc),
    ),
    "face_certificate": (
        _doc(
            fileio.face_certificate_doc(
                ks.FaceCertificate(k=2, claimed_sets=F2, witness_orientation=ORIENTATION)
            )
        ),
        lambda m, doc: m.parse_certificate(doc, G),
    ),
    "aof_certificate": (
        _doc(
            fileio.aof_certificate_doc(
                ks.AofCertificate(candidate_orientation=ORIENTATION, witness_two_system=F2)
            )
        ),
        lambda m, doc: m.parse_certificate(doc, G),
    ),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_parsers_refuse_what_the_reference_refused(name, data):
    base, parse = DOCUMENTS[name]
    doc = data.draw(mutated(base))
    got = outcome(parse, fileio, doc)
    assert got[0] != "leak", got
    assert got[0] == "ok" or issubclass(got[0], InvalidInput), got
    want = outcome(parse, ref, doc)
    if want[0] == "ok":
        assert got == want
    else:
        assert got[0] != "ok", (want, got)


def _two_faults(first, second):
    """The facets of cube(3), which are its 2-faces, with member 1 made
    into ``first`` and member 4 into ``second``: two faults in different
    members."""
    family = _lists(CUBE3.facets)
    family[1] = first(family[1])
    family[4] = second(family[4])
    return family


#: Families with two faults, each in a member of its own.
TWO_FAULTS = {
    "too_small_before_float": _two_faults(lambda t: t[:2], lambda t: [*t[:3], 7.5]),
    "repeated_member_before_bool": _two_faults(
        lambda t: _lists(CUBE3.facets)[0], lambda t: [*t[:3], True]
    ),
    "repeated_vertex_before_out_of_range": _two_faults(
        lambda t: [t[0], *t[:3]], lambda t: [*t[:3], 99]
    ),
}


#: The constructors that take a family, given the module and the family.
FAMILY_CALLS = {
    "make_set_system": lambda m, family: m.make_set_system(G, 2, family),
    "make_instance": lambda m, family: m.make_instance("cube(3)", G, family),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("call", sorted(FAMILY_CALLS))
@pytest.mark.parametrize("family", sorted(TWO_FAULTS))
def test_the_first_of_two_faults_is_named(family, call, reverse):
    members = TWO_FAULTS[family][::-1] if reverse else TWO_FAULTS[family]
    got = outcome(FAMILY_CALLS[call], ks, members)
    assert got[0] not in ("ok", "leak"), got
    assert got == outcome(FAMILY_CALLS[call], ref, members)


def test_parsers_refuse_an_empty_object_where_a_list_belongs():
    doc = _doc(fileio.set_system_doc(F2))
    for empty in ({}, ""):
        with pytest.raises(InvalidParams, match="sets must be a list"):
            fileio.parse_set_system(dict(doc, sets=empty), G)


# A family's integer parameter is its dimension and cube(d) has 2^d
# vertices, so the integers given to the generators stay small.
GEN_ARGS = (
    st.integers(-2, 5)
    | st.sampled_from([ks.cube(2), ks.simplex(2)])
    | st.none()
    | st.booleans()
    | st.floats(-3, 3)
    | st.text(max_size=3)
    | st.lists(st.integers(0, 3), max_size=2)
)
FAMILIES = st.sampled_from(["simplex", "cube", "product", "truncate", "fig1", "prism"])


@settings(max_examples=300, deadline=None)
@given(family=FAMILIES | JSON, args=st.lists(GEN_ARGS, max_size=3))
def test_generate_raises_only_package_errors(family, args):
    try:
        inst = oracle.generate(family, *args)
    except KSystemsError:
        return
    assert isinstance(inst, ks.Instance)


@pytest.mark.parametrize(
    "args,message",
    [
        (("cube",), r"cube takes \(int\), got \(\)"),
        (("fig1", 3), r"fig1 takes \(\), got \(int\)"),
        (("product", 1, 2), r"product takes \(Instance, Instance\), got \(int, int\)"),
        (("truncate", CUBE3, "0"), r"truncate takes \(Instance, int\), got \(Instance, str\)"),
        ((["cube"], 3), "unknown family"),
        (("simplex", 0), r"^simplex dimension must be an integer >= 1, got 0$"),
        (("cube", True), r"^cube dimension must be an integer >= 1, got True$"),
    ],
)
def test_generate_checks_family_and_parameters(args, message):
    with pytest.raises(InvalidParams, match=message):
        oracle.generate(*args)


def test_a_generator_called_directly_checks_its_dimension():
    # generate refuses a float by its type, before the generator sees it
    with pytest.raises(InvalidParams, match=r"^cube dimension must be an integer >= 1, got 1\.5$"):
        oracle.cube(1.5)


@pytest.mark.parametrize("d,n,first", [(1, 2**64, 0), (3, 10**12, 8)])
def test_huge_vertex_count_fails_without_allocating(d, n, first):
    edges = list(G.edges) if d == 3 else []
    with pytest.raises(NotRegular, match=f"vertex {first} has degree 0, expected {d}"):
        ks.validate_graph(d, n, edges)


def test_no_graph_is_built_around_the_gate(monkeypatch):
    # replace(G, adjacency=...) made validate_k_system, the Instance
    # constructor, facets_from_2faces and connected_k_regular_sets raise
    # IndexError; the derived fields cannot be given at all, and such a
    # call is refused before the constructor's checks run
    short = G.adjacency[:-1]
    checked = []
    gate = ks.PolytopeGraph.__post_init__
    monkeypatch.setattr(ks.PolytopeGraph, "__post_init__", lambda g: checked.append(g) or gate(g))
    with pytest.raises(ValueError, match="^field adjacency is declared with init=False"):
        dataclasses.replace(G, adjacency=short)
    with pytest.raises(ValueError, match="^field fingerprint is declared with init=False"):
        dataclasses.replace(G, fingerprint=FIG1.graph.fingerprint)
    with pytest.raises(TypeError):
        ks.PolytopeGraph(G.d, G.n, G.edges, short, G.fingerprint)
    with pytest.raises(TypeError):
        ks.PolytopeGraph(d=G.d, n=G.n, edges=G.edges, adjacency=short)
    assert checked == []
    # the fields it may be given are checked as validate_graph checks them
    want = outcome(ref.validate_graph, G.d, G.n, G.edges[:-1])
    assert want == (NotRegular, "vertex 6 has degree 2, expected 3")
    assert outcome(lambda: dataclasses.replace(G, edges=G.edges[:-1])) == want
    assert outcome(ks.validate_graph, G.d, G.n, G.edges[:-1]) == want
    assert dataclasses.replace(G, edges=G.edges[::-1]) == G
    assert len(checked) == 3


@pytest.mark.parametrize(
    "family,args",
    [
        ("cube", (12,)),
        ("cube", (40,)),
        ("cube", (10**18,)),
        ("simplex", (181,)),
        ("simplex", (30000,)),
        ("product", (ks.cube(6), ks.cube(6))),
    ],
)
def test_oversized_generators_fail_without_allocating(family, args):
    refusal = f"has more than MAX_EDGES = {oracle.MAX_EDGES} edges"
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams, match=refusal):
            oracle.generate(family, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_the_largest_cube_and_simplex_within_the_edge_bound_are_built():
    assert len(oracle.cube(11).graph.edges) <= oracle.MAX_EDGES
    assert len(oracle.simplex(180).graph.edges) <= oracle.MAX_EDGES


@pytest.mark.parametrize(
    "weights",
    [
        [None, 1, 1],
        ["1/0", 1, 1],
        [float("inf"), 1, 1],
        "abc",
        None,
        ["1e1000000000", 1, 1],
        [1, " -3E-1000000000 ", 1],
    ],
)
def test_rationals_from_callers_raise_invalid_params(weights):
    with pytest.raises(InvalidParams, match="weights must be rational numbers"):
        ks.geometric_aof(CUBE3, weights)
    with pytest.raises(InvalidParams, match="coordinates must be rational numbers"):
        ks.make_instance("c", G, CUBE3.facets, [weights] * 8)


def test_rational_exponents_stay_within_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    rows = oracle._rational_rows([["1e3", "1/3", "-2.5e-2", f"1E{limit}"]], "w")
    assert rows == [(Fraction(1000), Fraction(1, 3), Fraction(-1, 40), 10**limit)]
    tiny = f"1e-{limit + 1}"
    with pytest.raises(InvalidParams, match=f"exponent of '{tiny}' exceeds {limit}"):
        oracle._rational_rows([[tiny]], "w")


def test_sinks_in_subset_checks_vertex_ids():
    with pytest.raises(InvalidParams, match="vertex id 'a'"):
        ks.sinks_in_subset(G, ORIENTATION, ["a"])
    with pytest.raises(InvalidParams, match="subset must be a list"):
        ks.sinks_in_subset(G, ORIENTATION, None)


@pytest.mark.parametrize("t,bad", [([0, 99], "99"), (["a"], "'a'"), ([-1, 3, 5, 6], "-1")])
def test_is_k_regular_set_checks_vertex_ids(t, bad):
    with pytest.raises(InvalidParams, match=f"vertex id {bad} outside 0..7"):
        ks.is_k_regular_set(G, t, 2)


def test_is_k_regular_set_needs_a_collection():
    with pytest.raises(InvalidParams, match="vertex set must be a list"):
        ks.is_k_regular_set(G, 5, 2)


@pytest.mark.parametrize("name", [5, None, ["cube(3)"]])
def test_make_instance_checks_the_name(name):
    with pytest.raises(InvalidParams, match="instance name must be a string"):
        ks.make_instance(name, G, CUBE3.facets)
    doc = dict(_doc(fileio.instance_doc(CUBE3)), name=name)
    with pytest.raises(InvalidParams, match="instance name must be a string"):
        fileio.parse_instance(doc)


def test_integral_float_heads_are_refused():
    heads = [float(b) for b in ORIENTATION.heads]
    assert ref.make_orientation(G, heads).heads == tuple(heads)
    with pytest.raises(InvalidParams):
        ks.make_orientation(G, heads)
    with pytest.raises(InvalidParams):
        ks.make_orientation(G, [bool(b) for b in ORIENTATION.heads])


@pytest.mark.parametrize(
    "heads",
    [(1.0,) * len(G.edges), (True,) * len(G.edges), None, 7, (5,) * len(G.edges)],
    ids=["1.0", "True", "None", "7", "5"],
)
def test_orientations_built_directly_need_integer_heads(heads):
    # heads that are no collection at all used to raise a bare TypeError,
    # and reverse_orientation used to flip any heads, 5 to -4
    o = ks.Orientation(heads=heads, graph_fingerprint=G.fingerprint)
    faces = ks.faces_from_incidence(CUBE3, 2)
    calls = [
        lambda: ks.indegree_histogram(G, o),
        lambda: ks.topological_order(G, o),
        lambda: ks.unique_sink_per_set(G, o, faces),
        lambda: ks.reverse_orientation(o),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="one bit per canonical edge"):
            call()


@pytest.mark.parametrize("fingerprint", [None, 5, G.fingerprint[::-1]])
def test_values_built_directly_are_refused_for_another_fingerprint(fingerprint):
    o = ks.Orientation(heads=ORIENTATION.heads, graph_fingerprint=fingerprint)
    s = ks.SetSystem(k=2, sets=FACES2.sets, graph_fingerprint=fingerprint)
    if isinstance(fingerprint, str):
        shown = f"{fingerprint[:12]}..."
    else:
        shown = repr(fingerprint)
    graph = f"graph is {G.fingerprint[:12]}..."
    for call, what in [
        (lambda: ks.indegree_histogram(G, o), "orientation"),
        (lambda: ks.verify_aof_certificate(G, ks.AofCertificate(o, FACES2)), "orientation"),
        (lambda: ks.validate_k_system(G, s), "set system"),
        (lambda: ks.verify_face_certificate(G, ks.FaceCertificate(2, s, ORIENTATION)), "set system"),
    ]:
        with pytest.raises(ks.errors.FingerprintMismatch) as caught:
            call()
        assert str(caught.value) == f"{what} bound to {shown}, {graph}"


#: One vertex id out of place: outside 0..7, or not an int (a bool is not).
BAD_IDS = [99, -1, "a", 6.0, True, None]
FACES2 = ks.faces_from_incidence(CUBE3, 2)
VERTEX = IntEnum("VERTEX", [(f"v{i}", i) for i in range(8)])


def _instance(facet):
    """cube(3) built by ``Instance(...)``, its facet (4, 5, 6, 7) written as
    ``facet``."""
    facets = CUBE3.facets[:-1] + (facet,)
    return ks.Instance(name=f"cube(3) with {facet!r}", graph=G, facets=facets, coords=None)


def _replaced(facet):
    """cube(3) from make_instance, its facet (4, 5, 6, 7) written as
    ``facet`` by dataclasses.replace, which runs the constructor again."""
    return dataclasses.replace(CUBE3, facets=CUBE3.facets[:-1] + (facet,))


def _made(facet):
    """cube(3) from make_instance, its facet (4, 5, 6, 7) given as ``facet``."""
    return ks.make_instance("cube(3)", G, CUBE3.facets[:-1] + (facet,), CUBE3.coords)


#: Every way to build an instance from a caller's facets.
INSTANCE_BUILDS = [_instance, _replaced, _made]


def _system(member):
    """F_2 of cube(3) built directly, (4, 5, 6, 7) written as ``member``."""
    sets = tuple(member if t == (4, 5, 6, 7) else t for t in FACES2.sets)
    return ks.SetSystem(k=2, sets=sets, graph_fingerprint=G.fingerprint)


#: Every call that reads the members of a family built directly, given the
#: member to put in place of (4, 5, 6, 7), and the word its refusal uses.
MEMBER_CALLS = {
    "faces_from_incidence": ("facet", lambda m: ks.faces_from_incidence(_instance(m), 2)),
    "is_aof_oracle": ("facet", lambda m: ks.is_aof_oracle(_instance(m), ORIENTATION)),
    "validate_k_system": ("set", lambda m: ks.validate_k_system(G, _system(m))),
    "frame_coverage": ("set", lambda m: ks.frame_coverage(G, _system(m))),
    "verify_face_certificate": ("set", lambda m: ks.verify_face_certificate(
        G, ks.FaceCertificate(k=2, claimed_sets=_system(m), witness_orientation=ORIENTATION)
    )),
    "verify_larger_system": ("set", lambda m: ks.verify_larger_system(G, FACES2, _system(m))),
    "verify_aof_certificate": ("set", lambda m: ks.verify_aof_certificate(
        G, ks.AofCertificate(candidate_orientation=ORIENTATION, witness_two_system=_system(m))
    )),
    "facets_from_2faces": ("set", lambda m: ks.facets_from_2faces(G, _system(m))),
    "unique_sink_per_set": ("set", lambda m: ks.unique_sink_per_set(G, ORIENTATION, _system(m))),
}
#: Every call that reads vertex ids from a value built directly, given the
#: id to put in place of vertex 7.
ID_CALLS = {
    **{
        name: (lambda v, call=call: call((4, 5, 6, v)))
        for name, (_, call) in MEMBER_CALLS.items()
    },
    "is_k_regular_set": lambda v: ks.is_k_regular_set(G, (4, 5, 6, v), 2),
    "sinks_in_subset": lambda v: ks.sinks_in_subset(G, ORIENTATION, (4, 5, 6, v)),
}
INSTANCE_CALLS = ["faces_from_incidence", "is_aof_oracle"]
#: What every way to build cube(3) says of vertex 7 of its facet
#: (4, 5, 6, 7) written as each of BAD_IDS: the member walk of the
#: constructor names a member that cannot be sorted or repeats a vertex
#: before it looks at the ids.
FACET_ID_REFUSALS = {
    99: "vertex id 99 outside 0..7",
    -1: "vertex id -1 outside 0..7",
    "a": "facet (4, 5, 6, 'a') is not a set of vertex ids",
    6.0: "facet (4, 5, 6, 6.0) repeats a vertex",
    True: "vertex id True outside 0..7",
    None: "facet (4, 5, 6, None) is not a set of vertex ids",
}


def _refused(call, bad):
    with pytest.raises(InvalidParams, match=f"^vertex id {re.escape(repr(bad))} outside 0..7$"):
        ID_CALLS[call](bad)


@pytest.mark.parametrize("bad", BAD_IDS)
def test_instances_built_directly_need_facet_ids_in_range(bad):
    # 99 used to raise a bare IndexError and 'a' a bare TypeError; -1 read
    # vertex 7's facets and True vertex 1's.  Every way to build the
    # instance refuses it, with one message
    refusal = f"^{re.escape(FACET_ID_REFUSALS[bad])}$"
    for build in INSTANCE_BUILDS:
        with pytest.raises(InvalidParams, match=refusal):
            build((4, 5, 6, bad))


@pytest.mark.parametrize("bad", BAD_IDS)
@pytest.mark.parametrize("call", sorted(set(ID_CALLS) - set(INSTANCE_CALLS)))
def test_systems_and_sets_built_directly_need_vertex_ids(call, bad):
    # a SetSystem with -1 for 7 was a valid 2-system, and VERIFIED as F_2
    _refused(call, bad)


@pytest.mark.parametrize("call", sorted(ID_CALLS))
def test_int_enum_vertex_ids_are_accepted(call):
    # is_k_regular_set used to raise a bare StopIteration on them
    assert ID_CALLS[call](VERTEX.v7) == ID_CALLS[call](7)


@pytest.mark.parametrize("member", [5, None, 4.5, iter((4, 5, 6, 7))])
@pytest.mark.parametrize("call", sorted(MEMBER_CALLS))
def test_members_built_directly_must_be_collections(call, member):
    # 5 in place of (4, 5, 6, 7) used to raise a bare TypeError; an iterator
    # was used up by the id check and then read as an empty member.  An
    # instance reads its facets once, in its constructor, which reads an
    # iterator (a fresh one here) as the facet it yields
    what, run = MEMBER_CALLS[call]
    if what == "facet" and isinstance(member, Iterator):
        assert run(iter((4, 5, 6, 7))) == run((4, 5, 6, 7))
        return
    refusal = f"^{what} {re.escape(repr(member))} is not a set of vertex ids$"
    with pytest.raises(InvalidParams, match=refusal):
        run(member)


@pytest.mark.parametrize("call", INSTANCE_CALLS)
def test_instances_replaced_from_checked_ones_are_refused_alike(monkeypatch, call):
    # the calls above, on cube(3) edited by replace or built by make_instance
    # instead of Instance(...): the same refusals and the same answers
    run = MEMBER_CALLS[call][1]
    members = [(4, 5, 6, bad) for bad in BAD_IDS] + [5, None, 4.5, (4, 5, 6, 7)]
    want = [outcome(run, m) for m in members]
    assert want[-1][0] == "ok"
    for build in (_replaced, _made):
        monkeypatch.setitem(globals(), "_instance", build)
        assert [outcome(run, m) for m in members] == want
        assert outcome(run, iter((4, 5, 6, 7))) == want[-1]


def test_make_instance_refuses_a_graph_that_is_not_a_polytope_graph():
    # None used to raise a bare AttributeError
    for graph in (None, list(G.edges), fileio.graph_doc(G)):
        refusal = f"^instance graph must be a PolytopeGraph, got {type(graph).__name__}$"
        with pytest.raises(InvalidParams, match=refusal):
            ks.make_instance("cube(3)", graph, CUBE3.facets)


@pytest.mark.parametrize(
    "counts,message",
    [
        ((1, "a"), "h-vector entry must be an integer, got 'a'"),
        ((1, -1), "h-vector entries must be non-negative"),
        ((1, True), "h-vector entry must be an integer, got True"),
        ((), "h-vector must not be empty"),
        (5, "h-vector must be a list, got 5"),
        (None, "h-vector must be a list, got None"),
    ],
)
def test_h_vectors_built_directly_need_non_negative_integer_counts(counts, message):
    # hk_sum(HVector((1, "a")), 1) used to raise a bare TypeError; HVector(())
    # was accepted, and HVector(5) and HVector(None) raised a bare TypeError.
    # The parser refuses a document that is not a non-empty list with its own
    # message, so it runs on the other cases only.
    builds = [ks.HVector]
    if isinstance(counts, tuple) and counts:
        builds.append(lambda c: fileio.parse_h_vector(list(c)))
    for build in builds:
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            build(counts)


def test_h_vectors_keep_their_counts_as_a_tuple():
    # hash(HVector([1, 2])) used to raise a bare TypeError
    from_list = ks.HVector([1, 2])
    assert from_list.counts == (1, 2)
    assert from_list == ks.HVector((1, 2)) and hash(from_list) == hash(ks.HVector((1, 2)))
    assert ks.hk_sum(ks.HVector(iter([1, 2])), 1) == 2


def test_checks_made_before_the_ids_still_come_first():
    cyclic = ks.Orientation(heads=(0, 1) * 6, graph_fingerprint=G.fingerprint)
    assert not ks.is_acyclic(G, cyclic)
    with pytest.raises(ks.errors.NotAcyclic):
        ks.unique_sink_per_set(G, cyclic, _system((4, 5, 6, 99)))
    wrong_k = ks.SetSystem(k=3, sets=_system((4, 5, 6, 99)).sets, graph_fingerprint=G.fingerprint)
    with pytest.raises(ks.errors.KOutOfRange):
        ks.validate_k_system(G, wrong_k)


#: Facets that pass every check of the Instance constructor up to the pair
#: check, on the graph of cube(d), and the first bad pair the reference names
PAIR_FAULTS = {
    # four hexagons: non-adjacent pairs share d-1 = 2 of them
    "non-adjacent": (
        3,
        [(0, 1, 2, 5, 6, 7), (0, 1, 3, 4, 6, 7), (0, 2, 3, 4, 5, 7), (1, 2, 3, 4, 5, 6)],
        "non-adjacent pair (0,3) shares 2 facets",
    ),
    # 0 and 1 lie on the same d = 4 facets, so the edge is filed d times
    "filed d times": (
        4,
        [
            (0, 1, 2, 3, 4, 5, 6, 7),
            (0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15),
            (0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15),
            (0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15),
            (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
            (8, 9, 10, 11, 12, 13, 14, 15),
        ],
        "edge (0,1) shares 4 facets, expected 3",
    ),
    # 0 and 1 share only 2 facets, so the edge is never filed
    "not filed": (
        4,
        [
            (0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15),
            (0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15),
            (0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15),
            (0, 2, 4, 6, 8, 10, 12, 14),
            (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14),
            (1, 3, 5, 7, 9, 11, 13, 15),
        ],
        "edge (0,1) shares 2 facets, expected 3",
    ),
}


def _counted_pair_walks(monkeypatch):
    """The argument tuples of every call of the constructor's pair walk."""
    walks = []
    walk = oracle._check_pairs
    monkeypatch.setattr(oracle, "_check_pairs", lambda *args: walks.append(args) or walk(*args))
    return walks


@pytest.mark.parametrize("fault", sorted(PAIR_FAULTS))
def test_a_pair_fault_reaches_the_walk_and_is_named_as_the_reference_names_it(
    monkeypatch, fault
):
    d, facets, message = PAIR_FAULTS[fault]
    g = ks.cube(d).graph
    walks = _counted_pair_walks(monkeypatch)
    with pytest.raises(NotSimple) as expected:
        ref.make_instance(fault, g, facets)
    assert str(expected.value) == message
    for build in (ks.make_instance, ks.Instance):
        with pytest.raises(NotSimple) as raised:
            build(fault, g, facets)
        assert str(raised.value) == message
    assert len(walks) == 2


def _generated():
    """Generator instances of every dimension from 1 to 7, as built and
    under one seeded relabelling."""
    triangle = ks.simplex(2)
    built = [
        *map(ks.simplex, range(1, 6)),
        *map(ks.cube, range(1, 8)),
        ks.product(ks.cube(1), triangle),
        ks.product(triangle, ks.cube(2)),
        ks.product(ks.product(triangle, triangle), triangle),
        ks.product(ks.simplex(3), triangle),
        ks.truncate_vertex(ks.cube(4), 3),
        ks.truncate_vertex(ks.truncate_vertex(ks.simplex(3), 0), 1),
        FIG1,
    ]
    for inst in built:
        yield inst.name, inst.graph, inst.facets
        g = inst.graph
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        yield inst.name, ks.validate_graph(g.d, g.n, edges), [
            [perm[v] for v in t] for t in inst.facets
        ]


def test_a_simple_polytope_passes_the_pair_check_without_the_walk(monkeypatch):
    walks = _counted_pair_walks(monkeypatch)
    for name, g, facets in _generated():
        inst = ks.make_instance(name, g, facets)
        assert inst.facets == ref.make_instance(name, g, facets).facets
    assert walks == []
