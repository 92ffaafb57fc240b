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

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import fileio, oracle
from ksystems.errors import InvalidInput, InvalidParams, KSystemsError, NotRegular
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
    if name == "validate_graph" and is_int(args[1]) and args[1] > 4096:
        # The reference allocates one list per vertex before it looks at
        # the edges; see test_huge_vertex_count_fails_without_allocating.
        assert got[0] not in ("ok", "leak") and issubclass(got[0], KSystemsError)
        return
    want = outcome(call, ref, args)
    if want[0] == "leak":
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
    ],
)
def test_generate_checks_family_and_parameters(args, message):
    with pytest.raises(InvalidParams, match=message):
        oracle.generate(*args)


@pytest.mark.parametrize("d,n,first", [(1, 2**64, 0), (3, 10**12, 8)])
def test_huge_vertex_count_fails_without_allocating(d, n, first):
    edges = list(G.edges) if d == 3 else []
    with pytest.raises(NotRegular, match=f"vertex {first} has degree 0, expected {d}"):
        ks.validate_graph(d, n, edges)


@pytest.mark.parametrize(
    "weights", [[None, 1, 1], ["1/0", 1, 1], [float("inf"), 1, 1], "abc", None]
)
def test_rationals_from_callers_raise_invalid_params(weights):
    with pytest.raises(InvalidParams, match="weights must be rational numbers"):
        ks.geometric_aof(CUBE3, weights)
    with pytest.raises(InvalidParams, match="coordinates must be rational numbers"):
        ks.make_instance("c", G, CUBE3.facets, [weights] * 8)


def test_sinks_in_subset_checks_vertex_ids():
    with pytest.raises(InvalidParams, match="vertex id 'a'"):
        ks.sinks_in_subset(G, ORIENTATION, ["a"])
    with pytest.raises(InvalidParams, match="subset must be a list"):
        ks.sinks_in_subset(G, ORIENTATION, None)


def test_integral_float_heads_are_refused():
    heads = [float(b) for b in ORIENTATION.heads]
    assert ref.make_orientation(G, heads).heads == tuple(heads)
    with pytest.raises(InvalidParams):
        ks.make_orientation(G, heads)
    with pytest.raises(InvalidParams):
        ks.make_orientation(G, [bool(b) for b in ORIENTATION.heads])
