"""The bitmask test of an induced subgraph agrees with the set-based pair
kept in ``reference_induced``: ``induced_flaw`` names the same first
failing test (regularity before connectivity) as ``is_k_regular_set``
followed by ``induces_connected``, ``is_k_regular_set`` gives the same
verdict, and the flood ``graphs.induces_connected`` over the subset's
bitmask gives the same connectivity as the set-based search, on vertex
subsets of generator graphs for every k in 0..d."""

from hypothesis import given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems.graphs import induced_flaw, induces_connected, vertex_mask

import reference_induced as ref

TRIANGLE = ks.simplex(2)
INSTANCES = [
    ks.cube(3),
    ks.cube(4),
    ks.simplex(4),
    ks.product(ks.cube(1), TRIANGLE),
    ks.product(TRIANGLE, ks.cube(2)),
    ks.product(ks.simplex(3), ks.simplex(3)),
    ks.fig1(),
]
#: per instance: its neighbour masks and its faces of every dimension j
#: as pairs (face, j), the whole polytope included
TABLES = [
    (
        inst.graph.neighbour_masks,
        [(t, j) for j in range(inst.graph.d) for t in ks.faces_from_incidence(inst, j).sets]
        + [(tuple(range(inst.graph.n)), inst.graph.d)],
    )
    for inst in INSTANCES
]


@st.composite
def vertex_subsets(draw):
    """An instance, a k in 0..d and a vertex subset of its graph in some
    order: empty, one vertex, a face, a face less one vertex, two disjoint
    faces of one dimension, or any subset.  Where a face is drawn, k is
    often its dimension, so that two disjoint faces are regular and
    disconnected."""
    i = draw(st.integers(0, len(INSTANCES) - 1))
    g = INSTANCES[i].graph
    faces = TABLES[i][1]
    k = draw(st.integers(0, g.d))
    kind = draw(st.sampled_from(["empty", "vertex", "face", "face_less_one", "two_faces", "any"]))
    if kind == "empty":
        t = []
    elif kind == "vertex":
        t = [draw(st.integers(0, g.n - 1))]
    elif kind == "any":
        t = draw(st.lists(st.integers(0, g.n - 1), unique=True))
    else:
        face, j = draw(st.sampled_from(faces))
        k = draw(st.sampled_from([j, k]))
        t = list(face)
        if kind == "face_less_one":
            t.pop(draw(st.integers(0, len(t) - 1)))
        if kind == "two_faces":
            apart = [f for f, dim in faces if dim == j and not set(f) & set(t)]
            if apart:
                t += draw(st.sampled_from(apart))
    return i, k, draw(st.permutations(t))


@settings(max_examples=500, deadline=None)
@given(vertex_subsets())
def test_induced_flaw_matches_the_set_based_tests(case):
    i, k, t = case
    g = INSTANCES[i].graph
    nbr = TABLES[i][0]
    regular = ref.is_k_regular_set(g, t, k)
    want = "regular" if not regular else None if ref.induces_connected(g, t) else "connected"
    mask = vertex_mask(t)
    assert induced_flaw(nbr, t, mask, k) == want
    assert induced_flaw(nbr, t, mask, k, connected=False) == (None if regular else "regular")
    assert ks.is_k_regular_set(g, t, k) == regular
    assert induces_connected(nbr, mask) == ref.induces_connected(g, t)
