"""Facet reconstruction and the k-system stream agree with the earlier
code kept in ``reference_systems``, which built its own frames: the same
facets or the same refusal (error type and message) on mutated 2-face
families, and the same k-systems in the same order, also on relabelled
graphs."""

from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems.errors import KSystemsError

import reference_systems as ref

TRIANGLE = ks.simplex(2)
INSTANCES = {
    "cube3": ks.cube(3),
    "cube4": ks.cube(4),
    "prism": ks.product(ks.cube(1), TRIANGLE),
    "fig1": ks.fig1(),
    "triangle_x_square": ks.product(TRIANGLE, ks.cube(2)),
    "triangle_cubed": ks.product(ks.product(TRIANGLE, TRIANGLE), TRIANGLE),
    "tet_x_triangle": ks.product(ks.simplex(3), TRIANGLE),
}

# -- facets_from_2faces ---------------------------------------------------------

FACET_CASES = ["cube4", "prism", "fig1", "triangle_cubed", "tet_x_triangle"]
F2 = {name: ks.faces_from_incidence(INSTANCES[name], 2) for name in FACET_CASES}
CYCLES = {
    name: ks.connected_k_regular_sets(INSTANCES[name].graph, 2) for name in FACET_CASES
}
# Other 2-systems (the exact cover of triangle_cubed is too large to list):
# valid families that are not F_2, some with disconnected members, reach
# the connectivity refusal and the transport contradictions.
OTHER_2_SYSTEMS = {
    name: list(islice(ks.enumerate_k_systems(INSTANCES[name].graph, 2), 40))
    for name in ["cube4", "prism", "fig1", "tet_x_triangle"]
}


def _facets_or_refusal(facets_from_2faces, g, s):
    try:
        return facets_from_2faces(g, s)
    except KSystemsError as exc:
        return type(exc), str(exc)


@st.composite
def mutated_2face_families(draw):
    """F_2, or another 2-system, after a few drops, additions or swaps of
    induced cycles, and additions of irregular or disconnected members."""
    name = draw(st.sampled_from(FACET_CASES))
    g = INSTANCES[name].graph
    starts = st.just(F2[name])
    if OTHER_2_SYSTEMS.get(name):
        starts = starts | st.sampled_from(OTHER_2_SYSTEMS[name])
    family = list(draw(starts).sets)
    cycles = st.sampled_from(CYCLES[name])
    ops = ["drop", "add", "swap", "irregular", "disconnected"]
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        if op in ("drop", "swap") and family:
            family.pop(draw(st.integers(0, len(family) - 1)))
        if op in ("add", "swap"):
            family.append(draw(cycles))
        if op == "irregular":
            vertices = st.integers(0, g.n - 1)
            family.append(tuple(sorted(draw(st.sets(vertices, min_size=3)))))
        if op == "disconnected":
            a = draw(cycles)
            near = set(a).union(*(g.adjacency[v] for v in a))
            apart = [c for c in CYCLES[name] if near.isdisjoint(c)]
            if apart:
                family.append(tuple(sorted(a + draw(st.sampled_from(apart)))))
    return g, ks.make_set_system(g, 2, dict.fromkeys(family))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_2face_families())
def test_facets_from_2faces_matches_reference(case):
    g, s = case
    assert _facets_or_refusal(ks.facets_from_2faces, g, s) == _facets_or_refusal(
        ref.facets_from_2faces, g, s
    )


@pytest.mark.parametrize("name", FACET_CASES)
def test_facets_and_refusals_match_reference_unmutated(name):
    inst = INSTANCES[name]
    g = inst.graph
    got = ks.facets_from_2faces(g, F2[name])
    assert got == ref.facets_from_2faces(g, F2[name])
    assert got.sets == inst.facets
    for s in OTHER_2_SYSTEMS.get(name, []):
        assert _facets_or_refusal(ks.facets_from_2faces, g, s) == _facets_or_refusal(
            ref.facets_from_2faces, g, s
        )


# -- enumerate_k_systems --------------------------------------------------------

# cube4 has too many 2-systems to list them all: compare the first 300
STREAM_CASES = [
    ("cube3", 2, ks.search.DEFAULT_COUNT_CAP),
    ("cube4", 2, 300),
    ("cube4", 3, ks.search.DEFAULT_COUNT_CAP),
    ("fig1", 2, ks.search.DEFAULT_COUNT_CAP),
    ("prism", 2, ks.search.DEFAULT_COUNT_CAP),
    ("triangle_x_square", 2, ks.search.DEFAULT_COUNT_CAP),
    ("triangle_x_square", 3, ks.search.DEFAULT_COUNT_CAP),
]


@pytest.mark.parametrize("include_merged", [True, False])
@pytest.mark.parametrize("name,k,count_cap", STREAM_CASES)
def test_k_system_stream_matches_reference(name, k, count_cap, include_merged):
    g = INSTANCES[name].graph
    got = list(
        ks.enumerate_k_systems(g, k, count_cap=count_cap, include_merged=include_merged)
    )
    want = list(islice(ref.enumerate_k_systems(g, k, include_merged), count_cap))
    assert got == want
    assert 0 < len(got) <= count_cap


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["cube3", "prism", "fig1", "triangle_x_square"]),
    st.booleans(),
    st.data(),
)
def test_k_system_stream_matches_reference_after_relabelling(name, include_merged, data):
    g = INSTANCES[name].graph
    perm = data.draw(st.permutations(range(g.n)))
    rg = ks.validate_graph(g.d, g.n, [(perm[u], perm[v]) for u, v in g.edges])
    got = list(islice(ks.enumerate_k_systems(rg, 2, include_merged=include_merged), 200))
    assert got == list(islice(ref.enumerate_k_systems(rg, 2, include_merged), 200))
