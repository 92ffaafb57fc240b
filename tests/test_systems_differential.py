"""The k-system validator agrees with the reference two-pass validator on
mutated face families: the same verdict, regularity flags, coverage and
defect lines, and the same refusal from ``frame_coverage``."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems.errors import NotRegular

import reference_systems as ref

INSTANCES = {
    "cube3": ks.cube(3),
    "cube4": ks.cube(4),
    "prism": ks.product(ks.cube(1), ks.simplex(2)),
    "simplex4": ks.simplex(4),
    "fig1": ks.fig1(),
}
CASES = [
    ("cube3", 2),
    ("cube4", 2),
    ("cube4", 3),
    ("prism", 2),
    ("simplex4", 2),
    ("simplex4", 3),
    ("fig1", 2),
]
REGULAR = {
    (name, k): ks.connected_k_regular_sets(INSTANCES[name].graph, k)
    for name, k in CASES
}


@st.composite
def mutated_families(draw):
    """F_k of an instance after a few drops, additions, swaps and
    additions of arbitrary (mostly irregular) vertex sets."""
    name, k = draw(st.sampled_from(CASES))
    inst = INSTANCES[name]
    g = inst.graph
    family = list(ks.faces_from_incidence(inst, k).sets)
    ops = st.lists(st.sampled_from(["drop", "add", "swap", "irregular"]), max_size=4)
    for op in draw(ops):
        if op in ("drop", "swap") and family:
            family.pop(draw(st.integers(0, len(family) - 1)))
        if op in ("add", "swap"):
            family.append(draw(st.sampled_from(REGULAR[(name, k)])))
        if op == "irregular":
            vertices = st.integers(0, g.n - 1)
            family.append(tuple(sorted(draw(st.sets(vertices, min_size=k + 1)))))
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
