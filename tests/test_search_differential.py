"""The orientation search agrees with the earlier code kept in
``reference_search``: the same acyclic orientations in the same order,
and from ``minimize_hk`` the same least H^k with the same first witness
as scoring every orientation through ``indegree_histogram`` and
``hk_sum``."""

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksystems as ks
from ksystems import search

import reference_search as ref

TRIANGLE = ks.simplex(2)
INSTANCES = {
    "cube3": ks.cube(3),
    "prism": ks.product(ks.cube(1), TRIANGLE),
    "fig1": ks.fig1(),
}
# d = 4 and 24 edges: past the default budget, and its 927 828 acyclic
# orientations take about 10 s per minimization, so it is compared on a
# prefix of its stream and on a sample of its orientations
TRIANGLE_X_SQUARE = ks.product(TRIANGLE, ks.cube(2)).graph


def _ks(g):
    return [*range(g.d + 1), ks.ALL]


def _relabelled(g, perm):
    return ks.validate_graph(g.d, g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _same_minimum(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("name", INSTANCES)
def test_orientation_stream_matches_reference(name):
    g = INSTANCES[name].graph
    assert list(ks.enumerate_acyclic_orientations(g)) == list(ref.acyclic_orientations(g))


def test_orientation_stream_prefix_matches_reference_past_the_default_budget():
    g = TRIANGLE_X_SQUARE
    got = islice(ks.enumerate_acyclic_orientations(g, budget=2 ** len(g.edges)), 20_000)
    assert list(got) == list(islice(ref.acyclic_orientations(g), 20_000))


@pytest.mark.parametrize("k", [0, 1, 2, 3, ks.ALL])
@pytest.mark.parametrize("name", INSTANCES)
def test_minimize_hk_matches_reference(name, k):
    g = INSTANCES[name].graph
    _same_minimum(ks.minimize_hk(g, k), ref.least_hk(g, k, ref.acyclic_orientations(g)))


def test_minimize_hk_matches_reference_on_sampled_orientations(monkeypatch):
    # acyclic orientations of triangle x square, each edge towards the
    # later end in a random vertex order; repeats and ties included
    g = TRIANGLE_X_SQUARE
    rng = random.Random(7)
    sample = []
    for _ in range(3000):
        rank = rng.sample(range(g.n), g.n)
        sample.append(ks.make_orientation(g, [int(rank[v] > rank[u]) for u, v in g.edges]))
    monkeypatch.setattr(search, "enumerate_acyclic_orientations", lambda g, budget: iter(sample))
    for k in _ks(g):
        _same_minimum(ks.minimize_hk(g, k), ref.least_hk(g, k, sample))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["cube3", "prism"]), st.data())
def test_minimize_hk_matches_reference_after_relabelling(name, data):
    g = INSTANCES[name].graph
    rg = _relabelled(g, data.draw(st.permutations(range(g.n))))
    k = data.draw(st.sampled_from(_ks(rg)))
    assert list(ks.enumerate_acyclic_orientations(rg)) == list(ref.acyclic_orientations(rg))
    _same_minimum(ks.minimize_hk(rg, k), ref.least_hk(rg, k, ref.acyclic_orientations(rg)))


def test_min_h2_is_f2_on_fig1():
    inst = INSTANCES["fig1"]
    value, witness = ks.minimize_hk(inst.graph, 2)
    assert value == len(ks.faces_from_incidence(inst, 2).sets) == 8
    assert ks.is_aof_oracle(inst, witness)
