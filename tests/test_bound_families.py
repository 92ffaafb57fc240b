"""Families the package builds are bound to their graph directly, not
through ``make_set_system``, the gate for families from outside.  Each of
them must still be what that gate would make of it: the same members,
sorted, distinct and listed in order, under the same k and fingerprint.
This is checked on the corpora of the face and frame differential tests."""

from collections import Counter
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings

import ksystems as ks
from ksystems import certificates, oracle, search, systems
from ksystems.errors import KSystemsError
from ksystems.oracle import Instance

import test_faces_differential as faces_corpus
import test_frames_differential as frames_corpus


def assert_canonical(g, s):
    assert s == ks.make_set_system(g, s.k, s.sets)


@pytest.mark.parametrize("name", sorted(faces_corpus.INSTANCES))
def test_faces_and_facets_are_canonical(name):
    inst = faces_corpus.INSTANCES[name]
    g = inst.graph
    for k in range(g.d):
        assert_canonical(g, ks.faces_from_incidence(inst, k))
    if g.d >= 3:
        assert_canonical(g, ks.facets_from_2faces(g, ks.faces_from_incidence(inst, 2)))


@pytest.mark.parametrize("name", faces_corpus.PAIR_CASES)
def test_faces_of_unchecked_facet_lists_are_canonical(name):
    # facet lists no constructor has checked yet: the instances the
    # constructor builds from them give canonical faces
    g = faces_corpus.INSTANCES[name].graph
    built = 0
    for facets in faces_corpus.FACET_LISTS[name]:
        try:
            inst = Instance(name=name, graph=g, facets=facets)
        except KSystemsError:
            continue
        built += 1
        for k in range(g.d):
            assert_canonical(g, ks.faces_from_incidence(inst, k))
    assert built >= 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frames_corpus.mutated_2face_families())
def test_reconstructed_facets_are_canonical(case):
    g, s = case
    try:
        facets = ks.facets_from_2faces(g, s)
    except KSystemsError:
        return
    assert_canonical(g, facets)


@pytest.mark.parametrize("include_merged", [True, False])
@pytest.mark.parametrize("name,k,count_cap", frames_corpus.STREAM_CASES)
def test_k_system_streams_are_canonical(name, k, count_cap, include_merged):
    g = frames_corpus.INSTANCES[name].graph
    stream = ks.enumerate_k_systems(
        g, k, count_cap=count_cap, include_merged=include_merged
    )
    for s in stream:
        assert_canonical(g, s)


def test_builders_do_not_call_make_set_system(monkeypatch):
    calls = Counter()
    gate = systems.make_set_system

    def counted(*args, **kwargs):
        calls["make_set_system"] += 1
        return gate(*args, **kwargs)

    # counted under the name in every module a builder lives in, whether or
    # not that module imports it
    for module in (systems, oracle, certificates, search):
        monkeypatch.setattr(module, "make_set_system", counted, raising=False)
    inst = ks.cube(4)
    g = inst.graph
    f2 = oracle.faces_from_incidence.__wrapped__(inst, 2)  # past the cache
    ks.facets_from_2faces(g, f2)
    list(islice(ks.enumerate_k_systems(g, 2), 20))
    list(islice(ks.enumerate_k_systems(g, 2, include_merged=False), 20))
    ks.max_k_system(ks.cube(3).graph, 2)
    assert calls["make_set_system"] == 0
