"""The traced run's search counts come from the program's own calls."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

from ksystems import chromatic, search  # noqa: E402
from kbench import inputs, searchjobs  # noqa: E402
from kbench.trace import Api, Tracer  # noqa: E402


def traced_counts(call):
    tracer = Tracer()
    with Api(tracer) as api:
        tracer.start_op(0)
        result = call(api.fn)
        tracer.end_op()
    return result, tracer


def test_counts_match_the_references():
    g = inputs.build(("cube", 3), coords=False).graph
    reference = searchjobs.load_reference()["cube(3)"]["2"]
    _, tracer = traced_counts(lambda fn: fn.count_orientations(g))
    assert tracer.counts["search.orientations"] == chromatic.acyclic_orientation_count(g.n, g.edges)
    _, tracer = traced_counts(lambda fn: (fn.minimize_hk(g, 2), fn.max_k_system(g, 2)))
    assert tracer.counts["search.orientations"] == chromatic.acyclic_orientation_count(g.n, g.edges)
    assert tracer.counts["search.candidates"] == reference["candidates"]
    assert tracer.counts["search.systems"] == reference["covers"]


def test_spans_only_while_an_op_runs_and_names_put_back():
    g = inputs.build(("cube", 3), coords=False).graph
    original = search.enumerate_k_systems
    tracer = Tracer()
    with Api(tracer) as api:
        api.fn.max_k_system(g, 2)
        assert len(tracer.ids) == 0
        tracer.start_op(3)
        api.fn.max_k_system(g, 2)
        tracer.end_op()
    assert search.enumerate_k_systems is original
    names = {tracer.names[nid] for nid in tracer.name_ids}
    assert names == {"search.max_ksystem", "systems.validate"}
    assert set(tracer.ops) == {3}
