"""Input generation is seeded, and the independent references are right."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import pytest  # noqa: E402

from ksystems import oracle  # noqa: E402
from kbench import certify, faces, inputs, searchjobs  # noqa: E402


def test_certify_documents_repeat_byte_for_byte_and_never_across_rounds():
    state = certify.setup(7, 0)
    n = len(state)
    first = [state.op_at(i).texts for i in range(n)]
    assert first == [op.texts for op in map(certify.setup(7, 0).op_at, range(n))]
    assert first != [op.texts for op in map(certify.setup(8, 0).op_at, range(n))]
    # within a round graphs repeat but no two claims are the same
    assert len({texts[1:] for texts in first}) == n
    assert len({texts[0] for texts in first}) == len(certify.POOL)
    second = [state.op_at(i).texts for i in range(n, 2 * n)]
    assert not {t for texts in first for t in texts} & {t for texts in second for t in texts}
    assert [op.kind for op in map(state.op_at, range(n))] == [op.kind for op in map(state.op_at, range(n, 2 * n))]


def test_faces_documents_repeat_and_never_recur_within_a_run():
    state = faces.setup(3, 0)
    again = faces.setup(3, 0)
    texts = [state.op_at(i).text for i in range(len(state) + 5)]
    assert texts == [again.op_at(i).text for i in range(len(texts))]
    assert len(set(texts + [op.text for op in state.warm])) == len(texts) + len(state.warm)
    assert texts[0] != faces.setup(4, 0).op_at(0).text


def test_search_jobs_repeat_on_instances_never_seen_before():
    def signature(state, indices):
        return [(op.kind, op.k, op.inst.name, op.inst.graph.edges) for op in map(state.op_at, indices)]

    state = searchjobs.setup(5, 1)
    n = len(state)
    assert signature(state, range(n)) == signature(searchjobs.setup(5, 1), range(n))
    assert signature(state, range(n)) != signature(searchjobs.setup(6, 1), range(n))
    ops = [state.op_at(i) for i in range(2 * n)] + state.warm
    assert len({op.inst for op in ops}) == len(ops)
    assert [op.kind for op in ops[:n]] == [op.kind for op in ops[n:2 * n]]


@pytest.mark.parametrize("recipe", [
    ("cube", 4),
    ("simplex", 4),
    ("polygon", 7),
    ("product", ("simplex", 2), ("cube", 3)),
    ("truncate", ("cube", 4), 0),
    ("truncate", ("truncate", ("cube", 3), 0), 0),
])
def test_f_vector_formulas_match_facet_incidence(recipe):
    assert inputs.f_vector(recipe) == oracle.f_vector(inputs.build(recipe))


def test_truncation_keeps_a_geometric_aof():
    recipe = ("truncate", ("truncate", ("cube", 4), 0), 14)
    inst = inputs.build(recipe)
    o = oracle.geometric_aof(inst, [3, 5, 7, 11])
    assert oracle.is_aof_oracle(inst, o)


def test_reference_helpers_agree_on_a_cycle():
    inst = inputs.build(("cube", 3))
    g = inst.graph
    heads = oracle.geometric_aof(inst, [1, 2, 4]).heads
    assert inputs.acyclic(g, heads)
    assert inputs.h_vector(g, heads) == [1, 3, 3, 1]
    face = oracle.faces_from_incidence(inst, 2).sets[0]
    assert not inputs.acyclic(g, inputs.cyclic_face(g, heads, face))
    assert inputs.is_k_system(g, 2, oracle.faces_from_incidence(inst, 2).sets)
    assert not inputs.is_k_system(g, 2, oracle.faces_from_incidence(inst, 2).sets[1:])
