"""Workload ``search``: exhaustive jobs on small simple-polytope graphs.

Orientation jobs sweep every acyclic orientation (enumeration, minimum
H^2, and the k = 2 k-sink counterexample search); exact-cover jobs build
k-systems (largest one, and the full stream).  Every op runs its job on
a fresh seeded relabelling of the graph, so no instance recurs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from ksystems import chromatic, oracle

from . import inputs

ORIENTATION_KINDS = ("enum_orient", "min_hk", "k_sink")
COVER_KINDS = ("max_ksystem", "enum_ksystems")
LABELLINGS = 3  # each job is 3 positions: the cycle holds 34 x 3 = 102

TRI = ("simplex", 2)
PENTAGON = ("polygon", 5)
CUBE3 = ("cube", 3)
PRISM3 = ("product", ("cube", 1), TRI)
PRISM5 = ("product", ("cube", 1), PENTAGON)
TRI_TRI = ("product", TRI, TRI)
TET_PRISM = ("product", ("simplex", 3), ("cube", 1))
TRUNC2_TET = ("truncate", ("truncate", ("simplex", 3), 0), 0)
SIMPLEX5 = ("simplex", 5)
TRI_SQ = ("product", TRI, ("cube", 2))
TET_TRI = ("product", ("simplex", 3), TRI)
TRI_TRI_SEG = ("product", TRI_TRI, ("cube", 1))
TRI_PENT = ("product", TRI, PENTAGON)
SQ_PENT = ("product", ("cube", 2), PENTAGON)
CUBE4 = ("cube", 4)

# (kind, recipe, k, copies per cycle).  Orientation graphs have at most
# 18 edges; every exact-cover job stays far below the default caps.  No
# job takes much over 0.1 s, so a 30-second run goes round the cycle
# about eight times.
JOBS = (
    ("enum_orient", CUBE3, 2, 1),
    ("enum_orient", PRISM5, 2, 1),
    ("enum_orient", TRI_TRI, 2, 1),
    ("min_hk", CUBE3, 2, 1),
    ("min_hk", TET_PRISM, 2, 1),
    ("min_hk", TRUNC2_TET, 2, 1),
    ("k_sink", CUBE3, 2, 1),
    ("k_sink", ("simplex", 4), 2, 1),
    ("k_sink", PRISM3, 2, 1),
    ("k_sink", TRUNC2_TET, 2, 1),
    ("enum_ksystems", TRI_SQ, 2, 2),
    ("max_ksystem", TRI_SQ, 2, 2),
    ("enum_ksystems", TET_TRI, 2, 2),
    ("max_ksystem", TET_TRI, 2, 2),
    ("enum_ksystems", TRI_TRI_SEG, 3, 2),
    ("max_ksystem", TRI_TRI_SEG, 3, 2),
    ("max_ksystem", TRI_PENT, 2, 2),
    ("enum_ksystems", CUBE4, 3, 2),
    ("max_ksystem", CUBE4, 3, 1),
    ("enum_ksystems", SQ_PENT, 3, 1),
    ("max_ksystem", TET_TRI, 3, 1),
    ("enum_ksystems", TET_TRI, 4, 1),
    ("enum_ksystems", TRI_SQ, 3, 1),
    ("max_ksystem", TRI_TRI, 2, 1),
    ("enum_ksystems", SIMPLEX5, 3, 1),
    ("max_ksystem", CUBE3, 2, 1),
)

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "reference.json"


@dataclass(frozen=True)
class Op:
    """A job; a position holds it on the unlabelled graph, an op on a relabelling."""

    kind: str
    name: str
    inst: object
    k: int
    fk: int
    orientations: int
    expected_systems: int


def load_reference() -> dict:
    """k-system counts recorded for the pool: ``{recipe name: {k: {...}}}``."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


class State(inputs.Cycle):
    """Positions are jobs in a seeded order; op i runs its job on a fresh
    seeded relabelling of the graph, named after i."""

    def __init__(self, seed: int, rep: int) -> None:
        self.seed, self.rep = seed, rep
        reference = load_reference()
        bases: dict[str, tuple] = {}
        self.positions = []
        for kind, recipe, k, copies in JOBS:
            name = inputs.recipe_name(recipe)
            if name not in bases:
                base = inputs.build(recipe, coords=False)
                orientations = 0
                if len(base.graph.edges) <= 22:
                    orientations = chromatic.acyclic_orientation_count(base.graph.n, base.graph.edges)
                bases[name] = (base, inputs.f_vector(recipe), orientations)
            base, fvec, orientations = bases[name]
            job = Op(kind, name, base, k, fvec[k], orientations if kind in ORIENTATION_KINDS else 0,
                     reference.get(name, {}).get(str(k), {}).get("systems", -1))
            self.positions += [job] * (copies * LABELLINGS)
        # The first job of each kind in JOBS, in the pool's own labelling,
        # so every seed's set-up does the same work, and under a name no
        # timed op gets.
        first = {job.kind: job for job in reversed(self.positions)}
        self.warm = [
            replace(job, inst=oracle.make_instance(f"{job.name}#warm-{job.kind}-{seed}.{rep}", job.inst.graph, job.inst.facets))
            for job in first.values()
        ]
        inputs.seeded_rng("search", seed, rep).shuffle(self.positions)

    def op_at(self, i: int) -> Op:
        return self._op(self.positions[i % len(self)], i)

    def _op(self, job: Op, i: int) -> Op:
        rng = inputs.seeded_rng("search", self.seed, self.rep, i)
        return replace(job, inst=inputs.relabel(job.inst, rng, f"{job.name}#{i}"))


def setup(seed: int, rep: int) -> State:
    """The cycle of jobs with their references, and the warm-up ops."""
    return State(seed, rep)


def run(api, op: Op):
    fn = api.fn
    g = op.inst.graph
    if op.kind == "enum_orient":
        return fn.count_orientations(g)
    if op.kind == "min_hk":
        value, witness = fn.minimize_hk(g, op.k)
        return value, witness.heads
    if op.kind == "k_sink":
        return fn.search_k_sink_counterexample(op.inst, op.k)
    if op.kind == "max_ksystem":
        best = fn.max_k_system(g, op.k)
        return None if best is None else best.sets
    if op.kind == "enum_ksystems":
        return fn.sweep_k_systems(g, op.k)
    raise ValueError(op.kind)


def check(op: Op, result) -> bool:
    g = op.inst.graph
    if op.kind == "enum_orient":
        return result == op.orientations
    if op.kind == "min_hk":
        value, heads = result
        return (
            value == op.fk
            and inputs.acyclic(g, heads)
            and inputs.h_k(inputs.h_vector(g, heads), 2) == value
        )
    if op.kind == "k_sink":
        return result is None
    if op.kind == "max_ksystem":
        return result is not None and len(result) == op.fk and inputs.is_k_system(g, op.k, result)
    return result == (op.expected_systems, op.fk)
