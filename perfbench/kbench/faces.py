"""Workload ``faces``: the build side of the face layers.

Every op gets an instance document no earlier op saw: a fresh seeded
relabelling of a pool polytope, named after the op.  The op parses it,
enumerates its k-faces for every k from facet incidence, rebuilds the
facets from the 2-faces and dumps them.  The result must give back the
document's own facets and the f-vector of the polytope's closed formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import inputs


def cut(recipe, times: int):
    """Truncate vertex 0 ``times`` times over."""
    for _ in range(times):
        recipe = ("truncate", recipe, 0)
    return recipe


# (label, recipe, positions in the cycle).  Ordered by latency, op_p50_ms
# falls among the tet_tet and prism40 positions (about 13 ms each) and
# op_p90_ms among the tri_tri_tri and prism60 ones (about 28 ms each),
# away from the edges between two sizes.  cube6 and cube7 take about half
# of the time of a round, most of it in facets_from_2faces.
POOL = (
    ("cube7", ("cube", 7), 1),
    ("cube6", ("cube", 6), 6),
    ("tri_tri_tri", ("product", ("product", ("simplex", 2), ("simplex", 2)), ("simplex", 2)), 10),
    ("prism60", ("product", ("cube", 1), ("polygon", 60)), 10),
    ("prism40", ("product", ("cube", 1), ("polygon", 40)), 25),
    ("tet_tet", ("product", ("simplex", 3), ("simplex", 3)), 25),
    ("cube3_cut12", cut(("cube", 3), 12), 28),
)


@dataclass(frozen=True)
class Op:
    kind: str
    text: str
    d: int
    facets: list
    fvec: tuple[int, ...]


class State(inputs.Cycle):
    """Positions are pool entries in a seeded order; op i is its entry
    under a fresh labelling seeded with i and named after i."""

    def __init__(self, seed: int, rep: int) -> None:
        self.seed, self.rep = seed, rep
        self.bases = [
            (label, recipe, inputs.build(recipe, coords=False), inputs.f_vector(recipe))
            for label, recipe, _ in POOL
        ]
        self.positions = [i for i, (_, _, weight) in enumerate(POOL) for _ in range(weight)]
        inputs.seeded_rng("faces", seed, rep).shuffle(self.positions)
        # One op per pool entry of d <= 6, in the pool's own labelling, so
        # every seed's set-up does the same work, and under a name no timed
        # op gets.
        self.warm = [self._op(j, range(base.graph.n), f"warm{seed}.{rep}")
                     for j, (_, _, base, _) in enumerate(self.bases) if base.graph.d <= 6]

    def op_at(self, i: int) -> Op:
        entry = self.positions[i % len(self)]
        perm = list(range(self.bases[entry][2].graph.n))
        inputs.seeded_rng("faces", self.seed, self.rep, i).shuffle(perm)
        return self._op(entry, perm, str(i))

    def _op(self, entry: int, perm, tag: str) -> Op:
        label, recipe, base, fvec = self.bases[entry]
        doc = instance_doc(base, perm, f"{inputs.recipe_name(recipe)}#{tag}")
        return Op(label, inputs.canonical(doc), base.graph.d, doc["facets"], fvec)


def setup(seed: int, rep: int) -> State:
    """The pool built, the cycle shuffled, and the warm-up ops."""
    return State(seed, rep)


def instance_doc(base, perm, name: str) -> dict:
    """The instance document of ``base`` with vertex v renamed perm[v]."""
    g = base.graph
    edges = sorted(sorted((perm[u], perm[v])) for u, v in g.edges)
    return {
        "name": name,
        "d": g.d,
        "graph": {"d": g.d, "n": g.n, "edges": edges},
        "facets": sorted(sorted(perm[x] for x in t) for t in base.facets),
        "coords": None,
    }


def run(api, op: Op):
    fn = api.fn
    inst = fn.parse_instance(op.text)
    families = [fn.faces_from_incidence(inst, k) for k in range(op.d)]
    facets = fn.facets_from_2faces(inst.graph, families[2])
    return tuple(len(s.sets) for s in families), fn.dump_set_system(facets)


def check(op: Op, result) -> bool:
    fvec, dumped = result
    doc = json.loads(dumped)
    return fvec == op.fvec and doc["k"] == op.d - 1 and doc["sets"] == op.facets
