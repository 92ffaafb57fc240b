"""Workload ``certify``: the polynomial-time checking path.

A stream of canonical JSON documents about mid-sized to large simple
polytopes.  About half are genuine; the rest are mutated so that the
verdict, and the check that refutes them, are fixed by how they were
built.  Graph documents repeat across ops, as when many claims are made
about one polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ksystems import oracle
from ksystems.errors import DegenerateWeights

from . import inputs


# (op kind, variant) -> expected outcome.  Verdict ops expect
# ("VERIFIED", None) or ("REFUTED", failed_check).
VERDICT_CASES = {
    ("certify_faces", "genuine"): ("VERIFIED", None),
    ("certify_faces", "dropped_member"): ("REFUTED", "k-system"),
    ("certify_faces", "added_member"): ("REFUTED", "k-system"),
    ("certify_faces", "irregular_member"): ("REFUTED", "k-system"),
    ("certify_faces", "cyclic_witness"): ("REFUTED", "acyclic"),
    ("certify_faces", "wrong_hk_witness"): ("REFUTED", "count"),
    ("certify_aof", "genuine"): ("VERIFIED", None),
    ("certify_aof", "dropped_member"): ("REFUTED", "k-system"),
    ("certify_aof", "cyclic_candidate"): ("REFUTED", "acyclic"),
    ("certify_aof", "not_aof"): ("REFUTED", "count"),
    ("refute_faces", "genuine"): ("VERIFIED", None),
    ("refute_faces", "not_larger"): ("REFUTED", "count"),
    ("refute_faces", "invalid_competitor"): ("REFUTED", "k-system"),
    ("refute_aof", "genuine"): ("VERIFIED", None),
    ("refute_aof", "not_smaller"): ("REFUTED", "count"),
    ("refute_aof", "cyclic_competitor"): ("REFUTED", "acyclic"),
}
OTHER_CASES = (
    ("validate", "genuine"),
    ("validate", "dropped_member"),
    ("validate", "irregular_member"),
    ("hvector", "aof"),
    ("hvector", "ranked"),
    ("hvector", "cyclic"),
)
# The cases of one instance: each once, genuine ones again so that about
# half the documents are genuine.  A repeated case gets its own AOF
# witness, so no two documents of a round are the same.
CASES = tuple(VERDICT_CASES) + OTHER_CASES + (
    ("certify_faces", "genuine"),
    ("certify_faces", "genuine"),
    ("certify_faces", "genuine"),
    ("certify_aof", "genuine"),
    ("certify_aof", "genuine"),
    ("refute_faces", "genuine"),
    ("refute_aof", "genuine"),
    ("hvector", "aof"),
)
CORE_CASES = tuple(VERDICT_CASES) + OTHER_CASES
# The program's face enumeration without its unbounded cache: documents
# are made for new labels every round, and caching their faces would grow
# the heap the measured ops run in, round after round.
_faces_uncached = oracle.faces_from_incidence.__wrapped__

WARM_INSTANCE = 5  # tet x tet, n = 16: set-up warms up on it, one op per kind

# (recipe, k values of its face claims, cases): 7 x 30 + 22 = 232
# documents a round.  cube8 gets only the core cases, so its slow ops are
# about 7 % of the cycle and op_p90_ms falls inside the band of cube7 and
# truncated-cube7 ops with k = 3-4, not on the step up to cube8.
POOL = (
    (("cube", 6), (2, 3), CASES),
    (("cube", 7), (2, 4), CASES),
    (("cube", 8), (2,), CORE_CASES),
    (("truncate", ("truncate", ("cube", 6), 0), 62), (2, 4), CASES),
    (("truncate", ("cube", 7), 0), (3,), CASES),
    (("product", ("simplex", 3), ("simplex", 3)), (2,), CASES),
    (("product", ("product", ("simplex", 2), ("simplex", 2)), ("simplex", 2)), (2, 3), CASES),
    (("product", ("simplex", 2), ("cube", 4)), (2, 3), CASES),
)


@dataclass(frozen=True)
class Op:
    kind: str
    variant: str
    graph_key: str
    k: int
    texts: tuple[str, ...]
    expected: tuple


class Claims:
    """Genuine and mutated material about one relabelled instance."""

    def __init__(self, recipe, base, rng, name: str) -> None:
        """``base`` is ``inputs.build(recipe)``, relabelled here by ``rng``."""
        self.inst = inputs.relabel(base, rng, name)
        self.g = g = self.inst.graph
        self.fvec = inputs.f_vector(recipe)
        self.rng = rng
        self.graph_text = inputs.canonical(inputs.graph_doc(g))
        self.faces = {}
        self.aofs = [self._aof_witness()]
        self.aof = self.aofs[0]
        self.ranked = self._ranked_orientation()
        f2 = self.face_sets(2)
        self.cyclic = inputs.cyclic_face(g, self.aof, f2[rng.randrange(len(f2))])

    def face_sets(self, k: int) -> list[tuple[int, ...]]:
        if k not in self.faces:
            s = _faces_uncached(self.inst, k)
            if len(s.sets) != self.fvec[k]:
                raise RuntimeError(f"{self.inst.name}: {len(s.sets)} {k}-faces, formula says {self.fvec[k]}")
            self.faces[k] = list(s.sets)
        return self.faces[k]

    def witness(self, copy: int) -> tuple[int, ...]:
        """The copy-th of the instance's AOF witnesses, all different: a
        linear functional's orientation, then its reverse (the functional
        negated), then another functional's, and so on."""
        for _ in range(20):
            if len(self.aofs) > copy:
                return self.aofs[copy]
            if len(self.aofs) % 2:
                heads = self._checked_aof(tuple(1 - b for b in self.aofs[-1]))
            else:
                heads = self._aof_witness()
            if heads not in self.aofs:
                self.aofs.append(heads)
        raise RuntimeError(f"{self.inst.name}: random functionals keep giving the same witness")

    def _aof_witness(self) -> tuple[int, ...]:
        """A linear functional's orientation."""
        dim = len(self.inst.coords[0])
        for _ in range(20):
            weights = [self.rng.randrange(-10**6, 10**6) for _ in range(dim)]
            try:
                return self._checked_aof(oracle.geometric_aof(self.inst, weights).heads)
            except DegenerateWeights:
                continue
        raise RuntimeError(f"{self.inst.name}: no generic weights found")

    def _checked_aof(self, heads) -> tuple[int, ...]:
        if inputs.h_k(inputs.h_vector(self.g, heads), 2) != self.fvec[2]:
            raise RuntimeError(f"{self.inst.name}: geometric witness is not an AOF")
        return heads

    def _ranked_orientation(self) -> tuple[int, ...]:
        """An acyclic orientation with H^k > f_k for every k >= 2."""
        for _ in range(20):
            rank = list(range(self.g.n))
            self.rng.shuffle(rank)
            heads = inputs.rank_orientation(self.g, rank)
            h = inputs.h_vector(self.g, heads)
            if all(inputs.h_k(h, k) > self.fvec[k] for k in range(2, self.g.d)):
                return heads
        raise RuntimeError(f"{self.inst.name}: random orders keep hitting f_k")

    # -- families derived from F_k ------------------------------------------

    def dropped(self, k: int) -> list[tuple[int, ...]]:
        sets = list(self.face_sets(k))
        del sets[self.rng.randrange(len(sets))]
        return sets

    def irregular(self, k: int) -> tuple[list[tuple[int, ...]], int]:
        """Swap a member for itself plus one outside neighbour."""
        sets = list(self.face_sets(k))
        i = self.rng.randrange(len(sets))
        t = sets[i]
        inside = set(t)
        extra = min(x for v in t for x in self.g.adjacency[v] if x not in inside)
        sets[i] = tuple(sorted(t + (extra,)))
        return sets, len(t)

    def merged(self, k: int) -> list[tuple[int, ...]]:
        """A valid k-system one member short of F_k: two independent faces joined."""
        sets = list(self.face_sets(k))
        order = list(range(len(sets)))
        self.rng.shuffle(order)
        for i in order:
            for j in order:
                if i < j and inputs.independent(self.g, sets[i], sets[j]):
                    joined = tuple(sorted(sets[i] + sets[j]))
                    rest = [t for x, t in enumerate(sets) if x not in (i, j)]
                    return rest + [joined]
        raise RuntimeError(f"{self.inst.name}: no two independent {k}-faces")

    def added(self, k: int) -> list[tuple[int, ...]]:
        """F_k plus the union of two independent faces (frames covered twice)."""
        merged = self.merged(k)
        return self.face_sets(k) + [merged[-1]]

    # -- documents ------------------------------------------------------------

    def sets_text(self, k: int, sets) -> str:
        return inputs.canonical(inputs.set_system_doc(self.g, k, sets))

    def orientation_text(self, heads) -> str:
        return inputs.canonical(inputs.orientation_doc(self.g, heads))

    def face_certificate(self, k: int, sets, heads) -> str:
        return inputs.canonical({
            "type": "faces",
            "k": k,
            "sets": sorted(sorted(t) for t in sets),
            "orientation": inputs.orientation_doc(self.g, heads),
        })

    def aof_certificate(self, sets, heads) -> str:
        return inputs.canonical({
            "type": "aof",
            "sets": sorted(sorted(t) for t in sets),
            "orientation": inputs.orientation_doc(self.g, heads),
        })

    def op(self, kind: str, variant: str, k: int, copy: int = 0) -> Op:
        texts, expected = self._material(kind, variant, k, self.witness(copy))
        return Op(kind, variant, self.inst.name, k, (self.graph_text,) + texts, expected)

    def _material(self, kind: str, variant: str, k: int, aof):
        f = self.face_sets
        if kind == "certify_faces":
            sets, heads = f(k), aof
            if variant == "dropped_member":
                sets = self.dropped(k)
            elif variant == "added_member":
                sets = self.added(k)
            elif variant == "irregular_member":
                sets = self.irregular(k)[0]
            elif variant == "cyclic_witness":
                heads = self.cyclic
            elif variant == "wrong_hk_witness":
                heads = self.ranked
            return (self.face_certificate(k, sets, heads),), VERDICT_CASES[kind, variant]
        if kind == "certify_aof":
            sets, heads = f(2), aof
            if variant == "dropped_member":
                sets = self.dropped(2)
            elif variant == "cyclic_candidate":
                heads = self.cyclic
            elif variant == "not_aof":
                heads = self.ranked
            return (self.aof_certificate(sets, heads),), VERDICT_CASES[kind, variant]
        if kind == "refute_faces":
            claimed, competitor = self.merged(k), f(k)
            if variant == "not_larger":
                claimed, competitor = f(k), self.merged(k)
            elif variant == "invalid_competitor":
                competitor = self.irregular(k)[0]
            texts = (self.sets_text(k, claimed), self.sets_text(k, competitor))
            return texts, VERDICT_CASES[kind, variant]
        if kind == "refute_aof":
            claimed, competitor = self.ranked, aof
            if variant == "not_smaller":
                claimed, competitor = aof, self.ranked
            elif variant == "cyclic_competitor":
                competitor = self.cyclic
            texts = (self.orientation_text(claimed), self.orientation_text(competitor))
            return texts, VERDICT_CASES[kind, variant]
        if kind == "validate":
            if variant == "genuine":
                return (self.sets_text(k, f(k)),), (True, 0)
            if variant == "dropped_member":
                sets = self.dropped(k)
                # every vertex of the missing member leaves one frame uncovered
                missing = (set(f(k)) - set(sets)).pop()
                return (self.sets_text(k, sets),), (False, len(missing))
            sets, size = self.irregular(k)
            return (self.sets_text(k, sets),), (False, 1 + size)
        if kind == "hvector":
            heads = {"aof": aof, "ranked": self.ranked, "cyclic": self.cyclic}[variant]
            h = inputs.h_vector(self.g, heads)
            expected = (inputs.canonical(h), inputs.acyclic(self.g, heads), inputs.h_k(h, k))
            return (self.orientation_text(heads),), expected
        raise ValueError(kind)


class State(inputs.Cycle):
    """Positions are (instance, case) pairs in a seeded order.  Each round
    builds every instance under new labels and makes all its documents
    afresh, so graph documents repeat within a round and never across."""

    def __init__(self, seed: int, rep: int) -> None:
        self.seed, self.rep = seed, rep
        self.positions = [(index, j) for index, (_, _, cases) in enumerate(POOL) for j in range(len(cases))]
        inputs.seeded_rng("certify", seed, rep).shuffle(self.positions)
        self.bases = [inputs.build(recipe) for recipe, _, _ in POOL]
        self.round, self.ops = None, []
        self.op_at(0)
        # one op of each kind about the smallest instance, under labels of its own
        warm = Claims(POOL[WARM_INSTANCE][0], self.bases[WARM_INSTANCE],
                      inputs.seeded_rng("certify", seed, rep, "warm"), "warm")
        kinds = dict.fromkeys(kind for kind, _ in CASES)
        self.warm = [warm.op(kind, "aof" if kind == "hvector" else "genuine", 2) for kind in kinds]

    def op_at(self, i: int) -> Op:
        r = i // len(self)
        if r != self.round:
            self.round, self.ops = r, self._round_ops(r)
        return self.ops[i % len(self)]

    def _round_ops(self, r: int) -> list[Op]:
        rng = inputs.seeded_rng("certify", self.seed, self.rep, r)
        made = []
        for index, (recipe, ks, cases) in enumerate(POOL):
            claims = Claims(recipe, self.bases[index], rng, f"{inputs.recipe_name(recipe)}#{index}.{r}")
            made.append([
                # a case repeated in ``cases`` gets the next witness
                claims.op(*case, 2 if case[0] == "certify_aof" else ks[j % len(ks)], cases[:j].count(case))
                for j, case in enumerate(cases)
            ])
        return [made[index][j] for index, j in self.positions]


def setup(seed: int, rep: int) -> State:
    """The cycle with its first round of documents made, and the warm-up ops."""
    return State(seed, rep)


def run(api, op: Op):
    """One op through the program; the result in the form ``op.expected`` has."""
    fn = api.fn
    g = fn.parse_graph(op.texts[0])
    if op.kind in ("certify_faces", "certify_aof"):
        cert = fn.parse_certificate(op.texts[1], g)
        verify = fn.verify_face_certificate if op.kind == "certify_faces" else fn.verify_aof_certificate
        return _verdict(verify(g, cert))
    if op.kind == "refute_faces":
        s = fn.parse_set_system(op.texts[1], g)
        s_prime = fn.parse_set_system(op.texts[2], g)
        return _verdict(fn.verify_larger_system(g, s, s_prime))
    if op.kind == "refute_aof":
        o = fn.parse_orientation(op.texts[1], g)
        o_prime = fn.parse_orientation(op.texts[2], g)
        return _verdict(fn.verify_smaller_h2(g, o, o_prime))
    if op.kind == "validate":
        s = fn.parse_set_system(op.texts[1], g)
        valid, text = fn.validate_report(g, s)
        return valid, len(text.splitlines()) - 1
    if op.kind == "hvector":
        o = fn.parse_orientation(op.texts[1], g)
        h = fn.indegree_histogram(g, o)
        return fn.dump_h_vector(h), fn.is_acyclic(g, o), fn.hk_sum(h, op.k)
    raise ValueError(op.kind)


def check(op: Op, result) -> bool:
    return result == op.expected


def _verdict(v) -> tuple[str, str | None]:
    return ("VERIFIED", None) if v.verified else ("REFUTED", v.failed_check)
