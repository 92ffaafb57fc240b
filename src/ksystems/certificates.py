"""Certificate checking: short proofs that a family is, or is not, F_k.

The positive certificate for "these sets are the k-faces" is a k-system
together with an acyclic witness orientation whose binomial-weighted
in-degree sum H^k equals the family size: the chain

    |S| <= f_k <= H^k(O)

is tight only for S = F_k, so matching endpoints pin the middle.  The
negative certificate is any strictly larger k-system.  The same pattern
with k = 2 decides whether an orientation has a unique sink on every
face (an AOF orientation): unique sinks on all 2-faces already force
them on faces of every dimension.

Facet reconstruction (:func:`facets_from_2faces`) rebuilds F_{d-1} from
F_2 alone by transporting "the one missing edge" along the bijections
between neighbourhoods of adjacent vertices that 2-faces induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .errors import (
    DimensionTooSmall,
    FingerprintMismatch,
    InconsistentTransport,
    InvalidParams,
    KMismatch,
    NotAcyclic,
    NotCycleSystem,
)
from .graphs import (
    Orientation,
    PolytopeGraph,
    check_bound,
    hk_sum,
    indegree_histogram,
    induced_leaves,
    induces_connected,
    out_adjacency,
    topological_order,
)
from .systems import (
    SetSystem,
    check_system_bound,
    is_k_regular_set,
    make_set_system,
    validate_k_system,
)


@dataclass(frozen=True)
class FaceCertificate:
    """Claim: ``claimed_sets`` is exactly F_k, witnessed by an orientation."""

    k: int
    claimed_sets: SetSystem
    witness_orientation: Orientation


@dataclass(frozen=True)
class AofCertificate:
    """Claim: ``candidate_orientation`` is an AOF orientation.

    The witness is a 2-system whose size must equal H^2 of the candidate.
    """

    candidate_orientation: Orientation
    witness_two_system: SetSystem


@dataclass(frozen=True)
class Verdict:
    """VERIFIED or REFUTED, with the first failed check on refutation."""

    verified: bool
    failed_check: str | None = None
    reason: str | None = None

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(verified=True)

    @staticmethod
    def refuted(check: str, reason: str) -> "Verdict":
        return Verdict(verified=False, failed_check=check, reason=reason)

    def format(self) -> str:
        if self.verified:
            return "VERIFIED"
        return f"REFUTED: {self.reason}"


def unique_sink_per_set(
    g: PolytopeGraph, o: Orientation, s: SetSystem
) -> tuple[bool, tuple[int, ...] | None]:
    """Does the acyclic orientation induce exactly one sink in each member?

    Returns (True, None) or (False, first member with several sinks).
    Acyclicity is required and checked once up front; induced
    orientations of an acyclic orientation always have at least one sink.
    """
    check_bound(g, o)
    check_system_bound(g, s)
    if topological_order(g, o).cycle is not None:
        raise NotAcyclic("orientation has a directed cycle")
    out = out_adjacency(g, o)
    for t in s.sets:
        members = set(t)
        sinks = sum(1 for v in t if not any(x in members for x in out[v]))
        if sinks != 1:
            return False, t
    return True, None


def verify_face_certificate(g: PolytopeGraph, cert: FaceCertificate) -> Verdict:
    """Check a claim that cert.claimed_sets = F_k.

    Three checks, in order: the family is a k-system; the witness is
    acyclic; the family size equals H^k of the witness.  Any acyclic
    orientation works as witness when the claim is true, because H^k
    counts k-frames whose edges all point at the root, and equality with
    f_k forces one sink per k-face.
    """
    s = cert.claimed_sets
    o = cert.witness_orientation
    check_bound(g, o)
    check_system_bound(g, s)
    if cert.k != s.k:
        raise KMismatch(f"certificate k={cert.k} but set system k={s.k}")

    report = validate_k_system(g, s)
    if not report.valid:
        first = report.defect_lines()[0]
        return Verdict.refuted("k-system", f"claimed sets are not a k-system ({first})")
    topo = topological_order(g, o)
    if topo.cycle is not None:
        cyc = "->".join(str(v) for v in topo.cycle)
        return Verdict.refuted("acyclic", f"witness contains directed cycle {cyc}")
    hk = hk_sum(indegree_histogram(g, o), cert.k)
    if len(s.sets) != hk:
        return Verdict.refuted(
            "count", f"|S| = {len(s.sets)} but H^{cert.k}(witness) = {hk}"
        )
    return Verdict.ok()


def verify_larger_system(g: PolytopeGraph, s: SetSystem, s_prime: SetSystem) -> Verdict:
    """Check a refutation of "s = F_k": a valid k-system larger than s.

    F_k is the unique k-system of maximum cardinality, so any valid
    k-system with more members than s proves s is not F_k.  s itself
    need not be validated.
    """
    check_system_bound(g, s)
    check_system_bound(g, s_prime)
    if s.k != s_prime.k:
        raise KMismatch(f"systems have k={s.k} and k={s_prime.k}")
    report = validate_k_system(g, s_prime)
    if not report.valid:
        first = report.defect_lines()[0]
        return Verdict.refuted("k-system", f"competitor is not a k-system ({first})")
    if len(s_prime.sets) <= len(s.sets):
        return Verdict.refuted(
            "count",
            f"competitor has {len(s_prime.sets)} sets, not more than {len(s.sets)}",
        )
    return Verdict.ok()


def verify_aof_certificate(g: PolytopeGraph, cert: AofCertificate) -> Verdict:
    """Check a claim that the candidate orientation is an AOF orientation.

    Needs d >= 3 so that 2-systems exist (for polygons check directly,
    see :func:`polygon_is_aof`).  The checks mirror the face certificate
    with k = 2: witness 2-system valid, candidate acyclic, and |witness|
    equal to H^2 of the candidate, the minimum value attained exactly by
    orientations with unique sinks on all 2-faces; those are AOF.
    """
    if g.d < 3:
        raise DimensionTooSmall(f"AOF certificates need d >= 3, got d={g.d}")
    o = cert.candidate_orientation
    s = cert.witness_two_system
    check_bound(g, o)
    check_system_bound(g, s)
    if s.k != 2:
        raise KMismatch(f"witness must be a 2-system, got k={s.k}")

    report = validate_k_system(g, s)
    if not report.valid:
        first = report.defect_lines()[0]
        return Verdict.refuted("k-system", f"witness is not a 2-system ({first})")
    topo = topological_order(g, o)
    if topo.cycle is not None:
        cyc = "->".join(str(v) for v in topo.cycle)
        return Verdict.refuted("acyclic", f"candidate contains directed cycle {cyc}")
    h2 = hk_sum(indegree_histogram(g, o), 2)
    if len(s.sets) != h2:
        return Verdict.refuted(
            "count", f"|witness| = {len(s.sets)} but H^2(candidate) = {h2}"
        )
    return Verdict.ok()


def verify_smaller_h2(g: PolytopeGraph, o: Orientation, o_prime: Orientation) -> Verdict:
    """Check a refutation of "o is AOF": an acyclic o' with smaller H^2.

    AOF orientations minimize H^2 over acyclic orientations, so any
    acyclic competitor strictly below o disproves the claim.
    """
    check_bound(g, o)
    topo = topological_order(g, o_prime)
    if topo.cycle is not None:
        cyc = "->".join(str(v) for v in topo.cycle)
        return Verdict.refuted("acyclic", f"competitor contains directed cycle {cyc}")
    h2 = hk_sum(indegree_histogram(g, o), 2)
    h2_prime = hk_sum(indegree_histogram(g, o_prime), 2)
    if h2_prime >= h2:
        return Verdict.refuted(
            "count", f"H^2(competitor) = {h2_prime} is not below H^2(o) = {h2}"
        )
    return Verdict.ok()


def polygon_is_aof(g: PolytopeGraph, o: Orientation) -> bool:
    """Direct AOF check for d = 2: acyclic with a unique global sink.

    Polygons are below the reach of 2-systems; every edge of an acyclic
    orientation has exactly one sink, so only the global sink matters.
    """
    if g.d != 2:
        raise InvalidParams(f"polygon check needs d = 2, got d={g.d}")
    if topological_order(g, o).cycle is not None:
        return False
    out = out_adjacency(g, o)
    return sum(1 for v in range(g.n) if not out[v]) == 1


def facets_from_2faces(g: PolytopeGraph, f2: SetSystem) -> SetSystem:
    """Reconstruct the facet vertex sets from the 2-face vertex sets.

    For adjacent u, v the 2-faces through edge {u,v} induce a bijection
    between the remaining neighbours of u and of v: each neighbour a of
    u spans a 2-face with {u,v}, and that face enters v through exactly
    one other edge {v,b}.  Inside a facet each vertex misses exactly one
    of its edges, and the missing edge transports along this bijection.
    So: seed a facet as "contains r, misses neighbour x", then close
    under breadth-first transport.  Running every seed (n*d of them)
    yields every facet d times over; contradictory transport means the
    input is not the 2-face system of any simple polytope.

    Preconditions checked: f2 is a valid 2-system whose members induce
    cycles (connected 2-regular).  Postconditions checked: every output
    induces a (d-1)-regular subgraph (connected by construction) and
    every vertex lies in exactly d outputs.  For d = 3 the output equals
    the input.
    """
    if g.d < 3:
        raise DimensionTooSmall(f"facet reconstruction needs d >= 3, got d={g.d}")
    check_system_bound(g, f2)
    if f2.k != 2:
        raise KMismatch(f"expected a 2-system, got k={f2.k}")
    report = validate_k_system(g, f2)
    if not report.valid:
        raise NotCycleSystem(
            f"not a valid 2-system: {report.defect_lines()[0]}"
        )
    for i, t in enumerate(f2.sets):
        if not induces_connected(g, t):
            raise NotCycleSystem(f"member #{i} induces a disconnected subgraph")

    # corner (v, {a, b}) -> index of the unique 2-face containing both edges;
    # face_leaves[i][v] is the pair of v's neighbours inside 2-face i
    corner_face: dict[tuple[int, frozenset[int]], int] = {}
    face_leaves: list[dict[int, tuple[int, ...]]] = []
    for i, t in enumerate(f2.sets):
        leaves = dict(zip(t, induced_leaves(g, t)))
        face_leaves.append(leaves)
        for v, pair in leaves.items():
            corner_face[(v, frozenset(pair))] = i

    def transport(u: int, via: int, missing: int) -> int:
        """Missing neighbour at `via` of the facet missing `missing` at u."""
        x, y = face_leaves[corner_face[(u, frozenset((missing, via)))]][via]
        return y if x == u else x

    facets: set[tuple[int, ...]] = set()
    vertex_count = [0] * g.n
    for r in range(g.n):
        for x in g.adjacency[r]:
            missing = {r: x}
            queue = deque([r])
            while queue:
                u = queue.popleft()
                for w in g.adjacency[u]:
                    if w == missing[u]:
                        continue
                    m = transport(u, w, missing[u])
                    if w not in missing:
                        missing[w] = m
                        queue.append(w)
                    elif missing[w] != m:
                        raise InconsistentTransport(
                            f"facet seeded at ({r}, missing {x}): vertex {w} "
                            f"should miss both {missing[w]} and {m}"
                        )
            facet = tuple(sorted(missing))
            if facet not in facets:
                facets.add(facet)
                for v in facet:
                    vertex_count[v] += 1

    for t in sorted(facets):
        if not is_k_regular_set(g, t, g.d - 1):
            raise InconsistentTransport(
                f"reconstructed facet {t} is not (d-1)-regular"
            )
    bad = [v for v in range(g.n) if vertex_count[v] != g.d]
    if bad:
        raise InconsistentTransport(
            f"vertex {bad[0]} lies in {vertex_count[bad[0]]} reconstructed "
            f"facets, expected {g.d}"
        )
    return make_set_system(g, g.d - 1, sorted(facets))
