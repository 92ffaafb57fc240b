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

from .errors import (
    DimensionTooSmall,
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
    first_without_unique_sink,
    hk_sum,
    indegree_histogram,
    induced_flaw,
    induces_connected,
    out_masks,
    topological_order,
    unique_sinks,
    vertex_mask,
)
from .systems import (
    SetSystem,
    _keep_masks,
    _member_masks,
    _proved,
    check_system_bound,
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
    masks = _member_masks(g, s)
    bad = first_without_unique_sink(out_masks(g, o), zip(s.sets, masks))
    return bad is None, bad


def _cycle_refutation(g: PolytopeGraph, o: Orientation, role: str) -> Verdict | None:
    """REFUTED at the "acyclic" check, naming a directed cycle of ``o``
    and the ``role`` it plays in the claim; None when ``o`` is acyclic."""
    cycle = topological_order(g, o).cycle
    if cycle is None:
        return None
    cyc = "->".join(map(str, cycle))
    return Verdict.refuted("acyclic", f"{role} contains directed cycle {cyc}")


def _system_refutation(g: PolytopeGraph, s: SetSystem, what: str) -> Verdict | None:
    """REFUTED at the "k-system" check, its reason ``what`` followed by
    the first defect of ``s``; None when ``s`` is a k-system."""
    report = validate_k_system(g, s)
    if report.valid:
        return None
    return Verdict.refuted("k-system", f"{what} ({report.first_defect()})")


def _chain(
    g: PolytopeGraph, s: SetSystem, o: Orientation, what: str, members: str, role: str
) -> Verdict:
    """The chain |S| <= f_k <= H^k(O), checked in order: ``s`` is a
    k-system (refuted as ``what``), ``o`` is acyclic (named by its
    ``role``), and |S| = H^k(o), S named ``members`` in the count."""
    refuted = _system_refutation(g, s, what)
    if refuted is None:
        refuted = _cycle_refutation(g, o, role)
    if refuted is not None:
        return refuted
    hk = hk_sum(indegree_histogram(g, o), s.k)
    if len(s.sets) != hk:
        return Verdict.refuted(
            "count", f"|{members}| = {len(s.sets)} but H^{s.k}({role}) = {hk}"
        )
    return Verdict.ok()


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
    return _chain(g, s, o, "claimed sets are not a k-system", "S", "witness")


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
    refuted = _system_refutation(g, s_prime, "competitor is not a k-system")
    if refuted is not None:
        return refuted
    if len(s_prime.sets) <= len(s.sets):
        return Verdict.refuted(
            "count",
            f"competitor has {len(s_prime.sets)} sets, not more than {len(s.sets)}",
        )
    return Verdict.ok()


def verify_aof_certificate(g: PolytopeGraph, cert: AofCertificate) -> Verdict:
    """Check a claim that the candidate orientation is an AOF orientation.

    Needs d >= 3 so that 2-systems exist (for polygons check directly,
    see :func:`polygon_is_aof`).  This is the face certificate at k = 2,
    the same chain in other words: witness 2-system valid, candidate
    acyclic, and |witness| equal to H^2 of the candidate, the minimum
    value attained exactly by orientations with unique sinks on all
    2-faces; those are AOF.  So a pair (S, O) verified by one verifier
    is verified by the other, and a refuted one fails the same check.
    """
    if g.d < 3:
        raise DimensionTooSmall(f"AOF certificates need d >= 3, got d={g.d}")
    o = cert.candidate_orientation
    s = cert.witness_two_system
    check_bound(g, o)
    check_system_bound(g, s)
    if s.k != 2:
        raise KMismatch(f"witness must be a 2-system, got k={s.k}")
    return _chain(g, s, o, "witness is not a 2-system", "witness", "candidate")


def verify_smaller_h2(g: PolytopeGraph, o: Orientation, o_prime: Orientation) -> Verdict:
    """Check a refutation of "o is AOF": an acyclic o' with smaller H^2.

    AOF orientations minimize H^2 over acyclic orientations, so any
    acyclic competitor strictly below o disproves the claim.
    """
    check_bound(g, o)
    if (refuted := _cycle_refutation(g, o_prime, "competitor")) is not None:
        return refuted
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
    orientation has exactly one sink, so only the global sink matters: the
    AOF test :func:`~ksystems.graphs.unique_sinks` with no faces, one
    empty out-mask.
    """
    if g.d != 2:
        raise InvalidParams(f"polygon check needs d = 2, got d={g.d}")
    return topological_order(g, o).cycle is None and unique_sinks(out_masks(g, o), ())


def facets_from_2faces(g: PolytopeGraph, f2: SetSystem) -> SetSystem:
    """Reconstruct the facet vertex sets from the 2-face vertex sets.

    For adjacent u, v the 2-faces through edge {u,v} induce a bijection
    between the remaining neighbours of u and of v: each neighbour a of
    u spans a 2-face with {u,v}, and that face enters v through exactly
    one other edge {v,b}.  Inside a facet each vertex misses exactly one
    of its edges, and the missing edge transports along this bijection.
    So: seed a facet as "contains r, misses neighbour x", then close
    under breadth-first transport; contradictory transport means the
    input is not the 2-face system of any simple polytope.  Seeds are
    taken in order, and a seed that lies in a facet already found is
    skipped, so each facet is closed once: the search costs
    O(n * d^2), each of the n * d states (vertex, missed neighbour) taking
    d - 1 steps, and the first contradicting seed is the one the full run
    over all n * d seeds would meet first.

    Every transport step reads one table, ``corner``, from the closed
    mask of a 2-frame (its root and two leaves) to the vertex mask of the
    member through that frame: the facet that misses m at u misses, at a
    neighbour w, the other neighbour of w in the member through corner
    (u | m, w).  The key is unique on a valid 2-system: two frames with
    one closed mask and different roots span a triangle, a 2-regular
    induced member through one of them holds the whole triangle and so
    the other frame too, and each frame lies in one member.  The step is
    symmetric (the member through corner (u | m, w) is the one through
    (w | m', u)), so a closure that ends without a contradiction is a
    whole connected component of the states, and run from any of its
    states it gives the same facet again: a seed already placed is
    skipped.

    For d = 3 the transport gives the members back, sorted.
    The state (u, missed m) is the corner of u's two other edges, so it
    names the one member C through that corner.  A step from it reaches
    each of u's two neighbours w in C, and the state of w is again its
    corner in C: the member C' through corner (u | m, w) holds u, w and
    the neighbour m' that w now misses; were w's two edges in C those to
    u and m', its frame there would lie in both C and C', so C = C' would
    hold all three neighbours of u.  So each closure goes once round one
    member (the members are connected), meets no contradiction, and gives
    that member's vertex set as a facet.  Each vertex lies in C(3,2) = 3
    members, so the postconditions hold as well.  Only a family that
    carries the record below skips the transport: its members are the
    output.

    Preconditions checked: f2 is a valid 2-system whose members induce
    cycles (connected 2-regular), checked in member order with
    :func:`~ksystems.graphs.induces_connected`.  A family that
    :func:`~ksystems.oracle.faces_from_incidence` returned carries the
    record of both (its docstring has the proof;
    :func:`~ksystems.systems._proved`), which trusts the fingerprint
    that :func:`~ksystems.systems.check_system_bound` has just matched:
    neither is checked again on any graph bound to it, also an equal
    graph parsed again, or after :mod:`pickle` or :mod:`copy`, and at
    d = 3 its members, already sorted, are the output.  A family without
    the record, built directly, by
    :func:`~ksystems.systems.make_set_system` or rebuilt by
    :func:`dataclasses.replace`, is checked in full and transported, at
    d = 3 too.  Its member masks are those it kept, or else built once
    after its ids are checked (:func:`~ksystems.systems._member_masks`),
    and the k-system check runs on a family of its own that keeps them,
    so nothing is kept on the caller's family.
    Postconditions checked: every output induces a (d-1)-regular subgraph
    (connected by construction) and every vertex lies in exactly d
    outputs.
    """
    if g.d < 3:
        raise DimensionTooSmall(f"facet reconstruction needs d >= 3, got d={g.d}")
    check_system_bound(g, f2)
    if f2.k != 2:
        raise KMismatch(f"expected a 2-system, got k={f2.k}")
    proved = _proved(f2)
    if proved and g.d == 3:
        return SetSystem(k=2, sets=f2.sets, graph_fingerprint=g.fingerprint)
    nbr = g.neighbour_masks
    masks = _member_masks(g, f2)
    if not proved:
        checked = SetSystem(k=2, sets=f2.sets, graph_fingerprint=g.fingerprint)
        _keep_masks(checked, masks)
        report = validate_k_system(g, checked)
        if not report.valid:
            raise NotCycleSystem(f"not a valid 2-system: {report.first_defect()}")
        for i, mask in enumerate(masks):
            if not induces_connected(nbr, mask):
                raise NotCycleSystem(f"member #{i} induces a disconnected subgraph")

    corner = {nbr[v] & mask | 1 << v: mask for t, mask in zip(f2.sets, masks) for v in t}
    bit = [1 << v for v in range(g.n)]
    facets: set[tuple[int, ...]] = set()
    vertex_count = [0] * g.n
    placed = [0] * g.n  # per vertex, the mask of its missed neighbours placed
    for r in range(g.n):
        for x in g.adjacency[r]:
            if placed[r] & bit[x]:
                continue
            missing = {r: bit[x]}  # each vertex of the facet, its missed bit
            order = [r]  # breadth-first: the loop reads what it appends
            for u in order:
                missed = missing[u]
                pair = bit[u] | missed
                for w in g.adjacency[u]:
                    if bit[w] == missed:
                        continue
                    w_misses = nbr[w] & corner[pair | bit[w]] ^ bit[u]
                    known = missing.get(w)
                    if known is None:
                        missing[w] = w_misses
                        order.append(w)
                    elif known != w_misses:
                        raise InconsistentTransport(
                            f"facet seeded at ({r}, missing {x}): vertex {w} should "
                            f"miss both {known.bit_length() - 1} and "
                            f"{w_misses.bit_length() - 1}"
                        )
            for w, missed in missing.items():
                placed[w] |= missed
            facet = tuple(sorted(missing))
            if facet not in facets:
                facets.add(facet)
                for v in facet:
                    vertex_count[v] += 1

    found = sorted(facets)
    for t in found:
        if induced_flaw(nbr, t, vertex_mask(t), g.d - 1, connected=False):
            raise InconsistentTransport(
                f"reconstructed facet {t} is not (d-1)-regular"
            )
    bad = [v for v in range(g.n) if vertex_count[v] != g.d]
    if bad:
        raise InconsistentTransport(
            f"vertex {bad[0]} lies in {vertex_count[bad[0]]} reconstructed "
            f"facets, expected {g.d}"
        )
    return SetSystem(k=g.d - 1, sets=tuple(found), graph_fingerprint=g.fingerprint)
