"""k-frames and k-systems over a polytope graph.

A k-frame is a star K_{1,k} rooted at a vertex: the root plus k of its
neighbours.  A k-system is a family of vertex sets, each inducing a
k-regular subgraph, such that the node set of every k-frame of the graph
lies in exactly one member.  The vertex sets of the k-faces of a simple
polytope form one; certificates revolve around comparing candidate
families against that benchmark.

Here a frame is a pair (root, leaf mask): a vertex of a member and its
neighbours inside the member as a vertex bitmask, found for the whole
family in one pass, and the verdict is a pigeonhole count over those
pairs.  The ``KFrame`` named tuples of a report (``coverage`` and the
frame defect lines) are built only when they are read, and the defect
lines one at a time, so a refutation that shows the first pays for no
other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, compress, repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateSet,
    InvalidParams,
    KOutOfRange,
    KSystemsError,
    NotRegular,
)
from .graphs import (
    PolytopeGraph,
    as_tuple,
    check_fingerprint,
    check_vertex_ids,
    induced_flaw,
    is_int,
    member_ids,
    plain_vertex_ids,
    require_int,
    vertex_mask,
)


class KFrame(NamedTuple):
    """A K_{1,k} star: root vertex plus k distinct neighbours (sorted).

    A plain ``(root, leaves)`` tuple with names: it equals, hashes and
    sorts like that tuple, so frames are ordered by root, then leaves.
    """

    root: int
    leaves: tuple[int, ...]

    def key(self) -> str:
        """Render as ``(root|l1,...,lk)`` for reports."""
        return f"({self.root}|{','.join(str(x) for x in self.leaves)})"


@dataclass(frozen=True)
class SetSystem:
    """Canonical family of vertex sets bound to a graph by fingerprint.

    Members are sorted tuples, listed lexicographically, pairwise
    distinct, each with at least k+1 vertices (fewer cannot induce a
    k-regular subgraph).

    A family may carry two records.  One is a flag saying that it is a
    valid k-system of the graph its fingerprint names, whose members
    induce connected subgraphs: :func:`_prove` sets it, for
    :func:`~ksystems.oracle.faces_from_incidence` only, and
    :func:`_proved` reads it.  The flag trusts the fingerprint, as every
    other binding does: the :class:`~ksystems.graphs.PolytopeGraph`
    constructor checks every graph, so one fingerprint names one graph,
    and an equal graph parsed again is trusted too.  The other is the
    vertex mask of each member, kept by :func:`_keep_masks` where the
    member ids were checked (:func:`make_set_system`) or the masks built
    anyway (:func:`~ksystems.oracle.faces_from_incidence`, and
    :func:`~ksystems.search.enumerate_k_systems`, whose ids are the bits
    of those masks), and read by :func:`_member_masks`.  Neither record
    is a field: no constructor argument sets it, equality, hash and
    ``repr`` ignore it, and :func:`dataclasses.replace` drops it;
    :mod:`pickle` and :mod:`copy` carry both, as they carry a graph's
    ``neighbour_masks``.  No family holds a graph, so one pickled alone
    carries its sets, its masks and a bool.  A family built directly
    carries neither record.
    """

    k: int
    sets: tuple[tuple[int, ...], ...]
    graph_fingerprint: str


#: The key of the flag :func:`_prove` sets in a family's ``__dict__``.
_PROOF = "_proved"


def _prove(s: SetSystem) -> None:
    """Record that ``s`` is a valid k-system of the graph its fingerprint
    names, whose members induce connected subgraphs.  Only a function
    that has proved both may call it."""
    s.__dict__[_PROOF] = True


def _proved(s: SetSystem) -> bool:
    """True when :func:`_prove` recorded ``s``: valid on every graph that
    passes :func:`check_system_bound` for it."""
    return _PROOF in s.__dict__


#: The key of the member masks :func:`_keep_masks` writes into a family's
#: ``__dict__``.
_MASKS = "_member_masks"


def _keep_masks(s: SetSystem, masks: list[int]) -> None:
    """Keep on ``s`` the vertex mask of each of its members, in member
    order.  Only a function that has checked the member ids against the
    n of the fingerprint ``s`` is bound to, or read them off masks over
    that graph's vertices (:func:`~ksystems.search.enumerate_k_systems`),
    may call it."""
    s.__dict__[_MASKS] = masks


def _member_masks(g: PolytopeGraph, s: SetSystem) -> list[int]:
    """The vertex mask of each member of ``s``, a family the caller has
    found bound to ``g``: the masks :func:`_keep_masks` kept, whose ids
    were checked against the n that the fingerprint fixes, or else,
    after :func:`~ksystems.graphs.member_ids` has checked the ids, the
    masks built anew."""
    masks = s.__dict__.get(_MASKS)
    if masks is None:
        member_ids(g.n, s.sets, "set")
        masks = [*map(vertex_mask, s.sets)]
    return masks


@dataclass
class KSystemReport:
    """Outcome of :func:`validate_k_system`.

    ``set_is_regular[i]`` records whether member i of ``sets`` induces a
    k-regular subgraph.  ``valid`` requires all members regular and every
    frame covered exactly once.  An invalid report keeps the family's
    frames as two flat lists in member order, ``roots`` (the vertices of
    the members) and ``leaf_masks`` (the neighbours of each inside its
    member, as a bitmask), which ``coverage`` and the frame defect lines
    count; a valid report keeps neither, since it covers every frame
    once.
    """

    valid: bool
    k: int
    set_is_regular: tuple[bool, ...]
    sets: Sequence[Sequence[int]] = field(repr=False)
    graph: PolytopeGraph = field(repr=False)
    roots: list[int] = field(default_factory=list, repr=False)
    leaf_masks: list[int] = field(default_factory=list, repr=False)

    def _covered(self) -> Counter[tuple[int, int]]:
        """How many regular members hold each (root, leaf mask) pair."""
        pairs = zip(self.roots, self.leaf_masks)
        if all(self.set_is_regular):
            return Counter(pairs)
        sizes = map(len, self.sets)
        keep = chain.from_iterable(map(repeat, self.set_is_regular, sizes))
        return Counter(compress(pairs, keep))

    @property
    def coverage(self) -> dict[KFrame, int]:
        """Every k-frame, in frame order, with the number of regular
        members containing it."""
        frames = enumerate_k_frames(self.graph, self.k)
        if self.valid:
            return dict.fromkeys(frames, 1)
        covered = self._covered()
        return {f: covered[f.root, vertex_mask(f.leaves)] for f in frames}

    def defect_lines(self) -> list[str]:
        """Every defect: a line for each member that is not k-regular, then
        one for each frame the regular members cover other than once, in
        frame order.  Empty for a valid report."""
        return [*self._defects()]

    def first_defect(self) -> str | None:
        """The first of :meth:`defect_lines`, or None for a valid report.

        The lines come one at a time, so this forms only the first: its
        cost follows the family, as validation's does, not the frame
        universe."""
        return next(self._defects(), None)

    def _defects(self) -> Iterator[str]:
        """The lines of :meth:`defect_lines`, in order.  A root whose
        binom(d, k) frames are each covered once is skipped; only the
        k-subsets of the other roots' neighbours are walked."""
        g, k = self.graph, self.k
        for i, ok in enumerate(self.set_is_regular):
            if not ok:
                yield f"set #{i} not {k}-regular"
        if self.valid:
            return
        covered = self._covered()
        once = Counter(map(itemgetter(0), covered))  # distinct pairs per root
        if covered.total() > len(covered):  # less those that repeat
            once.subtract(root for (root, _), times in covered.items() if times > 1)
        per = comb(g.d, k)
        for root in range(g.n):
            if once[root] == per:
                continue
            for leaves in combinations(g.adjacency[root], k):
                times = covered[root, vertex_mask(leaves)]
                if times != 1:
                    yield f"frame {KFrame(root, leaves).key()} covered {times} times"

    def format(self) -> str:
        verdict = "VALID" if self.valid else "INVALID"
        head = f"{verdict} {self.k}-system ({len(self.set_is_regular)} sets)"
        return "\n".join([head, *self.defect_lines()])


def check_k_range(g: PolytopeGraph, k: int, least: int = 2) -> None:
    """Refuse a k outside least..d-1 with KOutOfRange.

    k-frames and k-systems exist for 2 <= k <= d-1 only, the default;
    k-faces exist for 0 <= k <= d-1, so the faces and the k-sink search
    pass ``least = 0``.
    """
    if not is_int(k) or not least <= k <= g.d - 1:
        raise KOutOfRange(f"k must satisfy {least} <= k <= d-1 = {g.d - 1}, got {k!r}")


def check_system_bound(g: PolytopeGraph, s: SetSystem) -> None:
    """Raise FingerprintMismatch unless ``s`` is bound to ``g``."""
    check_fingerprint(g, s.graph_fingerprint, "set system")


def canonical_members(
    g: PolytopeGraph,
    family: Iterable[Iterable[int]],
    what: str,
    least: int,
    repeated: type[KSystemsError],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The members of a caller's ``family`` as sorted tuples of vertex ids
    of ``g``, listed in order, and the vertex mask of each: the one check
    on a family from outside, run by :func:`make_set_system` and the
    :class:`~ksystems.oracle.Instance` constructor.

    One pass over the whole family accepts it when every member is a list
    or tuple of at least ``least`` ids of type ``int`` in range, no
    member repeats a vertex and no two members are equal.  The masks are
    built only once the ids are known to be in range, and a member
    repeats no vertex when its mask has as many bits as it has ids: the
    pass compares the sum of the popcounts with the number of ids.  It
    reads lists and tuples only, so it reads no member that the walk
    cannot read again.  Only when it fails are the members walked one at
    a time, which names the first fault: :class:`InvalidParams` when the
    family or a member is not iterable, a member cannot be sorted or
    hashed, repeats a vertex, holds anything but a vertex id
    (:func:`~ksystems.graphs.check_vertex_ids`) or has fewer than
    ``least`` vertices, and ``repeated`` when it equals an earlier
    member; ``what`` names a member in the messages.  The walk also
    accepts what the pass does not take: members of other collection
    types, ids of an ``int`` subclass such as ``IntEnum``.
    """
    members = as_tuple(family, f"{what}s")
    if {*map(type, members)} <= {list, tuple}:
        try:
            canon = sorted(map(tuple, map(sorted, members)))
            ids = [*chain.from_iterable(canon)]
            if (
                plain_vertex_ids(g.n, ids)
                and min(map(len, canon), default=least) >= least
                and len(set(canon)) == len(canon)
            ):
                masks = [*map(vertex_mask, canon)]
                if sum(map(int.bit_count, masks)) == len(ids):
                    return canon, masks
        except TypeError:  # ids that cannot be sorted or hashed
            pass
    canon, seen = [], set()
    for raw in members:
        try:
            t = tuple(sorted(raw))
            repeats = len(set(t)) != len(t)
        except TypeError:
            raise InvalidParams(f"{what} {raw!r} is not a set of vertex ids") from None
        if repeats:
            raise InvalidParams(f"{what} {t} repeats a vertex")
        check_vertex_ids(g.n, t)
        if len(t) < least:
            raise InvalidParams(
                f"{what} {t} has {len(t)} vertices; "
                f"a {least - 1}-regular subgraph needs >= {least}"
            )
        if t in seen:
            raise repeated(f"{what} {t} listed twice")
        seen.add(t)
        canon.append(t)
    canon.sort()
    return canon, [*map(vertex_mask, canon)]


def make_set_system(g: PolytopeGraph, k: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    """Canonicalize and bind a family of vertex sets.

    Every member needs at least k+1 vertices (:func:`canonical_members`).
    Duplicate members are a hard error rather than a validation failure:
    a file repeating a set is malformed, not refuted.
    """
    require_int(k, "k", 0)
    canon, masks = canonical_members(g, sets, "set", k + 1, DuplicateSet)
    s = SetSystem(k=k, sets=tuple(canon), graph_fingerprint=g.fingerprint)
    _keep_masks(s, masks)
    return s


def enumerate_k_frames(g: PolytopeGraph, k: int) -> Iterator[KFrame]:
    """All k-frames: each root with each k-subset of its neighbours.

    Yields n * binom(d, k) frames, roots ascending, leaf sets in
    lexicographic order: frame order is sorted order.
    """
    check_k_range(g, k)
    for root in range(g.n):
        for leaves in combinations(g.adjacency[root], k):
            yield KFrame(root, leaves)


def frame_count(g: PolytopeGraph, k: int) -> int:
    """Size of the frame universe, n * binom(d, k)."""
    check_k_range(g, k)
    return g.n * comb(g.d, k)


def is_k_regular_set(g: PolytopeGraph, t: Iterable[int], k: int) -> bool:
    """True when every vertex of ``t`` has exactly k neighbours in ``t``.

    Raises :class:`InvalidParams` for a k that is not a non-negative
    integer, checked first, and for anything but vertex ids of ``g``.
    """
    require_int(k, "k", 0)
    t = as_tuple(t, "vertex set")
    check_vertex_ids(g.n, t)
    return induced_flaw(g.neighbour_masks, t, vertex_mask(t), k, connected=False) is None


def frame_coverage(g: PolytopeGraph, s: SetSystem) -> dict[KFrame, int]:
    """How often every k-frame's node set occurs inside a member.

    Each member contributes exactly one frame per vertex (the vertex plus
    its neighbours inside the set), which is why members must be
    k-regular: families where that accounting would not make sense are
    rejected.  Cost is O(sum |S|) for the family plus O(k) for each of
    the n * binom(d, k) frames listed, not frames-times-members.
    """
    report = validate_k_system(g, s)
    for i, ok in enumerate(report.set_is_regular):
        if not ok:
            raise NotRegular(f"set #{i} is not {s.k}-regular")
    return report.coverage


def validate_k_system(g: PolytopeGraph, s: SetSystem) -> KSystemReport:
    """Check the defining property: regular members, each frame covered once.

    One pass over the whole family gives each vertex of each member its
    leaf mask, the bitmask of its neighbours inside the member; a member
    is k-regular when every one of its leaf masks has k bits, and then
    each (vertex, leaf mask) pair is one of its frames.  The verdict is a
    pigeonhole count: with every member k-regular, the family holds
    sum |S| frames, so it covers all n * binom(d, k) of them exactly once
    iff that sum equals the number of frames and no pair repeats.
    Coverage is accounted over the k-regular members only; a family with
    an irregular member is already invalid, and the per-vertex frame
    emission is meaningless for such sets.  The member masks are those
    the family kept where its ids were checked; a :class:`SetSystem`
    built directly keeps none and has not been through
    :func:`make_set_system`, so its ids are checked before any frame is
    formed (:func:`_member_masks`).  Nothing here builds the frame
    universe: the cost follows the family.
    """
    check_system_bound(g, s)
    frames = frame_count(g, s.k)
    ids, leaves, regular = _member_frames(g, s)
    valid = (
        all(regular)
        and len(ids) == frames
        and len(set(zip(ids, leaves))) == frames
    )
    return KSystemReport(
        valid=valid,
        k=s.k,
        set_is_regular=regular,
        sets=s.sets,
        graph=g,
        roots=[] if valid else ids,
        leaf_masks=[] if valid else leaves,
    )


def _member_frames(
    g: PolytopeGraph, s: SetSystem
) -> tuple[list[int], list[int], tuple[bool, ...]]:
    """The one pass over a family: the vertices of its members, flat in
    member order, the leaf mask of each inside its member, and whether
    each member is k-regular, that is whether all its leaf masks have k
    bits.  The member masks come from :func:`_member_masks`, so the ids
    of a family that kept none are checked first."""
    k, sets = s.k, s.sets
    masks = _member_masks(g, s)
    ids = [*chain.from_iterable(sets)]
    sizes = [*map(len, sets)]
    nbr = g.neighbour_masks
    inside = chain.from_iterable(map(repeat, masks, sizes))
    leaves = [m & nbr[v] for m, v in zip(inside, ids)]
    degrees = [*map(int.bit_count, leaves)]
    if degrees.count(k) == len(degrees):
        return ids, leaves, (True,) * len(sizes)
    ends = [*accumulate(sizes)]
    regular = tuple(
        degrees[a:b].count(k) == b - a for a, b in zip([0, *ends], ends)
    )
    return ids, leaves, regular
