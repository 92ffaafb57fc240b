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
pairs.  The ``KFrame`` named tuples of a report (``frame_members``,
``coverage`` and the frame defect lines) are built only when they are
read, and the defect lines one at a time, so a refutation that shows
the first pays for no other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, repeat
from math import comb
from operator import and_, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateSet,
    FingerprintMismatch,
    InvalidParams,
    KOutOfRange,
    NotRegular,
)
from .graphs import (
    PolytopeGraph,
    as_tuple,
    check_vertex_ids,
    induced_flaw,
    is_int,
    member_ids,
    neighbour_masks,
    plain_vertex_ids,
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
    """

    k: int
    sets: tuple[tuple[int, ...], ...]
    graph_fingerprint: str


@dataclass
class KSystemReport:
    """Outcome of :func:`validate_k_system`.

    ``set_is_regular[i]`` records whether member i of ``sets`` induces a
    k-regular subgraph.  ``valid`` requires all members regular and every
    frame covered exactly once.  An invalid report keeps the family's
    frames as two flat lists in member order, ``roots`` (the vertices of
    the members) and ``leaf_masks`` (the neighbours of each inside its
    member, as a bitmask), which the frame defect lines and
    ``frame_members`` read; a valid report keeps neither and forms them
    again, with the pass validation makes, when ``frame_members`` is
    read.  ``frame_members`` holds every k-frame of the graph, in frame
    order, with the indices of the regular members containing its node
    set.
    """

    valid: bool
    k: int
    set_is_regular: tuple[bool, ...]
    sets: Sequence[Sequence[int]] = field(repr=False)
    graph: PolytopeGraph = field(repr=False)
    roots: list[int] = field(default_factory=list, repr=False)
    leaf_masks: list[int] = field(default_factory=list, repr=False)

    def _regular_frames(self) -> tuple[Iterator[int], list[int], list[int]]:
        """The frames of the regular members in member order: the index of
        the member (an iterator, read only by ``frame_members``), the root
        and the leaf mask."""
        roots, masks = self.roots, self.leaf_masks
        if self.valid:
            roots, masks, _ = _member_frames(self.graph, self.k, self.sets)
        sizes = [*map(len, self.sets)]
        owners = chain.from_iterable(map(repeat, range(len(sizes)), sizes))
        if all(self.set_is_regular):
            return owners, roots, masks
        keep = [*chain.from_iterable(map(repeat, self.set_is_regular, sizes))]
        roots, masks = [*compress(roots, keep)], [*compress(masks, keep)]
        return compress(owners, keep), roots, masks

    @cached_property
    def frame_members(self) -> dict[KFrame, tuple[int, ...]]:
        """Every k-frame, in frame order, with the indices of the regular
        members containing it."""
        owners, roots, masks = self._regular_frames()
        held: dict[tuple[int, int], tuple[int, ...]] = {}
        for i, pair in zip(owners, zip(roots, masks)):
            held[pair] = held.get(pair, ()) + (i,)
        return {
            f: held.get((f.root, vertex_mask(f.leaves)), ())
            for f in enumerate_k_frames(self.graph, self.k)
        }

    @property
    def coverage(self) -> dict[KFrame, int]:
        """Every k-frame, in frame order, with the number of regular
        members containing it."""
        return {f: len(m) for f, m in self.frame_members.items()}

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
        """The lines of :meth:`defect_lines`, in order.  A root whose frames
        number binom(d, k), counted with and without repeats, has each
        exactly once; only the k-subsets of the other roots' neighbours
        are walked."""
        g, k = self.graph, self.k
        for i, ok in enumerate(self.set_is_regular):
            if not ok:
                yield f"set #{i} not {k}-regular"
        if self.valid:
            return
        _, roots, masks = self._regular_frames()
        covered = Counter(zip(roots, masks))
        at_root = Counter(roots)
        distinct = at_root  # unless a frame repeats, a root's frames are distinct
        if len(covered) < len(roots):
            distinct = Counter(map(itemgetter(0), covered))
        per = comb(g.d, k)
        for root in range(g.n):
            if at_root[root] == per == distinct[root]:
                continue
            for leaves in combinations(g.adjacency[root], k):
                times = covered[root, vertex_mask(leaves)]
                if times != 1:
                    yield f"frame {KFrame(root, leaves).key()} covered {times} times"

    def format(self) -> str:
        verdict = "VALID" if self.valid else "INVALID"
        head = f"{verdict} {self.k}-system ({len(self.set_is_regular)} sets)"
        return "\n".join([head, *self.defect_lines()])


def check_k_range(g: PolytopeGraph, k: int) -> None:
    """k-frames and k-systems exist for 2 <= k <= d-1 only."""
    if not is_int(k) or not 2 <= k <= g.d - 1:
        raise KOutOfRange(f"k must satisfy 2 <= k <= d-1 = {g.d - 1}, got {k!r}")


def check_system_bound(g: PolytopeGraph, s: SetSystem) -> None:
    if s.graph_fingerprint != g.fingerprint:
        raise FingerprintMismatch(
            f"set system bound to {s.graph_fingerprint[:12]}..., "
            f"graph is {g.fingerprint[:12]}..."
        )


def vertex_sets(
    g: PolytopeGraph, family: Iterable[Iterable[int]], what: str
) -> Iterator[tuple[int, ...]]:
    """Each member of ``family`` as a sorted tuple of vertex ids of ``g``.

    Members are checked and yielded one at a time, so a caller's own
    checks on a member come before the next member is looked at.  Raises
    :class:`InvalidParams` when the family or a member is not iterable,
    a member cannot be sorted or hashed, repeats a vertex, or holds
    anything but a vertex id; ``what`` names a member in the messages.
    """
    for raw in as_tuple(family, f"{what}s"):
        try:
            t = tuple(sorted(raw))
            repeats = len(set(t)) != len(t)
        except TypeError:
            raise InvalidParams(f"{what} {raw!r} is not a set of vertex ids") from None
        if repeats:
            raise InvalidParams(f"{what} {t} repeats a vertex")
        for v in t:
            if not is_int(v) or not 0 <= v < g.n:
                raise InvalidParams(f"vertex id {v!r} outside 0..{g.n - 1}")
        yield t


def distinct_vertex_sets(g: PolytopeGraph, family: tuple) -> list[tuple[int, ...]] | None:
    """Each member of ``family`` as a sorted tuple, in order, when one pass
    over the whole family finds every member a list or tuple of distinct
    vertex ids of ``g``, all of type ``int``, and no two members equal;
    None when it finds anything else.

    This is the bulk gate of :func:`make_set_system` and
    :func:`~ksystems.oracle.make_instance`: on None they walk the family
    with :func:`vertex_sets` and their own checks, member by member, which
    names the first fault, or accepts a family the gate does not take
    (members of other collection types, ids of an ``int`` subclass such
    as ``IntEnum``).  Lists and tuples only, so that the gate reads no
    member the walk cannot read again.
    """
    if not {*map(type, family)} <= {list, tuple}:
        return None
    try:
        canon = [*map(tuple, map(sorted, family))]
        ids = [*chain.from_iterable(canon)]
        if (
            plain_vertex_ids(g.n, ids)
            and sum(map(len, map(set, canon))) == len(ids)
            and len(set(canon)) == len(canon)
        ):
            return canon
    except TypeError:  # ids that cannot be sorted or hashed
        pass
    return None


def make_set_system(g: PolytopeGraph, k: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    """Canonicalize and bind a family of vertex sets.

    Duplicate members are a hard error rather than a validation failure:
    a file repeating a set is malformed, not refuted.  The family is
    checked in bulk (:func:`distinct_vertex_sets`, and every member of at
    least k+1 vertices); only when that fails is it walked member by
    member to name the first fault.
    """
    if not is_int(k) or k < 0:
        raise InvalidParams(f"k must be a non-negative integer, got {k!r}")
    family = as_tuple(sets, "sets")
    canon = distinct_vertex_sets(g, family)
    if canon is None or min(map(len, canon), default=k + 1) <= k:
        canon = []
        seen: set[tuple[int, ...]] = set()
        for t in vertex_sets(g, family, "set"):
            if len(t) < k + 1:
                raise InvalidParams(
                    f"set {t} has {len(t)} vertices; a {k}-regular subgraph needs >= {k + 1}"
                )
            if t in seen:
                raise DuplicateSet(f"set {t} listed twice")
            seen.add(t)
            canon.append(t)
    canon.sort()
    return SetSystem(k=k, sets=tuple(canon), graph_fingerprint=g.fingerprint)


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

    Raises :class:`InvalidParams` for anything but vertex ids of ``g``.
    """
    t = as_tuple(t, "vertex set")
    check_vertex_ids(g.n, t)
    return induced_flaw(neighbour_masks(g), t, k, connected=False) is None


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
    emission is meaningless for such sets.  The member ids are checked
    before any frame is formed, since a :class:`SetSystem` built directly
    has not been through :func:`make_set_system`.  Nothing here builds
    the frame universe: the cost follows the family.
    """
    check_system_bound(g, s)
    frames = frame_count(g, s.k)
    ids, leaves, regular = _member_frames(g, s.k, s.sets)
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
    g: PolytopeGraph, k: int, sets: Sequence[Sequence[int]]
) -> tuple[list[int], list[int], tuple[bool, ...]]:
    """The one pass over a family: the vertices of its members (their ids
    checked), flat in member order, the leaf mask of each inside its
    member, and whether each member is k-regular, that is whether all its
    leaf masks have k bits."""
    ids = member_ids(g.n, sets, "set")
    sizes = [*map(len, sets)]
    nbr = neighbour_masks(g)
    inside = chain.from_iterable(map(repeat, map(vertex_mask, sets), sizes))
    leaves = [*map(and_, inside, map(nbr.__getitem__, ids))]
    degrees = [*map(int.bit_count, leaves)]
    if degrees.count(k) == len(degrees):
        return ids, leaves, (True,) * len(sizes)
    ends = [*accumulate(sizes)]
    regular = tuple(
        degrees[a:b].count(k) == b - a for a, b in zip([0, *ends], ends)
    )
    return ids, leaves, regular
