"""k-frames and k-systems over a polytope graph.

A k-frame is a star K_{1,k} rooted at a vertex: the root plus k of its
neighbours.  A k-system is a family of vertex sets, each inducing a
k-regular subgraph, such that the node set of every k-frame of the graph
lies in exactly one member.  The vertex sets of the k-faces of a simple
polytope form one; certificates revolve around comparing candidate
families against that benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .errors import (
    DuplicateSet,
    FingerprintMismatch,
    InvalidParams,
    KOutOfRange,
    NotRegular,
)
from .graphs import PolytopeGraph, as_tuple, induced_leaves, is_int


@dataclass(frozen=True, order=True)
class KFrame:
    """A K_{1,k} star: root vertex plus k distinct neighbours (sorted)."""

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

    ``set_is_regular[i]`` records whether member i induces a k-regular
    subgraph; ``coverage`` maps every k-frame of the graph to the number
    of regular members containing its node set.  ``valid`` requires all
    members regular and every frame covered exactly once.
    """

    valid: bool
    k: int
    set_is_regular: tuple[bool, ...]
    coverage: dict[KFrame, int] = field(repr=False)

    def defect_lines(self) -> list[str]:
        lines = [
            f"set #{i} not {self.k}-regular"
            for i, ok in enumerate(self.set_is_regular)
            if not ok
        ]
        lines.extend(
            f"frame {f.key()} covered {c} times"
            for f, c in sorted(self.coverage.items())
            if c != 1
        )
        return lines

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


def make_set_system(g: PolytopeGraph, k: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    """Canonicalize and bind a family of vertex sets.

    Duplicate members are a hard error rather than a validation failure:
    a file repeating a set is malformed, not refuted.
    """
    if not is_int(k) or k < 0:
        raise InvalidParams(f"k must be a non-negative integer, got {k!r}")
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for t in vertex_sets(g, sets, "set"):
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
    lexicographic order.
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
    return all(len(leaves) == k for leaves in induced_leaves(g, tuple(t)))


def frame_coverage(g: PolytopeGraph, s: SetSystem) -> dict[KFrame, int]:
    """How often every k-frame's node set occurs inside a member.

    Each member contributes exactly one frame per vertex (the vertex plus
    its neighbours inside the set), which is why members must be
    k-regular: families where that accounting would not make sense are
    rejected.  Cost is O(sum |S| * k), not frames-times-members.
    """
    report = validate_k_system(g, s)
    for i, ok in enumerate(report.set_is_regular):
        if not ok:
            raise NotRegular(f"set #{i} is not {s.k}-regular")
    return report.coverage


def validate_k_system(g: PolytopeGraph, s: SetSystem) -> KSystemReport:
    """Check the defining property: regular members, each frame covered once.

    One pass per member: its induced leaves give both its regularity and
    its frames.  Coverage is accounted over the k-regular members only; a
    family with an irregular member is already invalid, and the
    per-vertex frame emission is meaningless for such sets.
    """
    check_system_bound(g, s)
    check_k_range(g, s.k)
    k = s.k
    counts: dict[KFrame, int] = {f: 0 for f in enumerate_k_frames(g, k)}
    regular: list[bool] = []
    for t in s.sets:
        leaves = induced_leaves(g, t)
        ok = all(len(x) == k for x in leaves)
        regular.append(ok)
        if ok:
            for v, x in zip(t, leaves):
                counts[KFrame(v, x)] += 1
    valid = all(regular) and all(c == 1 for c in counts.values())
    return KSystemReport(
        valid=valid, k=k, set_is_regular=tuple(regular), coverage=counts
    )
