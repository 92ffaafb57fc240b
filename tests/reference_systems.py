"""Earlier k-frame code of ksystems, kept as a reference.

Differential tests compare the package with three pieces of it:

- the two-pass k-system validator of 0.1.0: the regularity of every
  member is decided in a first pass over induced degrees, the frames of
  the regular members are counted in a second.  Only the frame universe
  and the bounds checks come from the package.
- the exact cover and the ``enumerate_k_systems`` stream from before
  frames had one index, with their own frame class (a frozen, ordered
  dataclass) and their own frame index.  The candidate sets and the
  set-system constructor come from the package, the merged variants from
  ``reference_search``.
- ``facets_from_2faces`` from before the corner map was read from the
  validator's frame index: it keys corners by ``(v, frozenset(pair))``
  and checks its members with the 0.1.0 code above.  The set-system
  constructor comes from the package, and ``induced_leaves`` and the
  set-based connectivity test from ``reference_induced``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ksystems.errors import (
    DimensionTooSmall,
    InconsistentTransport,
    KMismatch,
    NotCycleSystem,
    NotRegular,
)
from ksystems.search import connected_k_regular_sets
from ksystems.systems import (
    KFrame,
    check_k_range,
    check_system_bound,
    enumerate_k_frames,
    make_set_system,
)

from reference_induced import induced_leaves, induces_connected
from reference_search import _merged_variants


@dataclass
class ReferenceReport:
    valid: bool
    k: int
    set_is_regular: tuple[bool, ...]
    coverage: dict[KFrame, int]

    def defect_lines(self) -> list[str]:
        lines = [
            f"set #{i} not {self.k}-regular"
            for i, ok in enumerate(self.set_is_regular)
            if not ok
        ]
        lines.extend(
            f"frame ({f.root}|{','.join(str(x) for x in f.leaves)}) covered {c} times"
            for f, c in sorted(self.coverage.items())
            if c != 1
        )
        return lines


def induced_degrees(g, members):
    return {
        v: sum(1 for x in g.adjacency[v] if x in members)
        for v in members
    }


def is_k_regular_set(g, t, k):
    members = set(t)
    return all(c == k for c in induced_degrees(g, members).values())


def frame_coverage(g, s):
    check_system_bound(g, s)
    check_k_range(g, s.k)
    for i, t in enumerate(s.sets):
        if not is_k_regular_set(g, t, s.k):
            raise NotRegular(f"set #{i} is not {s.k}-regular")
    counts = {f: 0 for f in enumerate_k_frames(g, s.k)}
    for t in s.sets:
        members = set(t)
        for v in t:
            leaves = tuple(x for x in g.adjacency[v] if x in members)
            counts[KFrame(v, leaves)] += 1
    return counts


def validate_k_system(g, s):
    check_system_bound(g, s)
    check_k_range(g, s.k)
    regular = tuple(is_k_regular_set(g, t, s.k) for t in s.sets)
    counts = {f: 0 for f in enumerate_k_frames(g, s.k)}
    for t, ok in zip(s.sets, regular):
        if not ok:
            continue
        members = set(t)
        for v in t:
            leaves = tuple(x for x in g.adjacency[v] if x in members)
            counts[KFrame(v, leaves)] += 1
    valid = all(regular) and all(c == 1 for c in counts.values())
    return ReferenceReport(valid=valid, k=s.k, set_is_regular=regular, coverage=counts)


# -- exact cover ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class DataclassFrame:
    """The earlier k-frame format: ordered by (root, leaves), hashed by a
    generated ``__hash__``."""

    root: int
    leaves: tuple[int, ...]


def _frames_of(g, t):
    return frozenset(map(DataclassFrame, t, induced_leaves(g, t)))


def _frame_index(g, k, candidates):
    check_k_range(g, k)
    cand_frames = [_frames_of(g, t) for t in candidates]
    frame_cands = {
        DataclassFrame(f.root, f.leaves): [] for f in enumerate_k_frames(g, k)
    }
    for i, fs in enumerate(cand_frames):
        for f in fs:
            frame_cands[f].append(i)
    return cand_frames, frame_cands


def _column(cand_frames, frame_cands, uncovered):
    best_f = None
    best_avail = None
    for f in uncovered:
        avail = [i for i in frame_cands[f] if cand_frames[i] <= uncovered]
        if best_avail is None or (len(avail), f) < (len(best_avail), best_f):
            best_f, best_avail = f, avail
            if not avail:
                break
    return best_avail


def exact_covers(g, k, candidates):
    cand_frames, frame_cands = _frame_index(g, k, candidates)
    uncovered = set(frame_cands)
    chosen = []

    def rec():
        if not uncovered:
            yield tuple(chosen)
            return
        for i in _column(cand_frames, frame_cands, uncovered):
            chosen.append(i)
            uncovered.difference_update(cand_frames[i])
            yield from rec()
            uncovered.update(cand_frames[i])
            chosen.pop()

    yield from rec()


def enumerate_k_systems(g, k, include_merged=True):
    """The one-job stream, without the count cap: every exact cover, each
    followed by its merged variants."""
    candidates = connected_k_regular_sets(g, k)
    for cover in exact_covers(g, k, candidates):
        base = [candidates[i] for i in cover]
        yield make_set_system(g, k, base)
        if include_merged:
            for merged in _merged_variants(g, base):
                yield make_set_system(g, k, merged)


# -- facet reconstruction ---------------------------------------------------------


def facets_from_2faces(g, f2):
    if g.d < 3:
        raise DimensionTooSmall(f"facet reconstruction needs d >= 3, got d={g.d}")
    check_system_bound(g, f2)
    if f2.k != 2:
        raise KMismatch(f"expected a 2-system, got k={f2.k}")
    report = validate_k_system(g, f2)
    if not report.valid:
        raise NotCycleSystem(f"not a valid 2-system: {report.defect_lines()[0]}")
    for i, t in enumerate(f2.sets):
        if not induces_connected(g, t):
            raise NotCycleSystem(f"member #{i} induces a disconnected subgraph")

    corner_face = {}
    face_leaves = []
    for i, t in enumerate(f2.sets):
        leaves = dict(zip(t, induced_leaves(g, t)))
        face_leaves.append(leaves)
        for v, pair in leaves.items():
            corner_face[(v, frozenset(pair))] = i

    def transport(u, via, missing):
        x, y = face_leaves[corner_face[(u, frozenset((missing, via)))]][via]
        return y if x == u else x

    facets = set()
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
