"""Exhaustive searches: acyclic orientations, H^k minimization, k-systems.

Everything here is brute force with budgets, meant for desk-scale
instances.  Orientation enumeration walks edge directions in BFS order
and prunes any partial assignment that already closes a directed cycle,
so leaves of the recursion are exactly the acyclic orientations.
k-system enumeration is exact cover over the frame universe: candidate
member sets are the connected induced k-regular subgraphs, and a family
covers every frame exactly once iff it is a k-system.

Searches partition cleanly (fix the first few edge directions, or the
candidate covering the first chosen frame).  Each search takes a
``jobs`` argument: above 1, it hands the parts to that many worker
processes, each running the same sequential core on its part, and
yields the collected results in the order one job would.
"""

from __future__ import annotations

import multiprocessing
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .certificates import unique_sink_per_set
from .errors import BudgetExceeded, CandidateCapExceeded, InvalidParams, KOutOfRange
from .graphs import (
    ALL,
    Orientation,
    PolytopeGraph,
    hk_sum,
    indegree_histogram,
    induced_leaves,
    is_int,
)
from .oracle import Instance, faces_from_incidence, is_aof_oracle
from .systems import (
    KFrame,
    SetSystem,
    check_k_range,
    enumerate_k_frames,
    make_set_system,
    validate_k_system,
)

DEFAULT_BUDGET = 2**22
DEFAULT_CANDIDATE_CAP = 10**6
DEFAULT_COUNT_CAP = 10**4


def _require_ints(**values: object) -> None:
    """Budgets, caps and job counts must be integers."""
    for name, value in values.items():
        if not is_int(value):
            raise InvalidParams(f"{name} must be an integer, got {value!r}")


def _bfs_edge_order(g: PolytopeGraph) -> list[int]:
    """Edge indices ordered so both endpoints appear early and close
    together, which makes the cycle pruning bite as soon as possible."""
    pos = {0: 0}
    queue = [0]
    for u in queue:
        for w in g.adjacency[u]:
            if w not in pos:
                pos[w] = len(pos)
                queue.append(w)
    return sorted(
        range(len(g.edges)),
        key=lambda e: tuple(sorted((pos[g.edges[e][0]], pos[g.edges[e][1]]))),
    )


def _reaches(out: list[int], src: int, dst: int) -> bool:
    """Directed path of length >= 1 from src to dst over bitmask lists."""
    seen = 0
    frontier = out[src]
    while frontier:
        if (frontier >> dst) & 1:
            return True
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= out[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
    return False


def _acyclic_stream(g: PolytopeGraph, prefix: Sequence[int] = ()) -> Iterator[Orientation]:
    """All acyclic orientations whose first edges (in BFS edge order)
    point as ``prefix`` prescribes.  Deterministic: head bit 0 before 1."""
    m = len(g.edges)
    order = _bfs_edge_order(g)
    heads = [-1] * m
    out = [0] * g.n

    for pos, bit in enumerate(prefix):
        e = order[pos]
        u, v = g.edges[e]
        t, h = (v, u) if bit == 0 else (u, v)
        if _reaches(out, h, t):
            return
        heads[e] = bit
        out[t] |= 1 << h

    fp = g.fingerprint

    def rec(pos: int) -> Iterator[Orientation]:
        if pos == m:
            yield Orientation(heads=tuple(heads), graph_fingerprint=fp)
            return
        e = order[pos]
        u, v = g.edges[e]
        for bit, t, h in ((0, v, u), (1, u, v)):
            if not _reaches(out, h, t):
                heads[e] = bit
                out[t] |= 1 << h
                yield from rec(pos + 1)
                out[t] &= ~(1 << h)

    yield from rec(len(prefix))


def _prefixes(g: PolytopeGraph, budget: int, jobs: int) -> list[tuple[int, ...]]:
    """Directions of the first few edges (in BFS edge order) that split the
    orientation space into parts for ``jobs`` processes; just the empty
    prefix for one job.

    Hard-capped: refuses graphs whose full direction space 2^|E| exceeds
    the budget, since pruning gives no worst-case guarantee.
    """
    m = len(g.edges)
    if 2**m > budget:
        raise BudgetExceeded(f"2^{m} orientations exceed budget {budget}")
    bits = min((jobs - 1).bit_length() + 1, m) if jobs > 1 else 0
    return [
        tuple((i >> (bits - 1 - b)) & 1 for b in range(bits))
        for i in range(1 << bits)
    ]


def _fan_out(jobs: int, worker: Callable, tasks: list[tuple]) -> list:
    """``worker(*task)`` for every task, in ``jobs`` processes, in task order.

    Workers are spawned, not forked: they start from a fresh import and
    get everything they need, pickled, in their task.
    """
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        return pool.starmap(worker, tasks)


def _listed(limit: int | None, stream: Callable[..., Iterable], *args) -> list:
    """Worker: the first ``limit`` items of a sequential stream (all of them
    for None), for pickling back."""
    return list(islice(stream(*args), limit))


def enumerate_acyclic_orientations(
    g: PolytopeGraph, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Iterator[Orientation]:
    """Yield every acyclic orientation exactly once, deterministically.

    Refuses graphs with more than ``budget`` edge directions (see
    :func:`_prefixes`).  With ``jobs`` > 1 each process enumerates the
    orientations under one prefix, and the parts are collected before
    the stream starts; the order is the same as with one job.
    """
    _require_ints(budget=budget, jobs=jobs)
    prefixes = _prefixes(g, budget, jobs)
    if jobs <= 1:
        return _acyclic_stream(g)
    tasks = [(None, _acyclic_stream, g, p) for p in prefixes]
    return chain.from_iterable(_fan_out(jobs, _listed, tasks))


def _least_hk(
    g: PolytopeGraph, k: int | str, orientations: Iterable[Orientation]
) -> tuple[int, Orientation] | None:
    """H^k and the first orientation attaining the least H^k, if any."""
    scored = ((hk_sum(indegree_histogram(g, o), k), o) for o in orientations)
    return min(scored, key=itemgetter(0), default=None)


def _min_worker(
    g: PolytopeGraph, k: int | str, prefix: tuple[int, ...]
) -> tuple[int, Orientation] | None:
    return _least_hk(g, k, _acyclic_stream(g, prefix))


def minimize_hk(
    g: PolytopeGraph, k: int | str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> tuple[int, Orientation]:
    """Minimum of H^k over all acyclic orientations, with first witness.

    With ``jobs`` > 1 each process minimizes over one prefix; the first
    part attaining the minimum holds the witness one job would find.
    """
    if k != ALL and (not is_int(k) or not 0 <= k <= g.d):
        raise KOutOfRange(f"k must be 0..{g.d} or ALL, got {k!r}")
    _require_ints(budget=budget, jobs=jobs)
    if jobs <= 1:
        best = _least_hk(g, k, enumerate_acyclic_orientations(g, budget))
    else:
        tasks = [(g, k, p) for p in _prefixes(g, budget, jobs)]
        parts = [r for r in _fan_out(jobs, _min_worker, tasks) if r is not None]
        best = min(parts, key=itemgetter(0))
    assert best is not None  # n >= 2, connected
    return best


def connected_k_regular_sets(
    g: PolytopeGraph, k: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[tuple[int, ...]]:
    """All vertex sets inducing a connected k-regular subgraph, sorted.

    Grow-and-prune enumeration: each set is grown from its minimum
    vertex, branching on including or permanently excluding the smallest
    free neighbour of the first vertex still short of degree k.  A state
    dies when some deficient vertex cannot reach degree k from the free
    vertices left.  For k = 2 this enumerates exactly the induced cycles.
    Connected k-regular sets are inclusion-maximal (growing one would
    leave its old vertices saturated, disconnecting the addition), so
    emission stops a branch.
    """
    check_k_range(g, k)
    _require_ints(candidate_cap=candidate_cap)
    adj = [set(a) for a in g.adjacency]
    found: list[tuple[int, ...]] = []

    def grow(current: set[int], forb: set[int]) -> None:
        deg = {v: len(adj[v] & current) for v in current}
        if all(c == k for c in deg.values()):
            if len(found) >= candidate_cap:
                raise CandidateCapExceeded(
                    f"more than {candidate_cap} candidate sets"
                )
            found.append(tuple(sorted(current)))
            return
        pivot: int | None = None
        for v in sorted(current):
            if deg[v] < k:
                free = adj[v] - current - forb
                if deg[v] + len(free) < k:
                    return
                if pivot is None:
                    pivot = min(free)
        assert pivot is not None
        joins = adj[pivot] & current
        if len(joins) <= k and all(deg[x] < k for x in joins):
            grow(current | {pivot}, forb)
        grow(current, forb | {pivot})

    for r in range(g.n):
        grow({r}, set(range(r)))
    found.sort()
    return found


def _frames_of(g: PolytopeGraph, t: tuple[int, ...]) -> frozenset[KFrame]:
    return frozenset(map(KFrame, t, induced_leaves(g, t)))


def _frame_index(
    g: PolytopeGraph, k: int, candidates: list[tuple[int, ...]]
) -> tuple[list[frozenset[KFrame]], dict[KFrame, list[int]]]:
    """The frames of each candidate, and the candidates covering each frame
    (every frame of the universe, in frame order, ascending indices)."""
    cand_frames = [_frames_of(g, t) for t in candidates]
    frame_cands: dict[KFrame, list[int]] = {f: [] for f in enumerate_k_frames(g, k)}
    for i, fs in enumerate(cand_frames):
        for f in fs:
            frame_cands[f].append(i)
    return cand_frames, frame_cands


def _column(
    cand_frames: list[frozenset[KFrame]],
    frame_cands: dict[KFrame, list[int]],
    uncovered: set[KFrame],
) -> list[int]:
    """Live candidates of the uncovered frame with fewest of them, ties by
    frame key: the branching rule that makes every cover appear once."""
    best_f: KFrame | None = None
    best_avail: list[int] | None = None
    for f in uncovered:
        avail = [i for i in frame_cands[f] if cand_frames[i] <= uncovered]
        if best_avail is None or (len(avail), f) < (len(best_avail), best_f):
            best_f, best_avail = f, avail
            if not avail:
                break
    assert best_avail is not None
    return best_avail


def _root_branches(
    g: PolytopeGraph, k: int, candidates: list[tuple[int, ...]]
) -> list[int]:
    """Candidate indices covering the deterministic first frame choice."""
    cand_frames, frame_cands = _frame_index(g, k, candidates)
    return _column(cand_frames, frame_cands, set(frame_cands))


def _exact_covers(
    g: PolytopeGraph,
    k: int,
    candidates: list[tuple[int, ...]],
    forced_first: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Exact covers of the frame universe by candidate sets, Algorithm X
    style: always branch on the column :func:`_column` picks, so every
    cover appears exactly once.
    """
    cand_frames, frame_cands = _frame_index(g, k, candidates)
    uncovered = set(frame_cands)
    chosen: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if not uncovered:
            yield tuple(chosen)
            return
        for i in _column(cand_frames, frame_cands, uncovered):
            chosen.append(i)
            uncovered.difference_update(cand_frames[i])
            yield from rec()
            uncovered.update(cand_frames[i])
            chosen.pop()

    if forced_first is not None:
        chosen.append(forced_first)
        uncovered.difference_update(cand_frames[forced_first])
    yield from rec()


def _independent_members(g: PolytopeGraph, a: set[int], b: set[int]) -> bool:
    """No shared vertices and no edges between: their union is then an
    induced disjoint union, still k-regular."""
    if a & b:
        return False
    adj = g.adjacency
    return not any(x in b for v in a for x in adj[v])


def _merged_variants(
    g: PolytopeGraph, base: list[tuple[int, ...]]
) -> list[list[tuple[int, ...]]]:
    """Coarsenings of a cover obtained by merging pairwise independent
    members into single (disconnected) sets.  Frame coverage is untouched
    by such merges, so every coarsening is again a k-system."""
    m = len(base)
    vsets = [set(t) for t in base]
    compat: dict[tuple[int, int], bool] = {}
    for i in range(m):
        for j in range(i + 1, m):
            compat[(i, j)] = _independent_members(g, vsets[i], vsets[j])

    results: list[list[tuple[int, ...]]] = []
    blocks: list[list[int]] = []

    def assign(i: int) -> None:
        if i == m:
            if any(len(b) > 1 for b in blocks):
                results.append(
                    [
                        tuple(sorted(v for idx in b for v in base[idx]))
                        for b in blocks
                    ]
                )
            return
        for b in blocks:
            if all(compat[(j, i)] for j in b):
                b.append(i)
                assign(i + 1)
                b.pop()
        blocks.append([i])
        assign(i + 1)
        blocks.pop()

    assign(0)
    return results


def _checked(g: PolytopeGraph, k: int, sets: Sequence[tuple[int, ...]]) -> SetSystem:
    s = make_set_system(g, k, sets)
    if not validate_k_system(g, s).valid:
        raise AssertionError(f"search produced an invalid {k}-system: {s.sets}")
    return s


def enumerate_k_systems(
    g: PolytopeGraph,
    k: int,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    count_cap: int = DEFAULT_COUNT_CAP,
    include_merged: bool = True,
    jobs: int = 1,
) -> Iterator[SetSystem]:
    """Yield k-systems of the graph, each one validated before yielding.

    The exact cover runs over connected candidates; whether members may
    induce disconnected k-regular subgraphs is left open by the
    definition, so unions of independent members (which cover the same
    frames) are reported as additional systems unless ``include_merged``
    is off.  Every k-system arises this way: splitting members into
    connected components always yields a connected-member system.

    With ``jobs`` > 1 the candidates covering the first chosen frame are
    shared out across processes, and their covers are collected before
    the stream starts; the order is the same as with one job.  Every
    cover yields at least one system, so each process stops after
    ``count_cap`` covers (one, if ``count_cap`` is below 1).
    """
    candidates = connected_k_regular_sets(g, k, candidate_cap)
    _require_ints(count_cap=count_cap, jobs=jobs)
    if jobs <= 1:
        covers: Iterable[tuple[int, ...]] = _exact_covers(g, k, candidates)
    else:
        tasks = [
            (max(count_cap, 1), _exact_covers, g, k, candidates, i)
            for i in _root_branches(g, k, candidates)
        ]
        covers = chain.from_iterable(_fan_out(jobs, _listed, tasks))
    produced = 0
    for cover in covers:
        base = [candidates[i] for i in cover]
        yield _checked(g, k, base)
        produced += 1
        if produced >= count_cap:
            return
        if include_merged:
            for merged in _merged_variants(g, base):
                yield _checked(g, k, merged)
                produced += 1
                if produced >= count_cap:
                    return


def max_k_system(
    g: PolytopeGraph,
    k: int,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    count_cap: int = DEFAULT_COUNT_CAP,
) -> SetSystem | None:
    """A k-system of maximum cardinality among the first ``count_cap``
    exact covers.

    Merged variants never beat their base cover, so only connected-member
    systems compete.  The result is the largest of those ``count_cap``
    covers, not necessarily the largest k-system: on fig1 with k = 2 the
    covers come in sizes 6, 6, 8, so ``count_cap=2`` returns a 6-set
    system although f_2 = 8.  Returns None when the graph has no
    k-system at all.
    """
    best: SetSystem | None = None
    for s in enumerate_k_systems(
        g, k, candidate_cap, count_cap, include_merged=False
    ):
        if best is None or len(s.sets) > len(best.sets):
            best = s
    return best


def search_k_sink_counterexample(
    inst: Instance, k: int, budget: int = DEFAULT_BUDGET
) -> Orientation | None:
    """Look for an acyclic orientation with unique sinks on all k-faces
    that is nevertheless not an AOF orientation.

    For k = 2 none exists; for larger k the question is open, so this is
    expected to return None at any size this search can reach.
    """
    g = inst.graph
    faces = faces_from_incidence(inst, k)
    for o in enumerate_acyclic_orientations(g, budget):
        ok, _ = unique_sink_per_set(g, o, faces)
        if ok and not is_aof_oracle(inst, o):
            return o
    return None
