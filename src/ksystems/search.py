"""Exhaustive searches: acyclic orientations, H^k minimization, k-systems.

Everything here is brute force with budgets, meant for desk-scale
instances.  Orientation enumeration walks edge directions in BFS order
and prunes any partial assignment that already closes a directed cycle,
so leaves of the search are exactly the acyclic orientations.  The cycle
test reads a reachability closure kept as one integer of n * n bits, a
row of n bits per vertex, so trying an edge costs one bit test and
taking it a few operations on that integer: a shift and mask pick the
rows that gain, and one multiplication writes the gained row into each
of them.  The sweep visits each node once: an edge whose direction the
closure forces is set with no new integer, and only a node where both
directions are open is kept, to come back to for its second.
``minimize_hk`` and the k-sink search follow the stream by the edges
whose heads changed from one orientation to the next, each read from a
per-edge table of what a turn of that edge changes.
k-system enumeration is exact cover over the frame universe: candidate
member sets are the connected induced k-regular subgraphs, grown and
pruned over vertex bitmasks, most constrained vertex first, and a
family covers every frame exactly once iff it is a k-system.  Here, and
only here, a frame is an integer key, its position in frame order
(roots ascending, leaf sets in lexicographic order), and the cover is
Algorithm X over integer bitmasks: one int for the frames still
uncovered, one mask of frames per candidate and one mask of candidates
per frame.  Merged variants of a cover are generated lazily, so
``count_cap`` bounds them, and only the members that can merge are
partitioned.  The candidates' vertex masks are built once, serve the
cover and the merges, and stay on every system yielded.

No search here calls itself: each keeps its pending branches on an
explicit stack and takes them in the order a recursive search would, so
it runs to any depth, past Python's recursion limit, and the streams
come in the order the recursive references in the tests pin.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import chain, combinations, compress, count, islice
from math import comb
from operator import ne, or_
from typing import Iterator, Sequence

from .errors import BudgetExceeded, CandidateCapExceeded
from .graphs import (
    HVector,
    Orientation,
    PolytopeGraph,
    first_without_unique_sink,
    hk_sum,
    out_masks,
    require_int,
    unique_sinks,
    vertex_mask,
)
from .oracle import Instance, _face_masks
from .systems import (
    SetSystem,
    _keep_masks,
    check_k_range,
    frame_count,
    validate_k_system,
)

DEFAULT_BUDGET = 2**22
DEFAULT_CANDIDATE_CAP = 10**6
DEFAULT_COUNT_CAP = 10**4


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


def enumerate_acyclic_orientations(
    g: PolytopeGraph, budget: int = DEFAULT_BUDGET
) -> Iterator[Orientation]:
    """Yield every acyclic orientation exactly once, deterministically
    (edges in BFS edge order, head bit 0 before 1).

    Hard-capped: refuses graphs whose full direction space 2^|E| exceeds
    the budget, since pruning gives no worst-case guarantee.  The budget
    is checked when this is called, before the first orientation.

    The sweep is one loop over edge positions.  It keeps the reachability
    closure of the arcs chosen so far as one integer of n * n bits, n to
    a row: bit ``x*n + y`` is set when x reaches y by a path of length
    >= 1.  The arc t -> h closes a cycle exactly when h reaches t, bit
    ``h*n + t``.  Adding it, every vertex that is t or reaches t gains h
    and all h reaches: bit 0 of those rows is picked out by shifting the
    closure right by t and masking with ``col`` (bit 0 of every row), and
    multiplying that by the gained row puts the row into each of them.  A
    row is n bits wide, so the product cannot carry from one row into the
    next.

    Each node is visited once.  The sweep descends taking bit 0 wherever
    it is open.  Where one direction would close a cycle, the other is
    forced, and its arc adds nothing: its tail already reaches its head,
    so the head bit is set and the closure kept as it is.  Only a node
    where both directions are open is pushed, as (position, closure);
    popping it takes its bit-1 branch, so the leaves come in the order
    of a search that tries bit 0 before bit 1 at every node.  The last
    two edges are decided from the closure before them, with no new
    integer, so each node two edges from the end yields its leaves
    itself.
    """
    require_int(budget, "budget", 0)
    m = len(g.edges)
    if 2**m > budget:
        raise BudgetExceeded(f"2^{m} orientations exceed budget {budget}")
    fp = g.fingerprint
    n = g.n
    full = (1 << n) - 1
    col = sum(1 << x * n for x in range(n))
    # per position, for bit 0 then bit 1: (edge, head bit, tail, head, bit
    # of "head reaches tail", start of the head's row, tail's row bit 0,
    # head bit)
    choices = [
        tuple(
            (e, b, t, h, h * n + t, h * n, 1 << t * n, 1 << h)
            for b, t, h in ((0, v, u), (1, u, v))
        )
        for e in _bfs_edge_order(g)
        for u, v in [g.edges[e]]
    ]

    def stream() -> Iterator[Orientation]:
        if m == 1:  # a single edge closes no cycle either way
            for b in (0, 1):
                yield Orientation((b,), fp)
            return
        heads = [0] * m
        last = m - 2
        # (position, closure) of each node above where both directions were
        # open and only bit 0 has been taken
        stack: list[tuple[int, int]] = []
        pos = r = 0
        while True:
            while pos < last:
                zero, one = choices[pos]
                e, _, t, _, back, row, tail_row, head_bit = zero
                # a forced arc's tail already reaches its head: r stays
                if r >> back & 1:  # bit 0 would close a cycle
                    heads[e] = 1
                elif r >> one[4] & 1:  # bit 1 would
                    heads[e] = 0
                else:  # take bit 0 and come back for bit 1
                    heads[e] = 0
                    stack.append((pos, r))
                    r |= ((r >> t & col) | tail_row) * (head_bit | (r >> row & full))
                pos += 1
            # with t1 -> h1 added, h2 reaches t2 iff it did before, or it
            # reaches t1 (or is t1) and h1 reaches t2 (or is t2)
            second = choices[pos + 1]
            for e1, b1, t1, h1, back1, row1, _, _ in choices[pos]:
                if r >> back1 & 1:
                    continue
                heads[e1] = b1
                for e2, b2, t2, h2, back2, row2, _, _ in second:
                    if r >> back2 & 1 or (
                        (h2 == t1 or r >> row2 + t1 & 1)
                        and (h1 == t2 or r >> row1 + t2 & 1)
                    ):
                        continue
                    heads[e2] = b2
                    yield Orientation(tuple(heads), fp)
            if not stack:
                return
            pos, r = stack.pop()
            e, _, t, _, _, row, tail_row, head_bit = choices[pos][1]
            heads[e] = 1
            r |= ((r >> t & col) | tail_row) * (head_bit | (r >> row & full))
            pos += 1

    return stream()


def minimize_hk(
    g: PolytopeGraph, k: int | str, budget: int = DEFAULT_BUDGET
) -> tuple[int, Orientation]:
    """Minimum of H^k over all acyclic orientations, with first witness.

    H^k sums a weight over the vertices, the weight of in-degree i being
    H^k of the one-vertex histogram e_i.  The in-degrees and their sum of
    weights are kept from one orientation to the next and updated at the
    edges whose heads changed only, starting from every edge headed at
    its first end.  The first orientation of least H^k is the witness.
    """
    weight = [
        hk_sum(HVector(tuple(int(i == j) for j in range(g.d + 1))), k)
        for i in range(g.d + 1)
    ]
    # rise[i]: how much H^k grows when an in-degree goes from i to i + 1
    rise = [b - a for a, b in zip(weight, weight[1:])]
    edges = g.edges
    m = len(edges)
    # moves[e][b]: the vertex that loses edge e and the one that wins it
    # when its head turns to bit b
    moves = [((v, u), (u, v)) for u, v in edges]
    indeg = [0] * g.n
    for u, _ in edges:
        indeg[u] += 1
    total = sum(map(weight.__getitem__, indeg))
    prev: tuple[int, ...] = (0,) * m
    best: int | None = None
    witness: Orientation | None = None
    for o in enumerate_acyclic_orientations(g, budget):
        heads = o.heads
        for e in compress(range(m), map(ne, prev, heads)):
            lost, won = moves[e][heads[e]]
            indeg[lost] -= 1
            total += rise[indeg[won]] - rise[indeg[lost]]
            indeg[won] += 1
        prev = heads
        if best is None or total < best:
            best, witness = total, o
    assert best is not None and witness is not None  # n >= 2, connected
    return best, witness


def connected_k_regular_sets(
    g: PolytopeGraph, k: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP
) -> list[tuple[int, ...]]:
    """All vertex sets inducing a connected k-regular subgraph, sorted.

    Grow-and-prune enumeration: each set is grown from its minimum
    vertex, branching on including or permanently excluding one free
    neighbour of a vertex still short of degree k.  A state dies when
    some deficient vertex cannot reach degree k from the free vertices
    left.  For k = 2 this enumerates exactly the induced cycles.
    Connected k-regular sets are inclusion-maximal (growing one would
    leave its old vertices saturated, disconnecting the addition), so
    emission stops a branch.

    The branching is most constrained first: the deficient vertex with
    the least spare (its degree plus its free neighbours, minus k; ties
    to the lowest vertex) gives its lowest free neighbour as the pivot.
    At spare 0 every free neighbour must join, so the exclude branch,
    which would die at once, is not pushed.  The order is free: every
    sought set holds the grown set, misses the excluded vertices and
    either holds the pivot or not, so it is found once whichever
    deficient vertex the pivot comes from.  The list is sorted at the
    end, and the cap counts every set found, so neither the list nor the
    cap error depends on the order.

    A state is two vertex bitmasks, the set grown so far and the vertices
    excluded from it.  A degree is the popcount of a neighbour mask cut
    to the set; the saturated vertices are gathered into one mask, so the
    pivot may join when it meets at most k of the set and none of those.
    The states wait on one stack, the branch that includes the pivot on
    top, so the search runs to any depth in the order of a recursive one.
    """
    check_k_range(g, k)
    require_int(candidate_cap, "candidate_cap", 0)
    adj = g.neighbour_masks
    found: list[tuple[int, ...]] = []
    stack = [(1 << r, (1 << r) - 1) for r in reversed(range(g.n))]
    while stack:
        cur, forb = stack.pop()
        blocked = cur | forb
        full = options = 0
        least = g.d  # above any spare
        rest = cur
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1]
            deg = (near & cur).bit_count()
            if deg == k:
                full |= low
                continue
            free = near & ~blocked
            spare = deg + free.bit_count() - k
            if spare < least:
                if spare < 0:
                    break  # the state dies
                least, options = spare, free
        else:
            if not options:
                if len(found) >= candidate_cap:
                    raise CandidateCapExceeded(
                        f"more than {candidate_cap} candidate sets"
                    )
                found.append(tuple(_bit_indices(cur)))
                continue
            pivot = options & -options
            if least:
                stack.append((cur, forb | pivot))
            joins = adj[pivot.bit_length() - 1] & cur
            if joins.bit_count() <= k and not joins & full:
                stack.append((cur | pivot, forb))
    found.sort()
    return found


def _bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _frame_keys(g: PolytopeGraph, k: int) -> list[dict[int, int]]:
    """The key table: for each vertex, the vertex bitmask of each k-subset
    of its neighbours mapped to the key of that frame, its position in
    frame order: ``root * binom(d, k)`` plus the rank of its leaf set
    among the k-subsets of the root's neighbours."""
    per = comb(g.d, k)
    bits = [1 << v for v in range(g.n)]
    return [
        dict(zip(map(sum, combinations([bits[x] for x in nbrs], k)), count(v * per)))
        for v, nbrs in enumerate(g.adjacency)
    ]


def _cover_index(
    g: PolytopeGraph, k: int, candidates: list[tuple[int, ...]], masks: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The exact-cover matrix as bitmasks.  A k-regular candidate holds
    one frame per vertex, the vertex and its neighbours inside the
    candidate (``masks`` holds each candidate's vertex mask), looked up in
    :func:`_frame_keys` by their bitmask.

    Returns each candidate's frames (a mask over frame keys), each
    frame's candidates (a mask over candidate indices), and the
    candidates each candidate clashes with (shares a frame with,
    itself included).
    """
    frame_cands = [0] * frame_count(g, k)
    table = _frame_keys(g, k)
    nbr = g.neighbour_masks
    cand_keys = [
        [table[v][inside & nbr[v]] for v in t] for t, inside in zip(candidates, masks)
    ]
    for i, keys in enumerate(cand_keys):
        for f in keys:
            frame_cands[f] |= 1 << i
    cand_frames = [sum(1 << f for f in keys) for keys in cand_keys]
    clashes = [reduce(or_, map(frame_cands.__getitem__, keys)) for keys in cand_keys]
    return cand_frames, frame_cands, clashes


def _column(frame_cands: list[int], uncovered: int, live: int) -> int:
    """Live candidates (a mask) of the uncovered frame with fewest of them,
    ties to the lowest frame key: the branching rule that makes every
    cover appear once.  The scan stops at the first frame with at most
    one.  Its one candidate is the full scan's pick unless a later frame
    has none, and then the branch on it is one dead node more: the covers
    and their order stay the same."""
    best, fewest = 0, -1
    for f in _bit_indices(uncovered):
        avail = frame_cands[f] & live
        n = avail.bit_count()
        if fewest < 0 or n < fewest:
            best, fewest = avail, n
            if n <= 1:
                break
    return best


def _exact_covers(
    g: PolytopeGraph, k: int, candidates: list[tuple[int, ...]], masks: list[int]
) -> Iterator[tuple[int, ...]]:
    """Exact covers of the frame universe by candidate sets: Algorithm X
    over the bitmasks of :func:`_cover_index`.  ``uncovered`` holds the
    frames no chosen candidate covers, ``live`` the candidates that clash
    with none chosen, which are exactly those whose frames are all
    uncovered.  Always branching on the column :func:`_column` picks makes
    every cover appear exactly once.  The search keeps one stack entry per
    depth, (``uncovered``, ``live``, the column's candidates not yet
    tried), and ``chosen[j]`` is the candidate in trial at depth j, so it
    runs to any depth.  The frame universe is never empty (k <= d - 1).
    """
    cand_frames, frame_cands, clashes = _cover_index(g, k, candidates, masks)
    chosen: list[int] = []
    uncovered, live = (1 << len(frame_cands)) - 1, (1 << len(candidates)) - 1
    stack = [(uncovered, live, _bit_indices(_column(frame_cands, uncovered, live)))]
    while stack:
        uncovered, live, untried = stack[-1]
        del chosen[len(stack) - 1 :]
        i = next(untried, None)
        if i is None:
            stack.pop()
            continue
        chosen.append(i)
        uncovered ^= cand_frames[i]
        live &= ~clashes[i]
        if not uncovered:
            yield tuple(chosen)
        else:
            stack.append(
                (uncovered, live, _bit_indices(_column(frame_cands, uncovered, live)))
            )


def _merged_variants(
    g: PolytopeGraph, base: list[tuple[int, ...]], masks: list[int]
) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
    """Coarsenings of a cover obtained by merging pairwise independent
    members into single (disconnected) sets.  Frame coverage is untouched
    by such merges, so every coarsening is again a k-system.  They are
    yielded one at a time, so a caller that stops early does no more.
    ``masks`` holds the vertex mask of each member; each coarsening comes
    as its members, blocks ordered by their least member index, and the
    vertex mask of each.

    Two members are independent when they share no vertex and no edge
    joins them, so that their union is an induced disjoint union, still
    k-regular: one member's vertex mask misses the other's closed
    neighbourhood.  ``compat[i]`` is the mask of the earlier members
    independent of member i.  Only a member independent of some other
    member can merge; every other member stays a block of its own, and a
    cover with no independent pair yields nothing.  The members that can
    merge are partitioned: each block is the mask of its members, so a
    block admits member i when it holds nothing outside ``compat[i]``.
    A merged member's vertex mask is the OR of its parts' masks, and its
    vertex ids are the bits of that mask, since its parts are disjoint.

    Member i is tried in each block that admits it, in order, then in a
    block of its own; ``at[q]`` is the block the q-th member that can
    merge is in.  A block holding that member alone is the last one,
    since the blocks that later members opened are closed again before it
    moves on.  So the search is one loop over positions and runs to any
    depth.  No member that stays alone joins or opens a block, so the
    blocks come in the order a partition of every member would give them.
    """
    nbr = g.neighbour_masks
    closed = [reduce(or_, map(nbr.__getitem__, t), vm) for t, vm in zip(base, masks)]
    compat = [
        sum(1 << j for j in range(i) if not vm & closed[j])
        for i, vm in enumerate(masks)
    ]
    # the members independent of some other member: an earlier one, or a
    # later one whose compat holds them
    joined = reduce(or_, compat, 0) | sum(1 << i for i, c in enumerate(compat) if c)
    if not joined:
        return
    movers = [*_bit_indices(joined)]
    alone = [1 << i for i in range(len(base)) if not joined >> i & 1]

    # the member and vertex mask each block makes, kept once made; a block
    # of one member gives that member as it is in base
    parts = {1 << i: (t, vm) for i, (t, vm) in enumerate(zip(base, masks))}

    def part(block: int) -> tuple[tuple[int, ...], int]:
        vm = reduce(or_, map(masks.__getitem__, _bit_indices(block)))
        parts[block] = made = (tuple(_bit_indices(vm)), vm)
        return made

    def variant(blocks: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
        if alone:
            blocks = sorted(chain(blocks, alone), key=lambda b: b & -b)
        sets, vms = zip(*[parts.get(b) or part(b) for b in blocks])
        return [*sets], [*vms]

    p = len(movers)
    blocks: list[int] = []
    at = [-1] * p  # -1: that member is in no block yet
    q = 0
    while q >= 0:
        if q == p:
            if len(blocks) < p:  # some block holds two members or more
                yield variant(blocks)
            q -= 1
            continue
        i = movers[q]
        bit, outside = 1 << i, ~compat[i]
        x = at[q]
        if x >= 0:  # take member i out of the block it was tried in
            if blocks[x] == bit:
                blocks.pop()
            else:
                blocks[x] ^= bit
        for y in range(x + 1, len(blocks)):
            if not blocks[y] & outside:
                blocks[y] |= bit
                break
        else:
            if x == len(blocks):  # its own block was the last try
                at[q] = -1
                q -= 1
                continue
            y = len(blocks)
            blocks.append(bit)
        at[q] = y
        q += 1


def enumerate_k_systems(
    g: PolytopeGraph,
    k: int,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    count_cap: int = DEFAULT_COUNT_CAP,
    include_merged: bool = True,
) -> Iterator[SetSystem]:
    """Yield k-systems of the graph, each one validated before yielding.

    The exact cover runs over connected candidates; whether members may
    induce disconnected k-regular subgraphs is left open by the
    definition, so unions of independent members (which cover the same
    frames) are reported as additional systems unless ``include_merged``
    is off.  Every k-system arises this way: splitting members into
    connected components always yields a connected-member system.

    At most ``count_cap`` systems are yielded; a ``count_cap`` below 1 is
    refused before any candidate is listed.  Members are candidates or
    unions of them, distinct sorted tuples of vertex ids, so each system
    is bound to the graph with its members sorted, without
    :func:`~ksystems.systems.make_set_system`.  The candidates' vertex
    masks are built once and serve the cover and the merges; each system
    keeps its members' masks (:func:`~ksystems.systems._keep_masks`),
    a merged member's the OR of its parts'.  Every id is a bit index of
    a mask over the graph's vertices, so it is in range by construction,
    and the validation of each system checks no id and builds no mask.
    """
    require_int(count_cap, "count_cap", 1)
    candidates = connected_k_regular_sets(g, k, candidate_cap)
    masks = [*map(vertex_mask, candidates)]

    def families() -> Iterator[tuple[Sequence[tuple[int, ...]], Sequence[int]]]:
        for cover in _exact_covers(g, k, candidates, masks):
            # the candidates are sorted, so the cover in index order is too
            ordered = sorted(cover)
            yield [candidates[i] for i in ordered], [masks[i] for i in ordered]
            if include_merged:
                base = [candidates[i] for i in cover]
                kept = [masks[i] for i in cover]
                for sets, vms in _merged_variants(g, base, kept):
                    sets, vms = zip(*sorted(zip(sets, vms)))
                    yield sets, vms

    for sets, vms in islice(families(), count_cap):
        s = SetSystem(k=k, sets=tuple(sets), graph_fingerprint=g.fingerprint)
        _keep_masks(s, [*vms])
        if not validate_k_system(g, s).valid:
            raise AssertionError(f"search produced an invalid {k}-system: {s.sets}")
        yield s


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
    """The first acyclic orientation, in stream order, with a unique sink on
    every k-face that is nevertheless not an AOF orientation; None when
    every acyclic orientation has been checked and none is.

    For k = 2 none exists: that is the paper's theorem.  For k >= 3 one
    can exist: on the tetrahedral prism ``product(simplex(3), cube(1))``
    (d = 4) with k = 3, 384 of the 5 016 acyclic orientations have a unique
    sink on every facet but two sinks on some square 2-face.  Every acyclic
    orientation has one sink on each vertex and each edge, so for k = 0
    and k = 1 the first acyclic orientation that is not an AOF is returned.

    Each orientation is checked from the out-masks of its vertices, with no
    input check and no topological sort: the stream yields only acyclic
    orientations of ``inst.graph``.  A vertex is a sink of a face when its
    out-mask misses the face's bitmask.  The out-masks are kept from one
    orientation to the next and updated at the edges whose heads changed
    only.  An orientation with one sink on every k-face then runs the AOF
    test :func:`~ksystems.graphs.unique_sinks` (the polytope, then the
    faces of the other dimensions 2..d-1), as
    :func:`~ksystems.oracle.is_aof_oracle` does after its topological sort.  A
    vertex or an edge has one sink under any acyclic orientation, so 0- and
    1-faces are neither fetched nor tested.  The other faces are fetched
    once per call, the k-faces first and the others when the AOF test
    first reaches them, so a disconnected face is refused as
    :func:`~ksystems.oracle.is_aof_oracle` refuses it.
    """
    g = inst.graph
    check_k_range(g, k, least=0)
    faces = cache(partial(_face_masks, inst))
    k_faces = faces(k) if k > 1 else []
    m = len(g.edges)
    # a turned edge u-v flips bit v of u's out-mask and bit u of v's
    flips = [(u, 1 << v, v, 1 << u) for u, v in g.edges]
    prev: tuple[int, ...] = (0,) * m
    out = out_masks(g, Orientation(prev, g.fingerprint))
    others = [j for j in range(2, g.d) if j != k]
    for o in enumerate_acyclic_orientations(g, budget):
        heads = o.heads
        for u, v_bit, v, u_bit in compress(flips, map(ne, prev, heads)):
            out[u] ^= v_bit
            out[v] ^= u_bit
        prev = heads
        if first_without_unique_sink(out, k_faces) is None:
            if not unique_sinks(out, map(faces, others)):
                return o
    return None
