"""Seeded benchmark inputs and the references they are checked against.

Reference polytopes are described by small recipes, built with the
program's generators and then relabelled by a seeded vertex permutation,
so every seed gives other documents for the same combinatorial types.
Everything a result is checked against is computed here without the
program: f-vectors from closed formulas, in-degree histograms, H^k,
acyclicity and k-system coverage from plain loops.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction
from math import comb

from ksystems import graphs, oracle

# A recipe is a nested tuple:
#   ("cube", d) | ("simplex", d) | ("polygon", m)
#   ("product", recipe, recipe) | ("truncate", recipe, vertex)
# Truncations cut at a third of each edge, so coordinates survive them.


class Cycle:
    """The positions a run goes round.

    Subclasses set ``positions`` (what each position holds, fixed by the
    seed) and ``warm`` (the ops set-up warms up with, at labels no timed
    op gets) and define ``op_at(i)``: op i is made for position
    ``i mod len`` under labels of its own, so no input document or
    instance recurs from one round to the next.
    """

    positions: list
    warm: list

    def __len__(self) -> int:
        return len(self.positions)

    def replay_start(self, n_done: int) -> int:
        """First index past ``n_done`` where the cycle restarts: the same
        positions in the same order, under labels not used before."""
        return len(self) * (n_done // len(self) + 1)


def canonical(doc) -> str:
    """Canonical JSON: sorted keys, no whitespace, one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def seeded_rng(*parts) -> random.Random:
    """A generator seeded from a string, independent of PYTHONHASHSEED."""
    return random.Random(":".join(str(p) for p in parts))


def recipe_name(recipe) -> str:
    head, *rest = recipe
    return f"{head}({','.join(recipe_name(r) if isinstance(r, tuple) else str(r) for r in rest)})"


def build(recipe, coords: bool = True) -> oracle.Instance:
    """Build the instance a recipe describes (before relabelling)."""
    head = recipe[0]
    if head == "cube":
        inst = oracle.cube(recipe[1])
    elif head == "simplex":
        inst = oracle.simplex(recipe[1])
    elif head == "polygon":
        m = recipe[1]
        g = graphs.validate_graph(2, m, [(i, (i + 1) % m) for i in range(m)])
        return oracle.make_instance(f"polygon({m})", g, list(g.edges))
    elif head == "product":
        inst = oracle.product(build(recipe[1], coords), build(recipe[2], coords))
    elif head == "truncate":
        base = build(recipe[1], coords)
        inst = oracle.truncate_vertex(base, recipe[2])
        if coords and base.coords is not None:
            inst = oracle.make_instance(
                inst.name, inst.graph, inst.facets, _truncated_coords(base, recipe[2])
            )
    else:
        raise ValueError(f"unknown recipe {recipe!r}")
    if not coords and inst.coords is not None:
        inst = oracle.make_instance(inst.name, inst.graph, inst.facets, None)
    return inst


def _truncated_coords(base: oracle.Instance, v: int) -> list[tuple[Fraction, ...]]:
    """Coordinates after cutting vertex v a third of the way along its edges.

    Follows the numbering of ``oracle.truncate_vertex``: old vertices keep
    their order without v, then one new vertex per neighbour of v in
    ascending order.  A wrong guess shows up as a witness that is not an
    AOF, which the certify set-up rejects.
    """
    rows = base.coords
    cut = rows[v]
    out = [rows[u] for u in range(base.graph.n) if u != v]
    out.extend(
        tuple(c + (x - c) / 3 for c, x in zip(cut, rows[u]))
        for u in base.graph.adjacency[v]
    )
    return out


def f_vector(recipe) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}) from closed formulas, never from the program."""
    return tuple(_extended_f(recipe)[:-1])


def _extended_f(recipe) -> list[int]:
    """f-vector including the polytope itself as its single d-face."""
    head = recipe[0]
    if head == "cube":
        d = recipe[1]
        return [comb(d, k) * 2 ** (d - k) for k in range(d + 1)]
    if head == "simplex":
        d = recipe[1]
        return [comb(d + 1, k + 1) for k in range(d + 1)]
    if head == "polygon":
        return [recipe[1], recipe[1], 1]
    if head == "product":
        a, b = _extended_f(recipe[1]), _extended_f(recipe[2])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    if head == "truncate":
        f = _extended_f(recipe[1])
        d = len(f) - 1
        # one vertex becomes d; the cut adds a (d-1)-simplex facet
        return [f[0] + d - 1] + [f[j] + comb(d, j + 1) for j in range(1, d)] + [1]
    raise ValueError(f"unknown recipe {recipe!r}")


def relabel(inst: oracle.Instance, rng: random.Random, name: str) -> oracle.Instance:
    """The same polytope with vertex ids permuted by ``rng``."""
    g = inst.graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    graph = graphs.validate_graph(g.d, g.n, [(perm[u], perm[v]) for u, v in g.edges])
    coords = None
    if inst.coords is not None:
        coords = [None] * g.n
        for u, row in enumerate(inst.coords):
            coords[perm[u]] = row
    facets = [[perm[x] for x in t] for t in inst.facets]
    return oracle.make_instance(name, graph, facets, coords)


# -- documents in the formats of ksystems.fileio ------------------------------

def graph_doc(g: graphs.PolytopeGraph) -> dict:
    return {"d": g.d, "n": g.n, "edges": [list(e) for e in g.edges]}


def orientation_doc(g: graphs.PolytopeGraph, heads) -> dict:
    return {"graph_fingerprint": g.fingerprint, "heads": list(heads)}


def set_system_doc(g: graphs.PolytopeGraph, k: int, sets) -> dict:
    return {"graph_fingerprint": g.fingerprint, "k": k, "sets": sorted(sorted(t) for t in sets)}


# -- independent references ----------------------------------------------------

def indegrees(g: graphs.PolytopeGraph, heads) -> list[int]:
    indeg = [0] * g.n
    for (u, v), b in zip(g.edges, heads):
        indeg[v if b else u] += 1
    return indeg


def h_vector(g: graphs.PolytopeGraph, heads) -> list[int]:
    counts = [0] * (g.d + 1)
    for c in indegrees(g, heads):
        counts[c] += 1
    return counts


def h_k(h, k: int) -> int:
    return sum(c * comb(i, k) for i, c in enumerate(h))


def acyclic(g: graphs.PolytopeGraph, heads) -> bool:
    """Kahn's algorithm on the directed edge list."""
    out = [[] for _ in range(g.n)]
    for (u, v), b in zip(g.edges, heads):
        tail, head = (u, v) if b else (v, u)
        out[tail].append(head)
    indeg = indegrees(g, heads)
    queue = deque(v for v in range(g.n) if indeg[v] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for w in out[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == g.n


def is_k_system(g: graphs.PolytopeGraph, k: int, sets) -> bool:
    """Every member k-regular and every k-frame in exactly one member."""
    covered: set[tuple[int, tuple[int, ...]]] = set()
    for t in sets:
        members = set(t)
        for v in t:
            leaves = tuple(sorted(x for x in g.adjacency[v] if x in members))
            if len(leaves) != k or (v, leaves) in covered:
                return False
            covered.add((v, leaves))
    return len(covered) == g.n * comb(g.d, k)


def independent(g: graphs.PolytopeGraph, a, b) -> bool:
    """Disjoint vertex sets with no edge between them."""
    sb = set(b)
    return not sb.intersection(a) and not any(x in sb for v in a for x in g.adjacency[v])


def rank_orientation(g: graphs.PolytopeGraph, rank) -> tuple[int, ...]:
    """Heads pointing every edge toward the larger rank: always acyclic."""
    return tuple(1 if rank[v] > rank[u] else 0 for u, v in g.edges)


def cyclic_face(g: graphs.PolytopeGraph, heads, face) -> tuple[int, ...]:
    """Re-orient the edges of a 2-face (an induced cycle) around it."""
    members = set(face)
    order = [face[0]]
    prev = None
    while True:
        cur = order[-1]
        nxt = [x for x in g.adjacency[cur] if x in members and x != prev and x != cur]
        step = nxt[0] if prev is not None or len(nxt) == 1 else min(nxt)
        if step == order[0]:
            break
        prev = cur
        order.append(step)
    index = g.edge_index()
    out = list(heads)
    for a, b in zip(order, order[1:] + order[:1]):
        e = (a, b) if a < b else (b, a)
        out[index[e]] = 1 if b == e[1] else 0
    return tuple(out)
