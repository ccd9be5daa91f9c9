"""Subgraph witnesses: odd-K4 and odd-K3^2 detection, and the dichotomy check.

A graph that does not map to its shortest odd cycle must contain one of two
parity obstructions as a subgraph: an odd-K4 (a K4 subdivision whose four
triangle-derived cycles are all odd) or an odd-K3^2 (three odd cycles
pairwise joined by disjoint paths, a length-0 path meaning the two cycles
share exactly one vertex).  The searches here are exact backtracking over
branch vertices and connecting paths, ordered shortest-first so small
witnesses surface early (the path search cuts partial paths that are too far
from their target to finish at the current length, which leaves that order
as it is), and guarded by an explicit budget: running out of budget raises
instead of returning None, so a "no witness" answer is always an exhaustive
one.

Witnesses carry enough structure to be re-verified edge by edge, and both
finders do re-verify before returning, raising AssertionError (also under
``python -O``) if the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget
from .graphs import INFINITE, Graph, _bits, odd_girth
from .constructions import cycle
from .hom import find_homomorphism

# K4 edges between branch slots 0..3, listed so that the disjoint partner of
# each edge is adjacent in the list: (a, a', b, b', c, c').  The four faces
# close after positions 2, 4, 5 and 5 of the search order below.
_K4_EDGES = ((0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (2, 1))
_K4_FACES = (
    (0, 2, 5),  # slots 0,1,2 of K4: edges a, b, c'
    (0, 3, 4),  # slots 0,1,3: a, b', c
    (1, 2, 4),  # slots 0,2,3: a', b, c
    (1, 3, 5),  # slots 1,2,3: a', b', c'
)
_SEARCH_ORDER = (0, 2, 5, 3, 4, 1)  # completes faces as early as possible
# The step of the search order at which each face is complete.
_FACE_DONE = tuple(max(pos for pos, e in enumerate(_SEARCH_ORDER) if e in face)
                   for face in _K4_FACES)

# The cycle pairs of an odd-K3^2, in the order its paths are listed.
_K32_PAIRS = ((0, 1), (0, 2), (1, 2))


def _simple_mask(g: Graph, seq, closed=False):
    """The vertex mask of ``seq`` when it is a simple path of ``g``, or a
    cycle of ``g`` when ``closed``, else 0.  One vertex is a path of length
    0; a cycle has at least three vertices."""
    if not seq or closed and len(seq) < 3:
        return 0
    mask = 0
    for v in seq:
        if not 0 <= v < g.order or mask >> v & 1:
            return 0
        mask |= 1 << v
    steps = zip(seq, seq[1:] + seq[:1] if closed else seq[1:])
    return mask if all(g.has_edge(a, b) for a, b in steps) else 0


@dataclass(frozen=True)
class OddK4Witness:
    """Four branch vertices plus the six threads certifying an odd-K4 subgraph.

    ``paths[i]`` joins the branch pair ``_K4_EDGES[i]`` and is stored with
    both endpoints; thread lengths come in disjoint-partner order
    (a, a', b, b', c, c').
    """

    branch: tuple
    paths: tuple

    @property
    def thread_lengths(self):
        return tuple(len(p) - 1 for p in self.paths)

    @property
    def face_lengths(self):
        tl = self.thread_lengths
        return tuple(tl[i] + tl[j] + tl[k] for i, j, k in _K4_FACES)

    def verify(self, g: Graph) -> bool:
        """True iff ``branch`` is four distinct vertices, each ``paths[i]``
        is a simple path of ``g`` from ``branch[a]`` to ``branch[b]`` for
        ``(a, b) = _K4_EDGES[i]``, the six interiors are pairwise disjoint
        and miss ``branch``, and all four faces are odd."""
        if len(self.branch) != 4 or len(set(self.branch)) != 4 or len(self.paths) != 6:
            return False
        interiors = 0
        for (a, b), p in zip(_K4_EDGES, self.paths):
            mask = _simple_mask(g, p)
            if not mask or p[0] != self.branch[a] or p[-1] != self.branch[b]:
                return False
            inner = mask & ~(1 << p[0]) & ~(1 << p[-1])
            if inner & interiors:
                return False
            interiors |= inner
        # Every branch vertex ends a path, so each is a vertex of g here.
        return (not any(interiors >> v & 1 for v in self.branch)
                and all(f % 2 == 1 for f in self.face_lengths))

    def to_json(self):
        return {"branch": list(self.branch), "paths": [list(p) for p in self.paths],
                "face_lengths": list(self.face_lengths)}


@dataclass(frozen=True)
class OddK32Witness:
    """Three odd cycles plus three connecting paths (single vertex = shared)."""

    cycles: tuple
    paths: tuple  # in _K32_PAIRS order: (0,1), (0,2), (1,2)

    def verify(self, g: Graph) -> bool:
        """True iff ``cycles`` is three odd cycles of ``g``, the three paths
        are pairwise disjoint, and the path of each pair (i, j) of
        ``_K32_PAIRS`` is either one vertex, the only one that cycles i and j
        share, or, when they share none, a simple path of ``g`` that meets
        cycle i only in its first vertex, cycle j only in its last, and
        misses the third cycle.  (So its interior misses all three.)"""
        masks = [len(c) % 2 and _simple_mask(g, c, closed=True) for c in self.cycles]
        if len(masks) != 3 or not all(masks) or len(self.paths) != 3:
            return False
        used = 0
        for (i, j), p in zip(_K32_PAIRS, self.paths):
            pm = _simple_mask(g, p)
            if not pm or pm & used:
                return False
            used |= pm
            shared = masks[i] & masks[j]
            if len(p) == 1:
                if shared != pm:
                    return False
            elif (shared or pm & masks[i] != 1 << p[0] or pm & masks[j] != 1 << p[-1]
                  or pm & masks[3 - i - j]):
                return False
        return True

    def to_json(self):
        return {"cycles": [list(c) for c in self.cycles],
                "paths": [list(p) for p in self.paths]}


def _paths_between(rows, u, v, forbidden, budget):
    """Yield simple u-v paths (as tuples, u != v) in increasing length.

    Interior vertices avoid ``forbidden`` (a bitmask that includes every
    vertex already spoken for).  Iterative deepening keeps the shortest-first
    order without materialising the whole path set: one DFS per length t,
    each yielding its paths of length exactly t.

    One BFS from ``v`` over the free vertices F (neither forbidden nor u
    nor v) first gives ``dist[w]``, the length of a shortest w-v path with
    its interior in F.  Every path the DFS can still complete from w has its
    interior in F too, so ``dist[w]`` bounds the steps left from below, and
    a round pushes w only when ``dist[w]`` is at most the steps it has left.
    Rounds start at ``dist[u]`` and end at |F reachable from v| + 1, the
    longest a simple u-v path can be.  Each cut drops only a subtree that
    holds no path of the round's length, so the yields, and their order,
    are those of the uncut deepening; only budget ticks fall.
    """
    n = len(rows)
    free = ~forbidden & ~(1 << u) & ~(1 << v)
    dist = [n] * n  # n: no such path
    reach = 0
    layer = 1 << v
    d = 0
    while layer:
        d += 1
        nxt = 0
        for x in _bits(layer):
            nxt |= rows[x]
        if nxt >> u & 1 and dist[u] == n:
            dist[u] = d
        layer = nxt & free & ~reach
        reach |= layer
        for w in _bits(layer):
            dist[w] = d
    if dist[u] == n:
        return
    for target in range(dist[u], reach.bit_count() + 2):
        stack = [(u, 1 << u, (u,))]
        while stack:
            cur, used, path = stack.pop()
            budget.tick("path search")
            left = target - len(path)  # steps left after the next vertex
            row = rows[cur]
            if not left:
                if row >> v & 1:
                    yield path + (v,)
                continue
            for w in _bits(row & reach & ~used):
                if dist[w] <= left:
                    stack.append((w, used | 1 << w, path + (w,)))


def _place_threads(rows, quad, paths, step, spoken, budget):
    """Fill ``paths`` from ``step`` of the search order on with threads
    between the branch vertices ``quad`` whose interiors avoid ``spoken``;
    True once all six are placed, backtracking as soon as a face is even."""
    budget.tick("odd-k4")
    if step == 6:
        return True
    eidx = _SEARCH_ORDER[step]
    bu, bv = _K4_EDGES[eidx]
    u, v = quad[bu], quad[bv]
    forbidden = spoken & ~(1 << u) & ~(1 << v)
    for p in _paths_between(rows, u, v, forbidden, budget):
        paths[eidx] = p
        if all(sum(len(paths[e]) - 1 for e in face) % 2
               for face, done in zip(_K4_FACES, _FACE_DONE) if done == step):
            inner = 0
            for w in p[1:-1]:
                inner |= 1 << w
            if _place_threads(rows, quad, paths, step + 1, spoken | inner, budget):
                return True
    return False


def find_odd_k4(g: Graph, budget: Budget | None = None) -> OddK4Witness | None:
    """Exact search for an odd-K4 subgraph, smallest-thread-first.

    Branch candidates are the degree->=3 vertices; for each 4-subset, the
    six connecting threads are chosen by backtracking with interior-vertex
    disjointness, pruning as soon as a completed triangle cycle comes out
    even.  None means exhaustively absent; an exhausted budget raises.
    """
    if budget is None:
        budget = Budget()
    n, rows = g.order, g.rows
    cand = [v for v in range(n) if rows[v].bit_count() >= 3]
    from itertools import combinations

    for quad in combinations(cand, 4):
        paths = [None] * 6
        if _place_threads(rows, quad, paths, 0, sum(1 << b for b in quad), budget):
            w = OddK4Witness(quad, tuple(paths))
            if not w.verify(g):
                raise AssertionError(f"odd-K4 witness failed its re-check: {w}")
            return w
    return None


def _odd_cycles(g: Graph, budget: Budget):
    """All odd cycles, shortest first, as (mask, vertex tuple).

    Each cycle is produced once: the tour starts at its smallest vertex and
    the second vertex is smaller than the last.
    """
    n, rows = g.order, g.rows
    out = []
    for s in range(n):
        allowed = ~((1 << s) - 1)  # only vertices >= s
        stack = [(s, 1 << s, (s,))]
        while stack:
            cur, used, path = stack.pop()
            budget.tick("cycle enumeration")
            row = rows[cur]
            if len(path) >= 3 and len(path) % 2 == 1 and row >> s & 1 and path[1] < path[-1]:
                out.append((used, path))
            for w in _bits(row & allowed & ~used):
                stack.append((w, used | 1 << w, path + (w,)))
    out.sort(key=lambda cyc: len(cyc[1]))
    return out


def _connect(rows, masks, cyc, chosen, pi, used_paths, budget):
    """Fill ``chosen`` from pair ``pi`` of ``_K32_PAIRS`` on with paths
    joining the cycles ``cyc`` (vertex masks ``masks``) and avoiding
    ``used_paths``; True once all three are placed."""
    budget.tick("odd-k3^2")
    if pi == 3:
        return True
    a, b = _K32_PAIRS[pi]
    inter = masks[a] & masks[b]
    if inter:
        if inter & used_paths:
            return False
        chosen[pi] = (inter.bit_length() - 1,)
        return _connect(rows, masks, cyc, chosen, pi + 1, used_paths | inter, budget)
    third = masks[3 - a - b]
    all_cyc = masks[0] | masks[1] | masks[2]
    for u in cyc[a]:
        if 1 << u & used_paths:
            continue
        for v in cyc[b]:
            if 1 << v & used_paths:
                continue
            forbidden = (all_cyc | used_paths) & ~(1 << u) & ~(1 << v)
            for p in _paths_between(rows, u, v, forbidden, budget):
                pm = 0
                for w in p:
                    pm |= 1 << w
                # The interior avoids forbidden, so only an endpoint can
                # lie on the third cycle.
                if pm & third:
                    continue
                chosen[pi] = p
                if _connect(rows, masks, cyc, chosen, pi + 1, used_paths | pm, budget):
                    return True
    return False


def find_odd_k32(g: Graph, budget: Budget | None = None) -> OddK32Witness | None:
    """Exact search for an odd-K3^2 subgraph.

    Enumerates odd cycles shortest-first, then picks triples that pairwise
    share at most one vertex; a shared vertex is the (length-0) connecting
    path of its pair, every other pair needs a connecting path whose interior
    avoids all three cycles, with the three paths pairwise disjoint.
    """
    if budget is None:
        budget = Budget()
    cycles = _odd_cycles(g, budget)
    for i1 in range(len(cycles)):
        m1, c1 = cycles[i1]
        for i2 in range(i1 + 1, len(cycles)):
            m2, c2 = cycles[i2]
            inter12 = m1 & m2
            if inter12.bit_count() > 1:
                continue
            for i3 in range(i2 + 1, len(cycles)):
                budget.tick("odd-k3^2")
                m3, c3 = cycles[i3]
                if (m1 & m3).bit_count() > 1 or (m2 & m3).bit_count() > 1:
                    continue
                cyc = (c1, c2, c3)
                chosen = [None] * 3
                if _connect(g.rows, (m1, m2, m3), cyc, chosen, 0, 0, budget):
                    w = OddK32Witness(cyc, tuple(chosen))
                    if not w.verify(g):
                        raise AssertionError(f"odd-K3^2 witness failed its re-check: {w}")
                    return w
    return None


@dataclass(frozen=True)
class DichotomyReport:
    """Outcome of checking one graph against the parity-obstruction dichotomy."""

    odd_girth: int
    maps_to_shortest_odd_cycle: bool
    branch: str  # "maps", "odd_k4", "odd_k32", or "none"
    odd_k4: OddK4Witness | None
    odd_k32: OddK32Witness | None

    @property
    def implication_holds(self) -> bool:
        return self.maps_to_shortest_odd_cycle or self.branch in ("odd_k4", "odd_k32")


def gerards_dichotomy_check(g: Graph, budget: Budget | None = None) -> DichotomyReport:
    """Check: no map to the shortest odd cycle implies a parity obstruction.

    Runs the homomorphism solver against C_{odd girth}; on failure, searches
    for an odd-K4 and then an odd-K3^2, reporting which branch certified the
    dichotomy.  A report with ``implication_holds`` false would contradict
    the underlying structure theorem, which the test corpus asserts never
    happens.  Bipartite input is rejected.
    """
    og = odd_girth(g)
    if og == INFINITE:
        raise ValueError("dichotomy check needs a non-bipartite graph")
    if find_homomorphism(g, cycle(og)) is not None:
        return DichotomyReport(og, True, "maps", None, None)
    k4 = find_odd_k4(g, budget)
    if k4 is not None:
        return DichotomyReport(og, False, "odd_k4", k4, None)
    k32 = find_odd_k32(g, budget)
    if k32 is not None:
        return DichotomyReport(og, False, "odd_k32", None, k32)
    return DichotomyReport(og, False, "none", None, None)
