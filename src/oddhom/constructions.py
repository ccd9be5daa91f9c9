"""Builders for the graph families under study, plus hard-coded fixtures.

The central family is the subdivided K4: four branch vertices x, y, z, t
whose six connecting threads turn the four triangles into cycles.  When all
four of those cycles are odd the graph is an odd-K4; if moreover every
thread equals its disjoint partner (x-y with z-t, x-z with t-y, x-t with
z-y) all four cycles have the same odd length 2k+1, the order is exactly
2(a+b+c) - 2, and the graph is the unique (a,b,c) subdivision up to
relabelling.  The "case" fixtures are the handful of specific subdivided
K4s, some with one or two pendant vertices attached, that arise when
classifying 13- and 14-vertex graphs of odd-girth 7; the "fig2" fixtures are
three order-15 graphs of odd-girth 7 with no homomorphism to the 5-cycle.

Vertex numbering is fixed and documented per builder so that graph6 output
is reproducible: branch or outer-cycle vertices first, then inner layers or
thread interiors in declaration order.
"""

from __future__ import annotations

import math
from functools import partial

from .graphs import Graph


def cycle(n: int) -> Graph:
    """The cycle C_n on vertices 0..n-1 in ring order."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    """The path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def circular_clique(p: int, q: int) -> Graph:
    """C(p, q): vertices 0..p-1 with i ~ j iff q <= |i - j| <= p - q.

    C(p, 1) is the complete graph K_p and C(2l+1, l) is the cycle C_{2l+1};
    homomorphisms between circular cliques are governed by the fraction p/q.
    Requires gcd(p, q) = 1 and p >= 2q, so the fraction is in lowest terms
    and the graph has at least one edge per vertex.
    """
    if q < 1 or p < 2 * q:
        raise ValueError("circular clique needs p >= 2q >= 2")
    if math.gcd(p, q) != 1:
        raise ValueError("circular clique parameters must be coprime")
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            d = j - i
            if q <= d <= p - q:
                edges.append((i, j))
    return Graph.from_edges(p, edges)


def _thread(edges, u, v, length, nxt):
    """Append a u-v path of ``length`` edges to ``edges``, its interior
    numbered nxt, nxt + 1, ... from u on; return the next free vertex."""
    walk = [u, *range(nxt, nxt + length - 1), v]
    edges.extend(zip(walk, walk[1:]))
    return nxt + length - 1


def subdivided_k4(a: int, ap: int, b: int, bp: int, c: int, cp: int) -> Graph:
    """K4 with its six edges subdivided into threads of given lengths.

    Branch vertices are x=0, y=1, z=2, t=3.  Thread lengths: x-y is ``a``,
    z-t is ``ap``, x-z is ``b``, t-y is ``bp``, x-t is ``c``, z-y is ``cp``
    (each thread paired with the disjoint K4 edge it complements).  Thread
    interiors are numbered 4, 5, ... in that thread order, each running from
    its first-named endpoint.  All four triangle-derived cycles must be odd,
    which makes the result an odd-K4.
    """
    lengths = [a, ap, b, bp, c, cp]
    if any(not isinstance(v, int) or v < 1 for v in lengths):
        raise ValueError("thread lengths must be positive integers")
    faces = [a + cp + b, a + bp + c, b + ap + c, bp + ap + cp]
    if any(f % 2 == 0 for f in faces):
        raise ValueError(f"triangle cycles {faces} must all be odd for an odd-K4")
    x, y, z, t = 0, 1, 2, 3
    threads = [(x, y, a), (z, t, ap), (x, z, b), (t, y, bp), (x, t, c), (z, y, cp)]
    edges = []
    nxt = 4
    for u, v, length in threads:
        nxt = _thread(edges, u, v, length, nxt)
    return Graph.from_edges(nxt, edges)


def odd_k4(a: int, b: int, c: int) -> Graph:
    """The (a,b,c)-odd-K4: opposite threads equal, all four cycles of length a+b+c.

    Order is 2(a+b+c) - 2 and the odd-girth equals a+b+c (the four subdivided
    triangles are the only odd cycles).  Requires a+b+c odd.
    """
    if (a + b + c) % 2 == 0:
        raise ValueError("a + b + c must be odd")
    return subdivided_k4(a, a, b, b, c, c)


def odd_k32(cycle_lengths, path_lengths) -> Graph:
    """Three disjoint odd cycles pairwise joined by paths (length 0 allowed).

    ``cycle_lengths`` are three odd integers >= 3; ``path_lengths`` gives the
    connecting path length for the pairs (0,1), (0,2), (1,2) in that order.
    Each path attaches at fixed ports (vertex 0 of each cycle for its first
    listed pair, vertex 1 for its second).  A path of length t >= 1
    contributes t-1 interior vertices; a path of length 0 identifies the two
    ports, so three C7s with all paths of length 0 have 21 - 3 = 18 vertices.

    Vertex numbering: cycle 0, cycle 1, cycle 2 blocks in ring order (merged
    vertices keep the smallest block slot), then path interiors in pair order.
    """
    cls = list(cycle_lengths)
    pls = list(path_lengths)
    if len(cls) != 3 or len(pls) != 3:
        raise ValueError("need exactly three cycle lengths and three path lengths")
    if any(not isinstance(v, int) or v < 3 or v % 2 == 0 for v in cls):
        raise ValueError("cycle lengths must be odd integers >= 3")
    if any(not isinstance(v, int) or v < 0 for v in pls):
        raise ValueError("path lengths must be non-negative integers")

    base = [0, cls[0], cls[0] + cls[1]]
    # The two ports of each pair's path.  Every port serves exactly one pair,
    # so a length-0 path merges its second port into its first, smaller one,
    # and no other path touches either.
    ends = [(base[0], base[1]), (base[0] + 1, base[2]), (base[1] + 1, base[2] + 1)]
    merged = {b: a for (a, b), plen in zip(ends, pls) if plen == 0}
    label = {}
    for v in range(sum(cls)):
        if v not in merged:
            label[v] = len(label)
    nxt = len(label)
    label.update((b, label[a]) for b, a in merged.items())

    edges = [(label[base[i] + k], label[base[i] + (k + 1) % length])
             for i, length in enumerate(cls) for k in range(length)]
    for (a, b), plen in zip(ends, pls):
        if plen:
            nxt = _thread(edges, label[a], label[b], plen, nxt)
    return Graph.from_edges(nxt, edges)


def generalized_mycielski(k: int) -> Graph:
    """The k-level Mycielski-type extension of the (2k+1)-cycle.

    Levels V_1..V_k each hold 2k+1 vertices; V_1 induces the cycle, vertex j
    of level i is adjacent to vertices j-1 and j+1 (mod 2k+1) of level i-1,
    and a final apex is adjacent to all of V_k.  The result has order
    2k^2 + k + 1, odd-girth 2k+1, and chromatic number 4.  For k=1 it is K4;
    for k=2 it is the classic 11-vertex triangle-free 4-chromatic graph.

    Numbering: level 1 vertices 0..2k, then level 2, ..., apex last.
    """
    if k < 1:
        raise ValueError("level count k must be at least 1")
    m = 2 * k + 1
    edges = [(j, (j + 1) % m) for j in range(m)]
    for i in range(1, k):
        off, prev = i * m, (i - 1) * m
        for j in range(m):
            edges.append((off + j, prev + (j - 1) % m))
            edges.append((off + j, prev + (j + 1) % m))
    apex = k * m
    edges.extend((apex, (k - 1) * m + j) for j in range(m))
    return Graph.from_edges(k * m + 1, edges)


# -- fixtures -----------------------------------------------------------------

def _fig2a():
    # Outer hexagon u0..u5 (0..5), inner six v0..v5 (6..11), centre w0..w2
    # (12..14).  Spokes u_i v_i plus the inner ten-edge chain
    # v0 v1 w1 v4 v5 w0 v2 v3 w2 v0; 21 edges in all.
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    spokes = [(i, 6 + i) for i in range(6)]
    chain = [(6, 7), (7, 13), (13, 10), (10, 11), (11, 12),
             (12, 8), (8, 9), (9, 14), (14, 6)]
    return Graph.from_edges(15, hexagon + spokes + chain)


def _fig2b():
    # Outer octagon u0..u7 (0..7), inner v0..v6 (8..14): three two-edge
    # bridges over the octagon, one three-edge bridge through v6, and the
    # inner triangle of long chords v0v3, v1v4, v2v5.
    octagon = [(i, (i + 1) % 8) for i in range(8)]
    inner = [(0, 8), (8, 9), (9, 1),
             (3, 10), (10, 11), (11, 4),
             (5, 12), (12, 14), (14, 13), (13, 7),
             (6, 14), (8, 11), (9, 12), (10, 13)]
    return Graph.from_edges(15, octagon + inner)


def _fig2c():
    # Outer 7-cycle u0..u6 (0..6); inner vertices v0, v2, v4, v5, v6
    # (7..11) and w0, w1, w3 (12..14).
    outer = [(i, (i + 1) % 7) for i in range(7)]
    inner = [(2, 8), (8, 13), (13, 12), (12, 14), (14, 8),
             (4, 9), (9, 10), (10, 5),
             (6, 11), (11, 7), (7, 0),
             (7, 12), (13, 11), (10, 14), (9, 12)]
    return Graph.from_edges(15, outer + inner)


def _with_pendants(base: Graph, attach_edges):
    n = base.order
    extra = max(u for e in attach_edges for u in e) + 1 - n
    edges = list(base.edges()) + list(attach_edges)
    return Graph.from_edges(n + extra, edges)


def _case1a():
    # (2,2,3)-odd-K4 (order 12) plus adjacent pendants 12 ~ 8 and 13 ~ 11;
    # vertices 8 and 11 are interior vertices of the two length-3 threads at
    # distance 4 from each other.
    return _with_pendants(odd_k4(2, 2, 3), [(12, 8), (13, 11), (12, 13)])


def _case1b():
    # (1,3,3)-odd-K4 plus adjacent pendants on the distance-4 pair (9, 11).
    return _with_pendants(odd_k4(1, 3, 3), [(12, 9), (13, 11), (12, 13)])


def _case2b():
    # Order-13 odd-K4 with threads (2,3,4)/(1,2,3) plus a 14th vertex joined
    # to its unique diametral pair (interior vertices 9 and 11).  The base has
    # diameter 5, so the join closes a 7-cycle, which completes a
    # (2,2,3)-odd-K4: this is the case-1a graph, reached by the case-2 route.
    # Under odd-girth 7, minimum degree 2 and no 4- or 6-cycle it is the only
    # way to extend any order-13 odd-K4 of odd-girth 7 by one vertex.
    return _with_pendants(subdivided_k4(1, 2, 3, 2, 4, 3), [(13, 9), (13, 11)])


_FIXTURES = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "case1a": _case1a,
    "case1b": _case1b,
    # Order-13 odd-K4 with thread lengths (3,3,3) on one triangle and
    # (2,2,2) opposite; three 7-cycles and one 9-cycle.
    "case2a": partial(subdivided_k4, 2, 3, 3, 2, 3, 2),
    "case2b": _case2b,
    # Order-14 odd-K4, threads (3,4,4)/(1,2,2); three 7-cycles, one 11-cycle.
    "case3a": partial(subdivided_k4, 1, 3, 4, 2, 4, 2),
    # case3b_*: two 7-cycles and two 9-cycles; the z-y thread is the common
    # thread of the two 9-cycles and exceeds its partner by 2.
    "case3b_1": partial(subdivided_k4, 1, 1, 3, 3, 3, 5),
    "case3b_2": partial(subdivided_k4, 1, 1, 4, 4, 2, 4),
    "case3b_3": partial(subdivided_k4, 2, 2, 2, 2, 3, 5),
    "case3b_4": partial(subdivided_k4, 2, 2, 3, 3, 2, 4),
    "case3b_5": partial(subdivided_k4, 3, 3, 3, 3, 1, 3),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Graph:
    """A named hard-coded graph; see FIXTURE_NAMES for the catalogue.

    fig2a/b/c are the three order-15, odd-girth-7 graphs with no
    homomorphism to C5.  The case fixtures are order 12..14 subdivided K4s
    (with pendants where noted) of odd-girth 7; each of those does map to C5.
    The names are cases of the analysis, not distinct graphs: ``case1a`` and
    ``case2b`` reach the same graph by different routes and are isomorphic.
    """
    build = _FIXTURES.get(name)
    if build is None:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return build()
