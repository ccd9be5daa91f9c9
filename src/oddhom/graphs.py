"""Bit-row graphs and the structural measurements used everywhere else.

Graphs are simple, loopless, undirected, on at most 64 vertices.  The
adjacency matrix is stored as one Python-int bitmask per vertex, so
neighbourhood intersections, BFS frontiers and subset tests are single
machine-word operations.  Every graph this package cares about (odd cycles,
subdivided K4s, generalized Mycielski graphs, search candidates) has at most
some forty vertices, well under the cap.

Girth and odd-girth share one layered BFS per root (``_shortest_cycle``):
an edge inside layer d closes an odd walk of length 2d + 1, and, for the
girth, a vertex of layer d + 1 with two neighbours in layer d closes one of
length 2d + 2.  A shortest cycle, and a shortest odd cycle, is isometric, so
from any root on it the layers show its exact length, and the minimum over
all roots is exact.  ``odd_reach_within`` alone walks the parity double
cover.  Acyclic and bipartite answers are reported as ``math.inf`` so that
comparisons such as ``girth(g) <= odd_girth(g)`` hold without special
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_VERTICES = 64

#: Sentinel for "no cycle of the requested parity"; numeric comparisons work.
INFINITE = math.inf


class Graph:
    """Immutable loop-free undirected graph with bitmask adjacency rows.

    ``rows[v]`` has bit ``u`` set iff ``u ~ v``.  Instances are hashable and
    compare by labelled adjacency (vertex names matter; use
    :func:`oddhom.canon.are_isomorphic` for unlabelled comparison).
    """

    __slots__ = ("order", "rows")

    def __init__(self, rows, _validate=True):
        rows = tuple(rows)
        n = len(rows)
        if _validate:
            if not 1 <= n <= MAX_VERTICES:
                raise ValueError(f"order must be between 1 and {MAX_VERTICES}, got {n}")
            full = (1 << n) - 1
            for v, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"row {v} has bits at or above order {n}")
                if row >> v & 1:
                    raise ValueError(f"vertex {v} is adjacent to itself")
            for v in range(n):
                for u in _bits(rows[v]):
                    if not rows[u] >> v & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy would set the slots one by one; rebuild through
        # __init__ instead, which also validates the rows.
        return Graph, (self.rows,)

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph on vertices ``0..n-1`` from an edge iterable."""
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"order must be between 1 and {MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows, _validate=False)

    def degree(self, v):
        return self.rows[v].bit_count()

    def neighbors(self, v):
        return list(_bits(self.rows[v]))

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def edge_count(self):
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self):
        """All edges as (u, v) pairs with u < v."""
        for v in range(self.order):
            for u in _bits(self.rows[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def degrees(self):
        return [row.bit_count() for row in self.rows]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Graph(order={self.order}, edges={self.edge_count()})"


def _bits(mask):
    """Iterate set bit positions of ``mask`` lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _neighbors_of_set(rows, mask):
    """Union of adjacency rows over all vertices in ``mask``."""
    out = 0
    while mask:
        b = mask & -mask
        out |= rows[b.bit_length() - 1]
        mask ^= b
    return out


def is_connected(g: Graph) -> bool:
    rows = g.rows
    full = (1 << g.order) - 1
    seen = 1
    frontier = 1
    while frontier:
        frontier = _neighbors_of_set(rows, frontier) & ~seen
        seen |= frontier
    return seen == full


def odd_reach_within(rows, u, limit):
    """Mask of vertices reachable from ``u`` by an odd walk of length <= limit.

    Walks may repeat vertices; this is BFS on the parity double cover,
    truncated at the given length.  The search module's conflict masks use
    it to find the attachments that would create a short odd cycle.
    """
    seen = [1 << u, 0]
    frontier = 1 << u
    par = 0
    out = 0
    for _ in range(limit):
        nxt = _neighbors_of_set(rows, frontier)
        par ^= 1
        nxt &= ~seen[par]
        if not nxt:
            break
        seen[par] |= nxt
        if par:
            out |= nxt
        frontier = nxt
    return out


def _shortest_cycle(g: Graph, even):
    """Length of the shortest cycle, or of the shortest odd one unless
    ``even``; ``INFINITE`` when there is none.

    From each root r the BFS layers are walked as bit masks.  For layer d,
    ``ones`` is the union of its rows and ``twos`` the vertices with two or
    more neighbours in it.  An edge inside layer d (``ones & layer``) closes
    an odd walk of length 2d + 1 through r.  With ``even``, a vertex of
    layer d + 1 in ``twos`` ends two distinct shortest paths from r, which
    close a walk of length 2d + 2.  Each such walk contains a cycle no
    longer than itself, odd when the walk is, so no length found is below
    the answer.

    The minimum over all roots is exact.  A shortest cycle C, and likewise a
    shortest odd cycle, is isometric: were two of its vertices joined by a
    path P shorter than their distance along C, P and the shorter arc would
    close a walk shorter than C that contains a cycle, and for an odd C, P
    and one of the two arcs would close a shorter odd walk, since the two
    walks' lengths sum to 2|P| + |C|, which is odd.  So from a root r on C,
    the layers are as on C itself: for |C| = 2d + 1, the two vertices of C
    at distance d from r are adjacent in layer d; for |C| = 2d + 2, the
    vertex opposite r lies in layer d + 1 and has its two C-neighbours in
    layer d.  A root's walk stops at the best length found so far, and the
    scan stops at 3.  A walk that runs out of layers with no find has met
    no edge inside a layer, so r's component is bipartite, and, with
    ``even``, no vertex with two parents, so it is a tree; the scan skips
    the component's other roots, none of which can find a cycle.
    """
    rows = g.rows
    best = INFINITE
    done = 0
    for r in range(g.order):
        if done >> r & 1:
            continue
        seen = layer = 1 << r
        d = 0
        while layer and 2 * d + 1 < best:
            ones = twos = 0
            m = layer
            while m:
                b = m & -m
                row = rows[b.bit_length() - 1]
                twos |= ones & row
                ones |= row
                m ^= b
            if ones & layer:
                best = 2 * d + 1
                break
            layer = ones & ~seen
            if even and twos & layer:
                best = 2 * d + 2
                break
            seen |= layer
            d += 1
        if not layer:  # r's component holds no cycle the walk looks for
            done |= seen
        if best == 3:
            break
    return best


def odd_girth(g: Graph):
    """Length of the shortest odd cycle; ``INFINITE`` iff bipartite."""
    return _shortest_cycle(g, False)


def girth(g: Graph):
    """Length of the shortest cycle of any parity; ``INFINITE`` for forests."""
    return _shortest_cycle(g, True)


@dataclass(frozen=True)
class DistancePartition:
    """BFS layers around a centre: distance exactly 1, exactly 2, and >= 3.

    ``n1``, ``n2`` and ``n3plus`` are vertex bit masks (bit u for vertex u).
    Unreachable vertices count as distance >= 3.  The four parts
    ``{center}``, ``n1``, ``n2``, ``n3plus`` partition the vertex set, and no
    edge can skip a layer (that would shorten a distance).
    """

    center: int
    n1: int
    n2: int
    n3plus: int


def distance_partition(g: Graph, v) -> DistancePartition:
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range for order {g.order}")
    n1 = g.rows[v]
    near = n1 | 1 << v
    n2 = _neighbors_of_set(g.rows, n1) & ~near
    n3 = (1 << g.order) - 1 & ~(near | n2)
    return DistancePartition(v, n1, n2, n3)


def has_walk_of_length(g: Graph, u, v, length) -> bool:
    """True iff some walk with exactly ``length`` edges joins u to v.

    Dynamic programming over reachable-set layers: the set of endpoints of
    length-i walks from u is the neighbourhood union of the length-(i-1) set.
    """
    if not (0 <= u < g.order and 0 <= v < g.order):
        raise ValueError("vertex out of range")
    if length < 0:
        raise ValueError("walk length must be non-negative")
    reach = 1 << u
    for _ in range(length):
        reach = _neighbors_of_set(g.rows, reach)
        if not reach:
            return False
    return bool(reach >> v & 1)


def list_threads(g: Graph):
    """Maximal threads: paths whose internal vertices all have degree 2.

    Open threads run between vertices of degree != 2; the endpoints coincide
    when a cycle hangs off a single branch vertex.  A connected component in
    which every vertex has degree 2 is a cycle and counts as one closed
    thread of its full length (the convention only matters for cycle graphs,
    which otherwise would have no threads at all).  Every thread is returned
    once, as a tuple of vertices in path order; closed threads repeat their
    start vertex at the end, so ``len(t) - 1`` is always the edge length.
    """
    n, rows = g.order, g.rows
    deg = g.degrees()
    # Every edge lies on exactly one thread.  Walking from the branch
    # vertices first, a degree-2 vertex starts only a whole cycle component.
    walked = [0] * n
    threads = []
    for s in sorted(range(n), key=lambda v: deg[v] == 2):
        while free := rows[s] & ~walked[s]:
            path = [s]
            prev, cur = s, (free & -free).bit_length() - 1
            while True:
                walked[prev] |= 1 << cur
                walked[cur] |= 1 << prev
                path.append(cur)
                if deg[cur] != 2 or cur == s:
                    break
                prev, cur = cur, (rows[cur] ^ 1 << prev).bit_length() - 1
            threads.append(tuple(path))
    return threads


def max_thread_length(g: Graph) -> int:
    """Largest thread length in edges; 0 when the graph has no thread."""
    return max((len(p) - 1 for p in list_threads(g)), default=0)


def delete_vertex(g: Graph, v) -> Graph:
    """g - v, with every vertex above v moved down by one."""
    if g.order == 1:
        raise ValueError("cannot delete the only vertex")
    low = (1 << v) - 1
    return Graph([(r & low) | (r >> 1 & ~low) for u, r in enumerate(g.rows) if u != v],
                 _validate=False)


# -- graph6 ------------------------------------------------------------------
#
# Standard header-free graph6: the order as n+63 for n <= 62, otherwise
# '~' followed by three bytes carrying n in 18 bits; then the upper triangle
# of the adjacency matrix read column by column ((0,1), (0,2), (1,2), ...),
# packed into 6-bit chunks most significant bit first, zero-padded, each
# chunk offset by 63 into printable ASCII.
#
# Both directions hold the triangle as one integer whose bit k is the k-th
# pair of that order.  Column j is then the low j bits of row j, shifted by
# j(j-1)/2, and chunk c is bits 6c to 6c+5 read from the low end, which
# ``_REV6`` reverses into a chunk's most-significant-first order.  So the
# padding is every bit of the decoded integer at or above n(n-1)/2.

_REV6 = tuple(int(f"{x:06b}"[::-1], 2) for x in range(64))


def to_graph6(g: Graph) -> str:
    n = g.order
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    tri = 0
    for j, row in enumerate(g.rows):
        tri |= (row & (1 << j) - 1) << j * (j - 1) // 2
    return head + "".join([chr(_REV6[tri >> k & 63] + 63) for k in range(0, n * (n - 1) // 2, 6)])


#: The white space a graph6 line may carry: ASCII's only.  ``str.strip()``
#: would also take 0x1c-0x1f, 0x85 and 0xa0, none of them graph6 bytes.
_ASCII_SPACE = " \t\n\r\x0b\x0c"


def from_graph6(line: str) -> Graph:
    s = line.strip(_ASCII_SPACE)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= d <= 63 for d in data):
        raise ValueError(f"graph6 line contains non-printable characters: {line!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 order field")
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 order {n} outside supported range 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) != need:
        raise ValueError(f"graph6 body has {len(data)} chunks, expected {need} for order {n}")
    tri = 0
    for c, d in enumerate(data):
        tri |= _REV6[d] << 6 * c
    if tri >> n * (n - 1) // 2:
        raise ValueError("graph6 padding bits must be zero")
    rows = [0] * n
    for j in range(1, n):
        col = tri >> j * (j - 1) // 2 & (1 << j) - 1
        rows[j] |= col
        for i in _bits(col):
            rows[i] |= 1 << j
    return Graph(rows, _validate=False)
