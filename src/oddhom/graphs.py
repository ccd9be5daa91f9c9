"""Bit-row graphs and the structural measurements used everywhere else.

Graphs are simple, loopless, undirected, on at most 64 vertices.  The
adjacency matrix is stored as one Python-int bitmask per vertex, so
neighbourhood intersections, BFS frontiers and subset tests are single
machine-word operations.  Every graph this package cares about (odd cycles,
subdivided K4s, generalized Mycielski graphs, search candidates) has at most
some forty vertices, well under the cap.

Odd-girth is computed by BFS on the parity double cover: the shortest odd
closed walk through a vertex is found as the distance from (v, even) to
(v, odd), and the minimum over all v is the shortest odd cycle.  Plain girth
uses the classic per-root BFS scan over non-tree edges.  Acyclic and
bipartite answers are reported as ``math.inf`` so that comparisons such as
``girth(g) <= odd_girth(g)`` hold without special cases.
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


def _odd_walk_back_to(rows, u, cap):
    """Length of the shortest odd closed walk through ``u``, or None past cap."""
    seen = [1 << u, 0]
    frontier = 1 << u
    par = 0
    d = 0
    while frontier and d < cap:
        d += 1
        nxt = _neighbors_of_set(rows, frontier)
        par ^= 1
        nxt &= ~seen[par]
        if par and nxt >> u & 1:
            return d
        seen[par] |= nxt
        frontier = nxt
    return None


def odd_girth(g: Graph):
    """Length of the shortest odd cycle; ``INFINITE`` iff bipartite.

    A shortest odd closed walk is necessarily a cycle (otherwise it splits
    into two closed walks, one of them odd and shorter), so the minimum over
    all vertices of the double-cover distance (v, even) -> (v, odd) is exact.
    """
    best = None
    cap = g.order + 1
    for v in range(g.order):
        d = _odd_walk_back_to(g.rows, v, best - 1 if best else cap)
        if d is not None and (best is None or d < best):
            best = d
            if best == 3:
                break
    return best if best is not None else INFINITE


def girth(g: Graph):
    """Length of the shortest cycle of any parity; ``INFINITE`` for forests."""
    n, rows = g.order, g.rows
    best = None
    for r in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[r] = 0
        queue = [r]
        while queue:
            nq = []
            for a in queue:
                da = dist[a]
                if best is not None and 2 * da >= best:
                    continue
                for b in _bits(rows[a]):
                    if dist[b] == -1:
                        dist[b] = da + 1
                        parent[b] = a
                        nq.append(b)
                    elif parent[a] != b and parent[b] != a:
                        cand = da + dist[b] + 1
                        if best is None or cand < best:
                            best = cand
            queue = nq
        if best == 3:
            break
    return best if best is not None else INFINITE


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
    found = {}

    for s in range(n):
        if deg[s] == 2:
            continue
        for t0 in _bits(rows[s]):
            path = [s, t0]
            prev, cur = s, t0
            while deg[cur] == 2:
                nxt = next(u for u in _bits(rows[cur]) if u != prev)
                path.append(nxt)
                prev, cur = cur, nxt
            key = frozenset(frozenset(e) for e in zip(path, path[1:]))
            found.setdefault(key, tuple(path))
    threads = list(found.values())

    # Cycle components: every vertex of degree 2, no branch vertex to anchor on.
    visited = 0
    for s in range(n):
        if visited >> s & 1 or deg[s] != 2:
            continue
        comp = [s]
        mask = 1 << s
        prev, cur = s, next(_bits(rows[s]))
        closed = True
        while cur != s:
            if deg[cur] != 2:
                closed = False
                break
            comp.append(cur)
            mask |= 1 << cur
            prev, cur = cur, next(u for u in _bits(rows[cur]) if u != prev)
        if closed:
            visited |= mask
            threads.append(tuple(comp) + (s,))
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


def to_graph6(g: Graph) -> str:
    n = g.order
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def from_graph6(line: str) -> Graph:
    s = line.strip()
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
    bits = []
    for d in data:
        for k in range(5, -1, -1):
            bits.append(d >> k & 1)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    if any(bits[idx:]):
        raise ValueError("graph6 padding bits must be zero")
    return Graph(rows, _validate=False)
