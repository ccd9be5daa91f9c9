"""Exact homomorphism machinery: solver, cores, chromatic quantities, and
the v-special colourings that certify C5-colourability of odd-girth-7 graphs.

The solver is a complete backtracking search with arc-consistency.  Domains
are bitmasks over target vertices; after each assignment, every source edge
(u, w) is kept arc-consistent by intersecting dom(w) with the union of
target neighbourhoods of dom(u).  Variables are chosen by conflict-weighted
branching (dom/wdeg, Boussemart, Hemery, Lecoutre and Sais, ECAI 2004): each
source vertex has a weight, 1 at the start of a call, and when revising w
from u empties dom(w) both u and w gain 1.  Each node branches on the open
vertex of least |dom| / weight, compared as d_u * w_v < d_v * w_u, with ties
going to the earlier vertex of the static order (descending degree, then
index); so the search turns to the part of the graph that keeps failing.
The weights live within one call, and the search is plain module functions,
so a call leaves no reference cycle behind.

When the target's rows are a circulant labelling (row i is row 0 rotated by
i, as in every cycle, complete graph and circular clique built here, and in
any graph6 copy of one), the rotation v -> v + c is an automorphism of the
target, so the first vertex of that static order is pinned to target vertex
0 before the search starts.  The check is read off the rows on every call,
so no caller has to declare it.  A circulant's connection set is closed
under negation, since the target is undirected, so the reflection c -> -c is
an automorphism too, and it fixes 0; the second vertex of the static order
is restricted to the colours c with c <= -c mod |h|.  Both pins restrict
root domains only: any solution can be rotated so the first vertex goes to
0 and then reflected so the second takes such a colour, so they lose no
solution whatever order the search then branches in, and the decision
stays exact.

Cores use the source's own symmetry the same way.  Both ``is_core`` and
``compute_core`` run one scan, ``_retract``, for a vertex v with g -> g - v.
If an automorphism maps v to w, then g - v and g - w are isomorphic, so g
maps to one exactly when it maps to the other; the scan takes the vertex
orbits from one canonical search at its first failure, and refutes only one
vertex per orbit.

Chromatic number is the least k with a map to K_k; circular chromatic
number scans reduced fractions p/q upward (p bounded by the order, where the
minimum is always attained) and returns the first circular clique C(p, q)
that admits a map.

A v-special colouring is a proper 3-colouring of the vertices at distance 3
or more from v in which the third colour appears only on vertices isolated
within that induced subgraph and no distance-2 vertex sees both of the first
two colours.  Isolated far vertices can always take the third colour, so
one exists iff the graph H on the other far vertices and the distance-2
vertices, with g's edges inside the former and between the two, is
bipartite; one BFS 2-colouring of H decides it and builds the colouring.
For graphs of odd-girth at least 7 such a colouring extends to an explicit
homomorphism onto the 5-cycle, also implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import search_graph
from .constructions import circular_clique, complete, cycle
from .graphs import Graph, _bits, _neighbors_of_set, delete_vertex, distance_partition


@dataclass(frozen=True)
class VertexMap:
    """A total assignment of source vertices to target vertices."""

    source_order: int
    target_order: int
    image: tuple

    def __post_init__(self):
        if len(self.image) != self.source_order:
            raise ValueError("image length must equal source order")
        if any(not 0 <= v < self.target_order for v in self.image):
            raise ValueError("image entries must be target vertices")

    def to_json(self):
        return list(self.image)


def verify_mapping(g: Graph, h: Graph, m: VertexMap) -> bool:
    """True iff ``m`` sends every edge of ``g`` to an edge of ``h``."""
    if m.source_order != g.order or m.target_order != h.order:
        raise ValueError("mapping dimensions do not match the graphs")
    img = m.image
    return all(h.rows[img[a]] >> img[b] & 1 for a, b in g.edges())


def _circulant(h: Graph) -> bool:
    """True iff every row of ``h`` is row 0 rotated by its own index."""
    n, r = h.order, h.rows[0]
    full = (1 << n) - 1
    return all(row == (r << i | r >> (n - i)) & full for i, row in enumerate(h.rows))


class _Supports(dict):
    """Union of the target rows over a domain mask, cached per mask."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, mask):
        s = self[mask] = _neighbors_of_set(self.rows, mask)
        return s


def _propagate(doms, dirty, nbr, supports, weight):
    """Arc consistency from the vertices in ``dirty``; False on a wipeout,
    which adds 1 to the weight of both ends of the emptying edge."""
    while dirty:
        u = dirty.pop()
        su = supports[doms[u]]
        for w in nbr[u]:
            old = doms[w]
            new = old & su
            if new != old:
                if not new:
                    weight[u] += 1
                    weight[w] += 1
                    return False
                doms[w] = new
                dirty.add(w)
    return True


def _search(doms, order, nbr, supports, weight):
    """Branch on the open vertex of least |dom| / weight, earliest in
    ``order`` on ties; the arc-consistent singletons it reaches, or None."""
    v, dv, wv = -1, 0, 1
    for u in order:
        d = doms[u]
        if d & (d - 1):
            du = d.bit_count()
            if v < 0 or du * wv < dv * weight[u]:
                v, dv, wv = u, du, weight[u]
    if v < 0:
        return doms
    m = doms[v]
    while m:
        bit = m & -m
        m ^= bit
        nd = list(doms)
        nd[v] = bit
        if _propagate(nd, {v}, nbr, supports, weight):
            res = _search(nd, order, nbr, supports, weight)
            if res is not None:
                return res
    return None


def find_homomorphism(g: Graph, h: Graph) -> VertexMap | None:
    """A homomorphism g -> h, or None; the decision is exact."""
    n, hn = g.order, h.order
    deg = g.degrees()
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    nbr = [tuple(_bits(r)) for r in g.rows]
    supports = _Supports(h.rows)
    weight = [1] * n
    doms = [(1 << hn) - 1] * n
    if _circulant(h):
        doms[order[0]] = 1
        if n >= 2:
            doms[order[1]] = sum(1 << c for c in range(hn) if c <= -c % hn)
    if not _propagate(doms, set(range(n)), nbr, supports, weight):
        return None
    res = _search(doms, order, nbr, supports, weight)
    if res is None:
        return None
    return VertexMap(n, hn, tuple(d.bit_length() - 1 for d in res))


def has_homomorphism(g: Graph, h: Graph) -> bool:
    return find_homomorphism(g, h) is not None


def _retract(g: Graph) -> Graph | None:
    """g - v for the highest v with g -> g - v, or None when g is a core.

    Candidates are tried in decreasing index.  Once the highest vertex of an
    orbit fails, the rest of its orbit would fail too (their deletions are
    isomorphic), so they are skipped, and the vertex found is the one a scan
    of every vertex would find.  The orbits are computed only at the first
    failure, so a graph whose highest vertex retracts costs no canonical
    search.
    """
    orbit = None
    failed = set()
    for v in range(g.order - 1, -1, -1):
        if orbit is not None and orbit[v] in failed:
            continue
        smaller = delete_vertex(g, v)
        if find_homomorphism(g, smaller) is not None:
            return smaller
        orbit = orbit or search_graph(g)[2]
        failed.add(orbit[v])
    return None


def is_core(g: Graph) -> bool:
    """True iff g has no homomorphism to any proper subgraph.

    Any homomorphism into a proper subgraph misses some vertex, so it
    suffices that no vertex-deleted subgraph is a retract (``_retract``).
    """
    return g.order == 1 or _retract(g) is None


def compute_core(g: Graph) -> Graph:
    """A minimal retract of g (unique up to isomorphism).

    Deleting a vertex v with g -> g-v keeps the homomorphism equivalence
    class, so repeating ``_retract`` until it finds nothing lands on the
    core; each round deletes the highest such vertex.
    """
    while g.order > 1 and (smaller := _retract(g)) is not None:
        g = smaller
    return g


def chromatic_number(g: Graph) -> int:
    """Least k such that g maps to K_k.

    Edgeless graphs answer 1 at once; for the rest the scan starts at K_2,
    so it decides bipartite graphs too, and arc consistency settles the map
    to K_2 almost at once.  That step is a solver call where an
    ``odd_girth`` test would be one BFS, so on small inputs the scan costs
    more than a bipartite shortcut; this is meant, and leaves every k >= 2
    to the solver alone.
    """
    if g.edge_count() == 0:
        return 1
    k = 2
    while k < g.order and find_homomorphism(g, complete(k)) is None:
        k += 1
    return k


def circular_chromatic_number(g: Graph) -> Fraction:
    """Least p/q (as a reduced Fraction) with a map to the circular clique C(p, q).

    The minimum over all circular cliques is attained with p at most the
    order of g, so the scan runs over reduced fractions 2 <= p/q with p <= n
    in increasing order and stops at the first success.  The first is
    C(2, 1) = K_2, which decides bipartite graphs; on the rest it is one
    refuted solver call, as in ``chromatic_number``.  Rejects edgeless
    graphs, whose circular chromatic number degenerates.
    """
    if g.edge_count() == 0:
        raise ValueError("circular chromatic number needs at least one edge")
    # Fraction reduces p/q, so the set holds each value once, in lowest terms.
    fracs = {Fraction(p, q) for p in range(2, g.order + 1) for q in range(1, p // 2 + 1)}
    for frac in sorted(fracs):
        if find_homomorphism(g, circular_clique(*frac.as_integer_ratio())) is not None:
            return frac
    raise AssertionError("unreachable: K_n always admits the identity colouring")


# -- v-special colourings ------------------------------------------------------

C1, C2, C3 = 1, 2, 3


@dataclass(frozen=True)
class VSpecialColouring:
    """A distinguished proper 3-colouring of the distance->=3 ball around a centre.

    ``class_of`` maps each vertex at distance >= 3 from ``center`` to one of
    the classes 1, 2, 3.  Validity (checked by :func:`extend_v_special`):
    adjacent vertices in the induced subgraph get distinct classes, class 3
    appears only on vertices isolated there, and no distance-2 vertex has
    neighbours in both class 1 and class 2.
    """

    center: int
    class_of: dict

    def to_json(self):
        return {"center": self.center,
                "classes": {str(v): c for v, c in sorted(self.class_of.items())}}


def _vspecial_violation(g: Graph, col: VSpecialColouring):
    """None if valid, else a short description of the first violation."""
    v = col.center
    if not 0 <= v < g.order:
        return "centre out of range"
    part = distance_partition(g, v)
    far = part.n3plus
    if set(col.class_of) != set(_bits(far)):
        return "colouring domain must be exactly the distance->=3 set"
    if any(c not in (C1, C2, C3) for c in col.class_of.values()):
        return "classes must be 1, 2 or 3"
    for u in _bits(far):
        inside = g.rows[u] & far
        if col.class_of[u] == C3 and inside:
            return f"class-3 vertex {u} is not isolated in the induced subgraph"
        for w in _bits(inside):
            if col.class_of[w] == col.class_of[u]:
                return f"adjacent vertices {u}, {w} share a class"
    for u in _bits(part.n2):
        seen = {col.class_of[w] for w in _bits(g.rows[u] & far)}
        if C1 in seen and C2 in seen:
            return f"distance-2 vertex {u} sees both class 1 and class 2"
    return None


def exists_v_special(g: Graph, v: int) -> VSpecialColouring | None:
    """A v-special colouring of the distance->=3 ball, or None if there is none.

    The decision is one BFS 2-colouring.  A far vertex (distance >= 3)
    isolated in the far subgraph takes class 3, which no rule counts
    against anything, so only the other far vertices F need classes 1 and 2.
    Let H be the graph on F and the distance-2 vertices N2, with g's edges
    inside F and g's edges between N2 and F.  A v-special colouring exists
    iff H is bipartite.  A 2-colouring of H restricts to a proper colouring
    of F, and it gives all F-neighbours of a distance-2 vertex the same
    class, so no distance-2 vertex sees both classes 1 and 2.  Conversely,
    given a v-special colouring, put each distance-2 vertex opposite the
    class its F-neighbours share: that 2-colours H.
    """
    part = distance_partition(g, v)
    rows = g.rows
    far, n2 = part.n3plus, part.n2
    inner = sum(1 << u for u in _bits(far) if rows[u] & far)
    cls = {}
    for root in _bits(inner):
        if root in cls:
            continue
        cls[root] = C1
        queue = [root]
        for a in queue:
            # a's row in H: F for a distance-2 vertex, F and N2 for one of F.
            for b in _bits(rows[a] & (inner if n2 >> a & 1 else inner | n2)):
                if b not in cls:
                    cls[b] = C1 + C2 - cls[a]
                    queue.append(b)
                elif cls[b] == cls[a]:
                    return None
    return VSpecialColouring(v, {u: cls.get(u, C3) for u in _bits(far)})


def extend_v_special(g: Graph, col: VSpecialColouring) -> VertexMap:
    """Extend a v-special colouring to an explicit homomorphism onto C5.

    Classes 1, 2, 3 map to the cycle vertices 0, 1, 3; a distance-2 vertex
    goes to 4 if it has a class-1 neighbour and to 2 otherwise; distance-1
    vertices go to 3 and the centre to 2 (4 would equally do, but a fixed
    choice keeps golden outputs stable).  The result is verified edge by
    edge; a failure means the precondition was violated, e.g. the graph has
    odd-girth below 7, and raises ValueError.
    """
    problem = _vspecial_violation(g, col)
    if problem is not None:
        raise ValueError(f"invalid v-special colouring: {problem}")
    v = col.center
    part = distance_partition(g, v)
    image = [None] * g.order
    image[v] = 2
    for u in _bits(part.n1):
        image[u] = 3
    class_to_c5 = {C1: 0, C2: 1, C3: 3}
    for u, c in col.class_of.items():
        image[u] = class_to_c5[c]
    for u in _bits(part.n2):
        has_c1 = any(col.class_of[w] == C1 for w in _bits(g.rows[u] & part.n3plus))
        image[u] = 4 if has_c1 else 2
    m = VertexMap(g.order, 5, tuple(image))
    if not verify_mapping(g, cycle(5), m):
        raise ValueError(
            "extension is not edge-preserving; the graph must have odd-girth at least 7"
        )
    return m
