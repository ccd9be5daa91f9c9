"""Isomorph-free exhaustive enumeration and the eta(k, l) search driver.

Enumeration is canonical vertex augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): a connected graph of order
n is generated only from the parent obtained by deleting its canonical
non-cutvertex, and only once from that parent.  The canonical deletion
vertex is chosen by isomorphism-invariant keys: first the earliest
refined-colour cell holding a non-cutvertex, then, within that cell, the
non-cutvertex with the least position in the canonical labelling.  A child
built by attaching a new vertex to a subset S of a parent is accepted iff
the new vertex lies in the automorphism orbit of that vertex.  Two bounds
drop sets before a child is built (``_attachment_sets``), and the budget
ticks only the sets inside both.  The degree bound: an S larger than one
plus the least degree m of a parent non-cutvertex, or of exactly that size
but missing a non-cutvertex of that degree, is rejected by degrees.  The
leaf bound: a singleton {u} is rejected at round one (below) when some
leaf v != u of the parent has a neighbour w of degree at least
deg(u) + 2, since v stays a leaf and a non-cutvertex, a rival of the new
leaf, and its one neighbour w lies in a later degree cell of the child than
u, which gives v the smaller key.  Both read degrees alone, so an orbit of
sets drops whole.  The degree stage reads one table of masks per parent
(``_parent_table``): the parent's degree classes, and the components of
the parent minus each vertex, walked the first time a child reads them.  A
parent with a leaf has m = 1, its leaves the non-cutvertices of that
degree, with no walk.  In a child, a parent vertex of degree d has degree
d + 1 if it lies in S and d otherwise, which gives the child's degree
partition, and it is a non-cutvertex iff S meets each of its components.
No vertex of larger degree is read: the new vertex has degree
|S| <= m + 1, only a vertex of child degree at most |S| can reject it or
tie with it, and no vertex has a smaller degree in the child than in the
parent; so a vertex of degree m + 1 has its components walked only for a
child with |S| = m + 1.  A remaining child with no
other non-cutvertex of the new vertex's degree is accepted by the degrees
alone.  Otherwise the first refinement round's keys of the new
vertex and of those rivals alone decide most children: a rival with a
smaller key rejects, and none with an equal key accepts.  Rivals with an
equal key that are all twins of the new vertex (same neighbours apart from
each other) accept as well, since swapping twins is an automorphism.  A
new vertex that is a leaf is decided at the second round without building
it (the first cannot decide, since the tied rivals share the new vertex's
round-one cell).  A leaf counts one neighbour, in its neighbour's
round-one cell.  Tied leaves have neighbours of one degree, so the
neighbours' round-one keys order those cells, and sub-cells come in
increasing count vector: of two tied leaves, the one whose neighbour's key
is greater gets the earlier cell.  A tied rival whose neighbour's key is
greater rejects, and none with an equal one, or only twins there,
accepts.  Only the remaining children are refined round by round from the
degree partition, until the cells place a rival before the new vertex
(reject) or none beside it, or only twins (accept).  One canonical search
of the child, which also yields its automorphism generators and orbits,
settles the rest.  Among siblings, S is tried only if it is the
first-enumerated member of its orbit under the parent's automorphism
group.  The tree is walked depth first, in pre-order, on one explicit stack
of generators, each yielding one node's children (``_descendants``), so a
graph passes through one generator frame whatever its depth, and a graph
that is not grown starts none.

A node's group comes from its parent's, unless a search decided its
acceptance.  A child accepted before the search knows the orbit of its
added vertex a: a alone, or a and the rivals tied with it, all twins of
a.  By the orbit-stabiliser theorem the child's group is generated by the
stabiliser of a and one element taking a to each member of that orbit;
the transpositions (a t) do, and since twins of a are twins of each
other, so does one of them together with the stabiliser.  An automorphism
fixing a maps its neighbourhood S onto itself, so the stabiliser of a is
the stabiliser of S in the parent's group, extended by a to a.
Schreier's lemma gives generators of that from the orbit of S, which the
sibling skip walks anyway: for a transversal u_T taking S to each member
T and a generator g, the element u_{g(T)}^-1 g u_T.  Only when those
would number as many as the child's vertices is the child searched
instead, which keeps the lists that orbits walk short.

Why this gives one representative per isomorphism class: every connected
graph has a non-cutvertex, so it has a canonical parent, and the properties
enforced during growth are hereditary (closed under vertex deletion), so
that parent is in the stream; by induction it appears exactly once.  Two
accepted children of it that are isomorphic have an isomorphism taking new
vertex to new vertex (both lie in the canonical orbit), which restricts to
an automorphism of the parent taking one attachment set to the other; so
one attachment set per orbit yields each child exactly once.  The test
suite checks the counts against brute-force enumeration and published
sequences.

Growth never creates a short odd cycle: attaching a vertex adjacent to S
creates an odd cycle shorter than 2k+1 iff two members of S are joined by an
odd walk of length at most 2k-3, so admissible S are exactly the independent
sets of a per-parent "conflict graph".  Its edges are symmetric, and a
vertex's row of them is computed only when the walk over the sets extends
one from that vertex, or needs that vertex to complete one; under the
degree bound that is one row or none in most parents.  The claim rules of
minimal-counterexample searches are written once, in the table ``RULES``:
hereditary ones prune during growth (no 4-cycle: no common neighbour in S;
no 6-cycle: no length-4 path inside S, both as conflicts; the
degree/second-neighbourhood cap, a condition at each vertex that reads its
neighbours' rows, checked on each child at the new vertex, S and S's
neighbours, the only vertices whose reading can differ from the parent's),
so the stream does not depend on n_max, and the rest (minimum degree 2,
thread bound, 5-walks, core) are consulted only when a completed graph is
tested as a witness.  A rule that prunes through a conflict is checked
through it too: a graph passes iff no vertex has two neighbours that
conflict once it is deleted, the test growth makes of each added vertex.
Each claim rule carries its scope, for which the paper proves it of a
minimal counterexample: (k, l) = (3, 2) with n_max <= 14, or <= 15 for
ORDER15_VALID_RULES; SearchConfig rejects runs outside it.

eta(k, l) itself is the smallest order of a graph of odd-girth exactly 2k+1
with no homomorphism to C_{2l+1}; the driver enumerates, tests candidates,
and re-verifies every witness through a graph6 round trip with fresh solver
state before reporting it.  Every node of the augmentation tree carries a
colouring: a map to C_{2l+1}, or None exactly when the graph has none.  A
child extends its parent's map when the colours of its attachment set
leave the new vertex a colour, and the solver runs only when that fails.
A child of a graph with no map has none either, since it contains that
graph, so its descendants are never solved.  Only a graph with no map is a
candidate: its odd-girth and the final rules are checked there alone.

Every eta run, serial or parallel, grows the tree to one split order,
min(8, n_max - 1), then grows the subtree below each node of that order
from its record (rows, colouring, gens) as the stream yielded it, so no
subtree searches or solves again what its root already settled.  Frontier
nodes stay in memory, or are pickled to workers.  A checkpoint is an
append-only log of finished subtrees, their roots' rows, counts and
witnesses; every run regrows the frontier and merges the logged subtrees
instead of growing them again.  Every run also ticks one budget, one with
no deadline unless the caller passes one.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .budget import Budget, BudgetExceededError
from .canon import canonical_search, refine_round, search_graph
from .constructions import cycle
from .graphs import (
    Graph,
    _bits,
    _neighbors_of_set,
    from_graph6,
    has_walk_of_length,
    is_connected,
    max_thread_length,
    odd_girth,
    odd_reach_within,
    to_graph6,
)
from .hom import find_homomorphism, is_core

RULE_CONNECTED = "CONNECTED"
RULE_MIN_DEGREE_2 = "MIN_DEGREE_2"
RULE_MAX_DEGREE_3_SECONDNBHD = "MAX_DEGREE_3_SECONDNBHD"
RULE_NO_THREAD_GE_4 = "NO_THREAD_GE_4"
RULE_NO_4_CYCLE = "NO_4_CYCLE"
RULE_NO_6_CYCLE = "NO_6_CYCLE"
RULE_CORE_ONLY = "CORE_ONLY"
RULE_FIVE_WALK = "FIVE_WALK"


# -- structural predicates -------------------------------------------------------

def _second_neighbourhood_ok(rows, v) -> bool:
    """True iff ``v`` has degree at most 3 and, at degree 3, at most 4 vertices at distance 2."""
    row = rows[v]
    d = row.bit_count()
    return d < 3 or d == 3 and (_neighbors_of_set(rows, row) & ~row & ~(1 << v)).bit_count() < 5


def _five_walks(g: Graph) -> bool:
    n = g.order
    return all(has_walk_of_length(g, u, v, 5) for u in range(n) for v in range(u + 1, n))


def _common_neighbour_partners(rows, u):
    """Vertices sharing a neighbour with ``u``: joining both closes a 4-cycle."""
    return _neighbors_of_set(rows, rows[u])


def _path4_targets(rows, u):
    """Vertices reachable from ``u`` by a simple path of exactly 4 edges."""
    out = 0
    base = 1 << u
    for a in _bits(rows[u]):
        ua = base | 1 << a
        for b in _bits(rows[a] & ~ua):
            uab = ua | 1 << b
            for c in _bits(rows[b] & ~uab):
                out |= rows[c] & ~(uab | 1 << c)
    return out


# -- the rule table -----------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One structural rule: its predicate ``check``, where it acts, its scope.

    ``stage`` is "scheme" (guaranteed by the generation), "growth"
    (hereditary, checked on each child) or "final" (checked on witness
    candidates); a scheme or final ``check`` takes the graph.  A growth rule
    takes one of two forms:

    - ``conflict(rows, u)``, the mask of vertices that may not share a new
      neighbour with ``u``.  It must be symmetric: for u != v, v is in
      ``conflict(rows, u)`` iff u is in ``conflict(rows, v)``, so that
      ``_attachment_sets`` may read the independence of two vertices from
      either one's mask.  Such a rule has no ``check`` of its own: ``holds``
      applies the conflict to every vertex as growth applies it to the
      added one.
    - ``check(rows, v)``, a vertex condition that reads only ``rows[v]`` and
      the rows of v's neighbours.  ``holds`` applies it to every vertex;
      growth applies it only where a child's rows differ from its parent's
      (``_holds_near``).

    ``scope`` is (k, l, largest n_max) for which a minimal counterexample
    provably satisfies the rule; None means every search.
    """

    name: str
    check: Callable | None
    stage: str
    scope: tuple | None = None
    conflict: Callable | None = None

    def holds(self, g: Graph) -> bool:
        """True iff ``g`` satisfies the rule.  Through a ``conflict``: for
        every vertex v, no two neighbours of v conflict in g - v.  A growth
        ``check`` holds at every vertex."""
        if self.conflict is None:
            if self.stage == "growth":
                return all(self.check(g.rows, v) for v in range(g.order))
            return self.check(g)
        for v, row in enumerate(g.rows):
            rest = [0 if u == v else r & ~(1 << v) for u, r in enumerate(g.rows)]
            if any(self.conflict(rest, a) & row & ~(1 << a) for a in _bits(row)):
                return False
        return True


_UP_TO_14 = (3, 2, 14)
_UP_TO_15 = (3, 2, 15)

# Cheap checks first, is_core last.  The checks look their helpers up at
# call time, so wrappers installed on this module's names see every call.
RULES = (
    Rule(RULE_CONNECTED, lambda g: is_connected(g), "scheme"),
    Rule(RULE_MIN_DEGREE_2, lambda g: all(d >= 2 for d in g.degrees()), "final", _UP_TO_15),
    Rule(RULE_MAX_DEGREE_3_SECONDNBHD, _second_neighbourhood_ok, "growth", _UP_TO_14),
    Rule(RULE_NO_THREAD_GE_4, lambda g: max_thread_length(g) <= 3, "final", _UP_TO_15),
    Rule(RULE_NO_4_CYCLE, None, "growth", _UP_TO_14, _common_neighbour_partners),
    Rule(RULE_NO_6_CYCLE, None, "growth", _UP_TO_14, _path4_targets),
    Rule(RULE_FIVE_WALK, _five_walks, "final", _UP_TO_15),
    Rule(RULE_CORE_ONLY, lambda g: is_core(g), "final", _UP_TO_15),
)
_BY_NAME = {rule.name: rule for rule in RULES}
ALL_RULES = frozenset(_BY_NAME)

#: Rules justified only for minimal counterexamples; enabling them makes the
#: result conditional on their proofs and requires an explicit opt-in on the
#: command line.
CLAIM_RULES = frozenset(rule.name for rule in RULES if rule.scope)

#: Rules that remain valid for a minimal witness of order 15: being a core
#: (hence minimum degree 2 and no contained neighbourhood), the 5-walk rule
#: and the thread bound follow from minimality together with the order-14
#: colourability theorem.  The 4-cycle, 6-cycle and second-neighbourhood
#: rules do not: their derivations count vertices against a budget of 14,
#: and the known order-15 witnesses genuinely violate them (fig2a contains
#: 4- and 6-cycles and a degree-3 vertex with five second neighbours, fig2c
#: a degree-4 vertex).
ORDER15_VALID_RULES = frozenset(r.name for r in RULES if r.scope is None or r.scope[2] >= 15)


def _rules(names, stage):
    """The table entries named in ``names`` that act at ``stage``, in table order."""
    return [rule for rule in RULES if rule.stage == stage and rule.name in names]


def claim_filter(g: Graph, rule: str) -> bool:
    """True iff ``g`` satisfies the named structural rule."""
    if rule not in _BY_NAME:
        raise ValueError(f"unknown rule {rule!r}")
    return _BY_NAME[rule].holds(g)


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one enumeration / eta search.

    ``k`` enforces odd-girth >= 2k+1 during growth, ``l`` names the target
    cycle C_{2l+1}, ``n_max`` caps the order.  ``prune_rules`` draws from
    ALL_RULES, and each must be within its scope (see ``Rule``) for this
    k, l and n_max; CONNECTED is implicit in the generation scheme.
    """

    k: int
    l: int
    n_max: int
    prune_rules: frozenset = frozenset({RULE_CONNECTED})

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must both be at least 1")
        if not 3 <= self.n_max <= 64:
            raise ValueError("n_max must lie between 3 and 64")
        unknown = frozenset(self.prune_rules) - ALL_RULES
        if unknown:
            raise ValueError(f"unknown prune rules: {sorted(unknown)}")
        object.__setattr__(self, "prune_rules", frozenset(self.prune_rules))
        outside = [f"{r.name} (proved for k={r.scope[0]}, l={r.scope[1]}, n_max <= {r.scope[2]})"
                   for r in RULES if r.name in self.prune_rules and r.scope
                   and ((self.k, self.l) != r.scope[:2] or self.n_max > r.scope[2])]
        if outside:
            raise ValueError("prune rules outside their scope: " + ", ".join(outside))

    def config_hash(self) -> str:
        # Imported here: hashlib loads OpenSSL, several MB of resident
        # memory that only a checkpointed run needs.
        import hashlib

        payload = json.dumps(
            {"k": self.k, "l": self.l, "n_max": self.n_max, "rules": sorted(self.prune_rules)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- canonical augmentation -----------------------------------------------------

def _conflict_mask(rows, u, limit, conflicts):
    """The attachment partners of ``u`` that would close a forbidden cycle.

    They are the vertices an odd walk of length at most ``limit`` joins to
    ``u`` (an odd cycle shorter than 2k+1 for limit 2k-3), and those of the
    growth rules' ``conflicts``.  Every part is symmetric, so the mask is.
    """
    m = odd_reach_within(rows, u, limit) if limit >= 1 else 0
    for conflict in conflicts:
        m |= conflict(rows, u)
    return m & ~(1 << u)


class _ParentTable(NamedTuple):
    """What the children of one parent read from it (``_parent_table``)."""

    classes: list
    m: int
    R: int
    pieces: dict


class _Pieces(dict):
    """The components of a connected graph minus each vertex, walked when first read.

    ``pieces[v]`` lists the vertex masks of the components of the graph
    minus ``v``.  Every piece holds a neighbour of ``v``, since the graph is
    connected, so each walk starts at a neighbour not yet reached, and the
    last one left needs no walk: its piece is the rest (a leaf's one piece
    is all but the leaf, and an isolated vertex has none).
    """

    __slots__ = ("rows", "full")

    def __init__(self, rows, n):
        super().__init__()
        self.rows = rows
        self.full = (1 << n) - 1

    def __missing__(self, v):
        rows = self.rows
        rest = self.full ^ (1 << v)
        todo = rows[v]
        comps = []
        while todo & (todo - 1):
            seen = frontier = todo & -todo
            while frontier:
                frontier = _neighbors_of_set(rows, frontier) & rest & ~seen
                seen |= frontier
            comps.append(seen)
            rest ^= seen
            todo &= ~seen
        if todo:
            comps.append(rest)
        self[v] = comps
        return comps


def _parent_table(rows, n):
    """The degree classes, degree bound and component table of a connected graph.

    ``classes[d]`` is the mask of the vertices of degree d, for d up to the
    largest degree plus one.  m is the least degree of a non-cutvertex and R
    the mask of the non-cutvertices of degree m.  ``pieces`` is a
    ``_Pieces``: ``pieces[v]`` lists the vertex masks of the components of
    the graph minus ``v``, walked the first time it is read.

    ``v`` is a non-cutvertex iff it has at most one piece (none only in the
    one-vertex graph, whose vertex is one).  In a child that joins a new
    vertex to a set S of the graph's vertices, ``v`` is a non-cutvertex iff
    S meets every piece of ``v``: the new vertex then ties the pieces
    together, and a piece that S misses stays cut off.

    A leaf is never a cutvertex, so a graph with a leaf has m = 1 and R its
    leaves, read off class 1 with no walk.  Otherwise m and R are read from
    the pieces of the classes in increasing degree, up to the first that
    holds a non-cutvertex.  The children read the rest: ``_accepted`` asks
    for the pieces of v only when v's degree in the child is at most
    |S| <= m + 1, so the pieces of a vertex of degree m + 1 are walked only
    for a child with |S| = m + 1.
    """
    degs = [r.bit_count() for r in rows]
    classes = [0] * (max(degs) + 2)
    for v, d in enumerate(degs):
        classes[d] |= 1 << v
    pieces = _Pieces(rows, n)
    if classes[1]:
        return _ParentTable(classes, 1, classes[1], pieces)
    for m, cls in enumerate(classes):
        R = sum(1 << v for v in _bits(cls) if len(pieces[v]) <= 1)
        if R:
            return _ParentTable(classes, m, R, pieces)


def _attachment_sets(rows, n, parent, limit, conflicts):
    """The independent attachment sets that can pass ``_accepted``'s first stages.

    ``parent`` is the parent's ``_parent_table``: m is the least degree of
    a non-cutvertex of the parent and R the mask of the non-cutvertices of
    degree m.  Two bounds drop sets whose child ``_accepted`` rejects.

    The degree bound.  Outside S a vertex keeps its degree, and a
    non-cutvertex stays one; inside S, with |S| >= 2, a parent non-cutvertex
    stays one.  (A parent cutvertex may become a non-cutvertex; the bound
    does not use that.)  So the degree stage rejects every S with
    |S| > m + 1, and every S with |S| = m + 1 that misses a member of R.

    The leaf bound, on singletons: {u} is dropped when some leaf v != u of
    the parent has a neighbour w of degree at least deg(u) + 2.  Its child
    adds a leaf a at u, and v is a rival of a: a leaf of the child, and a
    non-cutvertex, since its one piece holds u.  A leaf's round-one key is
    a count of 1 at its neighbour's degree cell of the child (none when
    that cell is the last, which keys do not count), and an earlier cell
    weighs more.  w is not u, as their degrees differ, so its child degree
    is deg(w) > deg(u) + 1, the child degree of u: w's cell comes after
    u's, so v's key, with no count at u's cell, is smaller than a's, and
    round one rejects.

    Both bounds read degrees alone, so they are invariant under the
    parent's automorphisms, and whole orbits of sets drop together.  Each
    is one mask per parent: R, and the singletons the leaf bound drops.

    The sets are independent in the conflict graph whose masks
    ``_conflict_mask`` computes from ``limit`` and ``conflicts``.  A
    depth-first walk lists them: a set extends only by vertices above its
    last one, b, that conflict with none of its members, so it reads b's
    mask, computed when first needed.  A set of size m extends to size
    m + 1 only if it holds R, or misses one member r of R and takes r; then
    r's mask, by symmetry, tells whether r and b conflict.  A dropped
    singleton still extends.  In most parents m is 1, and the walk reads
    one mask at most.  The list is that of every independent set up to size
    m + 1, in the walk's order, without those the bounds drop.
    """
    classes, m, R = parent.classes, parent.m, parent.R
    leaves = classes[1]
    # ``high``: the leaves whose neighbour has degree 3 or more, the only
    # ones that can drop a singleton; ``top``: their neighbours' largest degree.
    high = top = 0
    for v in _bits(leaves):
        d = rows[rows[v].bit_length() - 1].bit_count()
        if d >= 3:
            high |= 1 << v
            top = max(top, d)
    drop = 0
    if high:
        # Every leaf drops if two leaves are high, else every leaf but the high one.
        drop = sum(classes[2:top - 1]) | (leaves if high & (high - 1) else leaves ^ high)
    conf = [None] * n

    def conflict(v):
        if conf[v] is None:
            conf[v] = _conflict_mask(rows, v, limit, conflicts)
        return conf[v]

    out = []
    # A frame is (vertices that may extend ``cur``, ``cur``, the size of
    # its extensions).  m is 0 only in the one-vertex graph, whose one set
    # {0} is R; so only extensions of size m + 1 need R.
    stack = [((1 << n) - 1, 0, 1)]
    while stack:
        avail, cur, size = stack.pop()
        while avail:
            b = avail & -avail
            avail ^= b
            s = cur | b
            if cur or not b & drop:
                out.append(s)
            if size > m:
                continue
            missing = R & ~s
            if size < m or not missing:
                stack.append((avail & ~conflict(b.bit_length() - 1), s, size + 1))
            elif missing & avail and not missing & (missing - 1) and not (
                    conflict(missing.bit_length() - 1) & b):
                stack.append((missing, s, size + 1))
    return out


def _accepted(rows_t, n, S, parent):
    """Canonical-deletion test for a child whose added vertex is n-1.

    The child joins the added vertex to the set ``S`` of its parent, whose
    ``_parent_table`` is ``parent``.  Returns None when the child is
    rejected.  Otherwise returns ``(gens, twins)``: the generators of the
    child's automorphism group if a canonical search decided, else None,
    and, when no search ran, the orbit of the added vertex minus that
    vertex, every member a twin of it (empty when no rival ties it).

    The degree stage reads the parent's table of masks.  The added vertex
    has degree |S|; a parent vertex of degree d has degree d + 1 in the
    child if it lies in S, else d.  So the child's class of degree d is
    ``classes[d] & ~S | classes[d - 1] & S``, plus the added vertex at
    d = |S|, and its vertices of degree at most |S| are
    ``sum(classes[:|S|]) | classes[|S|] & ~S`` (the classes are disjoint).
    A rival's child degree is the bit count of its row in the child.  An S
    larger than m + 1 is rejected at once, as ``_attachment_sets`` shows a
    member of R to be a non-cutvertex of smaller degree.  The search never
    builds such a child, so the pieces it reads, walked as they are first
    read, are those of vertices of degree at most m + 1.

    The rivals of the added vertex are the other non-cutvertices of its
    degree; a parent vertex is one in the child iff S meets each of its
    pieces.  Only a rival can share the added vertex's orbit.  The first
    stage that decides is taken:

    - degrees: a non-cutvertex of smaller degree rejects, and no rival
      accepts;
    - round-one keys: the first round of refinement from the degree
      partition (cells in increasing degree) splits the added vertex's cell
      by the counts towards every cell but the last, and orders the
      sub-cells by them lexicographically.  Packed six bits a count into
      one int, they order the same way (see ``refine_round``).  Computed for
      the added vertex and its rivals only, a smaller rival key rejects and
      no equal one accepts;
    - twins: a rival v with rows[v] & ~bit_a == rows[a] & ~bit_v, for the
      added vertex a, is a twin of it, so the transposition (a v) is an
      automorphism.  If the rivals tied with a are all twins of it, they
      share a's orbit and so a's cell at every round, and whichever of them
      the canonical order picks, the child is accepted;
    - leaf round two: when a is a leaf and round one counted towards some
      cell, round two is read from the neighbours.  Round one never
      decides, since the tied rivals share a's round-one cell: its cells
      are the (degree, key) classes, in that order.  A leaf's key counts
      only its one neighbour's degree cell, so the neighbours of the tied
      leaves share one degree, and the label of a leaf, its neighbour's
      round-one key, orders their round-one cells.  A leaf's round-two
      count vector is 1 at its neighbour's round-one cell and 0 elsewhere.
      (Round two counts only towards fresh cells, and of that degree class
      only the last round-one cell is not fresh, so a zero vector means
      that cell.)  Sub-cells come in increasing count vector, so the leaf
      whose neighbour has the greater label gets the earlier cell.  A tied
      rival whose neighbour's label is greater than that of a's neighbour
      rejects, none with an equal label accepts, and equal ones that are
      all twins of a accept as under twins.  Otherwise the equal ones
      stay tied, since the others lie after a's cell from round two on;
    - rounds: otherwise refinement runs one round at a time, and cells split
      in place, so each round's cell order is a coarsening of the
      fixpoint's.  It stops as soon as a rival lies in a cell before the
      added vertex's (reject) or none lies in its cell (accept).  At the
      fixpoint, a cell whose rivals are all twins of a accepts as above;
    - search: only the remaining ties need the canonical search.

    Every accept before the search leaves a's orbit known: the rivals tied
    with it at the deciding stage when they are twins, else a alone, since
    a rival outside a's cell at some round lies outside its orbit.
    """
    da = S.bit_count()
    if da > parent.m + 1:
        return None
    classes, pieces = parent.classes, parent.pieces
    rivals = []
    candidates = sum(classes[:da]) | classes[da] & ~S
    while candidates:
        b = candidates & -candidates
        candidates ^= b
        v = b.bit_length() - 1
        for piece in pieces[v]:
            if not S & piece:
                break
        else:
            if rows_t[v].bit_count() < da:
                return None
            rivals.append(v)
    if not rivals:
        return None, ()
    added = n - 1
    bit = 1 << added
    by_degree = [c & ~S | below & S for below, c in zip((0, *classes), classes)]
    by_degree[da] |= bit
    cells = [c for c in by_degree if c]
    fresh = cells[:-1]

    def key(v):
        row, k = rows_t[v], 0
        for c in fresh:
            k = k << 6 | (row & c).bit_count()
        return k

    ka = key(added)
    tied = []
    for v in rivals:
        kv = key(v)
        if kv < ka:
            return None
        if kv == ka:
            tied.append(v)
    if not tied:
        return None, ()
    row_a = rows_t[added]

    def twins(vs):
        return all(rows_t[v] & ~bit == row_a & ~(1 << v) for v in vs)

    if twins(tied):
        return None, tied
    if da == 1 and fresh:
        # A leaf's round-two counts are those of its one neighbour's
        # round-one cell; the tied leaves' neighbours share one degree, so
        # their round-one keys order those cells.

        def label(v):
            return key(rows_t[v].bit_length() - 1)

        la = label(added)
        equal = []
        for v in tied:
            lv = label(v)
            if lv > la:
                return None
            if lv == la:
                equal.append(v)
        if not equal:
            return None, ()
        if twins(equal):
            return None, equal
        tied = equal
    tied_bits = sum(1 << v for v in tied)
    cell = by_degree[da]
    while fresh:
        cells, fresh = refine_round(rows_t, cells, fresh)
        for cell in cells:
            if cell & bit:
                break
            if cell & tied_bits:
                return None
        if not cell & tied_bits:
            return None, ()
    tie = list(_bits(cell & tied_bits))
    if twins(tie):
        return None, tie
    _, perm, orbit, gens = canonical_search(rows_t, n, cells)
    if orbit[min([added, *tie], key=perm.__getitem__)] != orbit[added]:
        return None
    return gens, ()


def _holds_near(checks, rows, S):
    """True iff each vertex check holds at S and its neighbours in ``rows``.

    ``rows`` joins a new vertex to the set S of a parent that passes the
    checks.  A check at v reads only v's row and its neighbours' rows (see
    ``Rule``), and only the new vertex and S have new rows.  The new vertex
    is a neighbour of S, and at any vertex neither in S nor adjacent to it,
    every check reads what it read in the parent.
    """
    near = S | _neighbors_of_set(rows, S)
    while near:
        b = near & -near
        near ^= b
        v = b.bit_length() - 1
        for check in checks:
            if not check(rows, v):
                return False
    return True


def _set_orbit(s, gens):
    """Orbit of the vertex set ``s`` (a bitmask) under the group ``gens``.

    A dict from each member to the ``(member, generator)`` step that first
    reached it, and from ``s`` to None: a tree over the orbit, which
    ``_stabiliser`` reads as a transversal.
    """
    out = {s: None}
    todo = [s]
    while todo:
        t = todo.pop()
        for g in gens:
            img = 0
            m = t
            while m:
                b = m & -m
                m ^= b
                img |= 1 << g[b.bit_length() - 1]
            if img not in out:
                out[img] = t, g
                todo.append(img)
    return out


def _stabiliser(orbit, gens, n):
    """Generators of the stabiliser of a vertex set in the group ``gens`` on n points.

    ``orbit`` is the set's ``_set_orbit`` under ``gens``.  Its tree gives
    each member t a transversal element u_t, the product of the steps from
    the set to t, so u_t maps the set onto t.  By Schreier's lemma the
    elements u_{g(t)}^-1 g u_t, over every member t and generator g, fix
    the set and generate its stabiliser.  The identities among them, such
    as those of the tree's own steps, and repeats are dropped.
    """
    identity = tuple(range(n))
    u = {}
    inv = {}
    for t, step in orbit.items():
        if step is None:
            ut = identity
        else:
            prev, g = step
            ut = tuple([g[x] for x in u[prev]])
        u[t] = ut
        it = [0] * n
        for x, y in enumerate(ut):
            it[y] = x
        inv[t] = it
    out = {}
    for t, ut in u.items():
        for g in gens:
            img = 0
            for x in _bits(t):
                img |= 1 << g[x]
            it = inv[img]
            h = tuple([it[g[x]] for x in ut])
            if h != identity:
                out[h] = None
    return list(out)


def _child_gens(rows_t, orbit, gens, twins):
    """Generators of the automorphism group of a child accepted without a search.

    The child joins an added vertex a, the last, to a set S of its parent,
    whose group ``gens`` has S's ``_set_orbit`` ``orbit`` (None when the
    group is trivial), and ``twins`` is a's orbit minus a, as ``_accepted``
    found it.  By the orbit-stabiliser theorem the group is generated by
    the stabiliser of a and one element taking a to each member of its
    orbit, such as the transpositions (a t), t a twin.  One of them is
    enough: twins of a are twins of each other, all adjacent to a or all
    not, so the stabiliser holds the transpositions among them.  An
    automorphism that fixes a maps its neighbourhood S onto itself, so it
    restricts to a parent automorphism that stabilises S; and each of
    those, extended by a to a, is an automorphism of the child.  So the
    stabiliser of a is ``_stabiliser`` of S, each generator extended by a.
    Should the generators number as many as the child's vertices, a
    canonical search of the child gives them instead, which keeps the
    lists that later orbits walk short.
    """
    nc = len(rows_t)
    a = nc - 1
    out = [] if orbit is None else [(*h, a) for h in _stabiliser(orbit, gens, a)]
    if twins:
        g = list(range(nc))
        t = twins[0]
        g[a], g[t] = t, a
        out.append(tuple(g))
    if len(out) >= nc:
        return search_graph(Graph(rows_t, _validate=False))[3]
    return out


def _extend_colouring(colour, S, target_rows):
    """A parent's map to the target extended to a new vertex adjacent to ``S``, or None.

    The new vertex may take any target vertex adjacent to the colours of all
    of S, the intersection of their rows in the target; it takes the least.
    """
    free = -1
    for v in _bits(S):
        free &= target_rows[colour[v]]
    return colour + ((free & -free).bit_length() - 1,) if free else None


def _children(node, cfg: SearchConfig, budget, target, conflicts, checks):
    """The accepted children of one node, as ``(witness, child node)``, in order.

    A node is ``(rows, colouring, gens)`` (see ``_descendants``), and
    ``conflicts`` and ``checks`` are the config's growth rules, which the
    walk reads from the table once.  The node's ``_parent_table`` is built
    once: its degree classes bound the attachment sets, and every child's
    ``_accepted`` reads its classes and component table.  A child's rows
    differ from the node's only at S, whose rows gain the new vertex, and
    at the new vertex.  The orbit of S that skips its later members also
    gives the child's gens, for a child of order below ``cfg.n_max``.

    The growth rules act in two ways.  Their conflicts, with the odd-walk
    limit 2k - 3, shape the attachment sets ``_attachment_sets`` lists,
    which computes the masks it reads as it needs them.  Their vertex checks
    run on each child by ``_holds_near``, at the new vertex, S and S's
    neighbours only: every other vertex reads what it read in this node,
    which passed them.

    With a ``target`` C_{2l+1}, every child is tested by ``_test_witness``
    (witness: its graph6, else None) and carries its colouring, a map to
    the target as a tuple of colours, or None exactly when it has no map.
    Without a target both are None.
    """
    rows, colour, gens = node
    n = len(rows)
    parent = _parent_table(rows, n)
    # Later members of an orbit of attachment sets, waiting to be skipped.
    pending = set()
    orbit = None
    nc = n + 1
    newbit = 1 << n
    # Sets that _accepted's degree stage, or its round one at a leaf, would
    # reject are never built; the ones left can still fail the degree stage
    # when the child turns a parent cutvertex, inside S or outside it, into
    # a non-cutvertex.
    for S in _attachment_sets(rows, n, parent, 2 * cfg.k - 3, conflicts):
        budget.tick("enumeration")
        if S in pending:
            pending.remove(S)
            continue
        if gens:
            orbit = _set_orbit(S, gens)
            pending.update(orbit)
            pending.remove(S)
        child = [*rows, S]
        rest = S
        while rest:
            b = rest & -rest
            rest ^= b
            child[b.bit_length() - 1] |= newbit
        child_t = tuple(child)
        if checks and not _holds_near(checks, child_t, S):
            continue
        state = _accepted(child_t, nc, S, parent)
        if state is None:
            continue
        child_gens, twins = state
        if child_gens is None and nc < cfg.n_max:
            child_gens = _child_gens(child_t, orbit, gens, twins)
        witness = child_colour = None
        if target is not None:
            witness, child_colour = _test_witness(child_t, colour, S, cfg, target)
        yield witness, (child_t, child_colour, child_gens)


def _descendants(node, cfg: SearchConfig, budget, stop, target=None):
    """DFS over accepted descendants of one augmentation node.

    A node is ``(rows, colouring, gens)``, with ``gens`` generators of the
    automorphism group of ``rows``: the root's empty list, a canonical
    search's, or those ``_child_gens`` derives from the parent's, for every
    node of order below ``cfg.n_max``, the only ones that are grown.  So a
    node is neither refined nor searched when it is grown; only
    ``_accepted`` and, rarely, ``_child_gens`` search a child.  Yields
    ``(witness, child node)`` for each accepted graph strictly below the
    node, in pre-order, as ``_children`` yields them (see there for the
    witness and the colouring).  Graphs of order ``stop`` (at most n_max)
    are yielded but not grown; they form the frontier whose subtrees
    ``_expand_subtree`` grows, so they carry their gens too.

    The walk runs on one explicit stack of ``_children`` generators, one
    per node on the path from ``node``: a yielded child below ``stop`` is
    pushed, and an exhausted generator is popped.  So a class passes
    through no generator frame but its parent's, a child of order ``stop``
    starts none, and the growth rules are read from the table once per
    walk.
    """
    if len(node[0]) >= stop:
        return
    growth = _rules(cfg.prune_rules, "growth")
    conflicts = [rule.conflict for rule in growth if rule.conflict is not None]
    checks = [rule.check for rule in growth if rule.conflict is None]
    stack = [_children(node, cfg, budget, target, conflicts, checks)]
    while stack:
        for item in stack[-1]:
            yield item
            child = item[1]
            if len(child[0]) < stop:
                stack.append(_children(child, cfg, budget, target, conflicts, checks))
                break
        else:
            stack.pop()


def _root_stream(cfg: SearchConfig, budget, stop, target=None):
    """The one-vertex root and its descendants, as ``_descendants`` yields them."""
    root = ((0,), None if target is None else (0,), [])
    yield None, root
    yield from _descendants(root, cfg, budget, stop, target)


def enumerate_graphs(config: SearchConfig, budget: Budget | None = None):
    """One representative per isomorphism class of connected graphs.

    Streams every connected graph of order <= n_max whose odd-girth is at
    least 2k+1 and which satisfies the config's growth rules; up to any
    order, the stream does not depend on n_max.  Final rules (minimum
    degree, threads, walks, core) do not restrict the stream; the eta driver
    applies them when it tests witnesses, because they are not preserved
    while a graph is still growing.  A budget, if given, raises
    BudgetExceededError when the stream outgrows it.
    """
    for _, node in _root_stream(config, Budget() if budget is None else budget, config.n_max):
        yield Graph(node[0], _validate=False)


# -- eta search ------------------------------------------------------------------

@dataclass(frozen=True)
class OrderRecord:
    n: int
    enumerated: int
    witnesses: tuple

    @property
    def witness_count(self) -> int:
        return len(self.witnesses)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "enumerated": self.enumerated,
            "witness_count": self.witness_count,
            "witness_graphs": list(self.witnesses),
        }, sort_keys=True)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an eta search: one OrderRecord per order 1..n_max.

    ``eta_lower_bound_established`` is the first order not excluded by the
    run: the first witness order when one is found, else n_max + 1.  When
    ``minimal_counterexample_mode`` is set the bound is conditional on the
    paper's proofs that a minimal counterexample satisfies the claim rules
    used, each within its scope: (k, l) = (3, 2) and n_max <= 14, or
    n_max <= 15 for ORDER15_VALID_RULES.  When ``truncated`` is set the run
    exceeded its budget, excludes nothing, and the bound is None.  All
    three are read off the config and the records, so they cannot
    disagree with them.
    """

    config: SearchConfig
    records: tuple
    wall_time_s: float
    truncated: bool

    @property
    def minimal_counterexample_mode(self) -> bool:
        return bool(self.config.prune_rules & CLAIM_RULES)

    @property
    def first_witness_order(self) -> int | None:
        return next((r.n for r in self.records if r.witnesses), None)

    @property
    def eta_lower_bound_established(self) -> int | None:
        if self.truncated:
            return None
        first = self.first_witness_order
        return self.config.n_max + 1 if first is None else first

    def json_lines(self):
        for rec in self.records:
            yield rec.to_json()

    def witnesses_at(self, n):
        for rec in self.records:
            if rec.n == n:
                return list(rec.witnesses)
        return []


def _cycle_colouring(rows, m):
    """A homomorphism to C_m as a list of colours, or None; shares no code with hom.py.

    Vertices are placed in BFS order, component by component.  A root takes
    colour 0 and its first child colour 1 (the rotations and the reflection
    of C_m, applied to each component on its own, reach any map from one
    with those colours); every later vertex takes one of the two neighbours
    of its BFS parent's colour, and an edge to a placed vertex must join two
    colours one step apart on the cycle.  So at most 2^(n-2) leaves are
    tried on a connected graph of order n.
    """
    n = len(rows)
    order, parent, first_child = [], [None] * n, set()
    for s in range(n):
        if parent[s] is None:
            parent[s] = -1
            queue = [s]
            for v in queue:
                for u in range(n):
                    if rows[v] >> u & 1 and parent[u] is None:
                        if v == s and len(queue) == 1:
                            first_child.add(u)
                        parent[u] = v
                        queue.append(u)
            order += queue
    colour = [None] * n
    return colour if _place_colours(rows, m, order, parent, first_child, colour, 0) else None


def _place_colours(rows, m, order, parent, first_child, colour, i):
    """Colour ``order[i:]`` as ``_cycle_colouring`` does; True on success."""
    if i == len(rows):
        return True
    v = order[i]
    p = parent[v]
    if p < 0:
        options = (0,)
    else:
        options = (1,) if v in first_child else ((colour[p] + 1) % m, (colour[p] - 1) % m)
    placed = [c for u, c in enumerate(colour) if rows[v] >> u & 1 and c is not None]
    for c in options:
        if all((d - c) % m in (1, m - 1) for d in placed):
            colour[v] = c
            if _place_colours(rows, m, order, parent, first_child, colour, i + 1):
                return True
    colour[v] = None
    return False


def _test_witness(rows, parent, S, cfg: SearchConfig, target):
    """(graph6 of a verified witness or None, the graph's colouring or None).

    The graph joins a new vertex to the set ``S`` of its parent, whose
    colouring ``parent`` is a map to ``target``, C_{2l+1}, or None exactly
    when the parent has none.  A graph containing one with no map has none
    either, so then the graph has none, and the solver does not run.
    Otherwise the graph extends the parent's map, or, if that fails, takes
    the map the solver finds; either is its colouring.  Only a graph with
    no map is tested further: a witness has odd-girth exactly 2k+1 and
    passes the final rules.  Before a witness is reported, the graph is
    round tripped through graph6 and re-checked, odd-girth included, by
    ``_cycle_colouring``, which shares no code with the solver.
    """
    colour = None if parent is None else _extend_colouring(parent, S, target.rows)
    if colour is not None:
        return None, colour
    g = Graph(rows, _validate=False)
    if parent is not None:
        m = find_homomorphism(g, target)
        if m is not None:
            return None, m.image
    if odd_girth(g) != 2 * cfg.k + 1 or not all(
            rule.holds(g) for rule in _rules(cfg.prune_rules, "final")):
        return None, None
    g6 = to_graph6(g)
    fresh = from_graph6(g6)
    if odd_girth(fresh) != 2 * cfg.k + 1 or _cycle_colouring(fresh.rows, target.order) is not None:
        raise AssertionError(f"witness failed independent re-check: {g6}")
    return g6, None


def _tally(stream, split=None):
    """Count a stream: (counts, witnesses, frontier, truncated).

    The stream has already tested its graphs as witnesses; the frontier
    holds its nodes of order ``split``, whole, as the stream yielded them.
    A stream cut by its budget returns what it found so far, truncated.
    """
    counts = Counter()
    wits = defaultdict(list)
    frontier = []
    try:
        for witness, node in stream:
            n = len(node[0])
            counts[n] += 1
            if witness is not None:
                wits[n].append(witness)
            if n == split:
                frontier.append(node)
    except BudgetExceededError:
        return counts, wits, frontier, True
    return counts, wits, frontier, False


def _expand_subtree(args):
    """Worker: (counts, witnesses, truncated, budget ticks) of one frontier node's descendants.

    The node is whole as the stream yielded it, so its descendants grow as
    they would in the stream: its generators, derived or searched for every
    node below ``cfg.n_max`` whatever the split, skip its children's
    isomorphic siblings, its colouring (or its lack of one) is extended to
    its children, and nothing is searched or solved again.
    """
    node, cfg, budget = args
    if budget.expired():
        return Counter(), {}, True, 0
    start = budget.nodes
    counts, wits, _, truncated = _tally(_descendants(
        node, cfg, budget, cfg.n_max, cycle(2 * cfg.l + 1)))
    return counts, wits, truncated, budget.nodes - start


_LOG_MAGIC = "#oddhom-eta-checkpoint v3"


def _read_log(path, cfg):
    """The subtrees the checkpoint log ``path`` holds: root rows -> (counts, witnesses).

    A new or empty log gets its header line, the magic and
    ``cfg.config_hash()``; any other log must start with that line.  A last
    line that lacks its newline was cut off mid-write, so it is dropped
    from the file and its subtree grows again.
    """
    header = f"{_LOG_MAGIC} {cfg.config_hash()}\n".encode()
    with open(path, "ab") as fh:
        if fh.tell() == 0:
            fh.write(header)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(header):
        raise ValueError(f"{path} is not a v3 eta checkpoint of this search configuration")
    end = data.rfind(b"\n") + 1
    subtrees = {}
    for line in data[len(header):end].splitlines():
        rows, counts, wits = json.loads(line)
        subtrees[tuple(rows)] = dict(counts), dict(wits)
    os.truncate(path, end)
    return subtrees


def eta_search(config: SearchConfig, jobs: int = 1, checkpoint: str | None = None,
               budget: Budget | None = None) -> SearchReport:
    """Exhaustive search for the smallest not-C_{2l+1}-colourable graph.

    Enumerates one representative per isomorphism class up to ``n_max``,
    carries a map to C_{2l+1} or its absence down the tree, tests each graph
    with no map for odd-girth exactly 2k+1 and the final rules, and reports
    per-order counts plus independently re-verified witnesses.  Every
    run grows the tree to the split order min(8, n_max - 1), and the subtrees
    below its nodes are grown in-process or by ``jobs`` workers; they are
    disjoint, so results merge by plain union.

    ``checkpoint`` names an append-only log of finished subtrees: a header
    line, ``#oddhom-eta-checkpoint v3`` and ``config.config_hash()``, then
    one flushed JSON line per untruncated subtree, written as its result is
    merged: ``[root rows, [[n, count], ...], [[n, [graph6, ...]], ...]]``.
    Every run regrows the frontier and merges the logged results of the
    roots the log holds instead of growing their subtrees, so a run stopped
    at any point resumes where it stopped.  An empty file is taken as a new
    log; a log of another configuration, or any other file, raises
    ValueError.

    The run ticks a budget, a fresh one with no deadline when none is
    given; a deadline truncates the run and flags the report instead of
    raising.  The deadline is a ``time.monotonic()`` value, a system-wide
    clock on Linux, so it holds in every worker, and the workers' ticks are
    added to ``budget.nodes``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    t0 = time.monotonic()
    if budget is None:
        budget = Budget()
    split = min(8, config.n_max - 1)

    with ExitStack() as stack:
        subtrees = _read_log(checkpoint, config) if checkpoint else {}
        log = stack.enter_context(open(checkpoint, "a")) if checkpoint else None
        counts, wits, frontier, truncated = _tally(
            _root_stream(config, budget, split, cycle(2 * config.l + 1)), split)
        if not truncated:
            tasks = [(node, config, budget) for node in frontier if node[0] not in subtrees]
            if jobs > 1:
                from concurrent.futures import ProcessPoolExecutor

                pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
                results = pool.map(_expand_subtree, tasks, chunksize=max(1, len(tasks) // (jobs * 8)))
            else:
                results = map(_expand_subtree, tasks)
            for ((rows, *_), _, _), (cts, ws, cut, ticks) in zip(tasks, results):
                if jobs > 1:
                    # A worker ticks a pickled copy; the serial run ticks ``budget`` itself.
                    budget.nodes += ticks
                truncated |= cut
                subtrees[rows] = cts, ws
                if log and not cut:
                    log.write(json.dumps([rows, sorted(cts.items()), sorted(ws.items())]) + "\n")
                    log.flush()
            for cts, ws in subtrees.values():
                counts.update(cts)
                for n, lst in ws.items():
                    wits[n].extend(lst)

    records = tuple(OrderRecord(n, counts.get(n, 0), tuple(sorted(wits.get(n, []))))
                    for n in range(1, config.n_max + 1))
    return SearchReport(config, records, time.monotonic() - t0, truncated)
