"""Isomorph-free exhaustive enumeration and the eta(k, l) search driver.

Enumeration is canonical vertex augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): a connected graph of order
n is generated only from the parent obtained by deleting its canonical
non-cutvertex, and only once from that parent.  The canonical deletion
vertex is chosen by isomorphism-invariant keys: first the earliest
refined-colour cell holding a non-cutvertex, then, within that cell, the
non-cutvertex with the least position in the canonical labelling.  A child
built by attaching a new vertex to a subset S of a parent is accepted iff
the new vertex lies in the automorphism orbit of that vertex.  Most degree
rejections happen before a child is built: an S larger than one plus the
least degree of a parent non-cutvertex, or of exactly that size but missing
a non-cutvertex of that degree, is never tried (``_attachment_sets``), and
the budget ticks only the sets inside this bound.  Whether a vertex is
a non-cutvertex is read from one component table per parent (the
components of the parent minus each vertex; in a child, a parent vertex is
a non-cutvertex iff S meets each of its components).  A remaining child
with no other non-cutvertex of the new vertex's degree is accepted by the
degrees alone.  Otherwise the first refinement round's keys of the new
vertex and of those rivals alone decide most children: a rival with a
smaller key rejects, and none with an equal key accepts.  Rivals with an
equal key that are all twins of the new vertex (same neighbours apart from
each other) accept as well, since swapping twins is an automorphism.  Only
the remaining children are refined round by round from the degree
partition, until the cells place a rival before the new vertex (reject) or
none beside it, or only twins (accept).  One canonical search of the
child, which also yields its automorphism generators and orbits, settles
the rest.  Among siblings, S is tried only if it is the first-enumerated
member of its orbit under the parent's automorphism group.

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
sets of a per-parent "conflict graph".  The claim rules of minimal-
counterexample searches are written once, in the table ``RULES``: hereditary
ones prune during growth (no 4-cycle: no common neighbour in S; no 6-cycle:
no length-4 path inside S; degree/second-neighbourhood caps, checked on each
child), so the stream does not depend on n_max, and the rest (minimum degree
2, thread bound, 5-walks, core) are consulted only when a completed graph is
tested as a witness.  Each claim rule carries its scope, for which the paper
proves it of a minimal counterexample: (k, l) = (3, 2) with n_max <= 14, or
<= 15 for ORDER15_VALID_RULES; SearchConfig rejects runs outside it.

eta(k, l) itself is the smallest order of a graph of odd-girth exactly 2k+1
with no homomorphism to C_{2l+1}; the driver enumerates, tests candidates,
and re-verifies every witness through a graph6 round trip with fresh solver
state before reporting it.  Colourings (maps to C_{2l+1}) are carried down
the augmentation tree: a child extends its parent's colouring when the
colours of its attachment set leave the new vertex a colour, and such a
child is no witness.  The solver runs only on a candidate whose colouring
did not extend, and the map it finds becomes the colouring that child's
descendants extend.

Every eta run, serial or parallel, grows the tree to one split order,
min(8, n_max - 1), then grows the subtree below each node of that order
from the node's (rows, odd girth, colouring, cells, generators) as the
stream yielded it, so no subtree refines, searches or solves again what its
root already settled.  Frontier nodes stay in memory, or are pickled to
workers.  A checkpoint is an append-only log of finished subtrees, their
roots' rows, counts and witnesses; every run regrows the frontier and
merges the logged subtrees instead of growing them again.  Every run also
ticks one budget, one with no deadline unless the caller passes one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

from .budget import Budget, BudgetExceededError
from .canon import canonical_search, refine_partition, refine_round
from .constructions import cycle
from .graphs import (
    Graph,
    _bits,
    _neighbors_of_set,
    _odd_walk_back_to,
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

def _no_4_cycle(g: Graph) -> bool:
    for u in range(g.order):
        ru = g.rows[u]
        for w in range(u + 1, g.order):
            if (ru & g.rows[w]).bit_count() >= 2:
                return False
    return True


def _no_6_cycle(g: Graph) -> bool:
    n, rows = g.order, g.rows
    # A 6-cycle exists iff some edge (u, w) closes a 5-path; scan paths of
    # length 5 from each vertex with the start fixed as the cycle minimum.
    for s in range(n):
        allowed = ~((1 << s) - 1)
        stack = [(s, 1 << s, 1)]
        while stack:
            cur, used, ln = stack.pop()
            if ln == 6:
                if rows[cur] >> s & 1:
                    return False
                continue
            for w in _bits(rows[cur] & allowed & ~used):
                stack.append((w, used | 1 << w, ln + 1))
    return True


def _second_neighbourhood_ok(g: Graph) -> bool:
    for v, row in enumerate(g.rows):
        d = row.bit_count()
        if d >= 4:
            return False
        if d == 3 and (_neighbors_of_set(g.rows, row) & ~row & ~(1 << v)).bit_count() >= 5:
            return False
    return True


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

    ``stage`` is "scheme" (guaranteed by the generation), "growth" (hereditary,
    enforced by ``conflict``, the vertices ``u`` may not share a new neighbour
    with, or else by ``check`` on each child) or "final" (checked on witness
    candidates).  ``scope`` is (k, l, largest n_max) for which a minimal
    counterexample provably satisfies the rule; None means every search.
    """

    name: str
    check: Callable[[Graph], bool]
    stage: str
    scope: tuple | None = None
    conflict: Callable | None = None


_UP_TO_14 = (3, 2, 14)
_UP_TO_15 = (3, 2, 15)

# Cheap checks first, is_core last.  The checks look their helpers up at
# call time, so wrappers installed on this module's names see every call.
RULES = (
    Rule(RULE_CONNECTED, lambda g: is_connected(g), "scheme"),
    Rule(RULE_MIN_DEGREE_2, lambda g: all(d >= 2 for d in g.degrees()), "final", _UP_TO_15),
    Rule(RULE_MAX_DEGREE_3_SECONDNBHD, _second_neighbourhood_ok, "growth", _UP_TO_14),
    Rule(RULE_NO_THREAD_GE_4, lambda g: max_thread_length(g) <= 3, "final", _UP_TO_15),
    Rule(RULE_NO_4_CYCLE, _no_4_cycle, "growth", _UP_TO_14, _common_neighbour_partners),
    Rule(RULE_NO_6_CYCLE, _no_6_cycle, "growth", _UP_TO_14, _path4_targets),
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
    return _BY_NAME[rule].check(g)


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
        payload = json.dumps(
            {"k": self.k, "l": self.l, "n_max": self.n_max, "rules": sorted(self.prune_rules)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- canonical augmentation -----------------------------------------------------

def _conflict_masks(rows, n, k, growth):
    """conflict[u] = attachment partners that would create a forbidden cycle."""
    limit = 2 * k - 3
    conf = [0] * n
    for u in range(n):
        m = odd_reach_within(rows, u, limit) if limit >= 1 else 0
        for rule in growth:
            if rule.conflict is not None:
                m |= rule.conflict(rows, u)
        conf[u] = m & ~(1 << u)
    return conf


def _pieces(rows, n):
    """The component table of a connected graph: ``pieces[v]`` lists the
    vertex masks of the components of the graph minus ``v``.

    ``v`` is a non-cutvertex iff it has at most one piece (none only in the
    one-vertex graph).  In a child that joins a new vertex to a set S of the
    graph's vertices, ``v`` is a non-cutvertex iff S meets every piece of
    ``v``: the new vertex then ties the pieces together, and a piece that S
    misses stays cut off.
    """
    full = (1 << n) - 1
    table = []
    for v in range(n):
        rest = full ^ (1 << v)
        comps = []
        while rest:
            seen = frontier = rest & -rest
            while frontier:
                frontier = _neighbors_of_set(rows, frontier) & rest & ~seen
                seen |= frontier
            comps.append(seen)
            rest ^= seen
        table.append(comps)
    return table


def _indep_sets(cand, conf, max_size):
    """All nonempty subsets of ``cand`` that are independent in ``conf``."""
    out = []
    stack = [(cand, 0, 0)]
    while stack:
        avail, cur, size = stack.pop()
        while avail:
            b = avail & -avail
            avail ^= b
            s = cur | b
            out.append(s)
            if size + 1 < max_size:
                stack.append((avail & ~conf[b.bit_length() - 1], s, size + 1))
    return out


def _attachment_sets(rows, n, cand, conf, max_size, pieces):
    """The independent attachment sets that can pass ``_accepted``'s degree stage.

    Let m be the least degree of a non-cutvertex of the parent and R the
    non-cutvertices of degree m, both read from the component table
    ``pieces`` (a non-cutvertex has at most one piece).  Outside S a vertex
    keeps its degree, and a non-cutvertex stays one; inside S, with
    |S| >= 2, a parent non-cutvertex stays one.  (A parent cutvertex may
    become a non-cutvertex; the bound does not use that.)  So the degree
    stage rejects every S with |S| > m + 1, and every S with |S| = m + 1
    that misses a member of R.  R is invariant under the parent's
    automorphisms, so whole orbits of sets drop together.
    """
    degs = [r.bit_count() for r in rows]
    noncut = [v for v in range(n) if len(pieces[v]) <= 1]
    m = min(degs[v] for v in noncut)
    R = sum(1 << v for v in noncut if degs[v] == m)
    return [S for S in _indep_sets(cand, conf, min(max_size, m + 1))
            if S & R == R or S.bit_count() <= m]


def _accepted(rows_t, n, S, pieces):
    """Canonical-deletion test for a child whose added vertex is n-1.

    The child joins the added vertex to the set ``S`` of its parent, whose
    component table is ``pieces`` (see ``_pieces``).  Returns None when the
    child is rejected.  Otherwise returns its refined cells and the
    automorphism generators found by its canonical search, (cells, None)
    when refinement ran but no search, or (None, None) when neither did; the
    caller keeps them as the child's state when it grows the child further.

    The rivals of the added vertex are the other non-cutvertices of its
    degree; a parent vertex is one in the child iff S meets each of its
    pieces.  The first stage that decides is taken:

    - degrees: a non-cutvertex of smaller degree rejects, and no rival
      accepts;
    - round-one keys: the first round of refinement from the degree
      partition (cells in increasing degree) splits the added vertex's cell
      by the packed counts towards every cell but the last, and orders the
      sub-cells by them.  Computed for the added vertex and its rivals
      only, a smaller rival key rejects and no equal one accepts;
    - twins: a rival v with rows[v] & ~bit_a == rows[a] & ~bit_v, for the
      added vertex a, is a twin of it, so the transposition (a v) is an
      automorphism.  If the rivals tied with a are all twins of it, they
      share a's orbit and so a's cell at every round, and whichever of them
      the canonical order picks, the child is accepted;
    - rounds: otherwise refinement runs one round at a time, and cells split
      in place, so each round's cell order is a coarsening of the
      fixpoint's.  It stops as soon as a rival lies in a cell before the
      added vertex's (reject) or none lies in its cell (accept).  At the
      fixpoint, a cell whose rivals are all twins of a accepts as above;
    - search: only the remaining ties need the canonical search.
    """
    added = n - 1
    degs = [r.bit_count() for r in rows_t]
    da = degs[added]
    rivals = []
    for v in range(added):
        if degs[v] <= da and all(S & piece for piece in pieces[v]):
            if degs[v] < da:
                return None
            rivals.append(v)
    if not rivals:
        return None, None
    by_degree = {}
    for v, d in enumerate(degs):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
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
        return None, None
    bit = 1 << added
    row_a = rows_t[added]

    def twins(vs):
        return all(rows_t[v] & ~bit == row_a & ~(1 << v) for v in vs)

    if twins(tied):
        return None, None
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
            return None, None
    tie = [added] + list(_bits(cell & tied_bits))
    if twins(tie[1:]):
        return cells, None
    _, perm, orbit, gens = canonical_search(rows_t, n, cells)
    if orbit[min(tie, key=perm.__getitem__)] != orbit[added]:
        return None
    return cells, gens


def _set_orbit(s, gens):
    """Orbit of the vertex set ``s`` (a bitmask) under the group ``gens``."""
    out = {s}
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
                out.add(img)
                todo.append(img)
    return out


def _extend_colouring(colour, S, m):
    """A parent's map to C_m extended to a new vertex adjacent to ``S``, or None.

    The new vertex needs a colour adjacent on C_m to every colour of S: S
    must see one colour a (take a + 1) or two colours two apart (take the
    one between them).
    """
    a = b = None
    while S:
        low = S & -S
        S ^= low
        c = colour[low.bit_length() - 1]
        if a is None or c == a:
            a = c
        elif b is None or c == b:
            b = c
        else:
            return None
    if b is None or (b - a) % m == 2:
        return colour + ((a + 1) % m,)
    if (a - b) % m == 2:
        return colour + ((b + 1) % m,)
    return None


def _descendants(rows, n, og, cfg: SearchConfig, budget, stop_order=None, target=None,
                 colour=None, cells=None, gens=None):
    """DFS over accepted descendants of one augmentation node.

    Yields (order, rows, odd girth, colouring, witness, cells, gens) for
    each accepted graph strictly below the node, whose odd girth is ``og``.
    ``cells`` and ``gens`` are a graph's refined partition and automorphism
    generators when ``_accepted`` found them, else None; the node's are
    computed here when not passed.  When ``stop_order`` is given, graphs of
    that order are yielded but not expanded (they form the frontier whose
    subtrees ``_expand_subtree`` grows).

    With a ``target`` C_{2l+1}, every child is tested by ``_test_witness``
    (witness: its graph6, else None) and carries a colouring, a map to the
    target as a tuple of colours, or None.  ``colour`` is the node's; a
    child extends it when ``_extend_colouring`` can, and otherwise takes
    the map the solver found for it, if the solver ran.  Without a target
    both are None.
    """
    if n >= cfg.n_max or (stop_order is not None and n >= stop_order):
        return
    growth = _rules(cfg.prune_rules, "growth")
    child_checks = [rule.check for rule in growth if rule.conflict is None]
    conf = _conflict_masks(rows, n, cfg.k, growth)
    full = (1 << n) - 1
    cand, max_size = full, n
    if RULE_MAX_DEGREE_3_SECONDNBHD in cfg.prune_rules:
        cand = sum(1 << v for v in range(n) if rows[v].bit_count() < 3)
        max_size = 3
    if cells is None:
        cells = refine_partition(rows, [full])
    if gens is None and any(c & (c - 1) for c in cells):
        gens = canonical_search(rows, n, cells)[3]
    pieces = _pieces(rows, n)
    # Later members of an orbit of attachment sets, waiting to be skipped.
    pending = set()
    nc = n + 1
    newbit = 1 << n
    # Sets that the degree stage of _accepted would reject are never built;
    # the ones left can still fail it when the child turns a parent
    # cutvertex, inside S or outside it, into a non-cutvertex.
    for S in _attachment_sets(rows, n, cand, conf, max_size, pieces):
        budget.tick("enumeration")
        if S in pending:
            pending.remove(S)
            continue
        if gens:
            pending |= _set_orbit(S, gens)
            pending.remove(S)
        child = [r | newbit if S >> i & 1 else r for i, r in enumerate(rows)]
        child.append(S)
        child_t = tuple(child)
        if child_checks:
            g = Graph(child_t, _validate=False)
            if not all(check(g) for check in child_checks):
                continue
        state = _accepted(child_t, nc, S, pieces)
        if state is None:
            continue
        # A shorter odd cycle than the parent's must pass through the new vertex.
        d = _odd_walk_back_to(child_t, n, og - 1)
        child_og = og if d is None else d
        witness = child_colour = None
        if target is not None:
            inherited = None if colour is None else _extend_colouring(colour, S, target.order)
            witness, child_colour = _test_witness(child_t, child_og, inherited, cfg, target)
        yield nc, child_t, child_og, child_colour, witness, *state
        yield from _descendants(child_t, nc, child_og, cfg, budget, stop_order, target,
                                child_colour, *state)


def _root_stream(cfg: SearchConfig, budget, stop_order=None, target=None):
    """The one-vertex root and its descendants, as ``_descendants`` yields them."""
    root = (0,)
    og = odd_girth(Graph(root, _validate=False))
    colour = None if target is None else (0,)
    yield 1, root, og, colour, None, None, None
    yield from _descendants(root, 1, og, cfg, budget, stop_order, target, colour)


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
    for _, rows, *_ in _root_stream(config, Budget() if budget is None else budget):
        yield Graph(rows, _validate=False)


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


def _test_witness(rows, og, colour, cfg: SearchConfig, target):
    """(graph6 of a verified witness or None, the graph's colouring or None).

    ``colour`` is the colouring the graph inherited from its parent, if
    any; such a graph is no witness, and nothing else is run.  Otherwise a
    witness has odd-girth ``og`` exactly 2k+1, passes the final rules and
    has no homomorphism to ``target``, C_{2l+1}; a map the solver finds
    becomes the graph's colouring.  Before a witness is reported, the graph
    is round tripped through graph6 and re-checked, odd-girth included,
    with fresh state.
    """
    if colour is not None or og != 2 * cfg.k + 1:
        return None, colour
    g = Graph(rows, _validate=False)
    if not all(rule.check(g) for rule in _rules(cfg.prune_rules, "final")):
        return None, None
    m = find_homomorphism(g, target)
    if m is not None:
        return None, m.image
    g6 = to_graph6(g)
    fresh = from_graph6(g6)
    if odd_girth(fresh) != 2 * cfg.k + 1 or find_homomorphism(fresh, cycle(target.order)) is not None:
        raise AssertionError(f"witness failed independent re-check: {g6}")
    return g6, None


def _tally(stream, split=None):
    """Count a stream: (counts, witnesses, frontier, truncated).

    The stream has already tested its graphs as witnesses; the frontier
    holds its nodes (rows, odd girth, colouring, cells, gens) at order
    ``split``.  A stream cut by its budget returns what it found so far,
    truncated.
    """
    counts = Counter()
    wits = defaultdict(list)
    frontier = []
    try:
        for n, rows, og, colour, witness, *state in stream:
            counts[n] += 1
            if witness is not None:
                wits[n].append(witness)
            if n == split:
                frontier.append((rows, og, colour, *state))
    except BudgetExceededError:
        return counts, wits, frontier, True
    return counts, wits, frontier, False


def _expand_subtree(args):
    """Worker: (counts, witnesses, truncated, budget ticks) of one frontier node's descendants.

    The node is (rows, odd girth, colouring, cells, gens) as the stream
    yielded it, so its descendants grow as they would in the stream:
    nothing is refined, searched or solved again.
    """
    (rows, og, *state), cfg, budget = args
    if budget.expired():
        return Counter(), {}, True, 0
    start = budget.nodes
    counts, wits, _, truncated = _tally(_descendants(
        rows, len(rows), og, cfg, budget, None, cycle(2 * cfg.l + 1), *state))
    return counts, wits, truncated, budget.nodes - start


_LOG_MAGIC = "#oddhom-eta-checkpoint v3"


def _read_log(path, cfg):
    """The subtrees the checkpoint log ``path`` holds: root rows -> (counts, witnesses).

    A new log gets its header line, the magic and ``cfg.config_hash()``; an
    existing log must start with that line.  A last line that lacks its
    newline was cut off mid-write, so it is dropped from the file and its
    subtree grows again.
    """
    header = f"{_LOG_MAGIC} {cfg.config_hash()}\n".encode()
    if not os.path.exists(path):
        with open(path, "wb") as fh:
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
    tests every graph of odd-girth exactly 2k+1 against C_{2l+1}, and
    reports per-order counts plus independently re-verified witnesses.  Every
    run grows the tree to the split order min(8, n_max - 1), and the subtrees
    below its nodes are grown in-process or by ``jobs`` workers; they are
    disjoint, so results merge by plain union.

    ``checkpoint`` names an append-only log of finished subtrees: a header
    line, ``#oddhom-eta-checkpoint v3`` and ``config.config_hash()``, then
    one flushed JSON line per untruncated subtree, written as its result is
    merged: ``[root rows, [[n, count], ...], [[n, [graph6, ...]], ...]]``.
    Every run regrows the frontier and merges the logged results of the
    roots the log holds instead of growing their subtrees, so a run stopped
    at any point resumes where it stopped.  A log of another configuration,
    or any other file, raises ValueError.

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
