"""Enumeration, canonical augmentation and the eta driver (search.py).

Counts are checked against brute-force classes and published sequences,
automorphism generators against a permutation oracle, and the eta driver
against its own serial run under every way of splitting or resuming it.
"""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from oddhom import (
    ALL_RULES,
    ORDER15_VALID_RULES,
    Budget,
    Graph,
    SearchConfig,
    circular_clique,
    claim_filter,
    complete,
    cycle,
    enumerate_graphs,
    eta_search,
    fixture,
    from_graph6,
    generalized_mycielski,
    is_connected,
    odd_k4,
    to_graph6,
)
from oddhom import canon, search
from oddhom.canon import canonical_bytes, canonical_search, refine_partition
from oddhom.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from oddhom.graphs import _bits, _neighbors_of_set, delete_vertex, odd_reach_within
from oddhom.hom import VertexMap, find_homomorphism, is_core, verify_mapping
from oddhom.table import designated_odd_k4
from oddhom.search import (
    RULE_CONNECTED,
    RULE_FIVE_WALK,
    RULE_MAX_DEGREE_3_SECONDNBHD,
    RULE_NO_4_CYCLE,
    RULE_NO_6_CYCLE,
    RULES,
    _accepted,
    _attachment_sets,
    _common_neighbour_partners,
    _conflict_mask,
    _cycle_colouring,
    _extend_colouring,
    _holds_near,
    _ParentTable,
    _path4_targets,
    _root_stream,
    _rules,
    _set_orbit,
    _stabiliser,
)

from conftest import atlas, brute_classes, brute_has_hom, random_graph, vertex_transitive_graphs

A001349 = [1, 1, 2, 6, 21, 112, 853, 11117]  # connected graphs
A024607 = [1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832]  # connected triangle-free graphs
ODD_GIRTH_7 = [1, 1, 1, 3, 5, 17, 45, 184, 748, 4143]  # connected, odd-girth >= 7
# ALL_RULES, k=3: the odd-girth-7 stream under the three hereditary rules
# (no 4-cycle, no 6-cycle, degree/second-neighbourhood caps); checked against
# the filtered unconditional stream up to n = 10 below.
MINIMAL_OG7 = [1, 1, 1, 2, 2, 4, 7, 13, 23, 51, 105, 246, 557, 1348]
HEREDITARY = (RULE_NO_4_CYCLE, RULE_NO_6_CYCLE, RULE_MAX_DEGREE_3_SECONDNBHD)


def assert_critical(g, m):
    """What every witness at the first witness order must be: a graph with
    no map to C_m (by the solver and by the independent refuter), a core,
    vertex-critical (every G - v maps to C_m) and 2-connected.  Every
    smaller graph of the same odd girth maps to C_m: so a retract would be a
    smaller witness, and maps of the two sides of a cutvertex could be
    rotated to agree on it."""
    h = cycle(m)
    assert find_homomorphism(g, h) is None and _cycle_colouring(g.rows, m) is None
    assert is_core(g)
    assert is_connected(g)
    for v in range(g.order):
        gv = delete_vertex(g, v)
        mv = find_homomorphism(gv, h)
        assert mv is not None and verify_mapping(gv, h, mv), (to_graph6(g), v)
        assert is_connected(gv), (to_graph6(g), v)


def stream_counts(cfg):
    counts = Counter(g.order for g in enumerate_graphs(cfg))
    return [counts[n] for n in range(1, cfg.n_max + 1)]


class TestEnumerationCounts:
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_brute_force_classes(self, k):
        by_order = {}
        for g in enumerate_graphs(SearchConfig(k=k, l=1, n_max=6)):
            by_order.setdefault(g.order, []).append(canonical_bytes(g))
        for n in range(1, 7):
            got = by_order.get(n, [])
            assert len(got) == len(set(got)), f"isomorphic duplicates at order {n}"
            want = {canonical_bytes(g) for g in brute_classes(n, min_odd_girth=2 * k + 1)}
            assert set(got) == want, f"order {n}"

    def test_connected_graphs_a001349(self):
        assert stream_counts(SearchConfig(k=1, l=1, n_max=8)) == A001349

    def test_triangle_free_a024607(self):
        assert stream_counts(SearchConfig(k=2, l=1, n_max=10)) == A024607

    def test_odd_girth_7(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=10)) == ODD_GIRTH_7

    def test_minimal_counterexample_rules(self):
        cfg = SearchConfig(k=3, l=2, n_max=14, prune_rules=ALL_RULES)
        assert stream_counts(cfg) == MINIMAL_OG7

    def test_pruned_stream_is_filtered_unconditional_stream(self):
        # Pruning by hereditary rules must drop exactly the graphs that fail
        # them, whatever n_max is: the oracle filters the unpruned stream.
        def classes(cfg, keep):
            out = Counter()
            for g in enumerate_graphs(cfg):
                if keep(g):
                    out[g.order, canonical_bytes(g)] += 1
            return out

        pruned = classes(SearchConfig(k=3, l=2, n_max=10, prune_rules=ALL_RULES),
                         lambda g: True)
        oracle = classes(SearchConfig(k=3, l=2, n_max=10),
                         lambda g: all(claim_filter(g, r) for r in HEREDITARY))
        assert pruned == oracle
        assert set(pruned.values()) == {1}
        assert [sum(1 for n, _ in pruned if n == m) for m in range(1, 11)] == MINIMAL_OG7[:10]

    def test_no_isomorphic_duplicates_triangle_free(self):
        seen = [canonical_bytes(g) for g in enumerate_graphs(SearchConfig(k=2, l=1, n_max=9))]
        assert len(seen) == len(set(seen)) == sum(A024607[:9])

    @pytest.mark.slow
    def test_odd_girth_7_order_11(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=11)) == ODD_GIRTH_7 + [26532]

    @pytest.mark.stretch
    def test_odd_girth_7_order_12(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=12)) == ODD_GIRTH_7 + [26532, 221032]


def indep_sets(n, conf, max_size):
    """All nonempty sets of at most ``max_size`` of the ``n`` vertices,
    independent in ``conf``, in the order of the search's walk: every
    singleton, then the extensions of the highest one first."""
    out = []
    stack = [((1 << n) - 1, 0, 0)]
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


def growth_conflicts(cfg):
    """(odd-walk limit, conflicts of the growth rules) of a config, as growth reads them."""
    return 2 * cfg.k - 3, [r.conflict for r in _rules(cfg.prune_rules, "growth") if r.conflict]


def every_mask(rows, limit, conflicts):
    return [_conflict_mask(rows, u, limit, conflicts) for u in range(len(rows))]


def child_of(rows, S):
    """The parent ``rows`` with a new last vertex joined to the set ``S``."""
    n = len(rows)
    return tuple(r | 1 << n if S >> i & 1 else r for i, r in enumerate(rows)) + (S,)


class TestDegreeBound:
    @staticmethod
    def dropped_sets_rejected(cfg):
        # The bound may only drop attachment sets whose child the canonical
        # test rejects anyway.
        limit, conflicts = growth_conflicts(cfg)
        dropped = 0
        for _, (rows, *_) in _root_stream(cfg, Budget(), cfg.n_max):
            n = len(rows)
            every = set(indep_sets(n, every_mask(rows, limit, conflicts), n))
            table = _ParentTable(rows, n)
            kept = _attachment_sets(rows, n, table, limit, conflicts)
            assert set(kept) <= every
            for S in every - set(kept):
                assert _accepted(child_of(rows, S), n + 1, S, table) is None, (rows, S)
                dropped += 1
        return dropped

    @pytest.mark.parametrize("k", [1, 2])
    def test_dropped_sets_give_rejected_children(self, k):
        # Every parent of order <= 7.
        assert self.dropped_sets_rejected(SearchConfig(k=k, l=1, n_max=7)) > 1000

    def test_dropped_sets_under_degree_3_cap(self):
        cfg = SearchConfig(k=3, l=2, n_max=11, prune_rules=frozenset({RULE_CONNECTED, *HEREDITARY}))
        assert self.dropped_sets_rejected(cfg) > 100


def component_table(rows, n):
    """The component table of a connected graph, every vertex built: the
    vertex masks of the components of the graph minus each vertex.

    The eager reference of ``_ParentTable``, which builds only the
    vertices of degree at most m + 1."""
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


def degree_bound(rows, n):
    """(m, R) from the whole component table: the least degree of a
    non-cutvertex and the mask of the non-cutvertices of that degree."""
    degs = [r.bit_count() for r in rows]
    noncut = [v for v, p in enumerate(component_table(rows, n)) if len(p) <= 1]
    m = min(degs[v] for v in noncut)
    return m, sum(1 << v for v in noncut if degs[v] == m)


def leaf_bound(rows, n):
    """The singletons the leaf bound drops, from its definition: {u} such
    that some leaf v != u has a neighbour of degree at least deg(u) + 2."""
    degs = [r.bit_count() for r in rows]
    leaf_neighbour_degree = {v: degs[u] for v in range(n) if degs[v] == 1
                             for u in range(n) if rows[v] >> u & 1}
    return {1 << u for u in range(n)
            if any(v != u and d >= degs[u] + 2 for v, d in leaf_neighbour_degree.items())}


def eager_attachment_sets(rows, n, limit, conflicts):
    """``_attachment_sets`` with every conflict mask computed up front: every
    independent set up to size m + 1, filtered by the degree bound and the
    leaf bound."""
    conf = every_mask(rows, limit, conflicts)
    m, R = degree_bound(rows, n)
    dropped = leaf_bound(rows, n)
    return [S for S in indep_sets(n, conf, m + 1)
            if (S & R == R or S.bit_count() <= m) and S not in dropped], m


class TestAttachmentSetsOnDemand:
    """``_attachment_sets`` computes a conflict mask only when its walk reads
    it, and lists the same sets in the same order as the eager reference,
    both bounds applied, so the budget ticks exactly the sets the bounds
    keep, and the orbit skip and the representatives are unchanged."""

    @pytest.mark.parametrize("cfg", [
        SearchConfig(k=1, l=1, n_max=7),
        SearchConfig(k=2, l=1, n_max=8),
        SearchConfig(k=3, l=2, n_max=10),
        SearchConfig(k=3, l=2, n_max=12, prune_rules=ALL_RULES),
    ], ids=["k1", "k2", "k3", "k3-all-rules"])
    def test_same_list_as_eager_reference(self, cfg, monkeypatch):
        limit, conflicts = growth_conflicts(cfg)
        calls = Counter()
        computed = eager = 0
        for _, (rows, *_) in _root_stream(cfg, Budget(), cfg.n_max):
            n = len(rows)
            table = _ParentTable(rows, n)
            want, m = eager_attachment_sets(rows, n, limit, conflicts)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(search, "_conflict_mask", counting("_conflict_mask", calls))
                got = _attachment_sets(rows, n, table, limit, conflicts)
            assert got == want, rows
            assert calls["_conflict_mask"] <= (1 if m == 1 else n), (rows, m)
            computed += calls["_conflict_mask"]
            eager += n
        assert computed < eager, (computed, eager)


class TestLeafBound:
    """Every singleton the leaf bound drops gives a child that ``_accepted``
    rejects, and the independent oracle ``decisive_stage`` says round one
    rejects it: the bound's proof, checked on every parent of each stream."""

    @pytest.mark.parametrize("cfg", [
        SearchConfig(k=1, l=1, n_max=7),
        SearchConfig(k=2, l=1, n_max=8),
        SearchConfig(k=3, l=2, n_max=10),
        SearchConfig(k=3, l=2, n_max=12, prune_rules=ALL_RULES),
    ], ids=["k1", "k2", "k3", "k3-all-rules"])
    def test_dropped_singletons_are_rejected_at_round_one(self, cfg):
        dropped = 0
        for _, (rows, *_) in _root_stream(cfg, Budget(), cfg.n_max):
            n = len(rows)
            table = _ParentTable(rows, n)
            for S in leaf_bound(rows, n):
                child = child_of(rows, S)
                assert _accepted(child, n + 1, S, table) is None, (rows, S)
                assert decisive_stage(child, n + 1) == "round-one reject", (rows, S)
                dropped += 1
        assert dropped > 0, cfg


class TestConflictSymmetry:
    """The contract ``_attachment_sets`` relies on (see ``Rule``): v is in
    conf(u) iff u is in conf(v), for the odd-walk reach and every rule's
    conflict."""

    CONFLICTS = {
        "odd-reach-1": lambda rows, u: odd_reach_within(rows, u, 1),
        "odd-reach-3": lambda rows, u: odd_reach_within(rows, u, 3),
        "odd-reach-5": lambda rows, u: odd_reach_within(rows, u, 5),
        "common-neighbour": _common_neighbour_partners,
        "path-4": _path4_targets,
    }

    def test_every_rule_conflict_is_covered(self):
        assert {r.conflict for r in RULES if r.conflict} <= set(self.CONFLICTS.values())

    @staticmethod
    def assert_symmetric(graphs):
        checked = Counter()
        for g in graphs:
            n = g.order
            for name, conflict in TestConflictSymmetry.CONFLICTS.items():
                conf = [conflict(g.rows, u) for u in range(n)]
                for u, v in itertools.combinations(range(n), 2):
                    assert conf[u] >> v & 1 == conf[v] >> u & 1, (name, g.rows, u, v)
                    checked[name] += conf[u] >> v & 1
        # Every conflict relates some pair.
        assert min(checked.values()) > 0 and len(checked) == 5, checked

    def test_atlas(self):
        self.assert_symmetric(atlas())

    def test_random_graphs(self):
        rng = random.Random(23)
        self.assert_symmetric([random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
                               for _ in range(300)])


class TestLocalCapCheck:
    """Growth checks the degree-3 cap on a child only at the new vertex, S
    and S's neighbours (``_holds_near``); on a parent that passes, that must
    agree with the cap checked at every vertex of the child."""

    CAP = [r.check for r in RULES if r.name == RULE_MAX_DEGREE_3_SECONDNBHD]

    @classmethod
    def assert_local_equals_full(cls, rows, sets, outcomes):
        assert claim_filter(Graph(rows), RULE_MAX_DEGREE_3_SECONDNBHD)
        for S in sets:
            child = child_of(rows, S)
            got = _holds_near(cls.CAP, child, S)
            assert got == claim_filter(Graph(child), RULE_MAX_DEGREE_3_SECONDNBHD), (rows, S)
            outcomes[got] += 1

    def test_every_child_of_the_hereditary_stream(self):
        # Every independent set of every parent of order <= 11, including
        # those the degree bound drops and those whose child is rejected.
        cfg = SearchConfig(k=3, l=2, n_max=11, prune_rules=frozenset({RULE_CONNECTED, *HEREDITARY}))
        limit, conflicts = growth_conflicts(cfg)
        outcomes = Counter()
        for _, (rows, *_) in _root_stream(cfg, Budget(), cfg.n_max):
            sets = indep_sets(len(rows), every_mask(rows, limit, conflicts), len(rows))
            self.assert_local_equals_full(rows, sets, outcomes)
        assert outcomes[True] > 1000 and outcomes[False] > 500, outcomes

    def test_every_child_of_the_minimal_stream(self, monkeypatch):
        # Every child the ALL_RULES n <= 13 stream builds, those it then
        # rejects included: the loop form decides as the generator form did.
        # (The leaf bound builds fewer children: at n <= 12 they would give
        # only 788 true and 425 false outcomes.)
        outcomes = Counter()
        real = search._holds_near

        def checked(checks, rows, S):
            got = real(checks, rows, S)
            near = S | _neighbors_of_set(rows, S)
            assert got == all(check(rows, v) for v in _bits(near) for check in checks), (rows, S)
            outcomes[got] += 1
            return got

        monkeypatch.setattr(search, "_holds_near", checked)
        assert stream_counts(SearchConfig(k=3, l=2, n_max=13, prune_rules=ALL_RULES)) == MINIMAL_OG7[:13]
        assert outcomes[True] > 1000 and outcomes[False] > 400, outcomes

    def test_every_subset_of_small_graphs(self):
        # Any S, adjacent members allowed, on every connected graph of order
        # <= 6 that passes the cap.
        outcomes = Counter()
        for g in enumerate_graphs(SearchConfig(k=1, l=1, n_max=6)):
            if claim_filter(g, RULE_MAX_DEGREE_3_SECONDNBHD):
                self.assert_local_equals_full(g.rows, range(1, 1 << g.order), outcomes)
        assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def full_refinement_accepted(rows_t, n):
    """The canonical-deletion test refining every child to its fixpoint.

    Returns None (reject) or the fixpoint cells; the accept-or-reject
    decision is the one ``_accepted`` must reach with fewer rounds.
    """
    added = n - 1
    degs = [r.bit_count() for r in rows_t]

    def noncut(v):
        return is_connected(delete_vertex(Graph(rows_t), v))

    da = degs[added]
    if any(degs[v] < da and noncut(v) for v in range(added)):
        return None
    cells = refine_partition(rows_t, [(1 << n) - 1])
    ca = next(i for i, cell in enumerate(cells) if cell >> added & 1)
    if any(cell >> v & 1 and degs[v] == da and noncut(v)
           for cell in cells[:ca] for v in range(added)):
        return None
    tie = [added] + [v for v in range(added) if cells[ca] >> v & 1 and noncut(v)]
    if len(tie) > 1:
        _, perm, orbit, _ = canonical_search(rows_t, n, cells)
        if orbit[min(tie, key=perm.__getitem__)] != orbit[added]:
            return None
    return cells


def degree_partition(rows_t):
    """The vertex masks of each degree, in increasing degree."""
    degs = [r.bit_count() for r in rows_t]
    return [sum(1 << v for v, d in enumerate(degs) if d == e) for e in sorted(set(degs))]


def decisive_stage(rows_t, n):
    """The first stage of ``_accepted`` that decides, by an independent oracle.

    Non-cutvertices come from deleting each vertex, and round-one keys are
    count tuples towards every degree cell but the last.  Returns
    "degree", "round-one reject", "round-one accept", "closed twins" or
    "open twins" (every rival with the added vertex's round-one key is a
    twin of it, and some, or none, is adjacent to it), "leaf round-two
    reject" or "leaf round-two accept" when the added vertex is a leaf and
    the second round decides, or "rounds" when only further refinement or
    a canonical search decides.  The second round is computed from its
    definition: the round-one cells are the (degree, key) classes in
    increasing order, and each splits by the count tuples towards every
    round-one cell, in increasing order.
    """
    added = n - 1
    degs = [r.bit_count() for r in rows_t]
    da = degs[added]
    noncut = [v for v in range(added) if is_connected(delete_vertex(Graph(rows_t), v))]
    if any(degs[v] < da for v in noncut) or all(degs[v] != da for v in noncut):
        return "degree"
    cells = degree_partition(rows_t)

    def key(v):
        return tuple((rows_t[v] & c).bit_count() for c in cells[:-1])

    rivals = [v for v in noncut if degs[v] == da]
    if any(key(v) < key(added) for v in rivals):
        return "round-one reject"
    tied = [v for v in rivals if key(v) == key(added)]
    if not tied:
        return "round-one accept"
    bit = 1 << added

    def twins(vs):
        return all(rows_t[v] & ~bit == rows_t[added] & ~(1 << v) for v in vs)

    if twins(tied):
        return "closed twins" if any(rows_t[added] >> v & 1 for v in tied) else "open twins"
    if da == 1 and len(cells) > 1:
        labels = sorted({(degs[v], key(v)) for v in range(n)})
        first = [sum(1 << v for v in range(n) if (degs[v], key(v)) == c) for c in labels]

        def key2(v):
            return tuple((rows_t[v] & c).bit_count() for c in first)

        if any(key2(v) < key2(added) for v in tied):
            return "leaf round-two reject"
        mates = [v for v in tied if key2(v) == key2(added)]
        if twins(mates):
            return "leaf round-two accept"
    return "rounds"


def counting(name, calls):
    """``search.<name>``, counting its calls in ``calls[name]``."""
    real = getattr(search, name)

    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper


def orbit_mates(rows_t, n, cells, v):
    """The vertices other than ``v`` in its orbit under the automorphisms
    preserving the equitable ``cells``, by a canonical search."""
    orbit = canonical_search(rows_t, n, cells)[2]
    return [u for u in range(n) if u != v and orbit[u] == orbit[v]]


class TestEarlyExit:
    @pytest.mark.parametrize("cfg", [
        pytest.param(SearchConfig(k=1, l=1, n_max=7), id="1-7"),
        pytest.param(SearchConfig(k=2, l=1, n_max=7), id="2-7"),
        pytest.param(SearchConfig(k=3, l=2, n_max=9), id="3-9"),
        pytest.param(SearchConfig(k=3, l=2, n_max=12, prune_rules=ALL_RULES), id="3-12-all-rules"),
    ])
    def test_same_decision_as_full_refinement(self, cfg, monkeypatch):
        # Every independent attachment set of every parent below n_max,
        # including those the degree bound never builds.  A stage before
        # the rounds may neither refine nor search, the rounds stage does
        # one or the other, and no stage but the search hands over
        # generators.
        work = Counter()
        for name in ("refine_round", "canonical_search"):
            monkeypatch.setattr(search, name, counting(name, work))
        n_max = cfg.n_max
        limit, conflicts = growth_conflicts(cfg)
        outcomes = Counter()
        for _, (rows, *_) in _root_stream(cfg, Budget(), n_max):
            n = len(rows)
            if n == n_max:
                continue
            table = _ParentTable(rows, n)
            for S in indep_sets(n, every_mask(rows, limit, conflicts), n):
                child = child_of(rows, S)
                want = full_refinement_accepted(child, n + 1)
                work.clear()
                got = _accepted(child, n + 1, S, table)
                assert (got is None) == (want is None), (rows, S)
                stage = decisive_stage(child, n + 1)
                if stage != "rounds":
                    assert not work and (got is None or got[0] is None), (rows, S, stage)
                    outcomes[stage] += 1
                else:
                    assert work and work["canonical_search"] <= 1, (rows, S)
                    outcomes["search" if work["canonical_search"] else "rounds"] += 1
                if got is not None:
                    # The generators come with the child iff a search ran;
                    # otherwise the twins are the added vertex's orbit
                    # minus that vertex, each a twin of it.
                    gens, twins = got
                    assert (gens is not None) == (work["canonical_search"] == 1), (rows, S)
                    if gens is None:
                        assert sorted(twins) == orbit_mates(child, n + 1, want, n), (rows, S)
                        assert all(child[v] & ~(1 << n) == child[n] & ~(1 << v) for v in twins)
                    else:
                        assert not twins, (rows, S)
        # Every stage decides some child.  Adjacent twins of degree 2 or
        # more close a triangle, so for k >= 2 the only closed twins are the
        # two vertices of K2.
        assert min(outcomes.values()) > 0, outcomes
        assert {"round-one reject", "round-one accept", "open twins", "search",
                "leaf round-two reject", "leaf round-two accept"} <= set(outcomes), outcomes
        assert (outcomes["closed twins"] > 1) == (cfg.k == 1), outcomes


class TestComponentTable:
    def test_noncut_agrees_with_deletion(self):
        # Every child of order up to 7 of every k = 1 parent (every connected
        # graph): S meets each piece of v iff the child minus v is connected,
        # for every piece the eager table holds and every one that
        # _ParentTable walks when it is read.
        children = built = 0
        for _, (rows, *_) in _root_stream(SearchConfig(k=1, l=1, n_max=6), Budget(), 6):
            n = len(rows)
            pieces = component_table(rows, n)
            table = _ParentTable(rows, n)
            if n > 1:
                parent = Graph(rows)
                assert [len(p) <= 1 for p in pieces] == [
                    is_connected(delete_vertex(parent, v)) for v in range(n)]
            for S in range(1, 1 << n):
                child = Graph(child_of(rows, S))
                for v in range(n):
                    want = is_connected(delete_vertex(child, v))
                    assert all(S & p for p in pieces[v]) == want, (rows, S, v)
                    assert all(S & p for p in table[v]) == want, (rows, S, v)
                    built += 1
                children += 1
        assert children > 5_000 and built > 30_000, (children, built)


def reference_accepted(rows_t, n, S, pieces):
    """``_accepted`` as it was before the parent table: every degree read
    from the child, the rivals scanned over every parent vertex, and the
    non-cutvertices read from the whole ``component_table``."""
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
        return None, ()
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
        return None, ()
    bit = 1 << added
    row_a = rows_t[added]

    def twins(vs):
        return all(rows_t[v] & ~bit == row_a & ~(1 << v) for v in vs)

    if twins(tied):
        return None, tied
    tied_bits = sum(1 << v for v in tied)
    cell = by_degree[da]
    while fresh:
        cells, fresh = canon.refine_round(rows_t, cells, fresh)
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
    if orbit[min([added] + tie, key=perm.__getitem__)] != orbit[added]:
        return None
    return gens, ()


class TestParentTable:
    """``_ParentTable`` against its eager definitions, and ``_accepted``
    reading it against ``reference_accepted`` reading the whole component
    table, on every independent set of every parent, the root included.
    The table's pieces are walked as they are read: once ``_accepted`` has
    read what it reads, every vertex's are read and compared with the BFS
    reference ``component_table``."""

    @staticmethod
    def assert_matches(rows, sets, outcomes):
        n = len(rows)
        table = _ParentTable(rows, n)
        degs = [r.bit_count() for r in rows]
        assert table.classes == [sum(1 << v for v in range(n) if degs[v] == d)
                                 for d in range(max(degs) + 2)]
        assert (table.m, table.R) == degree_bound(rows, n), rows
        # m and R read no pieces above degree m, and none when a leaf gives them.
        assert all(degs[v] <= table.m and not table.classes[1] for v in table), rows
        outcomes["unwalked"] += n - len(table)
        pieces = component_table(rows, n)
        for S in sets:
            child = child_of(rows, S)
            got = _accepted(child, n + 1, S, table)
            assert got == reference_accepted(child, n + 1, S, pieces), (rows, S)
            outcomes["rejected" if got is None else "searched" if got[0] else
                     "twins" if got[1] else "accepted"] += 1
        for v in range(n):
            assert sorted(table[v]) == sorted(pieces[v]), (rows, v)
        assert sorted(table) == list(range(n)), rows
        outcomes["parents"] += 1
        return table

    @pytest.mark.parametrize("cfg", [
        SearchConfig(k=1, l=1, n_max=7),
        SearchConfig(k=2, l=1, n_max=8),
        SearchConfig(k=3, l=2, n_max=10),
        SearchConfig(k=3, l=2, n_max=12, prune_rules=ALL_RULES),
    ], ids=["k1", "k2", "k3", "k3-all-rules"])
    def test_every_parent_of_the_stream(self, cfg):
        limit, conflicts = growth_conflicts(cfg)
        outcomes = Counter()
        for _, (rows, *_) in _root_stream(cfg, Budget(), cfg.n_max - 1):
            sets = indep_sets(len(rows), every_mask(rows, limit, conflicts), len(rows))
            self.assert_matches(rows, sets, outcomes)
        assert min(outcomes.values()) > 0, outcomes

    def test_one_vertex_root(self):
        # The root's vertex has no pieces and is a non-cutvertex of degree 0.
        table = self.assert_matches((0,), [1], Counter())
        assert (table.classes, table.m, table.R, dict(table)) == ([1, 0], 0, 1, {0: []})

    def test_least_degree_class_of_cutvertices(self):
        # Two K4s joined through a vertex of degree 2: it alone has the least
        # degree and is a cutvertex, so m = 3 and the class of degree 4 is
        # built too; and random connected graphs of order 8 to 10, whose
        # m reaches 3.  Every nonempty S, adjacent members allowed.
        k4s = Graph.from_edges(9, [*itertools.combinations(range(4), 2),
                                   *itertools.combinations(range(5, 9), 2), (3, 4), (4, 5)])
        # m and R walk the pieces of the classes of degree 2 and 3 only.
        assert sorted(_ParentTable(k4s.rows, 9)) == [0, 1, 2, 4, 6, 7, 8]
        rng = random.Random(24)
        graphs = [k4s] + [g for g in (random_graph(rng, rng.randint(8, 10), 0.4) for _ in range(40))
                          if is_connected(g)]
        outcomes = Counter()
        ms = Counter(self.assert_matches(g.rows, range(1, 1 << g.order), outcomes).m for g in graphs)
        assert ms[3] > 1 and min(outcomes.values()) > 0, (ms, outcomes)


K3_N10 = SearchConfig(k=3, l=2, n_max=10)


@pytest.fixture(scope="module")
def counted_run():
    """``counted_run(cfg)``: the enumerated counts and every counter of one
    serial ``eta_search(cfg)``, made once per cfg with all the wrappers:
    - ``vertices`` and ``pieces``: the parent-table vertices, and those of
      them whose pieces are walked, ``len(table)`` after the run;
    - ``ticks``: the budget's ticks, one per attachment set tried;
    - ``rounds``: every ``canon.refine_round`` call; ``refine_round``: those
      ``_accepted`` makes itself, the only rounds search makes;
    - ``canonical_search``: every search, of which ``accepted`` are made
      inside ``_accepted`` and ``fallback`` inside ``_child_gens``.
    """
    runs = {}

    def run(cfg):
        if cfg in runs:
            return runs[cfg]
        calls = Counter()
        tables = []
        real_table = search._ParentTable
        real_round = canon.refine_round

        def counting_table(rows, n):
            table = real_table(rows, n)
            calls["vertices"] += n
            tables.append(table)
            return table

        def counting_round(*args):
            calls["rounds"] += 1
            return real_round(*args)

        def inside(name, real):
            def wrapper(*args):
                before = calls["canonical_search"]
                out = real(*args)
                calls[name] += calls["canonical_search"] - before
                return out
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_ParentTable", counting_table)
            mp.setattr(search, "refine_round", counting("refine_round", calls))
            mp.setattr(canon, "refine_round", counting_round)
            mp.setattr(canon, "canonical_search", counting("canonical_search", calls))
            mp.setattr(search, "canonical_search", canon.canonical_search)
            mp.setattr(search, "_accepted", inside("accepted", search._accepted))
            mp.setattr(search, "_child_gens", inside("fallback", search._child_gens))
            budget = Budget()
            report = eta_search(cfg, budget=budget)
        calls["pieces"] = sum(len(table) for table in tables)
        calls["ticks"] = budget.nodes
        runs[cfg] = [r.enumerated for r in report.records], calls
        return runs[cfg]
    return run


def test_accepted_canonical_searches_pinned(counted_run):
    # The round-one keys and the twin certificate leave few ties for the
    # canonical search: 751 of the searches on k = 3, n <= 10 are made by
    # _accepted.
    counts, calls = counted_run(K3_N10)
    assert counts == ODD_GIRTH_7
    assert calls["accepted"] == 751, calls


def test_component_tables_pinned(counted_run):
    # The serial k = 3, n <= 10 run walks the pieces of 4,297 parent
    # vertices, where a table of every vertex of every parent held 8,664.
    # A parent with a leaf reads m and R off its leaves, and the pieces of
    # a vertex of degree m + 1 are walked only for a child with |S| = m + 1
    # (5,467 when every vertex of degree at most m + 1 was walked).
    counts, calls = counted_run(K3_N10)
    assert counts == ODD_GIRTH_7
    assert (calls["vertices"], calls["pieces"]) == (8_664, 4_297), calls


def test_refinement_rounds_pinned(counted_run):
    # Every counter of the serial k = 3, n <= 10 run.  No grown node is
    # refined or searched: its generators come from its parent's, so
    # refine_partition makes 5,067 rounds (7,577 when each grown node
    # finished its refinement, 9,735 when it was refined from the unit
    # partition) and 752 canonical searches, where it made 1,499.  All but
    # one are made by _accepted; the one is _child_gens's fallback, on the
    # one child whose Schreier generators would reach its order.  The
    # budget ticks 10,982 attachment sets (13,840 before the leaf bound).
    # enumerate_graphs makes the same calls.
    counts, calls = counted_run(K3_N10)
    assert counts == ODD_GIRTH_7
    assert calls == {"vertices": 8_664, "pieces": 4_297, "ticks": 10_982, "rounds": 5_067,
                     "refine_round": 2_199, "canonical_search": 752,
                     "accepted": 751, "fallback": 1}, calls


@pytest.mark.parametrize("cfg, counts, rounds, searches, ticks", [
    (K3_N10, ODD_GIRTH_7, 2_199, 752, 10_982),
    (SearchConfig(k=3, l=2, n_max=14, prune_rules=ALL_RULES), MINIMAL_OG7, 3_933, 383, 9_830),
], ids=["k3", "k3-all-rules"])
def test_accepted_rounds_pinned(cfg, counts, rounds, searches, ticks, counted_run):
    # The refinement rounds _accepted makes itself, the only rounds search
    # makes.  A tied leaf is decided at round two from its neighbour's
    # round-one cell, so they fell 3,667 -> 2,199 on k = 3, n <= 10 and
    # 9,928 -> 3,933 on the ALL_RULES run to order 14; the canonical
    # searches, those of _child_gens's fallback included, are unchanged.
    # The budget ticks one per attachment set tried; the leaf bound drops
    # singletons that round one rejects, so they fell 13,840 -> 10,982 and
    # 12,813 -> 9,830, and the rounds and searches are unchanged.
    enumerated, calls = counted_run(cfg)
    assert enumerated == counts
    assert (calls["refine_round"], calls["canonical_search"], calls["ticks"]) == (
        rounds, searches, ticks), calls


def brute_automorphisms(g):
    edges = set(g.edges())
    return {
        p for p in itertools.permutations(range(g.order))
        if all((min(p[a], p[b]), max(p[a], p[b])) in edges for a, b in edges)
    }


def brute_orbits(n, autos):
    return [min(p[v] for p in autos) for v in range(n)]


def group_closure(n, gens):
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            hg = tuple(g[h[v]] for v in range(n))
            if hg not in group:
                group.add(hg)
                todo.append(hg)
    return group


def canonical(g):
    return canonical_search(g.rows, g.order, refine_partition(g.rows, [(1 << g.order) - 1]))


class TestAutomorphismOrbits:
    def test_every_class_up_to_6(self):
        for n in range(1, 7):
            for g in brute_classes(n, connected_only=False):
                autos = brute_automorphisms(g)
                _, _, orbit, gens = canonical(g)
                assert set(gens) <= autos
                assert group_closure(n, gens) == autos, g.edges()
                assert orbit == brute_orbits(n, autos)

    def test_random_graphs_order_7_8(self):
        rng = random.Random(7)
        for _ in range(8):
            n = rng.choice([7, 8])
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            autos = brute_automorphisms(g)
            _, _, orbit, gens = canonical(g)
            assert set(gens) <= autos
            assert orbit == brute_orbits(n, autos)

    def test_vertex_transitive_group_orders(self):
        # The pruned tree still yields generators of the whole group.
        for g, order in vertex_transitive_graphs():
            n = g.order
            _, _, orbit, gens = canonical(g)
            edges = set(g.edges())
            for p in gens:
                assert {(min(p[a], p[b]), max(p[a], p[b])) for a, b in edges} == edges
            assert orbit == [0] * n
            if order is not None:
                assert len(group_closure(n, gens)) == order, g.edges()

    def test_attachment_set_orbits(self):
        # Sibling pruning needs the whole group, not only its vertex orbits:
        # compare orbits of vertex sets with the brute-force group's.
        for g in brute_classes(5, connected_only=False):
            autos = brute_automorphisms(g)
            gens = canonical(g)[3]
            for s in range(1, 1 << 5):
                want = {sum(1 << p[v] for v in range(5) if s >> v & 1) for p in autos}
                orbit = _set_orbit(s, gens)
                assert orbit.keys() == want
                # Each member is reached by one step from an earlier one.
                assert orbit[s] is None
                assert all(image(t, g) == m for m, (t, g) in list(orbit.items())[1:])


def image(s, g):
    """The image of the vertex set ``s`` (a bitmask) under ``g``."""
    return sum(1 << g[v] for v in _bits(s))


class TestDerivedGenerators:
    """Generators taken from the parent's group, against the group itself."""

    @pytest.mark.parametrize("cfg, counts, fallbacks", [
        (SearchConfig(k=1, l=1, n_max=7), A001349, {6: 4}),
        (SearchConfig(k=2, l=1, n_max=8), A024607, {}),
        (SearchConfig(k=3, l=2, n_max=10), ODD_GIRTH_7, {9: 1}),
        (SearchConfig(k=3, l=2, n_max=12, prune_rules=ALL_RULES), MINIMAL_OG7, {}),
    ], ids=["k1", "k2", "k3", "k3-all-rules"])
    def test_every_grown_node(self, cfg, counts, fallbacks, monkeypatch):
        # Every node below n_max carries generators of its whole group:
        # the brute-force group up to order 7, beyond it the group of a
        # canonical search from the refined unit partition.  Nodes of order
        # n_max are never grown and carry none unless a search made them.
        searched = Counter()
        real = search.search_graph

        def fallback(g):
            searched[g.order] += 1
            return real(g)

        monkeypatch.setattr(search, "search_graph", fallback)
        nodes = 0
        for _, (rows, _, gens) in _root_stream(cfg, Budget(), cfg.n_max):
            n = len(rows)
            if n == cfg.n_max:
                continue
            g = Graph(rows)
            edges = set(g.edges())
            assert isinstance(gens, list), rows
            for p in gens:
                assert {(min(p[a], p[b]), max(p[a], p[b])) for a, b in edges} == edges, rows
            want = brute_automorphisms(g) if n <= 7 else group_closure(n, canonical(g)[3])
            assert group_closure(n, gens) == want, rows
            nodes += 1
        assert nodes == sum(counts[:cfg.n_max - 1]), nodes
        # The fallback search runs, rarely, on a child whose Schreier
        # generators would reach its order.
        assert searched == fallbacks, searched

    def test_frontier_nodes_carry_gens(self):
        # The split order is below n_max, so a frontier node is grown by
        # _expand_subtree: it carries the gens the unsplit stream gives it.
        cfg = SearchConfig(k=3, l=2, n_max=10)
        unsplit = {rows: gens for _, (rows, _, gens) in _root_stream(cfg, Budget(), 10)
                   if len(rows) == 8}
        frontier = [node for _, node in _root_stream(cfg, Budget(), 8) if len(node[0]) == 8]
        assert len(frontier) == ODD_GIRTH_7[7] == len(unsplit)
        for rows, _, gens in frontier:
            assert isinstance(gens, list) and gens == unsplit[rows], rows


def random_group(rng, n):
    """A few generators on ``n`` points: transpositions, shuffles of a
    random subset, products of disjoint cycles, or none at all."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        p = list(range(n))
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            a, b = rng.sample(range(n), 2)
            p[a], p[b] = b, a
        elif kind == 1:
            sub = rng.sample(range(n), rng.randint(0, n))
            moved = sub[:]
            rng.shuffle(moved)
            for a, b in zip(sub, moved):
                p[a] = b
        else:
            pts = list(range(n))
            rng.shuffle(pts)
            while len(pts) > 1:
                size = rng.randint(1, len(pts))
                cyc, pts = pts[:size], pts[size:]
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    p[a] = b
        gens.append(tuple(p))
    return gens


class TestStabiliser:
    def test_random_groups_and_sets(self):
        # The closure of the Schreier generators is the set stabiliser in
        # the closure of the group, with no identity and no repeat.
        rng = random.Random(26)
        sizes = Counter()
        for _ in range(300):
            n = rng.randint(1, 8)
            gens = random_group(rng, n)
            group = group_closure(n, gens)
            if len(group) > 5040:
                continue
            s = rng.randrange(1 << n)
            orbit = _set_orbit(s, gens)
            assert orbit.keys() == {image(s, g) for g in group}
            stab = _stabiliser(orbit, gens, n)
            assert tuple(range(n)) not in stab and len(set(stab)) == len(stab)
            assert group_closure(n, stab) == {g for g in group if image(s, g) == s}, (n, gens, s)
            sizes[len(orbit) > 1, len(stab) > 0] += 1
        assert min(sizes.values()) > 10 and len(sizes) == 4, sizes


def records_of(report):
    return [(r.n, r.enumerated, r.witness_count, r.witnesses) for r in report.records]


def solver_calls(monkeypatch):
    """(rows, map or None) of every solver call the search makes, as it makes them."""
    calls = []
    solve = search.find_homomorphism

    def recording(g, h):
        m = solve(g, h)
        calls.append((g.rows, m))
        return m

    monkeypatch.setattr(search, "find_homomorphism", recording)
    return calls


def atlas_non_3_colourable(max_n):
    """Per-order counts of connected graphs with a triangle and no proper 3-colouring.

    networkx's atlas lists every graph up to order 7; colourability is
    decided over all 3^n assignments.
    """
    nx = pytest.importorskip("networkx")
    counts = [0] * max_n
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        edges = list(g.edges())
        if n > max_n or not nx.is_connected(g) or not any(nx.triangles(g).values()):
            continue
        if not any(all(c[a] != c[b] for a, b in edges)
                   for c in itertools.product(range(3), repeat=n)):
            counts[n - 1] += 1
    return counts


class TestColourings:
    def test_witnesses_match_atlas(self, tmp_path):
        # k = 1: every graph with a triangle and no 3-colouring is a witness,
        # and so are its descendants; they start with no colouring.
        want = atlas_non_3_colourable(7)
        assert want == [0, 0, 0, 1, 4, 31, 334]
        cfg = SearchConfig(k=1, l=1, n_max=7)
        path = str(tmp_path / "eta.ckpt")
        for report in (eta_search(cfg), eta_search(cfg, jobs=2),
                       eta_search(cfg, checkpoint=path), eta_search(cfg, checkpoint=path)):
            assert [r.witness_count for r in report.records] == want
            assert [r.enumerated for r in report.records] == A001349[:7]

    @pytest.mark.parametrize("k, n_max", [(1, 7), (2, 9), (3, 10)])
    def test_carried_colourings_are_maps(self, k, n_max, monkeypatch):
        # A node's colouring is a map to the target, or None exactly when
        # the graph has none: brute force decides that up to order 6, the
        # solver beyond.  A graph containing one with no map has none
        # either, so a child of such a graph is never solved.
        calls = solver_calls(monkeypatch)
        for l in (1, 2):
            cfg = SearchConfig(k=k, l=l, n_max=n_max)
            target = cycle(2 * l + 1)
            start = len(calls)
            colouring = {}
            for witness, (rows, colour, *_) in _root_stream(cfg, Budget(), n_max, target):
                g = Graph(rows)
                colouring[rows] = colour
                if colour is not None:
                    assert verify_mapping(g, target, VertexMap(len(rows), target.order, colour)), rows
                    assert witness is None
                elif g.order <= 6:
                    assert not brute_has_hom(g, target), rows
                else:
                    assert find_homomorphism(g, target) is None, rows
            for rows, m in calls[start:]:
                parent = tuple(r & ~(1 << len(rows) - 1) for r in rows[:-1])
                assert colouring[parent] is not None, rows
                assert (m is None) == (colouring[rows] is None), rows
            if (k, l) == (1, 1):
                # 371 graphs have no 3-colouring, and only those whose
                # parent has one can reach the solver.
                assert len(calls) - start < 37
        assert calls

    # Cycles keep their ids, the order m of C_m.
    @pytest.mark.parametrize("target", [cycle(3), cycle(5), cycle(7), complete(4), circular_clique(7, 2)],
                             ids=["3", "5", "7", "K4", "K7/2"])
    def test_extension_finds_a_colour_when_one_exists(self, target):
        m = target.order
        for size in (1, 2, 3):
            for colours in itertools.product(range(m), repeat=size):
                fits = [c for c in range(m) if all(target.has_edge(c, x) for x in colours)]
                got = _extend_colouring(colours, (1 << size) - 1, target.rows)
                assert (got is None) == (not fits), colours
                if got is not None:
                    assert got[:size] == colours and got[size] == fits[0]

    def test_solver_calls(self, monkeypatch, tmp_path):
        # Solving every odd-girth-5 class from scratch takes 732 calls.  A
        # frontier node keeps the colouring the stream gave it, in the serial
        # run (split at order 8), a checkpoint and its resume, so none of
        # them solves more.
        calls = solver_calls(monkeypatch)
        cfg = SearchConfig(k=2, l=1, n_max=9)
        report = eta_search(cfg)
        assert report.eta_lower_bound_established == 10
        assert len(calls) < 732 / 100
        path = tmp_path / "eta.ckpt"
        for run in (lambda: eta_search(cfg, checkpoint=str(path)),
                    lambda: eta_search(cfg, checkpoint=str(path))):
            calls.clear()
            assert records_of(run()) == records_of(report)
            assert len(calls) < 732 / 100
        assert path.exists()


class Killed(Exception):
    pass


class TestEtaDriver:
    CFG = SearchConfig(k=2, l=1, n_max=9)

    def test_split_and_resume_agree(self, tmp_path):
        serial = eta_search(self.CFG)
        assert not serial.truncated
        assert [r.enumerated for r in serial.records] == A024607[:9]
        assert serial.eta_lower_bound_established == 10
        want = records_of(serial)
        assert records_of(eta_search(self.CFG, jobs=2)) == want
        assert records_of(eta_search(self.CFG, jobs=2, budget=Budget(seconds=600))) == want
        path = tmp_path / "eta.ckpt"
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want
        assert path.exists()
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want

    def test_budget_counts_every_tick(self, tmp_path):
        # Workers tick pickled copies of the budget; their ticks must reach
        # the caller's, and the serial split must not count them twice.
        def nodes(cfg, **kw):
            budget = Budget()
            eta_search(cfg, budget=budget, **kw)
            return budget.nodes

        serial = nodes(self.CFG)
        assert serial > 0
        assert nodes(self.CFG, checkpoint=str(tmp_path / "eta.ckpt")) == serial
        assert nodes(self.CFG, jobs=2) == serial

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused(self, jobs, monkeypatch):
        with pytest.raises(ValueError, match="jobs"):
            eta_search(self.CFG, jobs=jobs)
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", "2", "--l", "1", "--max-n", "9", "--jobs", str(jobs)])
        assert exc.value.code == EXIT_USAGE

    def grown_roots(self, monkeypatch, die_after=None):
        """Record the root of every subtree the serial run grows; with
        ``die_after``, raise ``Killed`` in place of growing one more."""
        grown = []
        real = search._expand_subtree

        def expand(args):
            if len(grown) == die_after:
                raise Killed
            grown.append(args[0][0])
            return real(args)

        monkeypatch.setattr(search, "_expand_subtree", expand)
        return grown

    def test_killed_run_resumes_where_it_stopped(self, tmp_path, monkeypatch):
        want = records_of(eta_search(self.CFG))
        frontier = A024607[7]  # the subtree roots, at the split order 8
        path = tmp_path / "eta.ckpt"
        first = self.grown_roots(monkeypatch, die_after=3)
        with pytest.raises(Killed):
            eta_search(self.CFG, checkpoint=str(path))
        killed = path.read_bytes()
        assert len(killed.splitlines()) == 1 + 3  # the header and three subtrees
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes(killed)

        monkeypatch.undo()
        rest = self.grown_roots(monkeypatch)
        serial = Budget()
        assert records_of(eta_search(self.CFG, checkpoint=str(path), budget=serial)) == want
        assert len(rest) == frontier - 3
        assert not set(first) & set(rest)
        assert len(path.read_bytes().splitlines()) == 1 + frontier

        # Workers grow the same subtrees: the same ticks reach the caller.
        monkeypatch.undo()
        jobs = Budget()
        assert records_of(eta_search(self.CFG, jobs=2, checkpoint=str(copy), budget=jobs)) == want
        assert jobs.nodes == serial.nodes
        assert copy.read_bytes() == path.read_bytes()

    def test_line_cut_mid_write_grows_again(self, tmp_path, monkeypatch):
        want = records_of(eta_search(self.CFG))
        path = tmp_path / "eta.ckpt"
        eta_search(self.CFG, checkpoint=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        cut = lines[4]
        path.write_bytes(b"".join(lines[:4]) + cut[:len(cut) // 2])
        grown = self.grown_roots(monkeypatch)
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want
        assert len(grown) == A024607[7] - 3
        assert grown[0] == tuple(json.loads(cut)[0])
        assert path.read_bytes().splitlines(keepends=True) == lines

    @pytest.mark.parametrize("kind", ["v2", "not a checkpoint", "other configuration"])
    def test_foreign_file_is_refused(self, kind, tmp_path, monkeypatch, capsys):
        path = tmp_path / "eta.ckpt"
        if kind == "v2":
            head = {"cfg": self.CFG.config_hash(), "counts": {}, "witnesses": {}}
            path.write_text(f"#oddhom-eta-checkpoint v2 {json.dumps(head)}\n")
        elif kind == "not a checkpoint":
            path.write_text("G?bF`w\n")
        else:
            eta_search(SearchConfig(k=2, l=1, n_max=8), checkpoint=str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a v3 eta checkpoint of this search configuration"):
            eta_search(self.CFG, checkpoint=str(path))
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", "2", "--l", "1", "--max-n", "9",
                  "--checkpoint", str(path)])
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert "eta(" not in out.out + out.err
        assert path.read_bytes() == before

    def test_empty_file_is_a_new_checkpoint(self, tmp_path, monkeypatch, capsys):
        # A file created and left empty, as by mktemp or by a run killed
        # before its header was written, starts a new log.
        want = records_of(eta_search(self.CFG))
        path = tmp_path / "eta.ckpt"
        path.write_bytes(b"")
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        assert main(["search-eta", "--k", "2", "--l", "1", "--max-n", "9",
                     "--checkpoint", str(path)]) == EXIT_OK
        assert "eta(2,1) >= 10" in capsys.readouterr().err
        lines = path.read_bytes().splitlines()
        assert lines[0].decode() == f"{search._LOG_MAGIC} {self.CFG.config_hash()}"
        assert len(lines) == 1 + A024607[7]
        grown = self.grown_roots(monkeypatch)
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want
        assert grown == []

    def test_truncated_report_claims_no_bound(self):
        report = eta_search(SearchConfig(k=2, l=1, n_max=10), budget=Budget(seconds=0))
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_node_budget_reaches_serial_subtrees(self):
        # The tree is split at order 8, and growing it that far ticks fewer
        # nodes than the 1,024 after which the budget first reads the clock,
        # so a spent deadline is seen only by the subtrees.
        frontier = Budget()
        for _ in enumerate_graphs(SearchConfig(k=2, l=1, n_max=8), frontier):
            pass
        assert frontier.nodes < 1024
        report = eta_search(SearchConfig(k=2, l=1, n_max=10), budget=Budget(seconds=0))
        assert [r.enumerated for r in report.records[:8]] == A024607[:8]
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_deadline_reaches_workers(self):
        # n_max = 11 takes seconds with two workers, many times the deadline.
        report = eta_search(SearchConfig(k=2, l=1, n_max=11), jobs=2, budget=Budget(seconds=0.5))
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_cli_budget_under_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("ODDHOM_BUDGET_SECONDS", "0.2")
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "11", "--jobs", "2"])
        assert code == EXIT_BUDGET
        assert "eta(2,1) >=" not in capsys.readouterr().err

    def test_cli_truncated_prints_no_bound(self, monkeypatch, capsys):
        monkeypatch.setenv("ODDHOM_BUDGET_SECONDS", "0.001")
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "10"])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET
        assert "BUDGET EXCEEDED" in err
        assert "eta(2,1) >=" not in err

    def test_cli_complete_prints_bound(self, monkeypatch, capsys):
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "7"])
        assert code == EXIT_OK
        assert "eta(2,1) >= 8" in capsys.readouterr().err

    def test_minimal_counterexample_search_bound_15(self, monkeypatch):
        calls = solver_calls(monkeypatch)
        report = eta_search(SearchConfig(k=3, l=2, n_max=14, prune_rules=ALL_RULES))
        # Every graph of this stream maps to C5, and each carries its map:
        # the solver runs only on the 40 of its 2,361 graphs whose parent's
        # map leaves the new vertex no colour.
        assert len(calls) <= 40
        assert not report.truncated
        assert report.minimal_counterexample_mode
        assert [r.enumerated for r in report.records] == MINIMAL_OG7
        assert report.first_witness_order is None
        assert report.eta_lower_bound_established == 15

    @pytest.mark.slow
    def test_eta_2_1_is_grotzsch(self):
        report = eta_search(SearchConfig(k=2, l=1, n_max=11), jobs=2)
        assert not report.truncated
        assert report.first_witness_order == 11
        assert report.eta_lower_bound_established == 11
        assert [r.enumerated for r in report.records] == A024607 + [90842]
        witnesses = report.witnesses_at(11)
        assert len(witnesses) == 1
        assert canonical_bytes(from_graph6(witnesses[0])) == canonical_bytes(generalized_mycielski(2))
        assert_critical(from_graph6(witnesses[0]), 3)


class TestFourKCells:
    """The small 4k cells settled by exhaustion: eta(k, l) = 4k, and the
    designated odd-K4 that proves the upper bound is among the witnesses."""

    @staticmethod
    def check(k, l, witness_count, jobs=1):
        report = eta_search(SearchConfig(k=k, l=l, n_max=4 * k), jobs=jobs)
        assert not report.truncated
        assert report.first_witness_order == report.eta_lower_bound_established == 4 * k
        witnesses = report.witnesses_at(4 * k)
        found = {canonical_bytes(from_graph6(w)) for w in witnesses}
        assert len(witnesses) == len(found) == witness_count
        triple, p = designated_odd_k4(k)
        assert p == l
        assert canonical_bytes(odd_k4(*triple)) in found
        for w in witnesses:
            assert_critical(from_graph6(w), 2 * l + 1)

    def test_eta_2_2_is_8(self):
        self.check(2, 2, 4)

    @pytest.mark.slow
    def test_eta_3_3_is_12(self):
        self.check(3, 3, 12, jobs=2)


@pytest.mark.parametrize("name, m", [
    ("grotzsch", 3),  # eta(2,1) = 11
    ("fig2a", 5),  # eta(3,2) = 15
    ("fig2b", 5),
    ("fig2c", 5),
])
def test_paper_witnesses_are_critical(name, m):
    assert_critical(generalized_mycielski(2) if name == "grotzsch" else fixture(name), m)


class TestConflictRuleChecks:
    """The 4- and 6-cycle rules, checked through their growth conflicts,
    against networkx's enumeration of the short cycles."""

    @staticmethod
    def assert_match(g):
        nx = pytest.importorskip("networkx")
        lengths = {len(c) for c in nx.simple_cycles(nx.Graph(list(g.edges())), length_bound=6)}
        assert claim_filter(g, RULE_NO_4_CYCLE) == (4 not in lengths), g.rows
        assert claim_filter(g, RULE_NO_6_CYCLE) == (6 not in lengths), g.rows

    def test_atlas(self):
        for g in atlas():
            self.assert_match(g)

    def test_random_graphs(self, rng):
        graphs = [random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5)) for _ in range(300)]
        assert any(claim_filter(g, RULE_NO_6_CYCLE) and not claim_filter(g, RULE_NO_4_CYCLE)
                   for g in graphs)
        for g in graphs:
            self.assert_match(g)


class TestDegreeCapCheck:
    """The degree-3 cap, which growth checks on each child, against
    networkx's distances: no degree above 3, and at most 4 vertices at
    distance exactly 2 from each vertex of degree 3."""

    @staticmethod
    def cap_holds(g):
        nx = pytest.importorskip("networkx")
        G = nx.Graph(list(g.edges()))
        G.add_nodes_from(range(g.order))
        for v in range(g.order):
            dist = nx.single_source_shortest_path_length(G, v, cutoff=2)
            d = G.degree(v)
            if d > 3 or d == 3 and sum(1 for x in dist.values() if x == 2) > 4:
                return False
        return True

    @classmethod
    def assert_match(cls, graphs):
        outcomes = Counter()
        for g in graphs:
            got = claim_filter(g, RULE_MAX_DEGREE_3_SECONDNBHD)
            assert got == cls.cap_holds(g), g.rows
            outcomes[got] += 1
        assert outcomes[True] and outcomes[False], outcomes

    def test_atlas(self):
        self.assert_match(atlas())

    def test_random_graphs(self):
        rng = random.Random(11)
        self.assert_match([random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
                           for _ in range(300)])


class TestFiveWalkCheck:
    """The 5-walk rule against the fifth power of the adjacency matrix:
    every two distinct vertices are joined by a walk of length exactly 5
    iff every off-diagonal entry of A^5 is positive."""

    @staticmethod
    def assert_match(graphs):
        outcomes = Counter()
        for g in graphs:
            a = np.zeros((g.order, g.order), dtype=np.int64)
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1
            a5 = np.linalg.matrix_power(a, 5)
            want = bool(np.all(a5[~np.eye(g.order, dtype=bool)] > 0))
            got = claim_filter(g, RULE_FIVE_WALK)
            assert got == want, g.rows
            outcomes[got] += 1
        assert outcomes[True] and outcomes[False], outcomes

    def test_atlas(self):
        self.assert_match(atlas())

    def test_random_graphs(self, rng):
        self.assert_match([random_graph(rng, rng.randint(2, 14), rng.uniform(0.1, 0.7))
                           for _ in range(300)]
                          + [generalized_mycielski(2), fixture("fig2a"), cycle(11)])


class TestRuleScope:
    @pytest.mark.parametrize("k, l, n_max, rules", [
        (2, 1, 11, ALL_RULES),  # the Grötzsch graph has 4-cycles
        (3, 2, 15, ALL_RULES),  # fig2a has 4- and 6-cycles
        (3, 2, 16, ORDER15_VALID_RULES),
        (4, 2, 12, ORDER15_VALID_RULES),
        (3, 3, 12, frozenset({RULE_NO_4_CYCLE})),
    ])
    def test_out_of_scope_rejected(self, k, l, n_max, rules):
        with pytest.raises(ValueError, match="outside their scope"):
            SearchConfig(k=k, l=l, n_max=n_max, prune_rules=rules)

    @pytest.mark.parametrize("n_max, rules", [
        (14, ALL_RULES), (11, ALL_RULES), (15, ORDER15_VALID_RULES), (3, ALL_RULES),
    ])
    def test_in_scope_accepted(self, n_max, rules):
        assert SearchConfig(k=3, l=2, n_max=n_max, prune_rules=rules).prune_rules == rules

    def test_connected_holds_everywhere(self):
        cfg = SearchConfig(k=5, l=1, n_max=40, prune_rules={RULE_CONNECTED})
        assert cfg.prune_rules == {RULE_CONNECTED}

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown"):
            SearchConfig(k=3, l=2, n_max=10, prune_rules={"NO_SUCH_RULE"})
        with pytest.raises(ValueError, match="unknown"):
            claim_filter(cycle(7), "NO_SUCH_RULE")


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(to_graph6(g) + "\n")
    return str(path)


class TestCliExitCodes:
    def test_hom_found(self, tmp_path, capsys):
        code = main(["hom", write_graph(tmp_path, "c5", cycle(5)),
                     write_graph(tmp_path, "k3", complete(3))])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() != "NONE"

    def test_hom_none(self, tmp_path, capsys):
        code = main(["hom", write_graph(tmp_path, "k3", complete(3)),
                     write_graph(tmp_path, "c5", cycle(5))])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out.strip() == "NONE"

    def test_no_graph6_line(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.write_text("\n  \n")
        with pytest.raises(SystemExit) as exc:
            main(["odd-girth", str(empty)])
        assert exc.value.code == EXIT_USAGE
        assert "no graph6 line" in capsys.readouterr().err

    @pytest.mark.parametrize("k, l, n_max", [(2, 1, 11), (3, 2, 15)])
    def test_assume_minimal_out_of_scope(self, k, l, n_max, capsys, monkeypatch):
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", str(k), "--l", str(l), "--max-n", str(n_max),
                  "--assume-minimal"])
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert "eta(" not in out.out + out.err
        assert "outside their scope" in out.err
