import gc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from oddhom import (
    Graph,
    VertexMap,
    are_isomorphic,
    chromatic_number,
    circular_chromatic_number,
    circular_clique,
    complete,
    compute_core,
    cycle,
    find_homomorphism,
    fixture,
    from_graph6,
    generalized_mycielski,
    is_connected,
    is_core,
    odd_girth,
    odd_k4,
    path,
    to_graph6,
    verify_mapping,
)
from oddhom import hom
from oddhom.canon import canonical_bytes
from oddhom.graphs import _bits, _neighbors_of_set, delete_vertex
from oddhom.hom import _circulant
from oddhom.search import _cycle_colouring

from conftest import (
    atlas,
    brute_classes,
    brute_has_hom,
    corpus,
    hom_checked,
    random_graph,
    vertex_transitive_graphs,
)

# Circulant targets, so both pins fire on each.
PIN_TARGETS = ([cycle(3), cycle(5), cycle(7), complete(4)]
               + [circular_clique(p, q) for p, q in [(7, 2), (7, 3), (8, 3), (9, 4), (12, 5)]])


class TestVerifyMapping:
    def test_identity_on_c5(self):
        m = VertexMap(5, 5, tuple(range(5)))
        assert verify_mapping(cycle(5), cycle(5), m)

    def test_constant_map_from_k2_fails(self):
        m = VertexMap(2, 3, (0, 0))
        assert not verify_mapping(complete(2), complete(3), m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_mapping(cycle(5), cycle(7), VertexMap(5, 5, (0,) * 5))

    def test_case1a_figure_labelling(self):
        # Hand-transcribed 5-cycle colouring of the (2,2,3) subdivision plus
        # its two pendants.
        img = (2, 0, 2, 0, 1, 1, 3, 1, 3, 4, 3, 4, 4, 3)
        assert verify_mapping(fixture("case1a"), cycle(5), VertexMap(14, 5, img))


class TestSolver:
    def test_c12_5_maps_to_c5(self):
        assert hom_checked(circular_clique(12, 5), cycle(5)) is not None

    def test_odd_k4_223_to_c7_none(self):
        assert hom_checked(odd_k4(2, 2, 3), cycle(7)) is None

    def test_odd_k4_223_to_c5_some(self):
        assert hom_checked(odd_k4(2, 2, 3), cycle(5)) is not None

    def test_grotzsch_not_3_colourable(self):
        assert hom_checked(generalized_mycielski(2), complete(3)) is None

    def test_matches_brute_force_up_to_5(self):
        sources = []
        targets = []
        for n in range(1, 6):
            classes = brute_classes(n, connected_only=False)
            sources.extend(classes)
            targets.extend(classes)
        checked = 0
        for g in sources:
            for h in targets:
                assert (hom_checked(g, h) is not None) == brute_has_hom(g, h)
                checked += 1
        assert checked == len(sources) * len(targets)

    def test_transitivity_spot_check(self, rng):
        pool = [random_graph(rng, rng.randint(2, 6), rng.random()) for _ in range(25)]
        pool += [cycle(5), cycle(7), complete(3), odd_k4(1, 2, 2)]
        hits = 0
        for _ in range(300):
            g, h, j = (rng.choice(pool) for _ in range(3))
            if hom_checked(g, h) is not None and hom_checked(h, j) is not None:
                assert hom_checked(g, j) is not None
                hits += 1
        assert hits > 10

    def test_disconnected_source(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert hom_checked(g, complete(3)) is not None
        assert hom_checked(g, cycle(5)) is None


class TestCirculantPin:
    """The solver pins its first variable exactly on circulant-labelled targets."""

    def test_constructions_are_circulant(self):
        # The circular cliques are the rotation-invariance grid of test_constructions.
        graphs = ([cycle(n) for n in range(3, 13)] + [complete(n) for n in range(1, 7)]
                  + [circular_clique(p, q) for p, q in [(5, 2), (7, 3), (12, 5), (8, 3)]])
        for g in graphs:
            assert _circulant(g), g
            assert _circulant(from_graph6(to_graph6(g))), g

    def test_other_labellings_are_not(self):
        swap = {0: 2, 2: 0}
        c7_swapped = Graph.from_edges(7, [(swap.get(a, a), swap.get(b, b))
                                          for a, b in cycle(7).edges()])
        k33, cube, petersen = (g for g, _ in vertex_transitive_graphs()[-3:])
        for g in (path(4), fixture("fig2a"), c7_swapped, k33, cube, petersen):
            assert not _circulant(g), g

    def test_pinned_and_unpinned_targets_match_brute_force(self):
        sources = [g for n in range(1, 5) for g in brute_classes(n)]
        targets = [h for h, _ in vertex_transitive_graphs()]
        assert any(map(_circulant, targets)) and not all(map(_circulant, targets))
        for h in targets:
            for g in sources:
                assert (hom_checked(g, h) is not None) == brute_has_hom(g, h), (g, h)


def solve_unpinned(g, h):
    """The same solver with both symmetry pins off.  Unlike a relabelled
    copy of the target, this reaches K3 and K4 too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hom, "_circulant", lambda _: False)
        return hom_checked(g, h)


def sparse_graph(rng, n, og):
    """Random edges, each kept only if the odd girth stays at least ``og``."""
    rows = [0] * n
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        g = Graph.from_edges(n, [(a, b)] + list(Graph(rows).edges()))
        if odd_girth(g) >= og:
            rows = list(g.rows)
    return Graph(rows)


class TestReflectionPin:
    """Pinning the second variable to c <= -c mod |h| loses no solution."""

    def test_same_decisions_as_unpinned_solver(self, rng):
        # Mycielski level 4 is left out: its map to C(7, 2) runs for
        # minutes even with the pins.
        sources = [g for g in corpus() if g != generalized_mycielski(4)]
        sources += [random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6)) for _ in range(60)]
        sources += [sparse_graph(rng, rng.randint(5, 12), og) for og in (5, 7) for _ in range(15)]
        relabelled = 0
        for h in PIN_TARGETS:
            assert _circulant(h)
            # Swapping 0 and 2 gives a copy no pin fires on, except for K3
            # and K4, which every labelling leaves circulant.
            swap = {0: 2, 2: 0}
            copy = Graph.from_edges(h.order, [(swap.get(a, a), swap.get(b, b)) for a, b in h.edges()])
            relabelled += not _circulant(copy)
            for g in sources:
                found = hom_checked(g, h) is not None
                assert found == (solve_unpinned(g, h) is not None), (g, h)
                if not _circulant(copy):
                    assert found == (hom_checked(g, copy) is not None), (g, h)
        assert relabelled == len(PIN_TARGETS) - 2

    def test_matches_brute_force_up_to_6(self, rng):
        small = [h for h in PIN_TARGETS if h.order <= 7]
        sources = [g for n in range(1, 6) for g in brute_classes(n)]
        for h in small:
            for g in sources:
                assert (hom_checked(g, h) is not None) == brute_has_hom(g, h), (g, h)
        six = [random_graph(rng, 6, rng.uniform(0.2, 0.6)) for _ in range(25)]
        for h in (cycle(3), cycle(5), complete(4)):
            for g in six:
                assert (hom_checked(g, h) is not None) == brute_has_hom(g, h), (g, h)

    def test_agrees_with_independent_refuter_up_to_16(self, rng):
        sources = [g for g in corpus() if g.order <= 16]
        sources += [random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.4)) for _ in range(40)]
        sources += [sparse_graph(rng, rng.randint(8, 16), og) for og in (5, 7) for _ in range(25)]
        refuted = 0
        for m in (3, 5, 7):
            h = cycle(m)
            for g in sources:
                colour = _cycle_colouring(g.rows, m)
                if colour is not None:
                    assert verify_mapping(g, h, VertexMap(g.order, m, tuple(colour)))
                refuted += colour is None
                assert (colour is None) == (hom_checked(g, h) is None), (g, m)
        assert refuted > 50


def _bfs_order(g):
    """Descending degree, ties broken by BFS order from the highest-degree vertex."""
    n = g.order
    deg = g.degrees()
    bfs_idx = [0] * n
    seen = 0
    idx = 0
    for s in sorted(range(n), key=lambda v: (-deg[v], v)):
        if seen >> s & 1:
            continue
        frontier = [s]
        seen |= 1 << s
        while frontier:
            nxt = []
            for v in frontier:
                bfs_idx[v] = idx
                idx += 1
                for u in _bits(g.rows[v]):
                    if not seen >> u & 1:
                        seen |= 1 << u
                        nxt.append(u)
            frontier = nxt
    return sorted(range(n), key=lambda v: (-deg[v], bfs_idx[v]))


def static_find_homomorphism(g, h):
    """The solver as it was before conflict-weighted branching: the same
    propagation and pins, but every variable taken in ``_bfs_order``."""
    n, hn = g.order, h.order
    order = _bfs_order(g)
    nbr = [tuple(_bits(r)) for r in g.rows]
    support_cache = {}

    def supports(mask):
        s = support_cache.get(mask)
        if s is None:
            s = support_cache[mask] = _neighbors_of_set(h.rows, mask)
        return s

    def propagate(doms, dirty):
        while dirty:
            u = dirty.pop()
            su = supports(doms[u])
            for w in nbr[u]:
                old = doms[w]
                new = old & su
                if new != old:
                    if not new:
                        return False
                    doms[w] = new
                    dirty.add(w)
        return True

    doms = [(1 << hn) - 1] * n
    if n >= 1 and _circulant(h):
        doms[order[0]] = 1
        if n >= 2:
            doms[order[1]] = sum(1 << c for c in range(hn) if c <= -c % hn)
    if not propagate(doms, set(range(n))):
        return None

    def search(i, doms):
        if i == n:
            return doms
        v = order[i]
        m = doms[v]
        while m:
            bit = m & -m
            m ^= bit
            nd = list(doms)
            nd[v] = bit
            if propagate(nd, {v}):
                res = search(i + 1, nd)
                if res is not None:
                    return res
        return None

    res = search(0, doms)
    return None if res is None else VertexMap(n, hn, tuple(d.bit_length() - 1 for d in res))


def swapped_0_2(h):
    """A copy of h with vertices 0 and 2 exchanged."""
    swap = {0: 2, 2: 0}
    return Graph.from_edges(h.order, [(swap.get(a, a), swap.get(b, b)) for a, b in h.edges()])


class TestConflictWeightedBranching:
    """Branching on least |dom| / weight decides exactly what the static order did."""

    def assert_same_decisions(self, sources, targets, skip=()):
        for g in sources:
            for h in targets:
                if (g, h) not in skip:
                    found = hom_checked(g, h) is not None
                    assert found == (static_find_homomorphism(g, h) is not None), (g, h)

    def test_corpus_on_pin_targets_and_their_copies(self):
        # Mycielski level 4 to C(7, 2) finishes under neither order; see
        # TestReflectionPin.
        targets = PIN_TARGETS + [swapped_0_2(h) for h in PIN_TARGETS]
        m4, c72 = generalized_mycielski(4), circular_clique(7, 2)
        self.assert_same_decisions(corpus(), targets, skip={(m4, c72), (m4, swapped_0_2(c72))})

    def test_small_sources_on_pin_targets_and_their_copies(self, rng):
        sources = [random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6)) for _ in range(60)]
        sources += [sparse_graph(rng, rng.randint(5, 12), og) for og in (5, 7) for _ in range(15)]
        self.assert_same_decisions(sources, PIN_TARGETS + [swapped_0_2(h) for h in PIN_TARGETS])

    def test_vertex_deleted_targets(self, rng):
        small = [random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.6)) for _ in range(40)]
        small += [sparse_graph(rng, rng.randint(5, 12), og) for og in (5, 7) for _ in range(10)]
        found = 0
        for g in corpus() + small:
            for v in range(g.order):
                h = delete_vertex(g, v)
                # Each source g itself, as is_core asks, and two small others.
                for s in [g] + rng.sample(small, 2):
                    m = hom_checked(s, h)
                    assert (m is not None) == (static_find_homomorphism(s, h) is not None), (s, h)
                    found += m is not None
        assert found > 100

    def test_a_solve_leaves_no_reference_cycle(self):
        g = generalized_mycielski(4)
        gc.collect()
        gc.disable()
        try:
            assert find_homomorphism(g, complete(4)) is not None
            assert gc.collect() == 0
            assert find_homomorphism(g, complete(3)) is None
            assert gc.collect() == 0
        finally:
            gc.enable()


def all_vertex_scan(g):
    """Core test by refuting every vertex-deleted subgraph, orbits aside."""
    return g.order == 1 or all(find_homomorphism(g, delete_vertex(g, v)) is None
                               for v in range(g.order))


def endomorphism_scan(g):
    """Core by definition: every endomorphism is onto.  Backtracks over all
    endomorphisms, vertex by vertex, and stops at the first one that is not."""
    n = g.order
    image = [None] * n

    def grow(i):
        if i == n:
            return len(set(image)) < n
        for c in range(n):
            if all(g.has_edge(image[u], c) for u in range(i) if g.has_edge(u, i)):
                image[i] = c
                if grow(i + 1):
                    return True
        return False

    return not grow(0)


def plain_compute_core(g):
    """Core by deleting, each round, the highest vertex v with g -> g - v,
    trying every vertex."""
    cur = g
    changed = True
    while changed and cur.order > 1:
        changed = False
        for v in range(cur.order - 1, -1, -1):
            smaller = delete_vertex(cur, v)
            if find_homomorphism(cur, smaller) is not None:
                cur = smaller
                changed = True
                break
    return cur


class TestCoreOrbits:
    """One refutation per vertex orbit decides exactly what the full scan does."""

    def test_atlas_matches_all_vertex_scan(self):
        graphs = atlas()
        assert len(graphs) == 1252
        cores = [g for g in graphs if is_core(g)]
        assert cores == [g for g in graphs if all_vertex_scan(g)]
        assert len(cores) == 18

    def test_atlas_below_7_matches_endomorphisms(self):
        for g in atlas():
            if g.order < 7:
                assert is_core(g) == endomorphism_scan(g), g

    def test_symmetric_graphs_and_corpus(self):
        graphs = [g for g, _ in vertex_transitive_graphs()] + corpus()
        assert [is_core(g) for g in graphs] == [all_vertex_scan(g) for g in graphs]

    def test_compute_core_matches_plain_loop(self, rng):
        graphs = [g for g in corpus() if g.order <= 22]
        graphs += [random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.7)) for _ in range(60)]
        graphs += [g for g, _ in vertex_transitive_graphs()]
        for g in graphs:
            assert compute_core(g) == plain_compute_core(g), g

    def test_compute_core_searches_only_after_a_failure(self, monkeypatch):
        # C5 with a 12-vertex tail numbered outwards: each of 12 rounds deletes
        # the tail's end, its highest vertex, at once; only the last round,
        # on C5, has a failure and so needs the orbits.
        g = Graph.from_edges(17, list(cycle(5).edges()) + [(v, v + 1) for v in range(4, 16)])
        calls = []
        search_graph = hom.search_graph
        monkeypatch.setattr(hom, "search_graph", lambda h: calls.append(h.order) or search_graph(h))
        assert compute_core(g) == cycle(5)
        assert calls == [5]


class TestCores:
    def test_odd_cycles_are_cores(self):
        for n in (3, 5, 7, 9):
            assert is_core(cycle(n))

    def test_even_cycle_is_not(self):
        assert not is_core(cycle(6))

    def test_c5_with_pendant_path(self):
        g = Graph.from_edges(7, list(cycle(5).edges()) + [(0, 5), (5, 6)])
        core = compute_core(g)
        assert are_isomorphic(core, cycle(5))

    def test_grotzsch_is_core(self):
        # Independent oracle: the graph is not 3-colourable but every
        # vertex-deleted subgraph is, checked by raw enumeration of all
        # 3-labellings; a homomorphism into a proper subgraph would compose
        # to a 3-colouring of the whole graph.
        g = generalized_mycielski(2)

        def brute_3col(h):
            for img in product(range(3), repeat=h.order):
                if all(img[a] != img[b] for a, b in h.edges()):
                    return True
            return False

        assert not brute_3col(g)
        from oddhom.graphs import delete_vertex
        for v in range(g.order):
            assert brute_3col(delete_vertex(g, v))
        assert is_core(g)

    def test_core_idempotent(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            c1 = compute_core(g)
            c2 = compute_core(c1)
            assert canonical_bytes(c1) == canonical_bytes(c2)

    def test_core_unique_up_to_iso(self, rng):
        # Relabelling the input must not change the core's isomorphism type.
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            p = list(range(g.order))
            rng.shuffle(p)
            h = Graph.from_edges(g.order, [(p[a], p[b]) for a, b in g.edges()])
            assert canonical_bytes(compute_core(g)) == canonical_bytes(compute_core(h))


def brute_chromatic_number(g):
    """Least number of independent sets covering the vertices, by dynamic
    programming over all vertex subsets."""
    rows = g.rows
    full = (1 << g.order) - 1
    independent = [True] * (full + 1)
    cover = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        independent[s] = independent[s ^ low] and not rows[low.bit_length() - 1] & s
        # Some colour class holds the lowest vertex of s.
        rest, best, t = s ^ low, g.order, s ^ low
        while True:
            if independent[t | low]:
                best = min(best, 1 + cover[rest & ~t])
            if not t:
                break
            t = (t - 1) & rest
        cover[s] = best
    return cover[full]


class TestChromatic:
    def test_atlas_matches_brute_force(self):
        kinds = set()
        for g in atlas():
            chi = brute_chromatic_number(g)
            assert chromatic_number(g) == chi, g.rows
            if chi == 2:
                assert circular_chromatic_number(g) == 2, g.rows
            kinds.add((min(chi, 3), is_connected(g)))
        # Edgeless, bipartite and non-bipartite inputs, each connected and not.
        assert kinds == {(c, conn) for c in (1, 2, 3) for conn in (False, True)}

    def test_grotzsch(self):
        assert chromatic_number(generalized_mycielski(2)) == 4

    def test_m3(self):
        assert chromatic_number(generalized_mycielski(3)) == 4

    def test_even_cycle(self):
        assert chromatic_number(cycle(6)) == 2

    def test_edgeless_and_complete(self):
        assert chromatic_number(Graph.from_edges(3, [])) == 1
        assert chromatic_number(complete(5)) == 5


class TestCircularChromatic:
    def test_odd_cycles(self):
        for l in range(1, 7):
            assert circular_chromatic_number(cycle(2 * l + 1)) == Fraction(2 * l + 1, l)

    def test_complete(self):
        for p in range(2, 7):
            assert circular_chromatic_number(complete(p)) == Fraction(p)

    def test_odd_k4_122(self):
        value = circular_chromatic_number(odd_k4(1, 2, 2))
        assert Fraction(5, 2) < value <= 3
        assert value == Fraction(8, 3)  # pinned regression value

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            circular_chromatic_number(Graph.from_edges(2, []))

    def test_bipartite(self):
        assert circular_chromatic_number(path(4)) == Fraction(2)

    def test_bounded_by_chromatic_number(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            if g.edge_count() == 0:
                continue
            chi_c = circular_chromatic_number(g)
            chi = chromatic_number(g)
            assert chi - 1 < chi_c <= chi


def coprime_scan_circular_chromatic_number(g):
    """The least p/q, scanned over coprime pairs (p, q) with p <= n and
    p >= 2q: the reference of ``circular_chromatic_number``."""
    fracs = sorted((Fraction(p, q), p, q) for p in range(2, g.order + 1)
                   for q in range(1, p // 2 + 1) if gcd(p, q) == 1)
    for frac, p, q in fracs:
        if find_homomorphism(g, circular_clique(p, q)) is not None:
            return frac


class TestCircularChromaticReference:
    def test_atlas(self):
        graphs = [g for g in atlas() if g.edge_count()]
        assert len(graphs) == 1_245
        for g in graphs:
            assert circular_chromatic_number(g) == coprime_scan_circular_chromatic_number(g), g.rows

    def test_random_graphs_up_to_order_9(self, rng):
        graphs = [random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8)) for _ in range(60)]
        graphs = [g for g in graphs if g.edge_count()]
        assert len(graphs) > 50
        for g in graphs:
            assert circular_chromatic_number(g) == coprime_scan_circular_chromatic_number(g), g.rows


def circular_clique_hom_criterion_check(p: int, q: int, r: int, s: int) -> bool:
    """Self-test of the fraction criterion: C(p,q) -> C(r,s) iff p/q <= r/s.

    Runs the solver on the actual circular cliques and reports whether its
    decision agrees with the fraction comparison.
    """
    if gcd(p, q) != 1 or gcd(r, s) != 1 or p < 2 * q or r < 2 * s:
        raise ValueError("parameters must be coprime with p >= 2q and r >= 2s")
    found = find_homomorphism(circular_clique(p, q), circular_clique(r, s)) is not None
    return found == (Fraction(p, q) <= Fraction(r, s))


class TestCircularCliqueCriterion:
    def test_examples(self):
        assert circular_clique_hom_criterion_check(12, 5, 5, 2)
        assert circular_clique_hom_criterion_check(5, 2, 12, 5)
        assert circular_clique_hom_criterion_check(7, 3, 7, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            circular_clique_hom_criterion_check(4, 2, 5, 2)

    def test_special_cliques(self):
        assert are_isomorphic(circular_clique(5, 2), cycle(5))
        assert are_isomorphic(circular_clique(4, 1), complete(4))
        cc = circular_clique(12, 5)
        assert cc.order == 12 and set(cc.degrees()) == {3}
