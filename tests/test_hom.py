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
    is_core,
    odd_k4,
    path,
    to_graph6,
    verify_mapping,
)
from oddhom.canon import canonical_bytes
from oddhom.hom import _circulant

from conftest import brute_classes, brute_has_hom, hom_checked, random_graph, vertex_transitive_graphs


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


class TestChromatic:
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
