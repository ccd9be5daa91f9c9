import hashlib
import itertools

import pytest

from oddhom import (
    FIXTURE_NAMES,
    Graph,
    VertexMap,
    are_isomorphic,
    canonical_bytes,
    circular_clique,
    claim_filter,
    complete,
    cycle,
    find_homomorphism,
    fixture,
    generalized_mycielski,
    odd_girth,
    odd_k32,
    odd_k4,
    subdivided_k4,
    to_graph6,
    verify_mapping,
)
from oddhom.hom import _circulant
from oddhom.search import RULE_MIN_DEGREE_2, RULE_NO_4_CYCLE, RULE_NO_6_CYCLE


class TestBasicFamilies:
    def test_circular_clique_special_cases(self):
        assert are_isomorphic(circular_clique(5, 2), cycle(5))
        assert are_isomorphic(circular_clique(4, 1), complete(4))

    def test_circular_clique_12_5(self):
        g = circular_clique(12, 5)
        assert g.order == 12
        assert all(d == 3 for d in g.degrees())

    def test_circular_clique_validation(self):
        with pytest.raises(ValueError):
            circular_clique(4, 2)
        with pytest.raises(ValueError):
            circular_clique(3, 2)

    def test_cycle_validation(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_circular_clique_rotation_invariance(self):
        for p, q in [(5, 2), (7, 3), (12, 5), (8, 3)]:
            g = circular_clique(p, q)
            rotated = Graph.from_edges(p, [((a + 1) % p, (b + 1) % p) for a, b in g.edges()])
            assert canonical_bytes(rotated) == canonical_bytes(g)
            assert _circulant(g)


class TestOddK4:
    def test_order_and_odd_girth(self):
        for a, b, c in [(1, 2, 2), (2, 2, 3), (1, 3, 3), (3, 3, 3), (3, 4, 4), (5, 5, 5)]:
            g = odd_k4(a, b, c)
            assert g.order == 2 * (a + b + c) - 2
            assert odd_girth(g) == a + b + c

    def test_unique_up_to_permutation_of_lengths(self):
        assert are_isomorphic(odd_k4(1, 2, 2), odd_k4(2, 1, 2))
        assert are_isomorphic(odd_k4(1, 2, 2), odd_k4(2, 2, 1))

    def test_k4_base_case(self):
        assert are_isomorphic(odd_k4(1, 1, 1), complete(4))

    def test_rejects_even_total(self):
        with pytest.raises(ValueError):
            odd_k4(1, 2, 3)

    def test_general_subdivision_rejects_even_face(self):
        with pytest.raises(ValueError):
            subdivided_k4(1, 1, 1, 1, 1, 2)


class TestOddK32:
    def test_order_and_edges_over_grid(self):
        # A length-0 path merges two ports and a path of length p >= 1 adds
        # p - 1 interior vertices; every cycle and path edge is kept.
        for cl in itertools.product((3, 5, 7), repeat=3):
            for pl in itertools.product(range(4), repeat=3):
                g = odd_k32(cl, pl)
                assert g.order == sum(cl) - pl.count(0) + sum(max(p - 1, 0) for p in pl), (cl, pl)
                assert g.edge_count() == sum(cl) + sum(pl), (cl, pl)

    def test_triangles_with_edges(self):
        g = odd_k32([3, 3, 3], [1, 1, 1])
        assert g.order == 9

    def test_shared_hub_counting(self):
        # Each length-0 path merges its own pair of ports: three merges.
        g = odd_k32([7, 7, 7], [0, 0, 0])
        assert g.order == 18

    def test_positive_paths(self):
        g = odd_k32([7, 7, 7], [2, 2, 2])
        assert g.order == 24
        assert odd_girth(g) == 7

    def test_mixed_zero_and_positive(self):
        g = odd_k32([3, 5, 7], [0, 2, 1])
        # 15 cycle vertices, one merge, one interior path vertex.
        assert g.order == 15
        assert odd_girth(g) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            odd_k32([3, 3, 4], [1, 1, 1])
        with pytest.raises(ValueError):
            odd_k32([3, 3], [1, 1, 1])
        with pytest.raises(ValueError):
            odd_k32([3, 3, 3], [1, -1, 1])


class TestMycielski:
    def test_orders_and_odd_girth(self):
        for k in range(1, 6):
            g = generalized_mycielski(k)
            assert g.order == 2 * k * k + k + 1
            assert odd_girth(g) == 2 * k + 1

    def test_k1_is_k4(self):
        assert are_isomorphic(generalized_mycielski(1), complete(4))

    def test_k2_is_the_11_vertex_graph(self):
        g = generalized_mycielski(2)
        assert g.order == 11
        assert find_homomorphism(g, complete(3)) is None

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            generalized_mycielski(0)


# C5 colourings of the case fixtures, transcribed from their drawings and
# fixed to this package's vertex numbering (branch x,y,z,t first, thread
# interiors in declaration order, pendants last).
CASE_COLOURINGS = {
    "case1a": (2, 0, 2, 0, 1, 1, 3, 1, 3, 4, 3, 4, 4, 3),
    "case1b": (0, 4, 2, 3, 4, 3, 2, 3, 1, 2, 1, 0, 3, 4),
    "case2a": (0, 3, 1, 3, 4, 0, 4, 1, 0, 2, 1, 2, 2),
    "case2b": (1, 0, 2, 0, 1, 2, 1, 1, 2, 3, 4, 3, 4, 2),
    "case3a": (0, 1, 1, 4, 2, 3, 4, 3, 2, 0, 1, 2, 3, 0),
    "case3b_1": (1, 2, 4, 0, 2, 3, 4, 3, 0, 1, 0, 1, 0, 1),
    "case3b_2": (2, 3, 0, 4, 1, 0, 1, 0, 1, 2, 3, 4, 0, 4),
    "case3b_3": (0, 3, 3, 1, 4, 2, 4, 2, 1, 0, 4, 0, 1, 2),
    "case3b_4": (0, 2, 1, 3, 1, 2, 1, 0, 4, 3, 4, 0, 4, 3),
    "case3b_5": (4, 3, 1, 0, 0, 4, 0, 1, 3, 2, 1, 2, 0, 4),
}


class TestFixtures:
    def test_fig2_status(self):
        # The three order-15 graphs: odd-girth 7, not C5-colourable.  These
        # are the loud self-checks guarding the transcriptions.
        for name in ("fig2a", "fig2b", "fig2c"):
            g = fixture(name)
            assert g.order == 15
            assert odd_girth(g) == 7
            assert find_homomorphism(g, cycle(5)) is None

    def test_fig2a_shape(self):
        g = fixture("fig2a")
        assert g.edge_count() == 21

    def test_case_fixtures_are_c5_colourable(self):
        for name in CASE_COLOURINGS:
            g = fixture(name)
            assert odd_girth(g) == 7
            assert find_homomorphism(g, cycle(5)) is not None

    def test_case_figure_colourings_verify(self):
        for name, img in CASE_COLOURINGS.items():
            g = fixture(name)
            assert len(img) == g.order, name
            assert verify_mapping(g, cycle(5), VertexMap(g.order, 5, img)), name

    def test_case_orders(self):
        assert fixture("case1a").order == 14
        assert fixture("case1b").order == 14
        assert fixture("case2a").order == 13
        assert fixture("case2b").order == 14
        assert fixture("case3a").order == 14
        for i in range(1, 6):
            assert fixture(f"case3b_{i}").order == 14

    def test_case2a_is_2_2_2_partnered(self):
        # Threads (3,3,3) on one triangle, (2,2,2) opposite: 13 vertices,
        # three 7-cycles and one 9-cycle.
        g = fixture("case2a")
        from oddhom.graphs import girth
        assert girth(g) == 7

    def test_pairwise_distinct(self):
        # The names are cases of the analysis, not distinct graphs: case 2b
        # is forced to be the case-1a graph (see TestCase2bDerivation).  Every
        # other name must build a graph of its own.
        classes = {}
        for name in FIXTURE_NAMES:
            classes.setdefault(canonical_bytes(fixture(name)), set()).add(name)
        shared = [names for names in classes.values() if len(names) > 1]
        assert shared == [{"case1a", "case2b"}]
        assert len(classes) == len(FIXTURE_NAMES) - 1

    def test_case1a_case2b_isomorphic_networkx(self):
        # Independent of canonical_bytes: networkx's VF2 finds the isomorphism.
        nx = pytest.importorskip("networkx")
        a, b = (nx.Graph(list(fixture(n).edges())) for n in ("case1a", "case2b"))
        assert nx.is_isomorphic(a, b)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("fig9z")


def _grid_builds():
    """Every fixture, then each odd_k4 with an odd sum over 1..4, each
    subdivided_k4 over {1, 2, 3}^6 and each odd_k32 over cycles {3, 5, 7}^3
    and paths {0..3}^3: 2,502 builds, each as its graph6 or its ValueError."""
    builds = [(fixture, (name,)) for name in FIXTURE_NAMES]
    builds += [(odd_k4, t) for t in itertools.product(range(1, 5), repeat=3) if sum(t) % 2]
    builds += [(subdivided_k4, t) for t in itertools.product((1, 2, 3), repeat=6)]
    builds += [(odd_k32, (c, p)) for c in itertools.product((3, 5, 7), repeat=3)
               for p in itertools.product(range(4), repeat=3)]
    for build, args in builds:
        try:
            yield to_graph6(build(*args))
        except ValueError as exc:
            yield f"ValueError: {exc}"


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


class TestLabelling:
    """The vertex numbering each builder documents, pinned through graph6.

    The digests are the sha256 of one line per build, its graph6 (or its
    ValueError message) and a newline.  Isomorphism tests would not notice
    a relabelling; these do, so the builders' graph6 output stays
    reproducible.
    """

    FIXTURES_DIGEST = "7061cbd67ca58d475bdc152bcb2daea5087e25ad7ef3506699a92d8ba5fe4847"
    GRID_DIGEST = "9955f536cb1eba196593fb500bde01f7eea22328bde59e70362291138bda0d7f"

    def test_fixture_names_and_graph6(self):
        assert FIXTURE_NAMES == (
            "fig2a", "fig2b", "fig2c", "case1a", "case1b", "case2a", "case2b", "case3a",
            "case3b_1", "case3b_2", "case3b_3", "case3b_4", "case3b_5")
        assert _digest(to_graph6(fixture(name)) for name in FIXTURE_NAMES) == self.FIXTURES_DIGEST

    def test_grid(self):
        lines = list(_grid_builds())
        assert len(lines) == 2_502
        assert _digest(lines) == self.GRID_DIGEST


def _compositions(total, parts):
    """Every tuple of ``parts`` positive integers summing to ``total``."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _order13_odd_k4s():
    """One representative per class of 13-vertex odd-K4s of odd-girth 7.

    A subdivided K4 has order (sum of thread lengths) - 2, so the thread
    lengths sum to 15.
    """
    reps = {}
    for lengths in _compositions(15, 6):
        try:
            g = subdivided_k4(*lengths)
        except ValueError:
            continue
        if odd_girth(g) == 7:
            reps.setdefault(canonical_bytes(g), g)
    return list(reps.values())


def _minimal_rules_ok(g):
    return odd_girth(g) == 7 and all(
        claim_filter(g, rule) for rule in (RULE_MIN_DEGREE_2, RULE_NO_4_CYCLE, RULE_NO_6_CYCLE))


class TestCase2bDerivation:
    """Case 2 has a single member under the minimal-counterexample rules.

    Case 2 is a 14-vertex graph of odd-girth 7 that contains a 13-vertex
    odd-K4.  Under the rules odd-girth 7, minimum degree 2, no 4-cycle and no
    6-cycle, the extra vertex can be joined to exactly one set, and the
    result is the case-1a graph: the join closes a 7-cycle that completes a
    (2,2,3)-odd-K4.  So fixture("case2b") is right to coincide with
    fixture("case1a"), and no other graph could stand in for it.
    """

    def test_case_fixtures_have_no_4_or_6_cycle(self):
        # The premise: every configuration of the analysis obeys the rules.
        for name in FIXTURE_NAMES:
            if name.startswith("case"):
                g = fixture(name)
                assert claim_filter(g, RULE_NO_4_CYCLE), name
                assert claim_filter(g, RULE_NO_6_CYCLE), name

    def test_no_base_admits_a_chord(self):
        # The rules are monotone under adding edges, so a base that fails
        # them with one chord fails them with any further edges or vertex.
        bases = _order13_odd_k4s()
        assert len(bases) == 3
        for base in bases:
            for u, v in itertools.combinations(range(base.order), 2):
                if not base.has_edge(u, v):
                    chorded = Graph.from_edges(base.order, list(base.edges()) + [(u, v)])
                    assert not _minimal_rules_ok(chorded), (to_graph6(base), u, v)

    def test_only_survivor_is_case2b(self):
        survivors = set()
        for base in _order13_odd_k4s():
            n, edges = base.order, list(base.edges())
            for mask in range(1, 1 << n):
                g = Graph.from_edges(n + 1, edges + [(n, v) for v in range(n) if mask >> v & 1])
                if _minimal_rules_ok(g):
                    survivors.add(canonical_bytes(g))
        assert survivors == {canonical_bytes(fixture("case2b"))}
        assert canonical_bytes(fixture("case1a")) in survivors

