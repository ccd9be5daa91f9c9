import random

import pytest

from oddhom import (
    Graph,
    VSpecialColouring,
    cycle,
    exists_v_special,
    extend_v_special,
    find_homomorphism,
    fixture,
    generalized_mycielski,
    odd_girth,
    odd_k4,
    verify_mapping,
)
from oddhom.graphs import distance_partition
from oddhom.hom import _vspecial_violation

from conftest import atlas, random_graph


def test_c7_has_v_special_everywhere():
    g = cycle(7)
    for v in range(7):
        col = exists_v_special(g, v)
        assert col is not None
        # The two far vertices form one edge: classes 1 and 2 in some order.
        assert sorted(col.class_of.values()) == [1, 2]
        m = extend_v_special(g, col)
        assert verify_mapping(g, cycle(5), m)


def test_edgeless_far_ball_is_trivial():
    # A star has everything within distance 1; a path of length 3 has a
    # single far vertex, so the all-class-3 colouring works vacuously.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    col = exists_v_special(g, 0)
    assert col is not None


def test_fig2a_has_no_v_special_anywhere():
    g = fixture("fig2a")
    for v in range(g.order):
        assert exists_v_special(g, v) is None


def test_invalid_vertex():
    with pytest.raises(ValueError):
        exists_v_special(cycle(5), 7)


def test_key_observation_on_corpus():
    # Wherever a v-special colouring exists on an odd-girth >= 7 graph, the
    # graph maps to C5 (via the explicit extension, which also certifies it).
    corpus = [
        cycle(7), cycle(9), cycle(11),
        odd_k4(2, 2, 3), odd_k4(1, 3, 3), odd_k4(3, 3, 3),
        generalized_mycielski(3),
    ] + [fixture(n) for n in ("fig2a", "fig2b", "fig2c", "case1a", "case1b",
                              "case2a", "case2b", "case3a", "case3b_1",
                              "case3b_2", "case3b_3", "case3b_4", "case3b_5")]
    found_some = 0
    for g in corpus:
        assert odd_girth(g) >= 7
        for v in range(g.order):
            col = exists_v_special(g, v)
            if col is not None:
                found_some += 1
                m = extend_v_special(g, col)
                assert verify_mapping(g, cycle(5), m)
                assert find_homomorphism(g, cycle(5)) is not None
    assert found_some > 0


def test_extension_property_on_samples():
    # Every colouring the search returns extends to a verified map.
    for g in (cycle(7), odd_k4(2, 2, 3), fixture("case2a"), fixture("case3a")):
        for v in range(g.order):
            col = exists_v_special(g, v)
            if col is not None:
                m = extend_v_special(g, col)
                assert verify_mapping(g, cycle(5), m)
                assert m.image[v] == 2  # deterministic centre choice


def test_tampered_colouring_rejected():
    g = cycle(7)
    col = exists_v_special(g, 0)
    far = sorted(col.class_of)
    # Both far vertices in class 1: adjacent same-class pair.
    bad = VSpecialColouring(0, {far[0]: 1, far[1]: 1})
    with pytest.raises(ValueError):
        extend_v_special(g, bad)
    # Class 3 on a non-isolated vertex.
    bad = VSpecialColouring(0, {far[0]: 3, far[1]: 1})
    with pytest.raises(ValueError):
        extend_v_special(g, bad)
    # Wrong domain.
    bad = VSpecialColouring(0, {far[0]: 1})
    with pytest.raises(ValueError):
        extend_v_special(g, bad)


def test_condition_ii_violation_rejected():
    # Path v - a - b with two far vertices x, y joined to b... build a graph
    # where an N2 vertex sees both classes if we force them by hand.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)])
    # Distances from 0: n1={1}, n2={2}, far={3,4,5}; far induces the path
    # 3-5-4, so classes must 2-colour it; putting 3 and 4 in different
    # classes makes vertex 2 see both, violating the distance-2 rule.
    bad = VSpecialColouring(0, {3: 1, 4: 2, 5: 2})
    with pytest.raises(ValueError):
        extend_v_special(g, bad)


def test_low_odd_girth_extension_fails_loudly():
    # K3 at 0: the far set is empty, so the empty colouring is v-special,
    # but the edge inside N(0) cannot map to C5 by the fixed extension.
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    col = exists_v_special(g, 0)
    assert col is not None
    with pytest.raises(ValueError):
        extend_v_special(g, col)


def brute_force_v_special(g, v):
    """Every v-special colouring at v: each map of the far set to {1, 2, 3}
    that ``_vspecial_violation`` accepts.  Maps giving two adjacent far
    vertices one class are dropped as they are built; the check rejects
    them all anyway."""
    maps = [{}]
    far = distance_partition(g, v).n3plus
    for u in (u for u in range(g.order) if far >> u & 1):
        maps = [{**m, u: c} for m in maps for c in (1, 2, 3)
                if all(m[w] != c for w in m if g.rows[u] >> w & 1)]
    return [m for m in maps if _vspecial_violation(g, VSpecialColouring(v, m)) is None]


def random_graphs():
    rng = random.Random(23)
    return [random_graph(rng, rng.randint(8, 12), rng.uniform(0.25, 0.45)) for _ in range(200)]


@pytest.mark.parametrize("graphs", [atlas, random_graphs])
def test_exists_matches_brute_force(graphs):
    none = found = 0
    for g in graphs():
        for v in range(g.order):
            valid = brute_force_v_special(g, v)
            col = exists_v_special(g, v)
            assert (col is None) == (not valid), (g.rows, v)
            if col is None:
                none += 1
            else:
                found += 1
                assert col.center == v
                assert _vspecial_violation(g, col) is None
    assert none and found


def test_pendants_on_an_odd_cycle_of_h():
    # v=0 - a=1 - b=2, a far path 3-4-5-6 with b joined to both ends, and
    # 30 pendants on b: the pendants are isolated far vertices, and b with
    # the path closes a 5-cycle of H, so no colouring exists.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]
    g = Graph.from_edges(37, edges + [(2, p) for p in range(7, 37)])
    assert exists_v_special(g, 0) is None
