"""Odd-K4 and odd-K3^2 finders and the Gerards dichotomy check (witness.py).

Every returned witness is checked as a certificate by its own ``verify``,
and the dichotomy (Gerards, J. Graph Theory 12 (1988) 73-83: a graph with
neither obstruction maps to its shortest odd cycle) is checked as a
property over random non-bipartite graphs.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oddhom import (
    INFINITE,
    Graph,
    complete,
    cycle,
    find_homomorphism,
    find_odd_k4,
    find_odd_k32,
    gerards_dichotomy_check,
    odd_girth,
    odd_k4,
    odd_k32,
)

ODD_K4S = [(1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 2, 3), (3, 3, 1)]
ODD_K32S = [
    ((3, 3, 3), (1, 1, 1)),
    ((3, 5, 3), (0, 2, 1)),
    ((5, 3, 7), (2, 1, 3)),
]
SWEEP_CYCLES = [(3, 3, 3), (3, 5, 7), (5, 3, 7), (3, 3, 5), (5, 5, 5), (7, 7, 7)]


def without_edge(g, u, v):
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(rows)


class TestFinders:
    @pytest.mark.parametrize("abc", ODD_K4S)
    def test_odd_k4_found(self, abc):
        g = odd_k4(*abc)
        w = find_odd_k4(g)
        assert w is not None and w.verify(g)
        assert all(f % 2 == 1 for f in w.face_lengths)
        a, b = w.paths[0][:2]
        assert not w.verify(without_edge(g, a, b))

    @pytest.mark.parametrize("cycles, paths", ODD_K32S)
    def test_odd_k32_found(self, cycles, paths):
        g = odd_k32(cycles, paths)
        w = find_odd_k32(g)
        assert w is not None and w.verify(g)
        a, b = w.cycles[0][:2]
        assert not w.verify(without_edge(g, a, b))

    @pytest.mark.parametrize("finder", [find_odd_k4, find_odd_k32])
    def test_none_on_even_cycle(self, finder):
        assert finder(cycle(6)) is None

    def test_shared_hub_is_not_an_odd_k32(self):
        # Three triangles on one hub: the three length-0 paths coincide, so
        # they are not disjoint, and the graph maps to K3.
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
                                 (0, 5), (5, 6), (6, 0)])
        assert find_homomorphism(g, complete(3)) is not None
        assert find_odd_k32(g) is None

    @pytest.mark.parametrize("cycles", SWEEP_CYCLES)
    def test_odd_k32_sweep(self, cycles):
        # Every path-length triple, length 0 included, builds an odd-K3^2,
        # e.g. (5,3,7) with paths (2,0,3) and (3,3,5) with paths (1,0,2).
        for paths in itertools.product(range(3), repeat=3):
            g = odd_k32(cycles, paths)
            w = find_odd_k32(g)
            assert w is not None and w.verify(g), paths


@st.composite
def non_bipartite_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [p for p, b in zip(pairs, keep) if b])
    assume(odd_girth(g) != INFINITE)
    return g


@settings(max_examples=80, deadline=None)
@given(non_bipartite_graphs())
def test_dichotomy_never_fails(g):
    report = gerards_dichotomy_check(g)
    assert report.branch != "none"
    assert report.implication_holds
    if report.odd_k4 is not None:
        assert report.odd_k4.verify(g)
    if report.odd_k32 is not None:
        assert report.odd_k32.verify(g)
