"""Shared brute-force oracles and helpers.

The oracles here are deliberately naive (enumerate all labelled graphs, all
vertex maps, all permutations) so that the fast library paths are checked
against something with no shared machinery.
"""

import itertools
import random
from functools import cache

import pytest

from oddhom import (
    FIXTURE_NAMES,
    Graph,
    find_homomorphism,
    fixture,
    generalized_mycielski,
    is_connected,
    odd_girth,
    odd_k32,
    odd_k4,
    verify_mapping,
)
from oddhom.canon import canonical_bytes
from oddhom.table import designated_odd_k4


def all_labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def brute_classes(n, connected_only=True, min_odd_girth=3):
    """One representative per isomorphism class, deduplicated by canonical form.

    The canonical form is itself under test elsewhere (against permutations),
    so enumeration tests that use this oracle cross-check counts rather than
    identities.
    """
    reps = {}
    for g in all_labelled_graphs(n):
        if connected_only and not is_connected(g):
            continue
        if odd_girth(g) < min_odd_girth:
            continue
        reps.setdefault(canonical_bytes(g), g)
    return list(reps.values())


def brute_iso(g1, g2):
    """Isomorphism by direct permutation search."""
    if g1.order != g2.order or g1.edge_count() != g2.edge_count():
        return False
    for p in itertools.permutations(range(g1.order)):
        if all(g2.has_edge(p[a], p[b]) for a, b in g1.edges()):
            return True
    return False


def brute_has_hom(g, h):
    """Homomorphism existence by scanning all target_order^source_order maps."""
    edges = list(g.edges())
    arcs = {(a, b) for a in range(h.order) for b in range(h.order) if h.has_edge(a, b)}
    return any(all((img[a], img[b]) in arcs for a, b in edges)
               for img in itertools.product(range(h.order), repeat=g.order))


def hom_checked(g, h):
    """Solver call that enforces the suite-wide soundness invariants.

    Every success is verified edge-by-edge and must respect odd-girth
    monotonicity (a homomorphic image cannot have larger odd-girth).
    """
    m = find_homomorphism(g, h)
    if m is not None:
        assert verify_mapping(g, h, m)
        assert odd_girth(h) <= odd_girth(g)
    return m


def random_graph(rng: random.Random, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def cube():
    """The 3-cube: bipartite and cubic."""
    return Graph.from_edges(8, [(v, v | 1 << i) for v in range(8) for i in range(3) if not v >> i & 1])


def vertex_transitive_graphs():
    """(graph, order of its automorphism group or None) for symmetric test graphs.

    These are the graphs whose individualization trees automorphism pruning
    cuts most; random graphs of order 7 or 8 rarely have such symmetry.
    """
    def circulant(n, jumps):
        return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in jumps])

    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                + [(i, 5 + i) for i in range(5)])
    cycles = [(circulant(n, (1,)), 2 * n) for n in range(3, 13)]
    return cycles + [(circulant(9, (1, 3)), None), (circulant(12, (1, 4)), None),
                     (k33, 72), (cube(), 48), (petersen, 120)]


@cache
def atlas():
    """Every graph on 1 to 7 vertices (Read and Wilson's atlas, via networkx)."""
    nx = pytest.importorskip("networkx")
    return [Graph.from_edges(a.number_of_nodes(), list(a.edges()))
            for a in nx.graph_atlas_g() if a.number_of_nodes()]


def corpus():
    """The named graphs of the single-graph queries: every fixture, the
    generalized Mycielski graphs of levels 2 to 4, the designated odd-K4 of
    each 4k cell for k <= 8, and six odd-K3^2 graphs."""
    graphs = [fixture(name) for name in FIXTURE_NAMES]
    graphs += [generalized_mycielski(k) for k in (2, 3, 4)]
    graphs += [odd_k4(*designated_odd_k4(k)[0]) for k in range(1, 9)]
    graphs += [odd_k32(c, p) for c, p in [((3, 3, 3), (1, 1, 1)), ((3, 5, 7), (2, 1, 1)),
                                          ((5, 5, 5), (1, 2, 3)), ((5, 5, 7), (1, 1, 2)),
                                          ((5, 7, 7), (2, 2, 1)), ((7, 7, 7), (1, 1, 1))]]
    return graphs


@pytest.fixture
def rng():
    """A fresh generator for each test, so that no test's draws change
    another's inputs, and a test alone sees what it sees in the full run."""
    return random.Random(20240811)
