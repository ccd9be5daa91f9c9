import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from oddhom import (
    INFINITE,
    Graph,
    complete,
    cycle,
    distance_partition,
    fixture,
    from_graph6,
    generalized_mycielski,
    girth,
    has_walk_of_length,
    is_connected,
    list_threads,
    max_thread_length,
    odd_girth,
    odd_k4,
    path,
    to_graph6,
)
from oddhom.graphs import DistancePartition, delete_vertex, odd_reach_within

from conftest import atlas, corpus, random_graph


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph([0b010, 0, 0])

    def test_rejects_bits_above_order(self):
        with pytest.raises(ValueError):
            Graph([0b1000, 0, 0])

    def test_order_cap(self):
        with pytest.raises(ValueError):
            Graph.from_edges(65, [])

    def test_immutable(self):
        g = cycle(5)
        with pytest.raises(AttributeError):
            g.order = 6

    @pytest.mark.parametrize("g", [cycle(5), complete(4), fixture("fig2a"), Graph([0])])
    def test_pickle_and_copy_round_trip(self, g):
        for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert twin == g and twin.order == g.order
            with pytest.raises(AttributeError):
                twin.order = 1

    def test_equality_is_labelled(self):
        assert cycle(5) == cycle(5)
        relabelled = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert relabelled != cycle(5)


class TestOddGirth:
    def test_c5(self):
        assert odd_girth(cycle(5)) == 5

    def test_grotzsch(self):
        assert odd_girth(generalized_mycielski(2)) == 5

    def test_bipartite_is_infinite(self):
        k33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
        assert odd_girth(k33) == INFINITE

    def test_odd_k4(self):
        assert odd_girth(odd_k4(1, 2, 2)) == 5

    @pytest.mark.parametrize("first_bipartite", [True, False])
    def test_bipartite_component_beside_an_odd_one(self, first_bipartite):
        # A walk that exhausts a bipartite component skips its other roots;
        # the odd component must still be searched, before or after it.
        parts = [hypercube(4), cycle(7)] if first_bipartite else [cycle(7), hypercube(4)]
        g = disjoint_union(*parts)
        assert odd_girth(g) == 7
        assert girth(g) == 4

    def test_tree_beside_an_odd_cycle(self):
        g = disjoint_union(binary_tree(15), cycle(9))
        assert odd_girth(g) == 9
        assert girth(g) == 9
        assert odd_girth(binary_tree(64)) == girth(binary_tree(64)) == INFINITE
        assert odd_girth(hypercube(6)) == INFINITE and girth(hypercube(6)) == 4

    def test_always_odd_or_infinite(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            og = odd_girth(g)
            assert og == INFINITE or og % 2 == 1


def hypercube(d):
    return Graph.from_edges(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d)
                                     if not v >> i & 1])


def binary_tree(n):
    return Graph.from_edges(n, [(v, (v - 1) // 2) for v in range(1, n)])


def disjoint_union(*parts):
    """The parts side by side, relabelled in the order given."""
    rows, base = [], 0
    for h in parts:
        rows += [r << base for r in h.rows]
        base += h.order
    return Graph(rows)


def odd_power_graphs():
    """Every atlas graph, random graphs (some disconnected) and random
    bipartite graphs, each with its adjacency matrix."""
    rng = random.Random(12)
    graphs = list(atlas())
    graphs += [random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.6)) for _ in range(200)]
    for _ in range(100):
        n = rng.randint(2, 12)
        side = rng.randint(1, n - 1)
        graphs.append(Graph.from_edges(n, [(a, b) for a in range(side) for b in range(side, n)
                                           if rng.random() < 0.5]))
    out = []
    for g in graphs:
        a = np.zeros((g.order, g.order), dtype=np.int64)
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1
        out.append((g, a))
    return out


class TestOddPowers:
    """odd_girth and odd_reach_within against odd powers of the adjacency
    matrix A, which share no code with their layered and double-cover
    searches."""

    def test_odd_girth_is_least_odd_closed_walk(self):
        # A shortest odd closed walk is a cycle, so the odd girth is the
        # least odd d <= n with trace(A^d) > 0.
        kinds = set()
        for g, a in odd_power_graphs():
            power, want = a, INFINITE
            for d in range(1, g.order + 1, 2):
                if np.trace(power):
                    want = d
                    break
                power = power @ a @ a
            assert odd_girth(g) == want, g.rows
            kinds.add((want == INFINITE, is_connected(g)))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_odd_reach_within_matches_odd_powers(self):
        # u reaches v by an odd walk of length at most t iff
        # (A + A^3 + ... + A^t)[u, v] > 0.
        for g, a in odd_power_graphs():
            power, reach = a, np.zeros_like(a)
            for limit in (1, 3, 5):
                reach = reach + power
                power = power @ a @ a
                for u in range(g.order):
                    want = sum(1 << v for v in range(g.order) if reach[u, v])
                    assert odd_reach_within(g.rows, u, limit) == want, (g.rows, u, limit)


class TestGirth:
    def test_c7(self):
        assert girth(cycle(7)) == 7

    def test_odd_k4_with_short_even_face(self):
        # The two length-1 threads and their partners bound a 4-cycle.
        assert girth(odd_k4(1, 1, 5)) == 4

    def test_forest(self):
        assert girth(path(5)) == INFINITE

    def test_girth_le_odd_girth(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            assert girth(g) <= odd_girth(g)

    def test_against_brute_force_cycles(self, rng):
        def brute_girth(g):
            best = math.inf
            n = g.order
            def extend(start, cur, used, length):
                nonlocal best
                for w in g.neighbors(cur):
                    if w == start and length >= 3:
                        best = min(best, length)
                    elif w > start and not used >> w & 1:
                        extend(start, w, used | 1 << w, length + 1)
            for s in range(n):
                extend(s, s, 1 << s, 1)
            return best

        graphs = [random_graph(rng, rng.randint(3, 8), rng.random()) for _ in range(80)]
        for g in graphs + atlas():
            assert girth(g) == brute_girth(g), g.rows


class TestDistancePartition:
    # The layers are vertex bit masks.
    @staticmethod
    def sizes(dp):
        return dp.n1.bit_count(), dp.n2.bit_count(), dp.n3plus.bit_count()

    def test_c7_symmetry(self):
        for v in range(7):
            assert self.sizes(distance_partition(cycle(7), v)) == (2, 2, 2)

    def test_star_center(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        dp = distance_partition(star, 0)
        assert dp == DistancePartition(0, 0b11110, 0, 0)

    def test_fig2a_u0(self):
        assert self.sizes(distance_partition(fixture("fig2a"), 0)) == (3, 5, 6)

    def test_partitions_and_layer_edges(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            v = rng.randrange(g.order)
            dp = distance_partition(g, v)
            parts = [1 << v, dp.n1, dp.n2, dp.n3plus]
            assert sum(parts) == (1 << g.order) - 1
            assert all(a & b == 0 for a, b in itertools.combinations(parts, 2))
            assert g.rows[v] & (dp.n2 | dp.n3plus) == 0
            for u in range(g.order):
                if dp.n1 >> u & 1:
                    assert g.rows[u] & dp.n3plus == 0

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            distance_partition(cycle(5), 5)

    def test_matches_networkx_shortest_paths(self, rng):
        nx = pytest.importorskip("networkx")
        graphs = corpus() + [random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.5))
                             for _ in range(200)]
        assert not all(is_connected(g) for g in graphs)
        for g in graphs:
            G = nx.Graph(list(g.edges()))
            G.add_nodes_from(range(g.order))
            for v in range(g.order):
                dist = nx.single_source_shortest_path_length(G, v)
                layer = {d: sum(1 << u for u in dist if dist[u] == d) for d in (1, 2)}
                far = sum(1 << u for u in range(g.order) if dist.get(u, 3) >= 3)
                assert distance_partition(g, v) == DistancePartition(v, layer[1], layer[2], far)


class TestDeleteVertex:
    def test_matches_edge_list_definition(self, rng):
        graphs = corpus() + [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(200)]
        for g in graphs:
            for v in range(g.order):
                got = delete_vertex(g, v)
                assert Graph(got.rows) == got
                rename = {u: u - (u > v) for u in range(g.order) if u != v}
                want = [(rename[a], rename[b]) for a, b in g.edges() if v not in (a, b)]
                assert (got.order, sorted(got.edges())) == (g.order - 1, sorted(want))

    def test_only_vertex(self):
        with pytest.raises(ValueError):
            delete_vertex(Graph([0]), 0)


class TestWalks:
    def test_c5_adjacent_length4(self):
        assert has_walk_of_length(cycle(5), 0, 1, 4)

    def test_c5_closed_length3(self):
        assert not has_walk_of_length(cycle(5), 0, 0, 3)

    def test_length_zero(self):
        assert has_walk_of_length(cycle(5), 2, 2, 0)
        assert not has_walk_of_length(cycle(5), 2, 3, 0)

    def test_matches_adjacency_powers(self, rng):
        for _ in range(40):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            a = np.zeros((n, n), dtype=np.int64)
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1
            power = np.eye(n, dtype=np.int64)
            for length in range(9):
                for u in range(n):
                    for v in range(n):
                        assert has_walk_of_length(g, u, v, length) == (power[u, v] > 0)
                power = power @ a


def two_pass_threads(g):
    """The former two-pass ``list_threads``, kept as its reference: a walk
    from every branch vertex along each of its edges, deduplicated by edge
    set, then one closed thread per cycle component."""
    n = g.order
    deg = g.degrees()
    found = {}
    for s in range(n):
        if deg[s] == 2:
            continue
        for t0 in g.neighbors(s):
            path = [s, t0]
            prev, cur = s, t0
            while deg[cur] == 2:
                nxt = next(u for u in g.neighbors(cur) if u != prev)
                path.append(nxt)
                prev, cur = cur, nxt
            key = frozenset(frozenset(e) for e in zip(path, path[1:]))
            found.setdefault(key, tuple(path))
    threads = list(found.values())
    visited = set()
    for s in range(n):
        if s in visited or deg[s] != 2:
            continue
        comp = [s]
        prev, cur = s, g.neighbors(s)[0]
        closed = True
        while cur != s:
            if deg[cur] != 2:
                closed = False
                break
            comp.append(cur)
            prev, cur = cur, next(u for u in g.neighbors(cur) if u != prev)
        if closed:
            visited.update(comp)
            threads.append(tuple(comp) + (s,))
    return threads


def thread_graphs():
    """Every atlas graph, 200 random graphs (some disconnected, some with
    cycle components) and the query corpus."""
    rng = random.Random(30)
    graphs = list(atlas())
    graphs += [random_graph(rng, rng.randint(1, 16), rng.uniform(0.05, 0.4)) for _ in range(200)]
    return graphs + corpus()


class TestThreads:
    def test_odd_k4_223(self):
        assert max_thread_length(odd_k4(2, 2, 3)) == 3

    def test_cycle_is_one_closed_thread(self):
        threads = list_threads(cycle(9))
        assert len(threads) == 1 and len(threads[0]) - 1 == 9
        assert max_thread_length(cycle(9)) == 9

    def test_k4(self):
        assert max_thread_length(complete(4)) == 1

    def test_tadpole_loop(self):
        # Triangle with a pendant edge: the loop is a closed thread at the
        # branch vertex, the pendant a thread of length 1.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        lengths = sorted(len(p) - 1 for p in list_threads(g))
        assert lengths == [1, 3]

    def test_threads_cover_all_edges_once(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            seen = set()
            for p in list_threads(g):
                for a, b in zip(p, p[1:]):
                    e = frozenset((a, b))
                    assert e not in seen
                    seen.add(e)
            assert len(seen) == g.edge_count()

    def test_threads_are_maximal_degree_two_walks(self):
        kinds = set()
        for g in thread_graphs():
            deg = g.degrees()
            for p in list_threads(g):
                assert len(p) >= 2 and all(g.has_edge(a, b) for a, b in zip(p, p[1:])), g.rows
                inner = p[1:-1]
                assert all(deg[v] == 2 for v in inner) and len(set(inner)) == len(inner), g.rows
                assert p[0] not in inner and p[-1] not in inner, g.rows
                whole_cycle = p[0] == p[-1] and deg[p[0]] == 2
                if whole_cycle:
                    # Closed through degree-2 vertices alone: a cycle component.
                    mask = sum(1 << v for v in set(p))
                    assert all(g.rows[v] & ~mask == 0 for v in p), g.rows
                else:
                    assert deg[p[0]] != 2 and deg[p[-1]] != 2, g.rows
                kinds.add((whole_cycle, p[0] == p[-1]))
        assert kinds == {(False, False), (False, True), (True, True)}

    def test_matches_two_pass_reference_in_order(self):
        for g in thread_graphs():
            assert list_threads(g) == two_pass_threads(g), g.rows


class TestGraph6:
    def test_k3(self):
        assert to_graph6(complete(3)) == "Bw"

    def test_singleton(self):
        assert to_graph6(Graph.from_edges(1, [])) == "@"

    def test_round_trip_random(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 14), rng.random())
            assert from_graph6(to_graph6(g)) == g

    def test_large_order_form(self):
        g = cycle(63)
        line = to_graph6(g)
        assert line.startswith("~")
        assert from_graph6(line) == g
        assert from_graph6(to_graph6(cycle(64))) == cycle(64)

    def test_matches_independent_encoder(self, rng):
        # Every order up to 64 (from 63 on, the order takes the 4-byte
        # '~' form), then 40 small orders.
        nx = pytest.importorskip("networkx")
        for n in [*range(1, 65), *(rng.randint(1, 12) for _ in range(40))]:
            g = random_graph(rng, n, rng.random())
            ref = nx.Graph()
            ref.add_nodes_from(range(g.order))
            ref.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert to_graph6(g) == theirs
            assert from_graph6(theirs) == g

    MALFORMED = [
        ("", "empty graph6 line"),
        ("  \n", "empty graph6 line"),
        (">>graph6<<", "empty graph6 line"),
        (chr(1) + "w", "graph6 line contains non-printable characters: '\\x01w'"),
        # Only ASCII white space is stripped, so chr(30) stays and is no graph6 byte.
        (chr(30) + "w", "graph6 line contains non-printable characters: '\\x1ew'"),
        # str.strip would take each of these for white space, leaving K3.
        ("\x1fBw", "graph6 line contains non-printable characters: '\\x1fBw'"),
        ("Bw\x1c", "graph6 line contains non-printable characters: 'Bw\\x1c'"),
        ("Bw\x85", "graph6 line contains non-printable characters: 'Bw\\x85'"),
        ("\xa0Bw", "graph6 line contains non-printable characters: '\\xa0Bw'"),
        ("B\x7f", "graph6 line contains non-printable characters: 'B\\x7f'"),
        ("~??", "truncated graph6 order field"),
        ("?", "graph6 order 0 outside supported range 1..64"),
        ("~?A?", "graph6 order 128 outside supported range 1..64"),
        ("B", "graph6 body has 0 chunks, expected 1 for order 3"),
        ("Bww", "graph6 body has 2 chunks, expected 1 for order 3"),
        ("Bx", "graph6 padding bits must be zero"),
        ("~??~" + "~" * 326, "graph6 padding bits must be zero"),
        ("@?", "graph6 body has 1 chunks, expected 0 for order 1"),
    ]

    def test_rejects_malformed(self):
        for bad, message in self.MALFORMED:
            with pytest.raises(ValueError) as exc:
                from_graph6(bad)
            assert str(exc.value) == message, bad

    def test_accepts_optional_header(self):
        assert from_graph6(">>graph6<<Bw") == complete(3)

    def test_strips_ascii_white_space(self):
        for line in ("Bw\r\n", " Bw ", "Bw\x0b", "\tBw\x0c"):
            assert from_graph6(line) == complete(3), line


def test_connectivity():
    assert is_connected(cycle(5))
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two)
