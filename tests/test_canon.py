from oddhom import Graph, are_isomorphic, canonical_bytes, canonical_form, cycle, odd_k4

from conftest import all_labelled_graphs, brute_iso, random_graph


def relabel(g, perm):
    return Graph.from_edges(g.order, [(perm[a], perm[b]) for a, b in g.edges()])


class TestCanonicalForm:
    def test_constant_under_relabelling(self, rng):
        samples = [cycle(5), cycle(12), odd_k4(1, 2, 2),
                   Graph.from_edges(9, [(0, i) for i in range(1, 9)])]
        samples += [random_graph(rng, rng.randint(2, 10), rng.random()) for _ in range(6)]
        for g in samples:
            base = canonical_bytes(g)
            for _ in range(100):
                p = list(range(g.order))
                rng.shuffle(p)
                assert canonical_bytes(relabel(g, p)) == base

    def test_relabeling_realises_bytes(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            cf = canonical_form(g)
            assert sorted(cf.relabeling) == list(range(g.order))
            assert canonical_bytes(relabel(g, cf.relabeling)) == cf.canonical_bytes

    def test_opposite_thread_swap(self):
        # The (a, b, c) subdivision is determined by the multiset {a, b, c}.
        assert are_isomorphic(odd_k4(1, 2, 2), odd_k4(2, 1, 2))
        assert are_isomorphic(odd_k4(2, 2, 3), odd_k4(3, 2, 2))

    def test_distinguishes_same_degree_sequence(self):
        # C6 with a chord joining vertices at distance 2 versus distance 3:
        # same degree sequence, different graphs.
        g1 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
        g2 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert sorted(g1.degrees()) == sorted(g2.degrees())
        assert not are_isomorphic(g1, g2)


class TestAgainstPermutationOracle:
    def test_class_counts_small(self):
        # Numbers of simple graphs on n unlabelled vertices.
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n, count in expected.items():
            classes = {canonical_bytes(g) for g in all_labelled_graphs(n)}
            assert len(classes) == count

    def test_all_pairs_agree_up_to_6(self):
        reps = []
        for n in (5, 6):
            seen = {}
            for g in all_labelled_graphs(n):
                seen.setdefault(canonical_bytes(g), g)
            reps.extend(seen.values())
        # Same-order pairs only; brute_iso rejects order mismatch trivially.
        by_bytes = {canonical_bytes(g): g for g in reps}
        reps = list(by_bytes.values())
        for i, g1 in enumerate(reps):
            for g2 in reps[i:]:
                assert brute_iso(g1, g2) == (canonical_bytes(g1) == canonical_bytes(g2))

    def test_sampled_pairs_order_7(self, rng):
        gs = [random_graph(rng, 7, rng.random()) for _ in range(60)]
        for _ in range(300):
            g1, g2 = rng.choice(gs), rng.choice(gs)
            assert brute_iso(g1, g2) == are_isomorphic(g1, g2)
