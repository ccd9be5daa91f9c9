import random
from collections import Counter

import pytest

from oddhom import (ALL_RULES, Graph, SearchConfig, are_isomorphic, canonical_bytes, canonical_form,
                    complete, cycle, enumerate_graphs, is_core, odd_k4)
from oddhom import canon, search
from oddhom.canon import (_adj_bytes, _find, _homogeneous, _union, canonical_search, refine_partition,
                          refine_round, search_graph)
from oddhom.graphs import MAX_VERTICES, _bits, _neighbors_of_set

from conftest import all_labelled_graphs, brute_iso, corpus, random_graph, vertex_transitive_graphs


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


def symmetric_graphs():
    """Highly symmetric graphs of order up to ``MAX_VERTICES``, by name, each
    with its orbits as ``canonical_search`` gives them (the least vertex of
    each orbit)."""
    n, half = MAX_VERTICES, MAX_VERTICES // 2
    return {
        "K64": (complete(n), [0] * n),
        "empty": (Graph.from_edges(n, []), [0] * n),
        "star": (Graph.from_edges(n, [(0, v) for v in range(1, n)]), [0] + [1] * (n - 1)),
        "K32,32": (Graph.from_edges(n, [(a, half + b) for a in range(half) for b in range(half)]),
                   [0] * n),
        "21K3": (Graph.from_edges(63, [(3 * t + i, 3 * t + (i + 1) % 3)
                                       for t in range(21) for i in range(3)]), [0] * 63),
        "C64": (cycle(n), [0] * n),
    }


class TestSymmetricAtMaxOrder:
    """Cells stay large in these graphs: refinement counts towards fresh
    cells of 63 members, and the homogeneous-cell shortcut ends the walk
    high in the tree."""

    @pytest.mark.parametrize("name", list(symmetric_graphs()))
    def test_bytes_orbits_and_generators(self, name):
        g, orbits = symmetric_graphs()[name]
        n = g.order
        rng = random.Random(n)
        base = canonical_bytes(g)
        for _ in range(3):
            p = list(range(n))
            rng.shuffle(p)
            assert canonical_bytes(relabel(g, p)) == base
        _, perm, orbit, gens = search_graph(g)
        assert sorted(perm) == list(range(n))
        assert orbit == orbits
        for a in gens:
            assert sorted(a) == list(range(n))
            assert all(sum(1 << a[u] for u in _bits(g.rows[v])) == g.rows[a[v]] for v in range(n))


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


def full_recount(rows, cells):
    """Naive refinement: every round recounts every vertex against every cell."""
    while True:
        new = []
        for cell in cells:
            groups = {}
            for v in range(len(rows)):
                if cell >> v & 1:
                    key = tuple(bin(rows[v] & c).count("1") for c in cells)
                    groups[key] = groups.get(key, 0) | 1 << v
            new += [groups[key] for key in sorted(groups)]
        if len(new) == len(cells):
            return new
        cells = new


def is_equitable(rows, cells):
    return all(len({bin(rows[v] & c).count("1") for v in range(len(rows)) if cell >> v & 1}) == 1
               for cell in cells for c in cells)


def individualized(cells):
    """Each (partition, fresh) made by individualizing a vertex of the first non-singleton cell."""
    for i, c in enumerate(cells):
        if c & (c - 1):
            for b in (1 << v for v in range(c.bit_length()) if c >> v & 1):
                yield cells[:i] + [b, c ^ b] + cells[i + 1:], [b]
            return


def image(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def refinement_samples(rng):
    samples = [cycle(7), odd_k4(1, 2, 2), Graph.from_edges(9, [(0, i) for i in range(1, 9)])]
    return samples + [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(60)]


class TestRefinePartition:
    def test_matches_full_recount_fixpoint(self):
        for g in refinement_samples(random.Random(1)):
            cells = refine_partition(g.rows, [(1 << g.order) - 1])
            assert cells == full_recount(g.rows, [(1 << g.order) - 1])
            assert is_equitable(g.rows, cells)
            # Two levels of individualization, each refined against the new singleton only.
            for start, fresh in individualized(cells):
                below = refine_partition(g.rows, start, fresh)
                assert below == full_recount(g.rows, start)
                assert is_equitable(g.rows, below)
                for start2, fresh2 in individualized(below):
                    assert refine_partition(g.rows, start2, fresh2) == full_recount(g.rows, start2)

    def test_cell_order_invariant_under_relabelling(self):
        rng = random.Random(2)
        for g in refinement_samples(rng):
            n = g.order
            cells = refine_partition(g.rows, [(1 << n) - 1])
            for _ in range(5):
                p = list(range(n))
                rng.shuffle(p)
                h = relabel(g, p)
                mapped = [image(c, p) for c in cells]
                assert refine_partition(h.rows, [(1 << n) - 1]) == mapped
                for start, fresh in individualized(cells):
                    want = [image(c, p) for c in refine_partition(g.rows, start, fresh)]
                    got = refine_partition(h.rows, [image(c, p) for c in start],
                                           [image(fresh[0], p)])
                    assert got == want

    def test_canonical_search_matches_full_recount_tree(self):
        # The individualization tree refined by full recounts, walked to
        # every leaf, gives the bytes canonical_search finds refining
        # against the individualized vertex only.
        def least_leaf(rows, n, cells):
            if any(c & (c - 1) for c in cells):
                return min(least_leaf(rows, n, full_recount(rows, start))
                           for start, _ in individualized(cells))
            perm = [0] * n
            for pos, c in enumerate(cells):
                perm[c.bit_length() - 1] = pos
            return _adj_bytes(rows, n, perm)

        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.8))
            cells = refine_partition(g.rows, [(1 << g.order) - 1])
            assert canonical_search(g.rows, g.order, cells)[0] == least_leaf(g.rows, g.order, cells)


def round_by_tuples(rows, cells, fresh):
    """One refinement round keying every vertex of every cell by its tuple of
    counts towards every fresh cell."""
    new_cells, new_fresh = [], []
    for cell in cells:
        groups = {}
        for v in range(len(rows)):
            if cell >> v & 1:
                key = tuple(bin(rows[v] & c).count("1") for c in fresh)
                groups[key] = groups.get(key, 0) | 1 << v
        parts = [groups[key] for key in sorted(groups)]
        new_cells += parts
        new_fresh += parts[:-1]
    return new_cells, new_fresh


def homogeneous_by_members(rows, cells):
    """Every block empty or complete, counting the edges of every member."""
    for ci in cells:
        for cj in cells:
            edges = sum(bin(rows[v] & cj).count("1") for v in range(len(rows)) if ci >> v & 1)
            size_i, size_j = bin(ci).count("1"), bin(cj).count("1")
            if edges not in (0, size_i * (size_j - (ci == cj))):
                return False
    return True


class TestRefineRound:
    @staticmethod
    def refined(rows, cells, fresh):
        """Refine round by round, checking each round and the fixpoint against the references."""
        while fresh:
            want = round_by_tuples(rows, cells, fresh)
            cells, fresh = refine_round(rows, cells, fresh)
            assert (cells, fresh) == want
        assert _homogeneous(rows, cells) == homogeneous_by_members(rows, cells)
        return cells

    def check(self, g):
        full = [(1 << g.order) - 1]
        cells = self.refined(g.rows, full, full)
        for start, fresh in individualized(cells):
            below = self.refined(g.rows, start, fresh)
            for start2, fresh2 in individualized(below):
                self.refined(g.rows, start2, fresh2)

    def test_refinement_samples(self):
        for g in refinement_samples(random.Random(5)):
            self.check(g)

    def test_vertex_transitive_graphs(self):
        for g, _ in vertex_transitive_graphs():
            self.check(g)

    def test_isolated_vertices(self):
        # Isolated vertices are never neighbours of a fresh cell: they stay
        # in the key-0 group of their cell.
        samples = [Graph.from_edges(5, []), Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)]),
                   Graph.from_edges(8, [(i, (i + 1) % 5) for i in range(5)]),
                   Graph.from_edges(7, [(0, 1), (2, 3), (3, 4)])]
        rng = random.Random(6)
        samples += [random_graph(rng, rng.randint(4, 10), 0.15) for _ in range(20)]
        assert all(0 in g.degrees() for g in samples[:4])
        for g in samples:
            self.check(g)


def unpruned_search(rows, n, cells):
    """The individualization tree walked to every leaf: first least (bytes, perm)."""
    best = None

    def rec(cells):
        nonlocal best
        if any(c & (c - 1) for c in cells) and not _homogeneous(rows, cells):
            for start, fresh in individualized(cells):
                rec(refine_partition(rows, start, fresh))
            return
        perm = [0] * n
        pos = 0
        for c in cells:
            for v in range(n):
                if c >> v & 1:
                    perm[v] = pos
                    pos += 1
        b = _adj_bytes(rows, n, perm)
        if best is None or b < best[0]:
            best = (b, tuple(perm))

    rec(cells)
    return best


class TestPrunedTree:
    @staticmethod
    def agree(g):
        cells = refine_partition(g.rows, [(1 << g.order) - 1])
        assert canonical_search(g.rows, g.order, cells)[:2] == unpruned_search(g.rows, g.order, cells)

    def test_random_graphs_match_unpruned_walk(self):
        rng = random.Random(4)
        for _ in range(150):
            self.agree(random_graph(rng, rng.randint(1, 9), rng.random()))

    def test_vertex_transitive_graphs_match_unpruned_walk(self):
        for g, _ in vertex_transitive_graphs():
            self.agree(g)
            # Relabelled copies start the walk from other first paths.
            rng = random.Random(g.order)
            for _ in range(3):
                p = list(range(g.order))
                rng.shuffle(p)
                self.agree(relabel(g, p))


# -- the packed-key kernels, kept as references for the bit-plane ones -------

def packed_round(rows, cells, fresh):
    """One refinement round keyed by packed counts: every neighbour of a fresh
    member gets its counts towards the fresh cells packed six bits a count
    into one int, and each cell's sub-cells are sorted by that key."""
    touched = _neighbors_of_set(rows, sum(fresh))
    new_cells = []
    new_fresh = []
    for cell in cells:
        hit = cell & touched
        if not hit or cell & (cell - 1) == 0:
            new_cells.append(cell)
            continue
        groups = {0: cell ^ hit} if hit != cell else {}
        for v in _bits(hit):
            key = 0
            for c in fresh:
                key = key << 6 | (rows[v] & c).bit_count()
            groups[key] = groups.get(key, 0) | 1 << v
        if len(groups) == 1:
            new_cells.append(cell)
        else:
            parts = [groups[key] for key in sorted(groups)]
            new_cells += parts
            new_fresh += parts[:-1]
    return new_cells, new_fresh


def packed_refine(rows, cells, fresh):
    """``packed_round`` until no cell splits, a discrete partition included."""
    while fresh:
        cells, fresh = packed_round(rows, cells, fresh)
    return cells


def packed_walk(rows, root, leaf, transpositions, cells, on_first):
    for i, c in enumerate(cells):
        if c & (c - 1):
            if _homogeneous(rows, cells):
                transpositions(cells)
                return leaf(cells)
            child_on_first = on_first
            for v in _bits(c):
                if on_first and _find(root, v) != v:
                    continue
                b = 1 << v
                below = packed_refine(rows, cells[:i] + [b, c ^ b] + cells[i + 1:], [b])
                if packed_walk(rows, root, leaf, transpositions, below, child_on_first) and not on_first:
                    return True
                child_on_first = False
            return False
    return leaf(cells)


def packed_search(rows, n, cells):
    """The canonical search with the packed-key refinement, building the
    inverse of every leaf and offering each generator to the union-find
    point by point."""
    gens = []
    root = list(range(n))
    swapped = set()
    first = best = None

    def add(g):
        gens.append(g)
        for v, w in enumerate(g):
            if v != w:
                _union(root, v, w)

    def leaf(cells):
        nonlocal first, best
        perm = [0] * n
        inv = [0] * n
        pos = 0
        for c in cells:
            for v in _bits(c):
                perm[v] = pos
                inv[pos] = v
                pos += 1
        b = _adj_bytes(rows, n, perm)
        if first is None:
            first = (b, inv)
        elif b == first[0]:
            add(tuple([first[1][p] for p in perm]))
            return True
        if best is None or b < best[0]:
            best = (b, tuple(perm))
        return False

    def transpositions(cells):
        for c in cells:
            members = list(_bits(c))
            for a, b in zip(members, members[1:]):
                if (a, b) not in swapped:
                    swapped.add((a, b))
                    g = list(range(n))
                    g[a], g[b] = b, a
                    add(tuple(g))

    packed_walk(rows, root, leaf, transpositions, cells, True)
    return best[0], best[1], [_find(root, v) for v in range(n)], gens


def checked(real, reference, calls):
    """``real``, asserting on every call that ``reference`` returns the same."""
    def wrapper(*args):
        out = real(*args)
        assert out == reference(*args), args
        calls[real.__name__] += 1
        return out
    return wrapper


def check_every_call(monkeypatch, name, reference, run):
    """Run ``run()`` with canon's and search's ``name`` checked against ``reference``."""
    calls = Counter()
    wrapper = checked(getattr(canon, name), reference, calls)
    monkeypatch.setattr(canon, name, wrapper)
    monkeypatch.setattr(search, name, wrapper)
    run()
    return calls[name]


def stream(**kwargs):
    return sum(1 for _ in enumerate_graphs(SearchConfig(**kwargs)))


def top_count(rows, fresh):
    """The largest count of neighbours any vertex has in one fresh cell."""
    return max((rows[v] & c).bit_count() for c in fresh for v in range(len(rows)))


class TestAgainstPackedKernels:
    """The bit-plane round and the leaner search leaf against the kernels
    they replaced, call by call."""

    def test_every_round_of_the_streams(self, monkeypatch):
        rounds = check_every_call(monkeypatch, "refine_round", packed_round, lambda: (
            stream(k=3, l=2, n_max=10), stream(k=3, l=2, n_max=14, prune_rules=ALL_RULES),
            stream(k=2, l=1, n_max=9), stream(k=1, l=1, n_max=7)))
        assert rounds > 14_000, rounds

    def test_counts_up_to_63(self):
        # Stars up to K_{1,63}, complete bipartite graphs and dense random
        # graphs: counts towards one fresh cell from 32 to 63 need all six
        # planes, and adding 63 rows one by one takes every carry.
        rng = random.Random(7)
        graphs = [Graph.from_edges(s + 1, [(0, i) for i in range(1, s + 1)]) for s in (31, 32, 33, 48, 63)]
        graphs += [Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
                   for a, b in ((1, 40), (3, 33), (5, 59), (20, 44))]
        graphs += [random_graph(rng, rng.randint(40, 64), rng.uniform(0.6, 0.95)) for _ in range(6)]
        top = 0
        for g in graphs:
            full = [(1 << g.order) - 1]
            top = max(top, top_count(g.rows, full))
            starts = [(full, full)] + list(individualized(packed_refine(g.rows, full, full)))
            for cells, fresh in starts[:4]:
                while fresh:
                    want = packed_round(g.rows, cells, fresh)
                    cells, fresh = refine_round(g.rows, cells, fresh)
                    assert (cells, fresh) == want
        assert top == 63

    def test_every_search_of_the_streams(self, monkeypatch):
        searches = check_every_call(monkeypatch, "canonical_search", packed_search, lambda: (
            stream(k=3, l=2, n_max=10), stream(k=2, l=1, n_max=9), stream(k=1, l=1, n_max=8)))
        assert searches > 2_000, searches

    def test_query_corpus(self, monkeypatch):
        # Every search the single-graph queries make on the corpus and on a
        # relabelled copy of each graph: canonical forms and cores.
        rng = random.Random(8)

        def queries():
            for g in corpus():
                p = list(range(g.order))
                rng.shuffle(p)
                for h in (g, relabel(g, p)):
                    canonical_form(h)
                    is_core(h)

        assert check_every_call(monkeypatch, "canonical_search", packed_search, queries) > 100
