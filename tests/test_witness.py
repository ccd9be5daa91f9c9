"""Odd-K4 and odd-K3^2 finders and the Gerards dichotomy check (witness.py).

Every returned witness is checked as a certificate by its own ``verify``,
and the dichotomy (Gerards, J. Graph Theory 12 (1988) 73-83: a graph with
neither obstruction maps to its shortest odd cycle) is checked as a
property over random non-bipartite graphs.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oddhom
from oddhom import (
    INFINITE,
    Budget,
    BudgetExceededError,
    Graph,
    complete,
    cycle,
    find_homomorphism,
    find_odd_k4,
    find_odd_k32,
    generalized_mycielski,
    gerards_dichotomy_check,
    odd_girth,
    odd_k4,
    odd_k32,
    witness,
)
from oddhom.graphs import _bits

from conftest import corpus, cube, random_graph

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


def reference_k4_verify(w, g):
    """``OddK4Witness.verify`` as it was before ``_simple_mask``: each test
    written out by hand."""
    if len(set(w.branch)) != 4:
        return False
    interiors = set()
    for idx, p in enumerate(w.paths):
        u, v = (w.branch[a] for a in witness._K4_EDGES[idx])
        if p[0] != u or p[-1] != v or len(set(p)) != len(p):
            return False
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                return False
        inner = set(p[1:-1])
        if inner & set(w.branch) or inner & interiors:
            return False
        interiors |= inner
    return all(f % 2 == 1 for f in w.face_lengths)


def reference_k32_verify(w, g):
    """``OddK32Witness.verify`` as it was before ``_simple_mask``."""
    masks = []
    for c in w.cycles:
        if len(c) % 2 == 0 or len(set(c)) != len(c):
            return False
        for a, b in zip(c, c[1:] + c[:1]):
            if not g.has_edge(a, b):
                return False
        m = 0
        for v in c:
            m |= 1 << v
        masks.append(m)
    pmasks = []
    for (i, j), p in zip(witness._K32_PAIRS, w.paths):
        pm = 0
        for v in p:
            pm |= 1 << v
        if len(set(p)) != len(p):
            return False
        if len(p) == 1:
            if masks[i] & masks[j] != pm:
                return False
        elif masks[i] & masks[j]:
            return False
        else:
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    return False
            if not (1 << p[0] & masks[i] and 1 << p[-1] & masks[j]):
                return False
            inner = pm ^ (1 << p[0]) ^ (1 << p[-1])
            if inner & (masks[0] | masks[1] | masks[2]):
                return False
            third = masks[3 - i - j]
            if pm & third:
                return False
        pmasks.append(pm)
    return not (pmasks[0] & pmasks[1] or pmasks[0] & pmasks[2] or pmasks[1] & pmasks[2])


def mutations(seq, n, rng):
    """``seq`` with one vertex dropped, replaced or inserted, a vertex
    appended, reversed, two vertices swapped, rotated, or emptied."""
    out = [seq[::-1], ()]
    others = rng.sample(range(n), min(n, 3))
    for i in range(len(seq)):
        out.append(seq[:i] + seq[i + 1:])
        out += [seq[:i] + (v,) + seq[i + 1:] for v in others]
        out += [seq[:i] + (v,) + seq[i:] for v in others]
        out += [seq[:i] + (seq[j],) + seq[i + 1:j] + (seq[i],) + seq[j + 1:]
                for j in range(i + 1, len(seq))]
        out.append(seq[i:] + seq[:i])
    return out + [seq + (v,) for v in others]


def mutated_witnesses(w, fields, n, rng):
    """``w``, then ``w`` with one vertex sequence of ``fields`` mutated."""
    yield w
    for field in fields:
        seqs = getattr(w, field)
        for k, seq in enumerate(seqs):
            for m in mutations(seq, n, rng):
                yield dataclasses.replace(w, **{field: seqs[:k] + (m,) + seqs[k + 1:]})


def verifier_graphs():
    """Graphs on which a finder returns a witness: the query corpus up to
    order 22, odd-K4s, odd-K3^2s and random graphs of order <= 10."""
    rng = random.Random(31)
    graphs = [g for g in corpus() if g.order <= 22]
    graphs += [odd_k4(a, b, c) for a, b, c in itertools.product(range(1, 4), repeat=3)
               if (a + b + c) % 2]
    graphs += [odd_k32(c, p) for c in SWEEP_CYCLES[:4] for p in [(0, 1, 2), (1, 1, 1), (2, 0, 0)]]
    return graphs + [random_graph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.6))
                     for _ in range(60)]


class TestVerifiers:
    """Both ``verify`` methods through ``_simple_mask`` give the hand-written
    tests' answers, and False where those raised."""

    @pytest.mark.parametrize("finder, reference, fields", [
        (find_odd_k4, reference_k4_verify, ("paths",)),
        (find_odd_k32, reference_k32_verify, ("cycles", "paths")),
    ], ids=["odd_k4", "odd_k32"])
    def test_same_answers_as_hand_written_tests(self, finder, reference, fields):
        rng = random.Random(32)
        outcomes = Counter()
        for g in verifier_graphs():
            w = finder(g)
            if w is None:
                continue
            for m in mutated_witnesses(w, fields, g.order, rng):
                got = m.verify(g)
                try:
                    want = reference(m, g)
                except (IndexError, ValueError):
                    want = "raised"
                assert got == (want is True), (g.rows, m, want)
                outcomes[want] += 1
        assert outcomes[True] and outcomes[False] and outcomes["raised"], outcomes

    def test_simple_mask(self):
        g = cycle(5)
        assert witness._simple_mask(g, (2,)) == 1 << 2
        assert witness._simple_mask(g, (0, 1, 2)) == 0b111
        assert witness._simple_mask(g, (0, 1, 2, 3, 4), closed=True) == 0b11111
        assert witness._simple_mask(g, (0, 1, 2, 3, 4)) == 0b11111
        for bad in [(), (0, 2), (0, 1, 0), (4, 5), (-1, 0), (5,)]:
            assert witness._simple_mask(g, bad) == 0, bad
        for bad in [(), (0,), (0, 1), (0, 1, 2, 3), (0, 1, 2, 1, 0)]:
            assert witness._simple_mask(g, bad, closed=True) == 0, bad

    @pytest.mark.parametrize("w, reference", [
        # A thread that walks out to a pendant vertex and back: its faces
        # keep their parity, but it repeats vertex 4.
        (witness.OddK4Witness((0, 1, 2, 3), ((0, 1), (2, 3), (0, 4, 8, 4, 2), (3, 5, 1),
                                             (0, 6, 3), (2, 7, 1))),
         reference_k4_verify),
        # The paths from cycle 0 to cycles 1 and 2 both start at vertex 0.
        (witness.OddK32Witness(((0, 1, 2), (3, 4, 5), (6, 7, 8)),
                               ((0, 9, 3), (0, 10, 6), (4, 11, 7))),
         reference_k32_verify),
        # Cycles 0 and 1 share vertex 2, but are joined by a longer path.
        (witness.OddK32Witness(((0, 1, 2), (2, 3, 4), (5, 6, 7)),
                               ((0, 8, 3), (1, 9, 5), (4, 10, 6))),
         reference_k32_verify),
        # The path from cycle 0 to cycle 1 runs through vertex 6 of cycle 2.
        (witness.OddK32Witness(((0, 1, 2), (3, 4, 5), (6, 7, 8)),
                               ((0, 6, 3), (1, 9, 7), (4, 10, 8))),
         reference_k32_verify),
    ], ids=["odd_k4_walk", "odd_k32_paths_meet", "odd_k32_long_path_beside_shared_vertex",
            "odd_k32_path_through_third_cycle"])
    def test_near_misses(self, w, reference):
        # Each witness fails one condition, one that no mutation of a
        # finder's witness above isolates, on the graph of its own edges.
        cycles = getattr(w, "cycles", ())
        edges = {frozenset(e) for c in cycles for e in zip(c, c[1:] + c[:1])}
        edges |= {frozenset(e) for p in w.paths for e in zip(p, p[1:])}
        g = Graph.from_edges(1 + max(v for e in edges for v in e), [tuple(e) for e in edges])
        assert not reference(w, g)
        assert not w.verify(g)

    def test_odd_k4_needs_four_branch_slots(self):
        # Branch slots 0 and 1 are one vertex, joined by a length-0 thread,
        # so the six threads span three branch vertices and no odd-K4: the
        # graph is two triangles and a 4-cycle through vertex 0.  The
        # hand-written tests read the 5-tuple's set, which has four
        # members, and accepted it.
        g = Graph.from_edges(7, [(0, 1), (1, 4), (4, 0), (2, 0), (0, 5), (5, 2),
                                 (1, 6), (6, 2)])
        w = witness.OddK4Witness((0, 0, 1, 2, 3),
                                 ((0,), (1, 6, 2), (0, 1), (2, 0), (0, 5, 2), (1, 4, 0)))
        assert find_odd_k4(g) is None
        assert reference_k4_verify(w, g)
        assert not w.verify(g)

    def test_entries_past_the_witness_are_rejected(self):
        # The hand-written odd-K3^2 test read only the first three paths
        # (and checked a fourth cycle but joined only three).
        g = odd_k32((3, 3, 3), (1, 1, 1))
        w = find_odd_k32(g)
        for extra in [dataclasses.replace(w, paths=w.paths + ((99,),)),
                      dataclasses.replace(w, cycles=w.cycles + (w.cycles[0],))]:
            assert reference_k32_verify(extra, g)
            assert not extra.verify(g)
        k4 = find_odd_k4(odd_k4(1, 2, 2))
        assert not dataclasses.replace(k4, paths=k4.paths + (k4.paths[0],)).verify(odd_k4(1, 2, 2))


def reference_paths_between(rows, u, v, forbidden, budget):
    """``witness._paths_between`` without its distance cut: one DFS per path
    length over every partial path, the search whose order the finders'
    witnesses were first fixed by."""
    for target in range(1, len(rows)):
        stack = [(u, 1 << u, (u,))]
        while stack:
            cur, used, path = stack.pop()
            budget.tick("path search")
            depth = len(path) - 1
            if depth == target:
                continue
            row = rows[cur]
            if depth + 1 == target:
                if row >> v & 1:
                    yield path + (v,)
                continue
            for w in _bits(row & ~used & ~forbidden):
                if w != v:
                    stack.append((w, used | 1 << w, path + (w,)))


def path_graphs():
    """The query corpus up to order 22, then random graphs of order <= 12.

    Edge probability stays below 1/2: a dense order-12 graph has millions of
    paths between two vertices.
    """
    rng = random.Random(1906)
    graphs = [g for g in corpus() if g.order <= 22]
    return graphs + [random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.45))
                     for _ in range(40)]


PATH_GRAPHS = path_graphs()


def path_queries(g, seed, unmasked_at_22):
    """(u, v, forbidden): every ordered pair with a random forbidden mask, and
    every pair u < v with none.  On order 22 (``generalized_mycielski(3)``,
    about 19,000 paths a pair) only ``unmasked_at_22`` random pairs go
    without a mask."""
    rng = random.Random(seed)
    n = g.order
    empty = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if n >= 22:
        empty = rng.sample(empty, unmasked_at_22)
    return ([(u, v, rng.getrandbits(n)) for u in range(n) for v in range(n) if u != v]
            + [(u, v, 0) for u, v in empty])


class TestPathsBetween:
    @pytest.mark.parametrize("index", range(len(PATH_GRAPHS)))
    def test_same_sequence_as_uncut_deepening(self, index):
        g = PATH_GRAPHS[index]
        for u, v, forbidden in path_queries(g, index, 1):
            cut, uncut = Budget(), Budget()
            got = list(witness._paths_between(g.rows, u, v, forbidden, cut))
            assert got == list(reference_paths_between(g.rows, u, v, forbidden, uncut)), \
                (u, v, forbidden)
            assert cut.nodes <= uncut.nodes

    @pytest.mark.parametrize("index", range(len(PATH_GRAPHS)))
    def test_same_paths_as_networkx(self, index):
        nx = pytest.importorskip("networkx")
        g = PATH_GRAPHS[index]
        for u, v, forbidden in path_queries(g, index, 0):
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.order))
            h.remove_nodes_from([w for w in range(g.order)
                                 if forbidden >> w & 1 and w not in (u, v)])
            got = list(witness._paths_between(g.rows, u, v, forbidden, Budget()))
            assert set(got) == {tuple(p) for p in nx.all_simple_paths(h, u, v)}
            assert len(set(got)) == len(got)
            assert all(len(p) <= len(q) for p, q in zip(got, got[1:]))


class TestWitnessesPinned:
    """The finders return what they returned over the uncut path search."""

    @pytest.mark.parametrize("finder", [find_odd_k4, find_odd_k32, gerards_dichotomy_check])
    def test_same_witnesses_as_uncut_search(self, monkeypatch, finder):
        graphs = [g for g in corpus() if g.order <= 20]
        got = [finder(g) for g in graphs]
        assert any(w is not None for w in got)
        monkeypatch.setattr(witness, "_paths_between", reference_paths_between)
        assert [finder(g) for g in graphs] == got


class TestSelfChecks:
    def test_failed_recheck_raises_under_optimisation(self):
        # A bare assert would vanish under -O and let the witness through.
        script = (
            "import sys\n"
            "from oddhom import odd_k4, odd_k32, witness\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not running under -O')\n"
            "witness.OddK4Witness.verify = lambda self, g: False\n"
            "witness.OddK32Witness.verify = lambda self, g: False\n"
            "for finder, g in ((witness.find_odd_k4, odd_k4(1, 2, 2)),\n"
            "                  (witness.find_odd_k32, odd_k32((3, 3, 3), (1, 1, 1)))):\n"
            "    try:\n"
            "        finder(g)\n"
            "    except AssertionError:\n"
            "        continue\n"
            "    sys.exit(finder.__name__ + ' returned a witness that failed its check')\n"
        )
        src = os.path.dirname(os.path.dirname(oddhom.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBudget:
    # Each search is exhaustive (None) and takes more than the 1,024 ticks
    # between two looks at the clock, so a zero budget must cut it short.
    @pytest.mark.parametrize("finder, g", [(find_odd_k4, cube()),
                                           (find_odd_k32, generalized_mycielski(2))])
    def test_zero_budget_raises_instead_of_none(self, finder, g):
        unlimited = Budget()
        assert finder(g, unlimited) is None and unlimited.nodes > 1024
        with pytest.raises(BudgetExceededError):
            finder(g, Budget(seconds=0))


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
