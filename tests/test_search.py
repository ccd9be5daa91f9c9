"""Enumeration, canonical augmentation and the eta driver (search.py).

Counts are checked against brute-force classes and published sequences,
automorphism generators against a permutation oracle, and the eta driver
against its own serial run under every way of splitting or resuming it.
"""

import itertools
import json
import random
from collections import Counter

import pytest

from oddhom import (
    ALL_RULES,
    ORDER15_VALID_RULES,
    Budget,
    Graph,
    SearchConfig,
    claim_filter,
    complete,
    cycle,
    enumerate_graphs,
    eta_search,
    from_graph6,
    generalized_mycielski,
    is_connected,
    odd_k4,
    odd_girth,
    to_graph6,
)
from oddhom import search
from oddhom.canon import canonical_bytes, canonical_search, refine_partition
from oddhom.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from oddhom.graphs import delete_vertex
from oddhom.hom import VertexMap, verify_mapping
from oddhom.table import designated_odd_k4
from oddhom.search import (
    RULE_CONNECTED,
    RULE_MAX_DEGREE_3_SECONDNBHD,
    RULE_NO_4_CYCLE,
    RULE_NO_6_CYCLE,
    _accepted,
    _attachment_sets,
    _conflict_masks,
    _extend_colouring,
    _indep_sets,
    _pieces,
    _root_stream,
    _rules,
    _set_orbit,
)

from conftest import brute_classes, random_graph, vertex_transitive_graphs

A001349 = [1, 1, 2, 6, 21, 112, 853, 11117]  # connected graphs
A024607 = [1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832]  # connected triangle-free graphs
ODD_GIRTH_7 = [1, 1, 1, 3, 5, 17, 45, 184, 748, 4143]  # connected, odd-girth >= 7
# ALL_RULES, k=3: the odd-girth-7 stream under the three hereditary rules
# (no 4-cycle, no 6-cycle, degree/second-neighbourhood caps); checked against
# the filtered unconditional stream up to n = 10 below.
MINIMAL_OG7 = [1, 1, 1, 2, 2, 4, 7, 13, 23, 51, 105, 246, 557, 1348]
HEREDITARY = (RULE_NO_4_CYCLE, RULE_NO_6_CYCLE, RULE_MAX_DEGREE_3_SECONDNBHD)


def stream_counts(cfg):
    counts = Counter(g.order for g in enumerate_graphs(cfg))
    return [counts[n] for n in range(1, cfg.n_max + 1)]


class TestEnumerationCounts:
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_brute_force_classes(self, k):
        by_order = {}
        for g in enumerate_graphs(SearchConfig(k=k, l=1, n_max=6)):
            by_order.setdefault(g.order, []).append(canonical_bytes(g))
        for n in range(1, 7):
            got = by_order.get(n, [])
            assert len(got) == len(set(got)), f"isomorphic duplicates at order {n}"
            want = {canonical_bytes(g) for g in brute_classes(n, min_odd_girth=2 * k + 1)}
            assert set(got) == want, f"order {n}"

    def test_connected_graphs_a001349(self):
        assert stream_counts(SearchConfig(k=1, l=1, n_max=8)) == A001349

    def test_triangle_free_a024607(self):
        assert stream_counts(SearchConfig(k=2, l=1, n_max=10)) == A024607

    def test_odd_girth_7(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=10)) == ODD_GIRTH_7

    def test_minimal_counterexample_rules(self):
        cfg = SearchConfig(k=3, l=2, n_max=14, prune_rules=ALL_RULES)
        assert stream_counts(cfg) == MINIMAL_OG7

    def test_pruned_stream_is_filtered_unconditional_stream(self):
        # Pruning by hereditary rules must drop exactly the graphs that fail
        # them, whatever n_max is: the oracle filters the unpruned stream.
        def classes(cfg, keep):
            out = Counter()
            for g in enumerate_graphs(cfg):
                if keep(g):
                    out[g.order, canonical_bytes(g)] += 1
            return out

        pruned = classes(SearchConfig(k=3, l=2, n_max=10, prune_rules=ALL_RULES),
                         lambda g: True)
        oracle = classes(SearchConfig(k=3, l=2, n_max=10),
                         lambda g: all(claim_filter(g, r) for r in HEREDITARY))
        assert pruned == oracle
        assert set(pruned.values()) == {1}
        assert [sum(1 for n, _ in pruned if n == m) for m in range(1, 11)] == MINIMAL_OG7[:10]

    def test_no_isomorphic_duplicates_triangle_free(self):
        seen = [canonical_bytes(g) for g in enumerate_graphs(SearchConfig(k=2, l=1, n_max=9))]
        assert len(seen) == len(set(seen)) == sum(A024607[:9])

    @pytest.mark.slow
    def test_odd_girth_7_order_11(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=11)) == ODD_GIRTH_7 + [26532]

    @pytest.mark.stretch
    def test_odd_girth_7_order_12(self):
        assert stream_counts(SearchConfig(k=3, l=2, n_max=12)) == ODD_GIRTH_7 + [26532, 221032]


class TestDegreeBound:
    @staticmethod
    def dropped_sets_rejected(cfg):
        # The bound may only drop attachment sets whose child the canonical
        # test rejects anyway.  cand and max_size are built as in
        # _descendants, so the degree-3 cap meets the m + 1 cap here too.
        growth = _rules(cfg.prune_rules, "growth")
        dropped = 0
        for n, rows, *_ in _root_stream(cfg, Budget()):
            conf = _conflict_masks(rows, n, cfg.k, growth)
            cand, max_size = (1 << n) - 1, n
            if RULE_MAX_DEGREE_3_SECONDNBHD in cfg.prune_rules:
                cand = sum(1 << v for v in range(n) if rows[v].bit_count() < 3)
                max_size = 3
            every = set(_indep_sets(cand, conf, max_size))
            pieces = _pieces(rows, n)
            kept = _attachment_sets(rows, n, cand, conf, max_size, pieces)
            assert set(kept) <= every
            for S in every - set(kept):
                child = tuple(r | 1 << n if S >> i & 1 else r for i, r in enumerate(rows)) + (S,)
                assert _accepted(child, n + 1, S, pieces) is None, (rows, S)
                dropped += 1
        return dropped

    @pytest.mark.parametrize("k", [1, 2])
    def test_dropped_sets_give_rejected_children(self, k):
        # Every parent of order <= 7.
        assert self.dropped_sets_rejected(SearchConfig(k=k, l=1, n_max=7)) > 1000

    def test_dropped_sets_under_degree_3_cap(self):
        cfg = SearchConfig(k=3, l=2, n_max=11, prune_rules=frozenset({RULE_CONNECTED, *HEREDITARY}))
        assert self.dropped_sets_rejected(cfg) > 100


def full_refinement_accepted(rows_t, n):
    """The canonical-deletion test refining every child to its fixpoint.

    Returns None (reject) or the fixpoint cells; the accept-or-reject
    decision is the one ``_accepted`` must reach with fewer rounds.
    """
    added = n - 1
    degs = [r.bit_count() for r in rows_t]

    def noncut(v):
        return is_connected(delete_vertex(Graph(rows_t), v))

    da = degs[added]
    if any(degs[v] < da and noncut(v) for v in range(added)):
        return None
    cells = refine_partition(rows_t, [(1 << n) - 1])
    ca = next(i for i, cell in enumerate(cells) if cell >> added & 1)
    if any(cell >> v & 1 and degs[v] == da and noncut(v)
           for cell in cells[:ca] for v in range(added)):
        return None
    tie = [added] + [v for v in range(added) if cells[ca] >> v & 1 and noncut(v)]
    if len(tie) > 1:
        _, perm, orbit, _ = canonical_search(rows_t, n, cells)
        if orbit[min(tie, key=perm.__getitem__)] != orbit[added]:
            return None
    return cells


def decisive_stage(rows_t, n):
    """The first stage of ``_accepted`` that decides, by an independent oracle.

    Non-cutvertices come from deleting each vertex, and round-one keys are
    count tuples towards every degree cell but the last.  Returns
    "degree", "round-one reject", "round-one accept", "closed twins" or
    "open twins" (every rival with the added vertex's round-one key is a
    twin of it, and some, or none, is adjacent to it), or "rounds" when
    only further refinement or a canonical search decides.
    """
    added = n - 1
    degs = [r.bit_count() for r in rows_t]
    da = degs[added]
    noncut = [v for v in range(added) if is_connected(delete_vertex(Graph(rows_t), v))]
    if any(degs[v] < da for v in noncut) or all(degs[v] != da for v in noncut):
        return "degree"
    cells = [sum(1 << v for v in range(n) if degs[v] == d) for d in sorted(set(degs))]

    def key(v):
        return tuple((rows_t[v] & c).bit_count() for c in cells[:-1])

    rivals = [v for v in noncut if degs[v] == da]
    if any(key(v) < key(added) for v in rivals):
        return "round-one reject"
    tied = [v for v in rivals if key(v) == key(added)]
    if not tied:
        return "round-one accept"
    bit = 1 << added
    if all(rows_t[v] & ~bit == rows_t[added] & ~(1 << v) for v in tied):
        return "closed twins" if any(rows_t[added] >> v & 1 for v in tied) else "open twins"
    return "rounds"


def counting(name, calls):
    """``search.<name>``, counting its calls in ``calls[name]``."""
    real = getattr(search, name)

    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper


class TestEarlyExit:
    @pytest.mark.parametrize("k, n_max", [(1, 7), (2, 7), (3, 9)])
    def test_same_decision_as_full_refinement(self, k, n_max, monkeypatch):
        # Every independent attachment set of every parent below n_max,
        # including those the degree bound never builds.  A stage before
        # the rounds may neither refine nor search.
        work = Counter()
        for name in ("refine_round", "canonical_search"):
            monkeypatch.setattr(search, name, counting(name, work))
        cfg = SearchConfig(k=k, l=2 if k == 3 else 1, n_max=n_max)
        outcomes = Counter()
        for n, rows, *_ in _root_stream(cfg, Budget()):
            if n == n_max:
                continue
            full = (1 << n) - 1
            pieces = _pieces(rows, n)
            for S in _indep_sets(full, _conflict_masks(rows, n, k, []), n):
                child = tuple(r | 1 << n if S >> i & 1 else r for i, r in enumerate(rows)) + (S,)
                want = full_refinement_accepted(child, n + 1)
                work.clear()
                got = _accepted(child, n + 1, S, pieces)
                assert (got is None) == (want is None), (rows, S)
                stage = decisive_stage(child, n + 1)
                if stage != "rounds":
                    assert not work and got in (None, (None, None)), (rows, S, stage)
                    outcomes[stage] += 1
                else:
                    assert got is None or got[0] is None or got[0] == want, (rows, S)
                    assert work["canonical_search"] <= 1
                    outcomes["search" if work["canonical_search"] else "rounds"] += 1
        # Every stage decides some child.  Adjacent twins of degree 2 or
        # more close a triangle, so for k >= 2 the only closed twins are the
        # two vertices of K2.
        assert min(outcomes.values()) > 0, outcomes
        assert {"round-one reject", "round-one accept", "open twins", "search"} <= set(outcomes)
        assert (outcomes["closed twins"] > 1) == (k == 1), outcomes


class TestComponentTable:
    def test_noncut_agrees_with_deletion(self):
        # Every child of order up to 7 of every k = 1 parent (every connected
        # graph): S meets each piece of v iff the child minus v is connected.
        children = 0
        for n, rows, *_ in _root_stream(SearchConfig(k=1, l=1, n_max=6), Budget()):
            pieces = _pieces(rows, n)
            if n > 1:
                parent = Graph(rows)
                assert [len(p) <= 1 for p in pieces] == [
                    is_connected(delete_vertex(parent, v)) for v in range(n)]
            for S in range(1, 1 << n):
                child = Graph(tuple(r | 1 << n if S >> i & 1 else r for i, r in enumerate(rows)) + (S,))
                for v in range(n):
                    want = is_connected(delete_vertex(child, v))
                    assert all(S & p for p in pieces[v]) == want, (rows, S, v)
                children += 1
        assert children > 5_000


def test_accepted_canonical_searches_pinned(monkeypatch):
    # The round-one keys and the twin certificate leave few ties for the
    # canonical search: at most 800 of the searches on k = 3, n <= 10 are
    # made by _accepted.
    calls = Counter()
    real_accepted = search._accepted

    def counting_accepted(*args):
        before = calls["canonical_search"]
        out = real_accepted(*args)
        calls["accepted"] += calls["canonical_search"] - before
        return out

    monkeypatch.setattr(search, "canonical_search", counting("canonical_search", calls))
    monkeypatch.setattr(search, "_accepted", counting_accepted)
    assert stream_counts(SearchConfig(k=3, l=2, n_max=10)) == ODD_GIRTH_7
    assert 0 < calls["accepted"] <= 800, calls


def brute_automorphisms(g):
    edges = set(g.edges())
    return {
        p for p in itertools.permutations(range(g.order))
        if all((min(p[a], p[b]), max(p[a], p[b])) in edges for a, b in edges)
    }


def brute_orbits(n, autos):
    return [min(p[v] for p in autos) for v in range(n)]


def group_closure(n, gens):
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            hg = tuple(g[h[v]] for v in range(n))
            if hg not in group:
                group.add(hg)
                todo.append(hg)
    return group


def canonical(g):
    return canonical_search(g.rows, g.order, refine_partition(g.rows, [(1 << g.order) - 1]))


class TestAutomorphismOrbits:
    def test_every_class_up_to_6(self):
        for n in range(1, 7):
            for g in brute_classes(n, connected_only=False):
                autos = brute_automorphisms(g)
                _, _, orbit, gens = canonical(g)
                assert set(gens) <= autos
                assert group_closure(n, gens) == autos, g.edges()
                assert orbit == brute_orbits(n, autos)

    def test_random_graphs_order_7_8(self):
        rng = random.Random(7)
        for _ in range(8):
            n = rng.choice([7, 8])
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            autos = brute_automorphisms(g)
            _, _, orbit, gens = canonical(g)
            assert set(gens) <= autos
            assert orbit == brute_orbits(n, autos)

    def test_vertex_transitive_group_orders(self):
        # The pruned tree still yields generators of the whole group.
        for g, order in vertex_transitive_graphs():
            n = g.order
            _, _, orbit, gens = canonical(g)
            edges = set(g.edges())
            for p in gens:
                assert {(min(p[a], p[b]), max(p[a], p[b])) for a, b in edges} == edges
            assert orbit == [0] * n
            if order is not None:
                assert len(group_closure(n, gens)) == order, g.edges()

    def test_attachment_set_orbits(self):
        # Sibling pruning needs the whole group, not only its vertex orbits:
        # compare orbits of vertex sets with the brute-force group's.
        for g in brute_classes(5, connected_only=False):
            autos = brute_automorphisms(g)
            gens = canonical(g)[3]
            for s in range(1, 1 << 5):
                want = {sum(1 << p[v] for v in range(5) if s >> v & 1) for p in autos}
                assert _set_orbit(s, gens) == want


class TestIncrementalOddGirth:
    def test_streamed_value_matches_full_odd_girth(self):
        cfg = SearchConfig(k=2, l=1, n_max=9)
        for _, rows, og, *_ in _root_stream(cfg, Budget()):
            assert og == odd_girth(Graph(rows)), rows


def records_of(report):
    return [(r.n, r.enumerated, r.witness_count, r.witnesses) for r in report.records]


def solver_calls(monkeypatch):
    """(rows, map or None) of every solver call the search makes, as it makes them."""
    calls = []
    solve = search.find_homomorphism

    def recording(g, h):
        m = solve(g, h)
        calls.append((g.rows, m))
        return m

    monkeypatch.setattr(search, "find_homomorphism", recording)
    return calls


def atlas_non_3_colourable(max_n):
    """Per-order counts of connected graphs with a triangle and no proper 3-colouring.

    networkx's atlas lists every graph up to order 7; colourability is
    decided over all 3^n assignments.
    """
    nx = pytest.importorskip("networkx")
    counts = [0] * max_n
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        edges = list(g.edges())
        if n > max_n or not nx.is_connected(g) or not any(nx.triangles(g).values()):
            continue
        if not any(all(c[a] != c[b] for a, b in edges)
                   for c in itertools.product(range(3), repeat=n)):
            counts[n - 1] += 1
    return counts


class TestColourings:
    def test_witnesses_match_atlas(self, tmp_path):
        # k = 1: every graph with a triangle and no 3-colouring is a witness,
        # and so are its descendants; they start with no colouring.
        want = atlas_non_3_colourable(7)
        assert want == [0, 0, 0, 1, 4, 31, 334]
        cfg = SearchConfig(k=1, l=1, n_max=7)
        path = str(tmp_path / "eta.ckpt")
        for report in (eta_search(cfg), eta_search(cfg, jobs=2),
                       eta_search(cfg, checkpoint=path), eta_search(cfg, checkpoint=path)):
            assert [r.witness_count for r in report.records] == want
            assert [r.enumerated for r in report.records] == A001349[:7]

    @pytest.mark.parametrize("k, n_max", [(1, 7), (2, 9), (3, 10)])
    def test_carried_colourings_are_maps(self, k, n_max, monkeypatch):
        cfg = SearchConfig(k=k, l=2 if k == 3 else 1, n_max=n_max)
        target = cycle(2 * cfg.l + 1)
        calls = solver_calls(monkeypatch)
        coloured = set()
        for n, rows, _, colour, witness, *_ in _root_stream(cfg, Budget(), target=target):
            if colour is not None:
                assert verify_mapping(Graph(rows), target, VertexMap(n, target.order, colour)), rows
                assert witness is None
                coloured.add(rows)
        mapped = {rows for rows, m in calls if m is not None}
        assert mapped and mapped <= coloured

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_extension_finds_a_colour_when_one_exists(self, m):
        target = cycle(m)
        for size in (1, 2, 3):
            for colours in itertools.product(range(m), repeat=size):
                fits = [c for c in range(m) if all(target.has_edge(c, x) for x in colours)]
                got = _extend_colouring(colours, (1 << size) - 1, m)
                assert (got is None) == (not fits), colours
                if got is not None:
                    assert got[:size] == colours and got[size] in fits

    def test_solver_calls(self, monkeypatch, tmp_path):
        # Solving every odd-girth-5 class from scratch takes 732 calls.  A
        # frontier node keeps the colouring the stream gave it, in the serial
        # run (split at order 8), a checkpoint and its resume, so none of
        # them solves more.
        calls = solver_calls(monkeypatch)
        cfg = SearchConfig(k=2, l=1, n_max=9)
        report = eta_search(cfg)
        assert report.eta_lower_bound_established == 10
        assert len(calls) < 732 / 100
        path = tmp_path / "eta.ckpt"
        for run in (lambda: eta_search(cfg, checkpoint=str(path)),
                    lambda: eta_search(cfg, checkpoint=str(path))):
            calls.clear()
            assert records_of(run()) == records_of(report)
            assert len(calls) < 732 / 100
        assert path.exists()


class Killed(Exception):
    pass


class TestEtaDriver:
    CFG = SearchConfig(k=2, l=1, n_max=9)

    def test_split_and_resume_agree(self, tmp_path):
        serial = eta_search(self.CFG)
        assert not serial.truncated
        assert [r.enumerated for r in serial.records] == A024607[:9]
        assert serial.eta_lower_bound_established == 10
        want = records_of(serial)
        assert records_of(eta_search(self.CFG, jobs=2)) == want
        assert records_of(eta_search(self.CFG, jobs=2, budget=Budget(seconds=600))) == want
        path = tmp_path / "eta.ckpt"
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want
        assert path.exists()
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want

    def test_budget_counts_every_tick(self, tmp_path):
        # Workers tick pickled copies of the budget; their ticks must reach
        # the caller's, and the serial split must not count them twice.
        def nodes(cfg, **kw):
            budget = Budget()
            eta_search(cfg, budget=budget, **kw)
            return budget.nodes

        serial = nodes(self.CFG)
        assert serial > 0
        assert nodes(self.CFG, checkpoint=str(tmp_path / "eta.ckpt")) == serial
        assert nodes(self.CFG, jobs=2) == serial

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused(self, jobs, monkeypatch):
        with pytest.raises(ValueError, match="jobs"):
            eta_search(self.CFG, jobs=jobs)
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", "2", "--l", "1", "--max-n", "9", "--jobs", str(jobs)])
        assert exc.value.code == EXIT_USAGE

    def grown_roots(self, monkeypatch, die_after=None):
        """Record the root of every subtree the serial run grows; with
        ``die_after``, raise ``Killed`` in place of growing one more."""
        grown = []
        real = search._expand_subtree

        def expand(args):
            if len(grown) == die_after:
                raise Killed
            grown.append(args[0][0])
            return real(args)

        monkeypatch.setattr(search, "_expand_subtree", expand)
        return grown

    def test_killed_run_resumes_where_it_stopped(self, tmp_path, monkeypatch):
        want = records_of(eta_search(self.CFG))
        frontier = A024607[7]  # the subtree roots, at the split order 8
        path = tmp_path / "eta.ckpt"
        first = self.grown_roots(monkeypatch, die_after=3)
        with pytest.raises(Killed):
            eta_search(self.CFG, checkpoint=str(path))
        killed = path.read_bytes()
        assert len(killed.splitlines()) == 1 + 3  # the header and three subtrees
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes(killed)

        monkeypatch.undo()
        rest = self.grown_roots(monkeypatch)
        serial = Budget()
        assert records_of(eta_search(self.CFG, checkpoint=str(path), budget=serial)) == want
        assert len(rest) == frontier - 3
        assert not set(first) & set(rest)
        assert len(path.read_bytes().splitlines()) == 1 + frontier

        # Workers grow the same subtrees: the same ticks reach the caller.
        monkeypatch.undo()
        jobs = Budget()
        assert records_of(eta_search(self.CFG, jobs=2, checkpoint=str(copy), budget=jobs)) == want
        assert jobs.nodes == serial.nodes
        assert copy.read_bytes() == path.read_bytes()

    def test_line_cut_mid_write_grows_again(self, tmp_path, monkeypatch):
        want = records_of(eta_search(self.CFG))
        path = tmp_path / "eta.ckpt"
        eta_search(self.CFG, checkpoint=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        cut = lines[4]
        path.write_bytes(b"".join(lines[:4]) + cut[:len(cut) // 2])
        grown = self.grown_roots(monkeypatch)
        assert records_of(eta_search(self.CFG, checkpoint=str(path))) == want
        assert len(grown) == A024607[7] - 3
        assert grown[0] == tuple(json.loads(cut)[0])
        assert path.read_bytes().splitlines(keepends=True) == lines

    @pytest.mark.parametrize("kind", ["v2", "not a checkpoint", "other configuration"])
    def test_foreign_file_is_refused(self, kind, tmp_path, monkeypatch, capsys):
        path = tmp_path / "eta.ckpt"
        if kind == "v2":
            head = {"cfg": self.CFG.config_hash(), "counts": {}, "witnesses": {}}
            path.write_text(f"#oddhom-eta-checkpoint v2 {json.dumps(head)}\n")
        elif kind == "not a checkpoint":
            path.write_text("G?bF`w\n")
        else:
            eta_search(SearchConfig(k=2, l=1, n_max=8), checkpoint=str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a v3 eta checkpoint of this search configuration"):
            eta_search(self.CFG, checkpoint=str(path))
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", "2", "--l", "1", "--max-n", "9",
                  "--checkpoint", str(path)])
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert "eta(" not in out.out + out.err
        assert path.read_bytes() == before

    def test_truncated_report_claims_no_bound(self):
        report = eta_search(SearchConfig(k=2, l=1, n_max=10), budget=Budget(seconds=0))
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_node_budget_reaches_serial_subtrees(self):
        # The tree is split at order 8, and growing it that far ticks fewer
        # nodes than the 1,024 after which the budget first reads the clock,
        # so a spent deadline is seen only by the subtrees.
        frontier = Budget()
        for _ in enumerate_graphs(SearchConfig(k=2, l=1, n_max=8), frontier):
            pass
        assert frontier.nodes < 1024
        report = eta_search(SearchConfig(k=2, l=1, n_max=10), budget=Budget(seconds=0))
        assert [r.enumerated for r in report.records[:8]] == A024607[:8]
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_deadline_reaches_workers(self):
        # n_max = 11 takes seconds with two workers, many times the deadline.
        report = eta_search(SearchConfig(k=2, l=1, n_max=11), jobs=2, budget=Budget(seconds=0.5))
        assert report.truncated
        assert report.eta_lower_bound_established is None

    def test_cli_budget_under_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("ODDHOM_BUDGET_SECONDS", "0.2")
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "11", "--jobs", "2"])
        assert code == EXIT_BUDGET
        assert "eta(2,1) >=" not in capsys.readouterr().err

    def test_cli_truncated_prints_no_bound(self, monkeypatch, capsys):
        monkeypatch.setenv("ODDHOM_BUDGET_SECONDS", "0.001")
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "10"])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET
        assert "BUDGET EXCEEDED" in err
        assert "eta(2,1) >=" not in err

    def test_cli_complete_prints_bound(self, monkeypatch, capsys):
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        code = main(["search-eta", "--k", "2", "--l", "1", "--max-n", "7"])
        assert code == EXIT_OK
        assert "eta(2,1) >= 8" in capsys.readouterr().err

    def test_minimal_counterexample_search_bound_15(self, monkeypatch):
        calls = solver_calls(monkeypatch)
        report = eta_search(SearchConfig(k=3, l=2, n_max=14, prune_rules=ALL_RULES))
        # The solver runs only after the final rules: two graphs reach it.
        assert len(calls) <= 2
        assert not report.truncated
        assert report.minimal_counterexample_mode
        assert [r.enumerated for r in report.records] == MINIMAL_OG7
        assert report.first_witness_order is None
        assert report.eta_lower_bound_established == 15

    @pytest.mark.slow
    def test_eta_2_1_is_grotzsch(self):
        report = eta_search(SearchConfig(k=2, l=1, n_max=11), jobs=2)
        assert not report.truncated
        assert report.first_witness_order == 11
        assert report.eta_lower_bound_established == 11
        assert [r.enumerated for r in report.records] == A024607 + [90842]
        witnesses = report.witnesses_at(11)
        assert len(witnesses) == 1
        assert canonical_bytes(from_graph6(witnesses[0])) == canonical_bytes(generalized_mycielski(2))


class TestFourKCells:
    """The small 4k cells settled by exhaustion: eta(k, l) = 4k, and the
    designated odd-K4 that proves the upper bound is among the witnesses."""

    @staticmethod
    def check(k, l, witness_count, jobs=1):
        report = eta_search(SearchConfig(k=k, l=l, n_max=4 * k), jobs=jobs)
        assert not report.truncated
        assert report.first_witness_order == report.eta_lower_bound_established == 4 * k
        witnesses = report.witnesses_at(4 * k)
        found = {canonical_bytes(from_graph6(w)) for w in witnesses}
        assert len(witnesses) == len(found) == witness_count
        triple, p = designated_odd_k4(k)
        assert p == l
        assert canonical_bytes(odd_k4(*triple)) in found

    def test_eta_2_2_is_8(self):
        self.check(2, 2, 4)

    @pytest.mark.slow
    def test_eta_3_3_is_12(self):
        self.check(3, 3, 12, jobs=2)


class TestRuleScope:
    @pytest.mark.parametrize("k, l, n_max, rules", [
        (2, 1, 11, ALL_RULES),  # the Grötzsch graph has 4-cycles
        (3, 2, 15, ALL_RULES),  # fig2a has 4- and 6-cycles
        (3, 2, 16, ORDER15_VALID_RULES),
        (4, 2, 12, ORDER15_VALID_RULES),
        (3, 3, 12, frozenset({RULE_NO_4_CYCLE})),
    ])
    def test_out_of_scope_rejected(self, k, l, n_max, rules):
        with pytest.raises(ValueError, match="outside their scope"):
            SearchConfig(k=k, l=l, n_max=n_max, prune_rules=rules)

    @pytest.mark.parametrize("n_max, rules", [
        (14, ALL_RULES), (11, ALL_RULES), (15, ORDER15_VALID_RULES), (3, ALL_RULES),
    ])
    def test_in_scope_accepted(self, n_max, rules):
        assert SearchConfig(k=3, l=2, n_max=n_max, prune_rules=rules).prune_rules == rules

    def test_connected_holds_everywhere(self):
        cfg = SearchConfig(k=5, l=1, n_max=40, prune_rules={RULE_CONNECTED})
        assert cfg.prune_rules == {RULE_CONNECTED}

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown"):
            SearchConfig(k=3, l=2, n_max=10, prune_rules={"NO_SUCH_RULE"})
        with pytest.raises(ValueError, match="unknown"):
            claim_filter(cycle(7), "NO_SUCH_RULE")


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(to_graph6(g) + "\n")
    return str(path)


class TestCliExitCodes:
    def test_hom_found(self, tmp_path, capsys):
        code = main(["hom", write_graph(tmp_path, "c5", cycle(5)),
                     write_graph(tmp_path, "k3", complete(3))])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() != "NONE"

    def test_hom_none(self, tmp_path, capsys):
        code = main(["hom", write_graph(tmp_path, "k3", complete(3)),
                     write_graph(tmp_path, "c5", cycle(5))])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out.strip() == "NONE"

    def test_no_graph6_line(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.write_text("\n  \n")
        with pytest.raises(SystemExit) as exc:
            main(["odd-girth", str(empty)])
        assert exc.value.code == EXIT_USAGE
        assert "no graph6 line" in capsys.readouterr().err

    @pytest.mark.parametrize("k, l, n_max", [(2, 1, 11), (3, 2, 15)])
    def test_assume_minimal_out_of_scope(self, k, l, n_max, capsys, monkeypatch):
        monkeypatch.delenv("ODDHOM_BUDGET_SECONDS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["search-eta", "--k", str(k), "--l", str(l), "--max-n", str(n_max),
                  "--assume-minimal"])
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert "eta(" not in out.out + out.err
        assert "outside their scope" in out.err
