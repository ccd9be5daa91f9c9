"""The benchmark's workloads: inputs, one timed pass, and the output checks.

Three exhaustive eta searches and one corpus of single-graph queries, all
driven through ``oddhom``'s public API.  A workload builds its inputs once
(``setup``), then runs passes; each pass returns its wall time and its
outputs, and ``check`` compares those outputs with ``reference`` and the
certificate checks in ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

from oddhom import budget, canon, cli, constructions, graphs, hom, search, witness

from . import oracle, reference

#: Witness finders run only on corpus graphs up to this order.  On a
#: relabelled generalized_mycielski(3) (order 22) find_odd_k32 alone takes
#: 0.5-1.4 s depending on the permutation, which made the pass time follow
#: the seed; find_odd_k4 on generalized_mycielski(4) takes seconds.
WITNESS_MAX_ORDER = 20

#: Smoke mode keeps only query graphs up to this order.
SMOKE_MAX_ORDER = 16


class Checks:
    """Counts checked outputs and prints every mismatch by workload and name."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH {self.workload} {name} {detail}".rstrip(), file=sys.stderr)


def entry_points():
    """The public calls the benchmark makes, gathered so a trace can wrap them."""
    return types.SimpleNamespace(
        eta_search=search.eta_search,
        find_homomorphism=hom.find_homomorphism,
        is_core=hom.is_core,
        chromatic_number=hom.chromatic_number,
        canonical_form=canon.canonical_form,
        find_odd_k4=witness.find_odd_k4,
        find_odd_k32=witness.find_odd_k32,
        gerards_dichotomy_check=witness.gerards_dichotomy_check,
        cli_main=cli.main,
    )


def bindings(api):
    """(owner, attribute, span name) for every call the traced run times.

    The first block is what one module bound from another; the second is
    the benchmark's own entry points.  ``find_homomorphism`` is named by the
    module whose binding made the call, which splits its time by caller.
    """
    return [
        (search, "refine_partition", "canon.refine_partition"),
        (search, "marked_bytes", "canon.marked_bytes"),
        (search, "connected_without", "graphs.connected_without"),
        (search, "odd_reach_within", "graphs.odd_reach_within"),
        (search, "odd_girth", "graphs.odd_girth"),
        (search, "list_threads", "graphs.list_threads"),
        (search, "max_thread_length", "graphs.max_thread_length"),
        (search, "to_graph6", "graphs.graph6"),
        (search, "from_graph6", "graphs.graph6"),
        (search, "find_homomorphism", "hom.find_homomorphism.search"),
        (search, "is_core", "hom.is_core"),
        (hom, "find_homomorphism", "hom.find_homomorphism.hom"),
        (witness, "find_homomorphism", "hom.find_homomorphism.witness"),
        (witness, "find_odd_k4", "witness.find_odd_k4"),
        (witness, "find_odd_k32", "witness.find_odd_k32"),
        (api, "eta_search", "search.eta_search"),
        (api, "find_homomorphism", "hom.find_homomorphism.bench"),
        (api, "is_core", "hom.is_core"),
        (api, "chromatic_number", "hom.chromatic_number"),
        (api, "canonical_form", "canon.canonical_form"),
        (api, "find_odd_k4", "witness.find_odd_k4"),
        (api, "find_odd_k32", "witness.find_odd_k32"),
        (api, "gerards_dichotomy_check", "witness.gerards_dichotomy_check"),
        (api, "cli_main", "cli.main"),
    ]


@dataclass
class Pass:
    """One complete pass: its wall time and what it produced."""

    wall: float
    ops: int  # classes enumerated, or queries answered
    latencies: list  # seconds per request; a whole search is one request
    children: int = 0  # Budget.nodes of the search, when a budget was passed
    path_nodes: int = 0  # Budget.nodes summed over the witness finders
    outputs: object = None
    scale: float = 1.0  # calibration factor to nominal seconds, see calibrate.py


# -- the searches -------------------------------------------------------------------

@dataclass(frozen=True)
class SearchWorkload:
    name: str
    k: int
    l: int
    n_max: int
    smoke_n_max: int
    jobs: int = 1
    rules: frozenset = frozenset({"CONNECTED"})
    counts: tuple | None = None  # gated per-order counts, orders 1..len
    kind: str = field(default="search", init=False)

    def setup(self, seed, smoke):
        # Exhaustive and deterministic: the seed does not enter the inputs.
        n_max = self.smoke_n_max if smoke else self.n_max
        return search.SearchConfig(k=self.k, l=self.l, n_max=n_max, prune_rules=self.rules)

    def run_pass(self, api, cfg, seed, index, serial=False):
        """One search; ``serial`` runs it in-process, unsplit, with a no-limit budget."""
        b = budget.Budget() if serial else None
        jobs = 1 if serial else self.jobs
        t0 = perf_counter()
        report = api.eta_search(cfg, jobs=jobs, budget=b)
        wall = perf_counter() - t0
        classes = sum(r.enumerated for r in report.records)
        return Pass(wall, classes, [wall], children=b.nodes if b else 0, outputs=report)

    def check(self, cfg, p, checks):
        report = p.outputs
        got = {r.n: r.enumerated for r in report.records}
        if self.counts is not None:
            for n in range(1, cfg.n_max + 1):
                want = self.counts[n - 1]
                checks.expect(f"count[n={n}]", got.get(n) == want, f"got {got.get(n)}, want {want}")
        checks.expect("no_witness", report.first_witness_order is None,
                      f"first witness at order {report.first_witness_order}")
        checks.expect("bound", report.eta_lower_bound_established == cfg.n_max + 1,
                      f"got {report.eta_lower_bound_established}, want {cfg.n_max + 1}")
        checks.expect("not_truncated", not report.truncated)

    def split_order(self, cfg):
        """The order eta_search splits at when ``jobs`` > 1 and no width is set."""
        return min(8, cfg.n_max - 1)


# -- the query corpus ------------------------------------------------------------------

@dataclass
class Item:
    name: str
    graph: object
    edges: list
    target: object
    target_edges: set
    expect: dict


@dataclass(frozen=True)
class QueryWorkload:
    name: str
    kind: str = field(default="queries", init=False)

    def setup(self, seed, smoke):
        # The corpus is fixed; the seed only draws the relabellings of each pass.
        expect = reference.query_expectations()
        graphs_by_name = {name: constructions.fixture(name) for name in reference.QUERY_FIXTURES}
        for k in reference.QUERY_MYCIELSKI:
            graphs_by_name[f"mycielski{k}"] = constructions.generalized_mycielski(k)
        for k, (abc, _) in reference.DESIGNATED_ODD_K4.items():
            graphs_by_name[f"odd_k4_cell{k}"] = constructions.odd_k4(*abc)
        for cl, pl in reference.QUERY_ODD_K32:
            name = "odd_k32_" + "-".join(map(str, cl)) + "_" + "-".join(map(str, pl))
            graphs_by_name[name] = constructions.odd_k32(cl, pl)
        items = []
        for name, g in graphs_by_name.items():
            if smoke and g.order > SMOKE_MAX_ORDER:
                continue
            kind, m = expect[name]["target"]
            target = constructions.cycle(m) if kind == "cycle" else constructions.complete(m)
            items.append(Item(name, g, list(g.edges()), target,
                              oracle.edge_set(oracle.target_edges(kind, m)), expect[name]))
        return items

    def relabelled(self, items, seed, index):
        """A fresh random relabelling of every graph, drawn from (seed, pass index)."""
        rng = random.Random(seed * 1_000_003 + index)
        out = []
        for item in items:
            perm = list(range(item.graph.order))
            rng.shuffle(perm)
            edges = [(perm[a], perm[b]) for a, b in item.edges]
            out.append((edges, graphs.Graph.from_edges(item.graph.order, edges)))
        return out

    def run_pass(self, api, items, seed, index, serial=False):
        inputs = self.relabelled(items, seed, index)
        lat = []
        path_nodes = 0

        def timed(fn, *args):
            t0 = perf_counter()
            out = fn(*args)
            lat.append(perf_counter() - t0)
            return out

        results = []
        t_start = perf_counter()
        for item, (_, rg) in zip(items, inputs):
            res = {
                "map": timed(api.find_homomorphism, rg, item.target),
                "core": timed(api.is_core, rg),
                "chi": timed(api.chromatic_number, rg),
                "canon0": timed(api.canonical_form, item.graph),
                "canon1": timed(api.canonical_form, rg),
            }
            if item.graph.order <= WITNESS_MAX_ORDER:
                for key, fn in (("odd_k4", api.find_odd_k4), ("odd_k32", api.find_odd_k32),
                                ("dichotomy", api.gerards_dichotomy_check)):
                    b = budget.Budget()
                    res[key] = timed(fn, rg, b)
                    path_nodes += b.nodes
            results.append(res)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = timed(api.cli_main, ["table1"])
        wall = perf_counter() - t_start
        return Pass(wall, len(lat), lat, path_nodes=path_nodes,
                    outputs=(inputs, results, code, captured.getvalue()))

    def check(self, items, p, checks):
        inputs, results, code, table = p.outputs
        for item, (edges, _), res in zip(items, inputs, results):
            e = item.expect
            es = oracle.edge_set(edges)
            tag = item.name
            m = res["map"]
            if m is not None:
                checks.expect(f"{tag}.map_valid", oracle.is_homomorphism(edges, item.target_edges, m.image))
            checks.expect(f"{tag}.maps", (m is not None) == e["maps"],
                          f"got {m is not None}, want {e['maps']}")
            checks.expect(f"{tag}.chi", res["chi"] == e["chi"], f"got {res['chi']}, want {e['chi']}")
            if e["core"] is not None:
                checks.expect(f"{tag}.core", res["core"] == e["core"], f"got {res['core']}")
            c0, c1 = res["canon0"], res["canon1"]
            checks.expect(f"{tag}.canonical_bytes", c0.canonical_bytes == c1.canonical_bytes)
            r0, r1 = c0.relabeling, c1.relabeling
            checks.expect(f"{tag}.canonical_relabeling",
                          {frozenset((r0[a], r0[b])) for a, b in item.edges}
                          == {frozenset((r1[a], r1[b])) for a, b in edges})
            if "odd_k4" not in res:
                continue
            w = res["odd_k4"]
            if w is not None:
                checks.expect(f"{tag}.odd_k4_valid", oracle.verify_odd_k4(es, w.branch, w.paths))
            if e["odd_k4"]:
                checks.expect(f"{tag}.odd_k4_found", w is not None)
            w = res["odd_k32"]
            if w is not None:
                checks.expect(f"{tag}.odd_k32_valid", oracle.verify_odd_k32(es, w.cycles, w.paths))
            if e["odd_k32"]:
                checks.expect(f"{tag}.odd_k32_found", w is not None)
            d = res["dichotomy"]
            # Gerards: a graph with no map to its shortest odd cycle contains an
            # odd-K4 or an odd-K3^2.  Every "maps": False target in the corpus is
            # an odd cycle no longer than the graph's odd-girth, so the graph has
            # no map to its shortest odd cycle either.
            checks.expect(f"{tag}.dichotomy_branch", d.branch in ("maps", "odd_k4", "odd_k32"),
                          f"got {d.branch}")
            if e["maps"] is False:
                checks.expect(f"{tag}.dichotomy_no_map", d.branch != "maps")
            if d.odd_k4 is not None:
                checks.expect(f"{tag}.dichotomy_odd_k4_valid",
                              oracle.verify_odd_k4(es, d.odd_k4.branch, d.odd_k4.paths))
            if d.odd_k32 is not None:
                checks.expect(f"{tag}.dichotomy_odd_k32_valid",
                              oracle.verify_odd_k32(es, d.odd_k32.cycles, d.odd_k32.paths))
        checks.expect("table1", code == 0 and "MISMATCH" not in table, f"exit {code}")


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        SearchWorkload("enum-og7", k=3, l=2, n_max=10, smoke_n_max=8,
                       counts=reference.ODD_GIRTH_7_COUNTS),
        SearchWorkload("eta-k2l1-j2", k=2, l=1, n_max=10, smoke_n_max=8, jobs=2,
                       counts=reference.TRIANGLE_FREE_COUNTS),
        SearchWorkload("minimal-og7", k=3, l=2, n_max=14, smoke_n_max=11,
                       rules=search.ALL_RULES),
        QueryWorkload("queries"),
    )
}
