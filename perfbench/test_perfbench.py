"""Self-tests of the benchmark: references, gates, trace and result format.

Run from the root of the repository:

    python3 -m pytest -q perfbench

The reference checks use an oracle that shares no code with the package
(networkx's graph atlas and ``oracle.py``); the run checks use ``--smoke``
order caps, so the whole file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from oddhom import constructions, find_odd_k4, find_odd_k32
from oddhom.search import SearchConfig, eta_search

from perfbench import oracle, reference, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_cli(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# -- reference answers ---------------------------------------------------------------

def atlas_counts(min_odd_girth):
    nx = pytest.importorskip("networkx")
    counts = [0] * 7
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        edges = list(g.edges())
        if not oracle.is_connected(n, edges):
            continue
        og = oracle.odd_girth(n, edges)
        if og is None or og >= min_odd_girth:
            counts[n - 1] += 1
    return tuple(counts)


def test_triangle_free_reference_matches_atlas():
    assert atlas_counts(5) == reference.TRIANGLE_FREE_COUNTS[:7]


def test_odd_girth_7_reference_matches_atlas():
    assert atlas_counts(7) == reference.ODD_GIRTH_7_COUNTS[:7]


def test_designated_odd_k4_follows_the_2k_mod_3_rule():
    for k, (abc, p) in reference.DESIGNATED_ODD_K4.items():
        r = 2 * k % 3
        want_p = (2 * k + 3 - r) // 3 if r == 0 else (2 * k + 2) // 3 if r == 1 else (2 * k + 1) // 3
        want = {0: (p - 1, p - 1, p), 1: (p - 1, p, p), 2: (p, p, p)}[r]
        assert (abc, p) == (want, want_p)
        g = constructions.odd_k4(*abc)
        assert g.order == 4 * k
        assert oracle.odd_girth(g.order, list(g.edges())) == 2 * k + 1


@pytest.fixture(scope="module")
def corpus():
    return workloads.WORKLOADS["queries"].setup(1, smoke=False)


def test_corpus_is_large_enough(corpus):
    inputs = workloads.WORKLOADS["queries"].relabelled(corpus, 1, 0)
    assert len(inputs) == len(corpus) == len(reference.query_expectations())
    witness_graphs = sum(item.graph.order <= workloads.WITNESS_MAX_ORDER for item in corpus)
    assert 5 * len(corpus) + 3 * witness_graphs + 1 >= 200


def test_query_answers_match_independent_oracle(corpus):
    for item in corpus:
        if item.graph.order > 22:
            continue  # mycielski4: chi = 4 by construction, too large for the oracle
        n = item.graph.order
        kind, m = item.expect["target"]
        assert oracle.has_homomorphism(n, item.edges, oracle.target_edges(kind, m)) \
            == item.expect["maps"], item.name
        assert oracle.chromatic_number(n, item.edges) == item.expect["chi"], item.name


def test_relabellings_follow_seed_and_pass(corpus):
    wl = workloads.WORKLOADS["queries"]
    first = [e for e, _ in wl.relabelled(corpus, 1, 0)]
    assert first == [e for e, _ in wl.relabelled(corpus, 1, 0)]
    assert first != [e for e, _ in wl.relabelled(corpus, 2, 0)]
    assert first != [e for e, _ in wl.relabelled(corpus, 1, 1)]


# -- gates -----------------------------------------------------------------------------

def test_serial_and_jobs_reports_agree():
    cfg = SearchConfig(k=2, l=1, n_max=8)
    serial = eta_search(cfg)
    parallel = eta_search(cfg, jobs=2)
    assert [(r.n, r.enumerated, r.witnesses) for r in serial.records] \
        == [(r.n, r.enumerated, r.witnesses) for r in parallel.records]
    assert [r.enumerated for r in serial.records] == list(reference.TRIANGLE_FREE_COUNTS[:8])


def test_wrong_reference_count_fails_the_run(monkeypatch):
    counts = list(reference.ODD_GIRTH_7_COUNTS)
    counts[5] += 1
    wl = workloads.WORKLOADS["enum-og7"]
    monkeypatch.setitem(workloads.WORKLOADS, "enum-og7", dataclasses.replace(wl, counts=counts))
    result, lines = run.run("enum-og7", seed=1, seconds=0, trace=False, smoke=True)
    assert result["failed"] > 0 and not result["correct"]
    assert json.loads(lines[0])["failed_ratio"] > 0


def test_witness_certificates_reject_corruption():
    g = constructions.odd_k4(2, 2, 3)
    es = oracle.edge_set(g.edges())
    w = find_odd_k4(g)
    assert oracle.verify_odd_k4(es, w.branch, w.paths)
    paths = list(w.paths)
    longest = max(range(6), key=lambda i: len(paths[i]))
    paths[longest] = paths[longest][:1] + paths[longest][2:]
    assert not oracle.verify_odd_k4(es, w.branch, paths)

    g = constructions.odd_k32((3, 5, 5), (1, 2, 1))
    es = oracle.edge_set(g.edges())
    w = find_odd_k32(g)
    assert oracle.verify_odd_k32(es, w.cycles, w.paths)
    assert not oracle.verify_odd_k32(es, (w.cycles[0][:-1],) + w.cycles[1:], w.paths)


# -- the command and its output ----------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in bench_spec()["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["enum-og7", "eta-k2l1-j2", "minimal-og7"])
def test_traced_self_times_add_up_to_wall(workload):
    result, _ = run.run(workload, seed=1, seconds=0, trace=True, smoke=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    own = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert own == pytest.approx(m["trace.wall_s"], rel=0.01)


def test_missing_binding_is_reported_absent(monkeypatch):
    real = workloads.bindings

    def with_gone(api):
        return real(api) + [(types.SimpleNamespace(), "no_such_function", "canon.gone")]

    monkeypatch.setattr(workloads, "bindings", with_gone)
    result, lines = run.run("enum-og7", seed=1, seconds=0, trace=True, smoke=True)
    assert result["correct"]
    assert json.loads(lines[0])["absent"] == ["canon.gone"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("enum-og7", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
