"""Command-line front end: every library operation, scriptable.

Graphs travel as graph6, one per line; any positional graph argument is a
file path or ``-`` for stdin, so subcommands compose through pipes and
process substitution.  Machine-readable output is bare graph6 or JSON
(JSON-lines for search reports); the only human-format output is the
``table1`` comparison table.

Exit codes: 0 success (homomorphism/witness found where relevant),
1 negative result (NONE printed, or a table mismatch), 2 usage error,
3 budget exceeded with partial output flagged on stderr.

The environment variable ``ODDHOM_BUDGET_SECONDS`` sets a default wall-clock
budget for the witness searches and for ``search-eta``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions as cons
from .budget import Budget, BudgetExceededError
from .graphs import INFINITE, Graph, from_graph6, girth, odd_girth, to_graph6
from .hom import (
    chromatic_number,
    circular_chromatic_number,
    compute_core,
    exists_v_special,
    find_homomorphism,
)
from .search import ALL_RULES, RULE_CONNECTED, SearchConfig, eta_search
from .table import REFERENCE_TABLE, cell_checks
from .witness import find_odd_k32, find_odd_k4

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_graph(arg: str) -> Graph:
    if arg == "-":
        data = sys.stdin.read()
    else:
        with open(arg) as fh:
            data = fh.read()
    for line in data.splitlines():
        line = line.strip()
        if line:
            return from_graph6(line)
    raise ValueError(f"no graph6 line found in {arg!r}")


def _default_budget() -> Budget | None:
    raw = os.environ.get("ODDHOM_BUDGET_SECONDS")
    if not raw:
        return None
    return Budget(seconds=float(raw))


def _fmt_girth(value) -> str:
    return "infinity" if value == INFINITE else str(value)


#: One-graph queries: subcommand -> (help, function from the graph to the printed value).
QUERIES = {
    "odd-girth": ("shortest odd cycle length (or 'infinity')", lambda g: _fmt_girth(odd_girth(g))),
    "girth": ("shortest cycle length (or 'infinity')", lambda g: _fmt_girth(girth(g))),
    "core": ("graph6 of the core", lambda g: to_graph6(compute_core(g))),
    "chi": ("chromatic number", chromatic_number),
    "chi-c": ("circular chromatic number as p/q",
              lambda g: "%d/%d" % circular_chromatic_number(g).as_integer_ratio()),
}

#: Integer-parameter families of ``build``: name -> (builder, number of parameters).
BUILDERS = {
    "mycielski": (cons.generalized_mycielski, 1),
    "odd-k4": (cons.odd_k4, 3),
    "odd-k32": (lambda *v: cons.odd_k32(v[:3], v[3:]), 6),
    "circular-clique": (cons.circular_clique, 2),
    "cycle": (cons.cycle, 1),
}


# -- subcommand handlers ----------------------------------------------------------

def _cmd_table1(args) -> int:
    any_fail = False
    print(f"{'cell':>10}  {'reference':>10}  {'status':8}  evidence")
    for (k, l), (lo, hi) in REFERENCE_TABLE.items():
        ref = str(lo) if lo == hi else f"{lo}-{hi}"
        checks = cell_checks(k, l)
        if not checks:
            status = "--"
            note = "not desk-checkable (witness exceeds 64 vertices or bound is structural)"
        elif all(ok for _, ok in checks):
            status = "MATCH"
            note = "; ".join(d for d, _ in checks)
        else:
            status = "MISMATCH"
            any_fail = True
            note = "; ".join(f"{d}: {'ok' if ok else 'FAILED'}" for d, ok in checks)
        print(f"eta({k},{l})".rjust(10) + f"  {ref:>10}  {status:8}  {note}")
    if any_fail:
        print("table1: MISMATCH detected", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_hom(args) -> int:
    g = _read_graph(args.src)
    h = _read_graph(args.dst)
    m = find_homomorphism(g, h)
    if m is None:
        print("NONE")
        return EXIT_NEGATIVE
    print(json.dumps(m.to_json()))
    return EXIT_OK


def _cmd_query(args) -> int:
    print(QUERIES[args.cmd][1](_read_graph(args.graph)))
    return EXIT_OK


def _cmd_build(args) -> int:
    if args.family == "fixture":
        if len(args.params) != 1:
            raise ValueError("build fixture takes exactly one name")
        g = cons.fixture(args.params[0])
    else:
        builder, arity = BUILDERS[args.family]
        if len(args.params) != arity:
            raise ValueError(f"expected {arity} integer parameter(s), got {len(args.params)}")
        g = builder(*map(int, args.params))
    print(to_graph6(g))
    return EXIT_OK


def _cmd_detect(args) -> int:
    g = _read_graph(args.graph)
    budget = _default_budget()
    finder = find_odd_k4 if args.kind == "odd-k4" else find_odd_k32
    w = finder(g, budget)
    if w is None:
        print("NONE")
        return EXIT_NEGATIVE
    print(json.dumps(w.to_json()))
    return EXIT_OK


def _cmd_v_special(args) -> int:
    g = _read_graph(args.graph)
    col = exists_v_special(g, args.vertex)
    if col is None:
        print("NONE")
        return EXIT_NEGATIVE
    print(json.dumps({"center": col.center,
                      "classes": {str(v): c for v, c in sorted(col.class_of.items())}}))
    return EXIT_OK


def _cmd_search_eta(args) -> int:
    rules = ALL_RULES if args.assume_minimal else frozenset({RULE_CONNECTED})
    cfg = SearchConfig(k=args.k, l=args.l, n_max=args.max_n, prune_rules=rules)
    report = eta_search(cfg, jobs=args.jobs, checkpoint=args.checkpoint,
                        budget=_default_budget())
    for line in report.json_lines():
        print(line)
    mode = "minimal-counterexample mode (claim rules assumed)" if report.minimal_counterexample_mode \
        else "unconditional exhaustive mode"
    if report.truncated:
        print(f"search-eta: {mode}; BUDGET EXCEEDED after {report.wall_time_s:.1f}s, "
              "output is partial and excludes nothing", file=sys.stderr)
        return EXIT_BUDGET
    print(f"search-eta: {mode}; first witness order: {report.first_witness_order}; "
          f"eta({args.k},{args.l}) >= {report.eta_lower_bound_established}; "
          f"wall time {report.wall_time_s:.1f}s", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oddhom",
        description="Exact homomorphism questions for graphs of odd-girth 2k+1 "
                    "against odd-cycle targets; graph arguments are graph6 files or - for stdin.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hom", help="find a homomorphism src -> dst (prints map or NONE)")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(fn=_cmd_hom)

    for name, (help_text, _) in QUERIES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph")
        p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("build", help="print a named construction as graph6")
    p.add_argument("family", choices=[*BUILDERS, "fixture"])
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("detect", help="search for an odd-K4 or odd-K3^2 subgraph")
    p.add_argument("kind", choices=["odd-k4", "odd-k32"])
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("v-special", help="search for a v-special colouring around a vertex")
    p.add_argument("graph")
    p.add_argument("vertex", type=int)
    p.set_defaults(fn=_cmd_v_special)

    p = sub.add_parser("search-eta", help="exhaustive search for eta(k, l) up to an order cap")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--assume-minimal", action="store_true",
                   help="enable the minimal-counterexample claim rules (conditional result); "
                        "they are proved only for --k 3 --l 2 --max-n 14 or less")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None,
                   help="append-only log of the finished subtrees below the split order "
                        "min(8, max-n - 1), one line each; a run of the same configuration skips "
                        "the subtrees it holds, so an interrupted run resumes where it stopped")
    p.set_defaults(fn=_cmd_search_eta)

    p = sub.add_parser("table1", help="recompute desk-scale evidence for the known-values table")
    p.set_defaults(fn=_cmd_table1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"oddhom: budget exceeded: {exc} (partial output only)", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        ap.exit(EXIT_USAGE, f"oddhom: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
