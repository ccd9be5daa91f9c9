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
from fractions import Fraction

from . import constructions as cons
from .budget import Budget, BudgetExceededError
from .canon import are_isomorphic
from .graphs import INFINITE, Graph, from_graph6, girth, odd_girth, to_graph6
from .hom import (
    chromatic_number,
    circular_chromatic_number,
    compute_core,
    exists_v_special,
    find_homomorphism,
    has_homomorphism,
)
from .search import ALL_RULES, RULE_CONNECTED, SearchConfig, eta_search
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


# -- table of known values -------------------------------------------------------

#: Reference bounds (lo, hi) on eta(k, l) for k, l in 1..8; lo == hi marks an
#: exactly known cell.  Cells with k < l are the trivial 2k+1; cells settled
#: by the designated odd-K4 are 4k; the remaining entries are the published
#: bounds (upper bounds 2k^2+k+1 from the generalized Mycielski family,
#: lower bounds from the k=3 order-15 theorem, monotonicity, the 4k bound,
#: or the quadratic lower bound for 3-colourability).
REFERENCE_TABLE = {}
_UPPER_L1 = {1: 4, 2: 11, 3: 22, 4: 37, 5: 56, 6: 79, 7: 106, 8: 137}
_LOWER_L1 = {3: 15, 4: 17, 5: 20, 6: 27, 7: 38, 8: 51}


def designated_odd_k4(k: int):
    """The thread triple certifying eta(k, l) = 4k for the covered cells.

    Depending on 2k mod 3, take p = (2k+3)/3, (2k+2)/3 or (2k+1)/3 and the
    triple (p-1, p-1, p), (p-1, p, p) or (p, p, p); the resulting graph has
    order 4k, odd-girth 2k+1, and no homomorphism to C_{2p+1}.
    """
    r = 2 * k % 3
    if r == 0:
        p = (2 * k + 3) // 3
        return (p - 1, p - 1, p), p
    if r == 1:
        p = (2 * k + 2) // 3
        return (p - 1, p, p), p
    p = (2 * k + 1) // 3
    return (p, p, p), p


def is_four_k_cell(k: int, l: int) -> bool:
    """True when the designated odd-K4 settles eta(k, l) = 4k exactly."""
    if l > k:
        return False
    i = 2 * k % 3
    return 2 * k <= 3 * l + i - 3


for _l in range(1, 9):
    for _k in range(1, 9):
        if _k < _l:
            REFERENCE_TABLE[(_k, _l)] = (2 * _k + 1, 2 * _k + 1)
        elif is_four_k_cell(_k, _l):
            REFERENCE_TABLE[(_k, _l)] = (4 * _k, 4 * _k)
        elif _l == 1:
            REFERENCE_TABLE[(_k, 1)] = (_LOWER_L1.get(_k, 2 * _k * _k + _k + 1), _UPPER_L1[_k])
        else:
            REFERENCE_TABLE[(_k, _l)] = (4 * _k, _UPPER_L1[_k])
REFERENCE_TABLE[(1, 1)] = (4, 4)
REFERENCE_TABLE[(2, 1)] = (11, 11)
REFERENCE_TABLE[(3, 2)] = (15, 15)
REFERENCE_TABLE[(4, 2)] = (17, 37)


def _table1_cell_checks(k: int, l: int):
    """Desk-scale checks for one cell: list of (description, passed)."""
    checks = []
    lo, hi = REFERENCE_TABLE[(k, l)]
    target = cons.cycle(2 * l + 1) if l > 1 else cons.complete(3)
    if k < l:
        g = cons.cycle(2 * k + 1)
        checks.append((f"C{2*k+1} has no map to C{2*l+1}", not has_homomorphism(g, target)))
        checks.append(("order equals the odd-girth floor", g.order == lo))
        return checks
    if is_four_k_cell(k, l):
        abc, p = designated_odd_k4(k)
        g = cons.odd_k4(*abc)
        checks.append((f"odd-K4{abc} has order 4k={4*k}", g.order == 4 * k))
        checks.append((f"odd-girth {2*k+1}", odd_girth(g) == 2 * k + 1))
        checks.append((f"no map to C{2*l+1}", not has_homomorphism(g, target)))
        return checks
    if (k, l) == (2, 1):
        g = cons.generalized_mycielski(2)
        checks.append(("11-vertex witness has odd-girth 5", g.order == 11 and odd_girth(g) == 5))
        checks.append(("witness is not 3-colourable", not has_homomorphism(g, target)))
        return checks
    if (k, l) == (3, 2):
        for name in ("fig2a", "fig2b", "fig2c"):
            g = cons.fixture(name)
            checks.append((f"{name}: order 15, odd-girth 7, no map to C5",
                           g.order == 15 and odd_girth(g) == 7
                           and not has_homomorphism(g, cons.cycle(5))))
        return checks
    # Range cells: verify the buildable upper-bound witness (the k-level
    # Mycielski construction, order 2k^2+k+1).  Refuting 3-colourability of
    # the 56-vertex witness is not desk scale; there the witness shape alone
    # is checked and colourability is left to the acceptance suite's cells.
    if hi <= 64:
        g = cons.generalized_mycielski(k)
        checks.append((f"order-{hi} witness has odd-girth {2*k+1}",
                       g.order == hi and odd_girth(g) == 2 * k + 1))
        if l >= 2 or g.order <= 40:
            checks.append(("witness has no map to " + (f"C{2*l+1}" if l > 1 else "K3"),
                           not has_homomorphism(g, target)))
    return checks


def _cmd_table1(args) -> int:
    any_fail = False
    print(f"{'cell':>10}  {'reference':>10}  {'status':8}  evidence")
    for l in range(1, 9):
        for k in range(1, 9):
            lo, hi = REFERENCE_TABLE[(k, l)]
            ref = str(lo) if lo == hi else f"{lo}-{hi}"
            checks = _table1_cell_checks(k, l)
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


# -- subcommand handlers ----------------------------------------------------------

def _cmd_hom(args) -> int:
    g = _read_graph(args.src)
    h = _read_graph(args.dst)
    m = find_homomorphism(g, h)
    if m is None:
        print("NONE")
        return EXIT_NEGATIVE
    print(json.dumps(m.to_json()))
    return EXIT_OK


def _cmd_odd_girth(args) -> int:
    print(_fmt_girth(odd_girth(_read_graph(args.graph))))
    return EXIT_OK


def _cmd_girth(args) -> int:
    print(_fmt_girth(girth(_read_graph(args.graph))))
    return EXIT_OK


def _cmd_core(args) -> int:
    print(to_graph6(compute_core(_read_graph(args.graph))))
    return EXIT_OK


def _cmd_chi(args) -> int:
    print(chromatic_number(_read_graph(args.graph)))
    return EXIT_OK


def _cmd_chi_c(args) -> int:
    f: Fraction = circular_chromatic_number(_read_graph(args.graph))
    print(f"{f.numerator}/{f.denominator}")
    return EXIT_OK


def _cmd_build(args) -> int:
    kind = args.family
    if kind == "mycielski":
        g = cons.generalized_mycielski(_int(args.params, 1)[0])
    elif kind == "odd-k4":
        a, b, c = _int(args.params, 3)
        g = cons.odd_k4(a, b, c)
    elif kind == "odd-k32":
        v = _int(args.params, 6)
        g = cons.odd_k32(v[:3], v[3:])
    elif kind == "circular-clique":
        p, q = _int(args.params, 2)
        g = cons.circular_clique(p, q)
    elif kind == "cycle":
        g = cons.cycle(_int(args.params, 1)[0])
    elif kind == "fixture":
        if len(args.params) != 1:
            raise ValueError("build fixture takes exactly one name")
        g = cons.fixture(args.params[0])
    else:
        raise ValueError(f"unknown family {kind!r}")
    print(to_graph6(g))
    return EXIT_OK


def _int(params, want):
    if len(params) != want:
        raise ValueError(f"expected {want} integer parameter(s), got {len(params)}")
    return [int(p) for p in params]


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
    cfg = SearchConfig(k=args.k, l=args.l, n_max=args.max_n,
                       prune_rules=rules, parallel_width=args.split or 0)
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

    p = sub.add_parser("odd-girth", help="shortest odd cycle length (or 'infinity')")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_odd_girth)

    p = sub.add_parser("girth", help="shortest cycle length (or 'infinity')")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_girth)

    p = sub.add_parser("core", help="graph6 of the core")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("chi", help="chromatic number")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("chi-c", help="circular chromatic number as p/q")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_chi_c)

    p = sub.add_parser("build", help="print a named construction as graph6")
    p.add_argument("family", choices=["mycielski", "odd-k4", "odd-k32",
                                      "circular-clique", "cycle", "fixture"])
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
    p.add_argument("--split", type=int, default=0,
                   help="order at which to split the augmentation tree into parallel subtrees")
    p.add_argument("--checkpoint", default=None,
                   help="frontier checkpoint file for resumable runs")
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
