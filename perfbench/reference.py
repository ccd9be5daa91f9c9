"""Reference answers the benchmark checks every output against.

None of these values was produced by the code under test on the fly; each
entry names its source.

* ``TRIANGLE_FREE_COUNTS``: OEIS A024607, connected triangle-free graphs on
  n vertices (odd-girth >= 5), n = 1..11.
* ``ODD_GIRTH_7_COUNTS``: connected graphs of odd-girth >= 7 on n vertices,
  n = 1..11, as counted at the benchmark's baseline commit.  The prefix
  n <= 7 is cross-checked in ``test_perfbench.py`` against networkx's graph
  atlas (every graph on at most 7 vertices, from Read & Wilson's *An Atlas
  of Graphs*), with odd-girth computed by the benchmark's own oracle.
* ``QUERY_EXPECT``: documented answers for the query corpus, with the
  source of each in ``QUERY_SOURCES``; the values that are not read off a
  construction's definition are re-derived in ``test_perfbench.py`` by the
  independent oracle in ``oracle.py``.
"""

TRIANGLE_FREE_COUNTS = (1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832, 90842)

ODD_GIRTH_7_COUNTS = (1, 1, 1, 3, 5, 17, 45, 184, 748, 4143, 26532)

#: Fixture names of the query corpus.  ``case1a`` and ``case2b`` are left
#: out: the two transcriptions are isomorphic (the one red tier-1 test) and
#: one of them is due to be re-transcribed, which would move this input.
QUERY_FIXTURES = ("fig2a", "fig2b", "fig2c", "case1b", "case2a", "case3a",
                  "case3b_1", "case3b_2", "case3b_3", "case3b_4", "case3b_5")

#: Levels of the generalized Mycielski graphs in the corpus.
QUERY_MYCIELSKI = (2, 3, 4)

#: (cycle lengths, path lengths) of the odd-K3^2 graphs in the corpus.  Every
#: path has length >= 1, so each graph has maximum degree 3.
QUERY_ODD_K32 = (
    ((3, 3, 3), (1, 1, 1)),
    ((3, 5, 7), (2, 1, 1)),
    ((5, 5, 5), (1, 2, 3)),
    ((5, 5, 7), (1, 1, 2)),
    ((5, 7, 7), (2, 2, 1)),
    ((7, 7, 7), (1, 1, 1)),
)

QUERY_SOURCES = {
    "fig2": "paper, eta(3,2) = 15: the three order-15 odd-girth-7 graphs have no map "
            "to C5; they are cores, since a proper subgraph has at most 14 vertices "
            "and odd-girth >= 7 and therefore maps to C5",
    "case": "fixture docstrings: each order-12..14 case fixture maps to C5; a map to "
            "C5 gives a 3-colouring and the odd cycle forbids 2",
    "mycielski": "construction docstring: generalized Mycielski graphs have chromatic "
                 "number 4; the level-2 one is the Groetzsch graph, which is "
                 "4-critical and hence a core",
    "odd_k4": "the designated odd-K4 of each 4k cell of the known-values table has no "
              "map to C_{2p+1}; it is an odd-K4 by construction; maximum degree 3 "
              "(Brooks) gives chromatic number 3 except for K4 itself",
    "odd_k32": "an odd-K3^2 by construction; maximum degree 3 and not K4 (Brooks) "
               "give a map to K3 and chromatic number 3",
}

#: Designated odd-K4 of each 4k cell: k -> (thread triple, p), from the
#: rule printed with the known-values table (p from 2k mod 3).
DESIGNATED_ODD_K4 = {
    1: ((1, 1, 1), 1),
    2: ((1, 2, 2), 2),
    3: ((2, 2, 3), 3),
    4: ((3, 3, 3), 3),
    5: ((3, 4, 4), 4),
    6: ((4, 4, 5), 5),
    7: ((5, 5, 5), 5),
    8: ((5, 6, 6), 6),
}


def query_expectations():
    """name -> dict(target, maps, chi, core, odd_k4, odd_k32, source).

    ``target`` is ("cycle", m) or ("complete", m).  ``maps`` is the documented
    existence of a homomorphism to the target; ``core``, ``odd_k4`` and
    ``odd_k32`` are True where documented and None where no reference exists
    (the output is then checked only for internal validity).
    """
    out = {}
    for name in QUERY_FIXTURES:
        if name.startswith("fig2"):
            out[name] = dict(target=("cycle", 5), maps=False, chi=3, core=True,
                             odd_k4=None, odd_k32=None, source="fig2")
        else:
            out[name] = dict(target=("cycle", 5), maps=True, chi=3, core=None,
                             odd_k4=None, odd_k32=None, source="case")
    for k in QUERY_MYCIELSKI:
        out[f"mycielski{k}"] = dict(target=("complete", 3), maps=False, chi=4,
                                    core=True if k == 2 else None,
                                    odd_k4=None, odd_k32=None, source="mycielski")
    for k, (_, p) in DESIGNATED_ODD_K4.items():
        out[f"odd_k4_cell{k}"] = dict(target=("cycle", 2 * p + 1), maps=False,
                                      chi=4 if k == 1 else 3, core=None,
                                      odd_k4=True, odd_k32=None, source="odd_k4")
    for cl, pl in QUERY_ODD_K32:
        name = "odd_k32_" + "-".join(map(str, cl)) + "_" + "-".join(map(str, pl))
        out[name] = dict(target=("complete", 3), maps=True, chi=3, core=None,
                         odd_k4=None, odd_k32=True, source="odd_k32")
    return out
