"""The known-values table of eta(k, l) (table.py) and the ``table1`` command.

The 4k cells are recomputed from the abstract's condition, written out
here independently of ``is_four_k_cell``: eta(k, l) = 4k for
l <= k <= (3l+i-3)/2 with 2k = i (mod 3).
"""

from fractions import Fraction

import pytest

from oddhom import complete, find_homomorphism, generalized_mycielski, odd_girth, odd_k4
from oddhom.cli import EXIT_OK, main
from oddhom.table import REFERENCE_TABLE, classify, designated_odd_k4

CELLS = [(k, l) for l in range(1, 9) for k in range(1, 9)]


def abstract_four_k(k, l):
    i = next(i for i in range(3) if (2 * k - i) % 3 == 0)
    return l <= k <= Fraction(3 * l + i - 3, 2)


def test_table_covers_every_cell_in_row_order():
    assert list(REFERENCE_TABLE) == CELLS


def test_four_k_cells_follow_the_abstract():
    four_k = {cell for cell in CELLS if classify(*cell)[0] == "4k"}
    assert four_k == {cell for cell in CELLS if abstract_four_k(*cell)}
    for k, l in four_k:
        assert REFERENCE_TABLE[(k, l)] == (4 * k, 4 * k)


def test_exact_cells():
    assert REFERENCE_TABLE[(2, 1)] == (11, 11)
    assert REFERENCE_TABLE[(3, 2)] == (15, 15)


def test_k_below_l_is_the_odd_girth_floor():
    for k, l in CELLS:
        if k < l:
            assert REFERENCE_TABLE[(k, l)] == (2 * k + 1, 2 * k + 1)


def test_bounds_are_ordered():
    for k, l in CELLS:
        lo, hi = REFERENCE_TABLE[(k, l)]
        assert 2 * k + 1 <= lo <= hi


def test_designated_odd_k4_order_and_odd_girth():
    for k in range(1, 9):
        g = odd_k4(*designated_odd_k4(k)[0])
        assert g.order == 4 * k
        assert odd_girth(g) == 2 * k + 1


def case_designated_odd_k4(k):
    """``designated_odd_k4`` case by case on 2k mod 3, its reference."""
    r = 2 * k % 3
    if r == 0:
        p = (2 * k + 3) // 3
        return (p - 1, p - 1, p), p
    if r == 1:
        p = (2 * k + 2) // 3
        return (p - 1, p, p), p
    p = (2 * k + 1) // 3
    return (p, p, p), p


def test_designated_odd_k4_matches_the_case_form():
    for k in range(1, 501):
        triple, p = designated_odd_k4(k)
        assert (triple, p) == case_designated_odd_k4(k), k
        assert sum(triple) == 2 * k + 1, k


def test_table1_matches(capsys):
    assert main(["table1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert len(out.splitlines()) == 1 + len(CELLS)


@pytest.mark.slow
def test_eta_5_1_witness_has_no_map_to_k3():
    # table1 checks only this witness's shape: the refutation takes seconds,
    # and every table1 run would pay for it.
    assert REFERENCE_TABLE[(5, 1)][1] == 56
    g = generalized_mycielski(5)
    assert g.order == 56 and odd_girth(g) == 11
    assert find_homomorphism(g, complete(3)) is None
