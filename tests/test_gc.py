"""No search leaves a reference cycle behind.

With the cyclic collector off, each call below must free everything it
made by reference counting alone, so ``gc.collect()`` finds nothing.  A
recursive closure would hold itself through its own cell and fail this
(``test_imports.py`` forbids the pattern statically).
"""

import gc

import pytest

from oddhom import (
    canonical_form,
    compute_core,
    cycle,
    find_odd_k4,
    find_odd_k32,
    fixture,
    generalized_mycielski,
    is_core,
    odd_k32,
)
from oddhom.search import _cycle_colouring

CALLS = {
    "canonical_form": lambda: canonical_form(generalized_mycielski(4)),
    "is_core": lambda: is_core(generalized_mycielski(4)),
    "compute_core": lambda: compute_core(odd_k32((3, 5, 7), (1, 1, 1))),
    "find_odd_k4": lambda: find_odd_k4(generalized_mycielski(3)),
    "find_odd_k32": lambda: find_odd_k32(odd_k32((3, 5, 7), (2, 1, 1))),
    "cycle_colouring": lambda: _cycle_colouring(fixture("fig2a").rows, 5),
    "cycle_colouring_found": lambda: _cycle_colouring(cycle(15).rows, 5),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_nothing_to_collect(name):
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
