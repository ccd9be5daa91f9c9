"""oddhom: exact combinatorics for homomorphisms into odd cycles.

The package decides questions of the form "does this graph of odd-girth
2k+1 map to the odd cycle C_{2l+1}?", builds the graph families that settle
small cases (subdivided K4s, three-cycle gadgets, circular cliques, the
generalized Mycielski graphs, and a set of hand-checked fixtures), and runs
isomorph-free exhaustive searches for the smallest graphs admitting no such
homomorphism.
"""

from .budget import Budget, BudgetExceededError
from .canon import CanonicalForm, are_isomorphic, canonical_bytes, canonical_form
from .constructions import (
    FIXTURE_NAMES,
    circular_clique,
    complete,
    cycle,
    fixture,
    generalized_mycielski,
    odd_k4,
    odd_k32,
    path,
    subdivided_k4,
)
from .graphs import (
    INFINITE,
    DistancePartition,
    Graph,
    distance_partition,
    from_graph6,
    girth,
    has_walk_of_length,
    is_connected,
    list_threads,
    max_thread_length,
    odd_girth,
    to_graph6,
)
from .hom import (
    VertexMap,
    VSpecialColouring,
    chromatic_number,
    circular_chromatic_number,
    compute_core,
    exists_v_special,
    extend_v_special,
    find_homomorphism,
    has_homomorphism,
    is_core,
    verify_mapping,
)
from .search import (
    ALL_RULES,
    CLAIM_RULES,
    ORDER15_VALID_RULES,
    SearchConfig,
    SearchReport,
    claim_filter,
    enumerate_graphs,
    eta_search,
)
from .witness import (
    DichotomyReport,
    OddK4Witness,
    OddK32Witness,
    find_odd_k4,
    find_odd_k32,
    gerards_dichotomy_check,
)

__version__ = "0.1.0"
