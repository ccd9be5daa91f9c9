"""The known-values table of eta(k, l) for k, l in 1..8, and its desk checks.

Each cell is classified once, by ``classify``, and both its bounds and its
checks read that classification.  Sources of the bounds, by kind:

- ``k<l``: C_{2k+1} has odd-girth 2k+1 and no map to C_{2l+1}, and no graph
  of odd-girth 2k+1 is smaller, so eta = 2k+1.
- ``4k``: for l <= k <= (3l+i-3)/2 with 2k = i (mod 3), the source paper
  shows eta = 4k; the designated odd-K4 of order 4k (``designated_odd_k4``)
  is the witness.
- ``exact``: eta(2,1) = 11, witnessed by the Grötzsch graph (the generalized
  Mycielski graph of level 2), with Harary's lower bound of 11 for
  triangle-free graphs that are not 3-colourable; and eta(3,2) = 15, the
  source paper's, witnessed by its order-15 graphs fig2a/b/c.
- ``range``: the upper bound 2k^2+k+1 is the order of the generalized
  Mycielski graph of level k, which has odd-girth 2k+1 and no map to K3,
  hence none to any C_{2l+1}.  The lower bound is 4k unless ``_RANGE_LOWER``
  holds a larger published one: eta(3,1) >= eta(3,2) = 15, since a graph
  with no map to K3 has none to C5; 17 for k = 4 by monotonicity in k (the
  strict step proved below gives eta(4, l) >= 16 on its own); and the
  quadratic lower bound for 3-colourability for k = 6..8.

Monotonicity in k is strict: eta(k, l) < eta(k+1, l).  Let H have odd-girth
2k+3, order n and no map to C_{2l+1}.  Take u and w two steps apart, through
x, on a shortest odd cycle u x w ... u, and identify them into one vertex z;
this gives H' of order n - 1.  They are not adjacent (that would close a
triangle), so the identification is a homomorphism H -> H', and a map
H' -> C_{2l+1} would give one of H: H' has none.  The rest of the cycle,
from w back to u, has length 2k+1 and closes at z, so H' has odd-girth at
most 2k+1.  A shortest odd cycle of H' through z lifts to a walk of H of the
same length between u and w, or from one of them back to itself; adding the
path w x u in the first case gives an odd closed walk of H, of length at
least 2k+3, so the cycle has length at least 2k+1.  An odd cycle of H'
avoiding z is one of H.  So H' has odd-girth exactly 2k+1, and
eta(k, l) <= n - 1.  A consequence: a witness G of order eta(k, l) is
vertex-critical.  G - v is bipartite or has odd-girth 2k'+1 with k' >= k,
and if it had no map it would give eta(k', l) < eta(k, l), against
monotonicity.  So every G - v maps to C_{2l+1}, and hence G is 2-connected
(maps of the two sides of a cutvertex rotate to agree on it) and a core (a
retract lies in some G - v).
"""

from __future__ import annotations

from .constructions import cycle, fixture, generalized_mycielski, odd_k4
from .graphs import odd_girth
from .hom import has_homomorphism

#: Published lower bounds of range cells above 4k.
_RANGE_LOWER = {(3, 1): 15, (4, 1): 17, (6, 1): 27, (7, 1): 38, (8, 1): 51, (4, 2): 17}


def designated_odd_k4(k: int):
    """The thread triple certifying eta(k, l) = 4k for the covered cells, and its p.

    With q, r = divmod(2k, 3) and p = q + 1, the triple holds 2 - r threads
    of length p - 1, then r + 1 of length p: (p-1, p-1, p), (p-1, p, p) or
    (p, p, p) as 2k = 0, 1 or 2 (mod 3).  Its sum is 3p - 2 + r = 2k + 1.
    The resulting graph has order 4k, odd-girth 2k+1, and no homomorphism to
    C_{2p+1}.
    """
    q, r = divmod(2 * k, 3)
    p = q + 1
    return (p - 1,) * (2 - r) + (p,) * (r + 1), p


def is_four_k_cell(k: int, l: int) -> bool:
    """True when the designated odd-K4 settles eta(k, l) = 4k exactly."""
    if l > k:
        return False
    i = 2 * k % 3
    return 2 * k <= 3 * l + i - 3


def _grotzsch_checks(target):
    g = generalized_mycielski(2)
    return [("11-vertex witness has odd-girth 5", g.order == 11 and odd_girth(g) == 5),
            ("witness is not 3-colourable", not has_homomorphism(g, target))]


def _fig2_checks(target):
    checks = []
    for name in ("fig2a", "fig2b", "fig2c"):
        g = fixture(name)
        checks.append((f"{name}: order 15, odd-girth 7, no map to C5",
                       g.order == 15 and odd_girth(g) == 7 and not has_homomorphism(g, target)))
    return checks


#: Exactly known cells outside the 4k family: their value and their checks.
_EXACT = {(2, 1): (11, _grotzsch_checks), (3, 2): (15, _fig2_checks)}


def classify(k: int, l: int):
    """(kind, lo, hi) of cell (k, l); kind is "k<l", "4k", "exact" or "range"."""
    if k < l:
        return "k<l", 2 * k + 1, 2 * k + 1
    if is_four_k_cell(k, l):
        return "4k", 4 * k, 4 * k
    if (k, l) in _EXACT:
        value = _EXACT[(k, l)][0]
        return "exact", value, value
    return "range", _RANGE_LOWER.get((k, l), 4 * k), 2 * k * k + k + 1


#: Reference bounds (lo, hi) on eta(k, l), row by row (l outer); lo == hi marks
#: an exactly known cell.
REFERENCE_TABLE = {(k, l): classify(k, l)[1:] for l in range(1, 9) for k in range(1, 9)}


def cell_checks(k: int, l: int):
    """Desk-scale checks for one cell: list of (description, passed)."""
    kind, lo, hi = classify(k, l)
    target = cycle(2 * l + 1)
    if kind == "k<l":
        g = cycle(2 * k + 1)
        return [(f"C{2*k+1} has no map to C{2*l+1}", not has_homomorphism(g, target)),
                ("order equals the odd-girth floor", g.order == lo)]
    if kind == "4k":
        abc, _ = designated_odd_k4(k)
        g = odd_k4(*abc)
        return [(f"odd-K4{abc} has order 4k={4*k}", g.order == 4 * k),
                (f"odd-girth {2*k+1}", odd_girth(g) == 2 * k + 1),
                (f"no map to C{2*l+1}", not has_homomorphism(g, target))]
    if kind == "exact":
        return _EXACT[(k, l)][1](target)
    # Range cells: verify the buildable upper-bound witness (the k-level
    # Mycielski construction, order 2k^2+k+1).  Refuting 3-colourability of
    # the 56-vertex witness takes seconds, not desk scale; there the witness
    # shape alone is checked, and the slow test suite refutes the colouring.
    checks = []
    if hi <= 64:
        g = generalized_mycielski(k)
        checks.append((f"order-{hi} witness has odd-girth {2*k+1}",
                       g.order == hi and odd_girth(g) == 2 * k + 1))
        if l >= 2 or g.order <= 40:
            checks.append(("witness has no map to " + (f"C{2*l+1}" if l > 1 else "K3"),
                           not has_homomorphism(g, target)))
    return checks
