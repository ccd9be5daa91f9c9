"""Canonical labelling by partition refinement plus individualization.

The canonical form of a graph is the lexicographically least adjacency
encoding over a pruned set of vertex orderings: equitable-partition
refinement (1-dimensional colour refinement with a deterministic,
label-independent cell order) shrinks the candidate set, and backtracking
individualizes one vertex of the first non-singleton cell at a time.  Two
graphs receive equal canonical bytes exactly when they are isomorphic; the
test suite checks this against a brute-force permutation oracle on small
orders rather than trusting the algorithm.

Refinement runs in rounds, and a round counts neighbours only towards the
``fresh`` cells, the ones the previous round split off (in the manner of
McKay and Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014): a partition that is stable towards a cell stays stable towards it,
so recounting against the other cells could split nothing.  The counts
towards each fresh cell are bit-sliced: a few ints, bit planes, hold one
bit of every vertex's count each, and are built by adding the rows of the
cell's members with a ripple carry.  A cell splits plane by plane, each
group into the members without the bit and then those with it, which
orders its sub-cells by their vectors of counts.  So a round costs a few
int operations per fresh member, and per plane and cell it splits, however
many vertices it counts.  After a vertex is individualized, the first
round's only fresh cell is that vertex, one plane: its row.  Refinement
stops at a fixpoint or at a discrete partition.  The cells, and their
order, are those of recounting against every cell.

The same walk over the individualization tree yields generators of the
automorphism group, and uses them to prune the tree as nauty does (McKay
and Piperno, above).  A leaf whose bytes equal the first leaf's gives one
generator; a branch stopped early because its partition is homogeneous
contributes the transpositions inside its cells, which are automorphisms
whatever the bytes.  A leaf equal to the first leaf sends the
walk back to the first path, and at a node on the first path a child in
the orbit of an earlier child is skipped.  Cells split in place, so an
individualized vertex keeps the position of its cell in every leaf below
it, and an automorphism between two leaves maps their paths onto each
other: what is pruned is an automorphic image of what was walked.  The
least bytes, their ordering and the group the generators span are those of
the unpruned walk, and the search also returns the vertex orbits of that
group and the generators.  The enumeration module uses all three for
canonical augmentation: the canonical position picks the deletion vertex,
the orbits decide acceptance, and the generators drop isomorphic siblings.
It searches only the children whose acceptance needs it; every other
child takes its generators from its parent's (see ``search``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits


def refine_round(rows, cells, fresh):
    """One round of equitable refinement: ``(cells, fresh)`` for the next round.

    Every cell is split by the vector of neighbour counts towards the
    ``fresh`` cells, and its sub-cells are put in its place, ordered
    lexicographically by that vector, so the cell order depends only on the
    isomorphism type (given the order of ``cells``).

    The counts are bit-sliced: each fresh cell gets a counter of bit planes,
    where bit v of plane j is bit j of v's count towards the cell.  Adding
    the rows of the cell's members with a ripple carry builds it, so a
    singleton fresh cell, such as an individualized vertex, is one plane,
    its row (none if the row is empty).  A cell with no member in any plane
    (no neighbour of a fresh member) or with one member is kept whole.  Any
    other cell is split plane by plane: the planes of ``fresh[0]`` most
    significant first, then those of ``fresh[1]``, and so on, each group
    splitting into its members without the bit, then those with it.  Every
    count towards one fresh cell has that cell's planes as its binary
    digits, so splitting by them from the top orders the groups by count,
    as comparing digits from the top does; the next counter only splits
    groups of equal counts so far.  The sub-cells come out in the
    lexicographic order of their count vectors, which is also the int order
    of a vector packed six bits per count (a count is at most 63 since
    ``MAX_VERTICES`` is 64), the order of the round-one keys that
    ``search._accepted`` packs.

    The returned ``fresh`` cells are the sub-cells of this round's splits,
    all but the last of each: a partition stable towards a cell stays
    stable towards it when refined, and counts towards the last sub-cell
    follow from those towards its parent and its siblings.  An empty
    ``fresh`` means the partition is equitable.  Since cells only split in
    place, each round's cell order is a coarsening of the fixpoint's, which
    lets ``search._accepted`` stop refining a child as soon as the cells
    settle its fate.
    """
    planes = []
    touched = 0
    for c in fresh:
        counter = []
        while c:
            b = c & -c
            c ^= b
            carry = rows[b.bit_length() - 1]
            touched |= carry
            j = 0
            while carry:
                if j == len(counter):
                    counter.append(carry)
                    break
                p = counter[j]
                counter[j] = p ^ carry
                carry &= p
                j += 1
        planes += reversed(counter)
    new_cells = []
    new_fresh = []
    for cell in cells:
        if not cell & touched or cell & (cell - 1) == 0:
            new_cells.append(cell)
            continue
        groups = [cell]
        for p in planes:
            if not cell & p:
                continue
            split = []
            for g in groups:
                hi = g & p
                if hi and hi != g:
                    split += (g ^ hi, hi)
                else:
                    split.append(g)
            groups = split
        new_cells += groups
        new_fresh += groups[:-1]
    return new_cells, new_fresh


def refine_partition(rows, cells, fresh=None):
    """Equitable refinement of an ordered cell list (cells are bitmasks).

    Runs ``refine_round`` until no cell splits, or until every cell is a
    singleton, where no further round could split one.  Dropping counts
    that are constant on every cell, or determined by the others, changes
    neither the split nor the order, so the result is the fixpoint of
    recounting against every cell.  ``fresh`` defaults to all of ``cells``;
    a caller may pass fewer when ``cells`` is already stable towards the
    rest, or towards a union that, with ``fresh``, determines the rest
    (``canonical_search`` passes only the vertex it individualizes).
    """
    if fresh is None:
        fresh = cells
    n = len(rows)
    while fresh and len(cells) < n:
        cells, fresh = refine_round(rows, cells, fresh)
    return cells


def _adj_bytes(rows, n, perm):
    """The order byte, then row ``perm[v]`` of the relabelled graph at 8 bytes
    each, little-endian: the rows are packed into one int at 64 bits a row."""
    bit = [1 << p for p in perm]
    packed = 0
    for v in range(n):
        m = rows[v]
        row = 0
        while m:
            b = m & -m
            m ^= b
            row |= bit[b.bit_length() - 1]
        packed |= row << (perm[v] << 6)
    return bytes([n]) + packed.to_bytes(n << 3, "little")


def _homogeneous(rows, cells):
    """True when every within- or between-cell block is empty or complete.

    In that case any transposition inside a cell is an automorphism, so all
    orderings that respect the cell order produce identical adjacency bytes
    and the branching below can stop.  ``cells`` must be equitable: every
    member of a cell then has as many neighbours in each cell as the others,
    so one member per cell decides whether a block is empty or complete.
    """
    for ci in cells:
        if ci & (ci - 1):
            b = ci & -ci
            row = rows[b.bit_length() - 1]
            for cj in cells:
                x = row & cj
                if x and x != cj & ~b:
                    return False
    return True


def _find(root, v):
    """Root of ``v`` in the union-find ``root``: the least vertex of its class."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _union(root, v, w):
    a, b = _find(root, v), _find(root, w)
    if a != b:
        root[max(a, b)] = min(a, b)


def _walk(rows, root, leaf, transpositions, cells, on_first):
    """``canonical_search``'s walk below ``cells``, with its union-find
    ``root`` and its leaf and transposition handlers; True sends the walk
    back to the first path."""
    for i, c in enumerate(cells):
        if c & (c - 1):
            if _homogeneous(rows, cells):
                transpositions(cells)
                return leaf(cells)
            child_on_first = on_first
            m = c
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if on_first and _find(root, v) != v:
                    continue
                # cells is equitable, so counts towards c ^ b follow
                # from those towards c and towards b.
                below = refine_partition(rows, cells[:i] + [b, c ^ b] + cells[i + 1:], [b])
                if _walk(rows, root, leaf, transpositions, below, child_on_first) and not on_first:
                    return True
                child_on_first = False
            return False
    return leaf(cells)


def canonical_search(rows, n, cells):
    """Least adjacency bytes below an equitable ordered partition ``cells``.

    Returns ``(bytes, perm, orbit, gens)`` with ``perm[v]`` the position of
    ``v`` in the best ordering, ``gens`` the automorphisms found on the way
    as tuples (``g[v]`` is the image of ``v``), and ``orbit[v]`` the least
    vertex of the orbit of ``v`` under them.  They generate the
    automorphisms of the graph that preserve ``cells``.

    The walk is depth-first, children in increasing vertex order, and keeps
    the first leaf as well as the best.  A leaf with the first leaf's bytes
    gives an automorphism that maps its path onto the first path, so the
    rest of its subtree is an image of a subtree already walked: the walk
    returns to the nearest ancestor on the first path.  At a node on the
    first path, every generator found so far fixes the vertices
    individualized above it, so a child in the orbit of an earlier child
    (equivalently, not the least vertex of its orbit) roots an image of that
    child's subtree and is skipped.  A skipped leaf always has an
    equal-bytes leaf earlier in the unpruned walk, so ``bytes`` and ``perm``
    are those of the unpruned walk.  Every child in the orbit of the first
    child is either skipped or walked until a leaf equals the first leaf, so
    these generators, with the transpositions of homogeneous cells, reach
    the whole group (Schreier's lemma, as in McKay and Piperno).
    """
    gens = []
    # Orbits of the generators found here, as a union-find.
    root = list(range(n))
    # Pairs already offered by transpositions().
    swapped = set()
    first = best = None

    def leaf(cells):
        """Record a leaf; True when it equals the first leaf."""
        nonlocal first, best
        perm = [0] * n
        pos = 0
        for c in cells:
            while c:
                b = c & -c
                c ^= b
                perm[b.bit_length() - 1] = pos
                pos += 1
        b = _adj_bytes(rows, n, perm)
        if first is None:
            # Only the first leaf's inverse is read: an automorphism maps a
            # leaf with equal bytes onto it.
            inv = [0] * n
            for v, p in enumerate(perm):
                inv[p] = v
            first = (b, inv)
        elif b == first[0]:
            inv = first[1]
            g = tuple([inv[p] for p in perm])
            gens.append(g)
            for v, w in enumerate(g):
                if v != w:
                    _union(root, v, w)
            return True
        if best is None or b < best[0]:
            best = (b, tuple(perm))
        return False

    def transpositions(cells):
        for c in cells:
            members = list(_bits(c))
            for a, b in zip(members, members[1:]):
                if (a, b) not in swapped:
                    swapped.add((a, b))
                    g = list(range(n))
                    g[a], g[b] = b, a
                    gens.append(tuple(g))
                    _union(root, a, b)

    _walk(rows, root, leaf, transpositions, cells, True)
    return best[0], best[1], [_find(root, v) for v in range(n)], gens


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-invariant bytes plus one relabelling realising them.

    ``relabeling[v]`` is the canonical position of input vertex ``v``.
    """

    canonical_bytes: bytes
    relabeling: tuple


def search_graph(g: Graph):
    """``canonical_search`` of the whole of ``g``, from its refined unit
    partition: ``orbit`` is then taken under the full automorphism group."""
    cells = refine_partition(g.rows, [(1 << g.order) - 1])
    return canonical_search(g.rows, g.order, cells)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``."""
    b, perm, *_ = search_graph(g)
    return CanonicalForm(b, perm)


def canonical_bytes(g: Graph) -> bytes:
    return canonical_form(g).canonical_bytes


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.order != g2.order:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_bytes(g1) == canonical_bytes(g2)
