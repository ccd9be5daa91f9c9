"""Independent checks of the program's outputs.

Nothing here imports ``oddhom``: graphs are plain vertex counts with edge
lists, so a defect in the package cannot hide itself by agreeing with its
own checker.  The run-time gates use the certificate checks (maps,
witnesses, relabellings); the small exhaustive searches at the bottom are
used only by the benchmark's tests, to re-derive reference values.
"""

from __future__ import annotations

from itertools import combinations


def edge_set(edges):
    return {frozenset(e) for e in edges}


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def target_edges(kind, m):
    """Edge list of the target ("cycle", m) or ("complete", m)."""
    if kind == "cycle":
        return [(i, (i + 1) % m) for i in range(m)]
    if kind == "complete":
        return list(combinations(range(m), 2))
    raise ValueError(f"unknown target kind {kind!r}")


def is_homomorphism(edges, target, image):
    """True iff ``image`` sends every edge to an edge of ``target`` (an edge set)."""
    return all(frozenset((image[a], image[b])) in target for a, b in edges)


def odd_girth(n, edges):
    """Shortest odd cycle length, or None when the graph is bipartite.

    BFS from every (v, even) in the parity double cover; the first time
    (v, odd) is reached gives the shortest odd closed walk through v, and the
    shortest odd closed walk overall is a cycle.
    """
    adj = adjacency(n, edges)
    best = None
    for s in range(n):
        dist = {(s, 0): 0}
        frontier = [(s, 0)]
        while frontier and (s, 1) not in dist:
            nxt = []
            for v, p in frontier:
                for u in adj[v]:
                    key = (u, 1 - p)
                    if key not in dist:
                        dist[key] = dist[(v, p)] + 1
                        nxt.append(key)
            frontier = nxt
        if (s, 1) in dist and (best is None or dist[(s, 1)] < best):
            best = dist[(s, 1)]
    return best


def is_connected(n, edges):
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _is_path(es, p):
    return len(set(p)) == len(p) and all(frozenset(e) in es for e in zip(p, p[1:]))


def verify_odd_k4(es, branch, paths):
    """Certificate check of an odd-K4: four branch vertices, six threads.

    The threads must be paths of the graph joining the six distinct branch
    pairs, with interiors disjoint from each other and from the branch set,
    and each of the four triangles of K4 must close into an odd cycle.
    """
    branch = tuple(branch)
    if len(set(branch)) != 4 or len(paths) != 6:
        return False
    bset = set(branch)
    length = {}
    interiors = set()
    for p in paths:
        p = tuple(p)
        if len(p) < 2 or not _is_path(es, p) or p[0] not in bset or p[-1] not in bset:
            return False
        pair = frozenset((p[0], p[-1]))
        inner = set(p[1:-1])
        if len(pair) != 2 or pair in length or inner & bset or inner & interiors:
            return False
        interiors |= inner
        length[pair] = len(p) - 1
    return all(
        sum(length[frozenset(e)] for e in combinations(tri, 2)) % 2 == 1
        for tri in combinations(branch, 3)
    )


def verify_odd_k32(es, cycles, paths):
    """Certificate check of an odd-K3^2: three odd cycles, three connections.

    ``paths`` joins the cycle pairs (0,1), (0,2), (1,2).  A one-vertex path
    means the two cycles share exactly that vertex; a longer path runs from
    one cycle to the other with its interior off all three cycles, and it
    avoids the third cycle.  Cycles meet only where such a shared vertex is
    declared, and the connections are pairwise vertex-disjoint.
    """
    if len(cycles) != 3 or len(paths) != 3:
        return False
    vs = []
    for c in cycles:
        c = tuple(c)
        if len(c) < 3 or len(c) % 2 == 0 or len(set(c)) != len(c):
            return False
        if not all(frozenset(e) in es for e in zip(c, c[1:] + c[:1])):
            return False
        vs.append(set(c))
    on_cycles = vs[0] | vs[1] | vs[2]
    used = []
    for (i, j), p in zip(((0, 1), (0, 2), (1, 2)), paths):
        p = tuple(p)
        third = vs[3 - i - j]
        if len(p) == 1:
            if vs[i] & vs[j] != {p[0]} or p[0] in third:
                return False
        else:
            if vs[i] & vs[j] or not _is_path(es, p):
                return False
            if p[0] not in vs[i] or p[-1] not in vs[j]:
                return False
            if set(p[1:-1]) & on_cycles or set(p) & third:
                return False
        used.append(set(p))
    return not (used[0] & used[1] or used[0] & used[2] or used[1] & used[2])


# -- small exhaustive searches, used by the benchmark's tests ----------------------

def has_homomorphism(n, edges, target):
    """Plain backtracking over vertices in BFS order; ``target`` is an edge list."""
    tn = 1 + max(max(e) for e in target)
    tadj = adjacency(tn, target)
    adj = adjacency(n, edges)
    order = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    image = {}

    def extend(i):
        if i == n:
            return True
        v = order[i]
        for c in range(tn):
            if all(image[u] in tadj[c] for u in adj[v] if u in image):
                image[v] = c
                if extend(i + 1):
                    return True
                del image[v]
        return False

    return extend(0)


def chromatic_number(n, edges):
    if not edges:
        return 1
    k = 2
    while not has_homomorphism(n, edges, target_edges("complete", k)):
        k += 1
    return k
