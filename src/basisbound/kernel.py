"""Search kernel: pairwise compatibility masks and the branch-and-bound
maximum-clique search over them.

A vertex set is a Python integer used as a bitmask (bit j is vertex j), and
row i of the adjacency is the mask of the vertices compatible with vertex i.
Rows are bit-sliced: the pair values (distance or intersection size) of
vertex i against every vertex are summed coordinate by coordinate in
vertical bit counters, one mask per binary digit, so a row costs about
n log n big-integer operations instead of one Python step per pair.
Both searches keep an explicit stack, so a clique as deep as the whole space
costs no interpreter recursion, and both bound each node by a greedy
colouring of its candidate set: a clique meets every colour class at most
once (Tomita & Seki, MCQ, 2003; San Segundo et al., BBMC, 2011).
"""

from __future__ import annotations


def adjacency(vectors, n, values, intersect):
    """Compatibility bitmask per vector: bit j of row i is set when the
    pair value of (i, j), i != j, is one of `values`.  `vectors` is a list
    of length-n byte strings; the pair value is their Hamming distance, or
    the size of their supports' intersection when `intersect` is true.

    Row i is computed for all j at once.  For each coordinate c, the mask of
    the vertices that add one to the pair value with vertex i (their symbol
    differs from vectors[i][c], or for intersections both symbols are
    nonzero) is added into vertical bit counters: planes[k] holds bit k of
    every vertex's running count.  The row is then the union of the
    equality masks of the allowed values.
    """
    count = len(vectors)
    full = (1 << count) - 1
    q = max((max(v, default=0) for v in vectors), default=0) + 1
    symbols = [[0] * q for _ in range(n)]
    for j, v in enumerate(vectors):
        bit = 1 << j
        for c, s in enumerate(v):
            symbols[c][s] |= bit
    if intersect:
        # Both entries nonzero: nothing is added where vertex i has a zero.
        adds = [[0] + [full ^ col[0]] * (q - 1) for col in symbols]
    else:
        adds = [[full ^ mask for mask in col] for col in symbols]
    rows = []
    for i, v in enumerate(vectors):
        planes = []
        for c, s in enumerate(v):
            carry = adds[c][s]
            for k, plane in enumerate(planes):
                if not carry:
                    break
                planes[k] = plane ^ carry
                carry &= plane
            else:
                if carry:
                    planes.append(carry)
        row = 0
        for d in values:
            if d >> len(planes) == 0:
                eq = full
                for k, plane in enumerate(planes):
                    eq &= plane if (d >> k) & 1 else ~plane
                row |= eq
        rows.append(row & ~(1 << i))
    return rows


def _colour_classes(nonadj, cand):
    """Greedy colouring of `cand`: a list of pairwise disjoint independent
    sets covering it, each grown from its lowest uncoloured vertex, so every
    class is a singleton exactly when `cand` is a clique.  `nonadj[v]` is
    the complement of v's closed neighbourhood."""
    classes = []
    while cand:
        free = cand
        members = 0
        while free:
            low = free & -free
            members |= low
            free &= nonadj[low.bit_length() - 1]
        classes.append(members)
        cand ^= members
    return classes


def extend_max(adj, count, prefix, target, cand=None, floor=0):
    """Largest clique containing the clique `prefix`, with its other
    members drawn from the mask `cand` (default: every vertex).

    Returns (best_size, witness, nodes): the witness is one clique of
    best_size vertices, and nodes counts the search nodes entered.  The
    search starts from the incumbent size `floor` and prunes against it, so
    the witness is None when no clique beats it.  A positive `target` stops
    the search as soon as a clique of at least that size is found.  The
    witness is not canonical: branching follows the colour classes, highest
    first, and a candidate set that is already a clique is taken whole.
    """
    if count == 0:
        return floor, None, 0
    if cand is None:
        cand = (1 << count) - 1
    for v in prefix:
        cand &= adj[v]
    nonadj = [~row ^ (1 << v) for v, row in enumerate(adj)]
    base = len(prefix)
    clique = list(prefix)
    best, witness, nodes = floor, None, 0
    # One frame per open node: [candidates not yet branched on, colour
    # classes not yet exhausted]; a node's bound is its size plus the number
    # of classes left.
    stack = []
    while True:
        nodes += 1
        size = len(clique)
        if size + cand.bit_count() > best:
            classes = _colour_classes(nonadj, cand)
            if len(classes) == cand.bit_count():
                best = size + len(classes)
                witness = tuple(clique) + tuple(v for v in range(count) if (cand >> v) & 1)
                if target and best >= target:
                    break
            elif size + len(classes) > best:
                stack.append([cand, classes])
        cand = None
        while stack:
            frame = stack[-1]
            size = base + len(stack) - 1
            del clique[size:]
            classes = frame[1]
            if size + len(classes) <= best:
                stack.pop()
                continue
            top = classes[-1]
            low = top & -top
            if top == low:
                classes.pop()
            else:
                classes[-1] = top ^ low
            frame[0] ^= low
            v = low.bit_length() - 1
            clique.append(v)
            cand = frame[0] & adj[v]
            break
        if cand is None:
            break
    return best, witness, nodes


def first_clique_of_size(adj, count, size):
    """Lexicographically least clique of exactly `size` vertices, or None.

    Depth-first in increasing index order, pruning a node only when its
    colour bound shows it cannot reach `size`, so the first clique found is
    the least one.
    """
    if size <= 0:
        return ()
    if count == 0:
        return None
    nonadj = [~row ^ (1 << v) for v, row in enumerate(adj)]
    clique = []
    stack = []  # per open node: its candidates not yet branched on
    cand = (1 << count) - 1
    while True:
        need = size - len(clique)
        if cand.bit_count() >= need:
            colours = len(_colour_classes(nonadj, cand)) if need > 1 else 0
            if need <= 1 or colours == cand.bit_count():
                # Every remaining candidate completes the clique: the least
                # completion takes the lowest ones.
                return tuple(clique + [v for v in range(count) if (cand >> v) & 1][:need])
            if colours >= need:
                stack.append(cand)
        cand = None
        while stack:
            depth = len(stack) - 1
            del clique[depth:]
            rest = stack[-1]
            if depth + rest.bit_count() < size:
                stack.pop()
                continue
            low = rest & -rest
            stack[-1] = rest ^ low
            v = low.bit_length() - 1
            clique.append(v)
            cand = stack[-1] & adj[v]
            break
        if cand is None:
            return None
