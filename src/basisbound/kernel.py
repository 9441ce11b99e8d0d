"""Search kernel: pairwise compatibility masks and the branch-and-bound
maximum-clique search over them.

A vertex set is a Python integer used as a bitmask (bit j is vertex j), and
row i of the adjacency is the mask of the vertices compatible with vertex i.
Rows are bit-sliced: the pair values (distance or intersection size) of
vertex i against every vertex are summed coordinate by coordinate in
vertical bit counters, one mask per binary digit, so a row costs about
n log n big-integer operations instead of one Python step per pair.  On
graphs of up to BLOCK_MAX_COUNT vertices the rows are computed in blocks:
the masks of a block of rows are laid end to end in one integer, and the
same counters run on it, so each step serves every row of the block.
Both searches keep an explicit stack, so a clique as deep as the whole space
costs no interpreter recursion, and both bound each node by a greedy
colouring of its candidate set: a clique meets every colour class at most
once (Tomita & Seki, MCQ, 2003; San Segundo et al., BBMC, 2011).  The
colouring reads the complement table `nonadj`, which the caller builds once
per graph with `complement` and passes to every search on it.
"""

from __future__ import annotations

# Blocks of rows in `adjacency`: a block holds about BLOCK_BITS bits of rows.
# Past BLOCK_MAX_COUNT vertices a row is long enough that the bytes-to-integer
# conversions of a block cost more than the interpreter steps they save, and
# every block is one row.
BLOCK_BITS = 1 << 17
BLOCK_MAX_COUNT = 2500

# Translation tables from a column of symbols to the binary digits of a mask:
# _DIFFERS[s] maps each byte other than s to "1", _NONZERO each nonzero byte.
_DIFFERS = [b"1" * s + b"0" + b"1" * (255 - s) for s in range(256)]
_NONZERO = _DIFFERS[0]


def adjacency(vectors, n, values, intersect):
    """Compatibility bitmask per vector: bit j of row i is set when the
    pair value of (i, j), i != j, is one of `values`.  `vectors` is a list
    of length-n byte strings; the pair value is their Hamming distance, or
    the size of their supports' intersection when `intersect` is true.

    For each coordinate c and symbol s, the mask of the vertices that add one
    to the pair value with a vertex whose symbol at c is s (their symbol
    differs from s, or for intersections both symbols are nonzero) is read
    off the column of symbols at C speed.  Rows are then computed a block at
    a time: the masks of the block's rows at coordinate c, laid end to end
    with a byte-aligned stride, form one integer, which is added into
    vertical bit counters (planes[k] holds bit k of every pair's running
    count).  The block is the union of the equality masks of the allowed
    values, split back into rows.  A one-row block uses the masks directly.
    """
    count = len(vectors)
    if not count:
        return []
    full = (1 << count) - 1
    joined = b"".join(vectors)
    q = max(joined, default=0) + 1
    columns = [joined[c::n] for c in range(n)]
    adds = []
    for column in columns:
        digits = column[::-1]  # vertex 0 is the lowest bit
        if intersect:
            # Both entries nonzero: nothing is added where vertex i has a zero.
            adds.append([0] + [int(digits.translate(_NONZERO), 2)] * (q - 1))
        else:
            adds.append([int(digits.translate(_DIFFERS[s]), 2) for s in range(q)])
    height = max(1, BLOCK_BITS // count) if count <= BLOCK_MAX_COUNT else 1
    width = (count + 7) // 8  # bytes per row of a block
    if height > 1:
        pieces = [[mask.to_bytes(width, "little") for mask in col] for col in adds]
        lane = full.to_bytes(width, "little")
    rows = []
    for start in range(0, count, height):
        stop = min(start + height, count)
        if stop - start == 1:
            masks = map(list.__getitem__, adds, vectors[start])
            lanes = full
        else:
            masks = (int.from_bytes(b"".join(map(piece.__getitem__, column[start:stop])), "little")
                     for piece, column in zip(pieces, columns))
            lanes = int.from_bytes(lane * (stop - start), "little")
        planes = []
        for carry in masks:
            for k, plane in enumerate(planes):
                if not carry:
                    break
                planes[k] = plane ^ carry
                carry &= plane
            else:
                if carry:
                    planes.append(carry)
        block = 0
        for d in values:
            if d >> len(planes) == 0:
                eq = lanes
                for k, plane in enumerate(planes):
                    eq &= plane if (d >> k) & 1 else ~plane
                block |= eq
        if stop - start == 1:
            rows.append(block & ~(1 << start))
        else:
            data = block.to_bytes((stop - start) * width, "little")
            rows += [int.from_bytes(data[k:k + width], "little") & ~(1 << i)
                     for i, k in zip(range(start, stop), range(0, len(data), width))]
    return rows


def complement(adj):
    """The colouring's complement table: entry v is the complement of v's
    closed neighbourhood (a negative integer)."""
    return [~row ^ (1 << v) for v, row in enumerate(adj)]


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


def extend_max(adj, nonadj, prefix, cand, floor, target):
    """Largest clique containing the clique `prefix`, with its other
    members drawn from the mask `cand`.

    Returns (best_size, witness, nodes): the witness is one clique of
    best_size vertices, and nodes counts the search nodes entered.  The
    search starts from the incumbent size `floor` and prunes against it, so
    the witness is None when no clique beats it.  A positive `target` stops
    the search as soon as a clique of at least that size is found.  The
    witness is not canonical: branching follows the colour classes, highest
    first, and a candidate set that is already a clique is taken whole.
    `nonadj` is `complement(adj)`.
    """
    for v in prefix:
        cand &= adj[v]
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
                witness = tuple(clique) + tuple(v for v in range(len(adj)) if (cand >> v) & 1)
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


def first_clique_of_size(adj, nonadj, size, cand):
    """Lexicographically least clique of exactly `size` vertices, all in the
    mask `cand`, or None.

    Depth-first in increasing index order, pruning a node only when its
    colour bound shows it cannot reach `size`, so the first clique found is
    the least one.  `nonadj` is `complement(adj)`.
    """
    if size <= 0:
        return ()
    clique = []
    stack = []  # per open node: its candidates not yet branched on
    while True:
        need = size - len(clique)
        if cand.bit_count() >= need:
            colours = len(_colour_classes(nonadj, cand)) if need > 1 else 0
            if need <= 1 or colours == cand.bit_count():
                # Every remaining candidate completes the clique: the least
                # completion takes the lowest ones.
                return tuple(clique + [v for v in range(len(adj)) if (cand >> v) & 1][:need])
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
