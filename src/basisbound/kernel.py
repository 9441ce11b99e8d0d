"""Search kernel: pairwise compatibility masks and the branch-and-bound
maximum-clique search over them.

A vertex set is a Python integer used as a bitmask (bit j is vertex j), and
row i of the adjacency is the mask of the vertices compatible with vertex i.
Every per-vertex structure is read from one table, `symbol_masks`: per
coordinate, the mask of the vertices holding each symbol there, read off
the column of symbols at C speed.  Rows are bit-sliced: the pair counts
(agreements, or common nonzero coordinates) of vertex i against every
vertex are summed coordinate by coordinate from those masks in vertical bit
counters, one mask per binary digit, so a row costs about n log n
big-integer operations instead of one Python step per pair.  On graphs of
up to BLOCK_MAX_COUNT vertices the rows are computed in blocks: the masks
of a block of rows are laid end to end in one integer, and the same
counters run on it, so each step serves every row of the block.  The same
counters over the columns' nonzero masks give the weight masks
(`weight_masks`), and pairs of neighbouring columns the order masks
(`order_masks`) that the witness pass reads.
Both searches keep an explicit stack, so a clique as deep as the whole space
costs no interpreter recursion, and both bound each node by a greedy
colouring of its candidate set: a clique meets every colour class at most
once (Tomita & Seki, MCQ, 2003; San Segundo et al., BBMC, 2011).  The
colouring reads the complement table `nonadj`, which the caller builds once
per graph with `complement` and passes to every search on it.  The witness
pass, `first_clique_of_size`, also breaks the coordinate symmetry: from
the order masks of the symbol table it branches only on lex-leaders, the
candidates that are the byte-least vectors of their orbits under the
coordinate permutations fixing the members chosen so far.  The kernel
itself holds no vectors; an empty table means no symmetry.
"""

from __future__ import annotations

# Blocks of rows in `adjacency`: a block holds about BLOCK_BITS bits of rows.
# Past BLOCK_MAX_COUNT vertices a row is long enough that the bytes-to-integer
# conversions of a block cost more than the interpreter steps they save, and
# every block is one row.
BLOCK_BITS = 1 << 17
BLOCK_MAX_COUNT = 2500

# _EQUALS[s] maps byte s to "1" and every other byte to "0": the translation
# from a column of symbols to the binary digits of a mask.
_EQUALS = [b"0" * s + b"1" + b"0" * (255 - s) for s in range(256)]


def symbol_masks(vectors, n):
    """Per coordinate c, the vertex masks by symbol: entry [c][s] holds the
    vertices whose symbol at c is s, for every s up to the largest symbol
    in `vectors` (a list of length-n byte strings).  The vectors are
    translated to binary digits once per symbol, and each mask is read off
    one column of them at C speed; the last symbol's is what the others
    leave."""
    # Reversed, so that vertex 0 is the lowest bit of every column.
    joined = b"".join(vectors)[::-1]
    full = (1 << len(vectors)) - 1
    digits = [joined.translate(_EQUALS[s]) for s in range(max(joined, default=0))]
    masks = []
    for c in range(n - 1, -1, -1):
        column = [int(ones[c::n] or b"0", 2) for ones in digits]
        column.append(full - sum(column))  # the masks are disjoint
        masks.append(column)
    return masks


def _planes(masks):
    """Vertical bit counters of the masks' sum: plane k holds bit k of
    every lane's count."""
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
    return planes


def adjacency(vectors, n, values, intersect, symbols):
    """Compatibility bitmask per vector: bit j of row i is set when the
    pair value of (i, j), i != j, is one of `values`.  `vectors` is a list
    of length-n byte strings and `symbols` is `symbol_masks(vectors, n)`;
    the pair value is their Hamming distance, or the size of their
    supports' intersection when `intersect` is true.

    For each coordinate c and symbol s, the mask of the vertices that add one
    to a count with a vertex whose symbol at c is s is one of `symbols`: for
    distances the count is of agreements (the same symbol), n minus the
    distance; for intersections it is of coordinates where both symbols
    are nonzero.  Rows are computed a block at a time: the masks of the
    block's rows at coordinate c, laid end to end with a byte-aligned
    stride, form one integer, which is added into vertical bit counters
    (planes[k] holds bit k of every pair's running count).  The block is
    the union of the equality masks of the wanted counts, split back into
    rows.  A one-row block uses the masks directly.
    """
    count = len(vectors)
    if not count:
        return []
    full = (1 << count) - 1
    if intersect:
        # Nothing is added where vertex i has a zero.
        adds = [[0] + [full ^ column[0]] * (len(column) - 1) for column in symbols]
        wanted = values
    else:
        adds = symbols
        wanted = [n - d for d in values]
    height = max(1, BLOCK_BITS // count) if count <= BLOCK_MAX_COUNT else 1
    width = (count + 7) // 8  # bytes per row of a block
    if height > 1:
        joined = b"".join(vectors)
        columns = [joined[c::n] for c in range(n)]
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
        planes = _planes(masks)
        block = 0
        for d in wanted:
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


def weight_masks(symbols, count):
    """at_least[w], w = 0..n: the vertices with at least w nonzero symbols.
    The columns' nonzero masks are summed in vertical bit counters, read
    from the top plane down: each plane splits every class of vertices by
    the next bit of their count, so exact[j] ends as the vertices of
    weight j."""
    full = (1 << count) - 1
    exact = [full]
    for plane in reversed(_planes([full ^ column[0] for column in symbols])):
        exact = [part for mask in exact for part in (mask & ~plane, mask & plane)]
    at_least = []
    above = 0
    for w in range(len(symbols), -1, -1):
        if w < len(exact):
            above |= exact[w]
        at_least.append(above)
    return at_least[::-1]


def order_masks(symbols):
    """Per adjacent coordinate pair (c, c+1), the masks of the vertices v
    with v_c > v_{c+1} and with v_c = v_{c+1}, from `symbol_masks`: what
    `first_clique_of_size`'s lex-leader rule reads."""
    pairs = []
    for here, there in zip(symbols, symbols[1:]):
        above = equal = below = 0  # below: symbol at c+1 less than s
        for mine, theirs in zip(here, there):
            above |= mine & below
            equal |= mine & theirs
            below |= theirs
        pairs.append((above, equal))
    return pairs


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


def _lowest(mask, k):
    """The k lowest vertices of `mask`, ascending; it must hold k."""
    found = []
    for _ in range(k):
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


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
                witness = tuple(clique + _lowest(cand, len(classes)))
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


def first_clique_of_size(adj, nonadj, size, cand, symbols):
    """Lexicographically least clique of exactly `size` vertices, all in the
    mask `cand`, or None.

    Depth-first in increasing index order, pruning a node only when its
    colour bound shows it cannot reach `size`, so the first clique found is
    the least one.  `nonadj` is `complement(adj)`.

    `symbols` is `symbol_masks` of the vertices, or empty for no symmetry.
    With symbols, the vertices must be distinct vectors indexed in byte
    order, and the graph and `cand` must be invariant under coordinate
    permutations.  Then the search branches only on lex-leaders: the
    candidates non-decreasing inside every cell, a maximal run of
    coordinates on which the members chosen so far agree column by column
    (Crawford, Ginsberg, Luks & Roy, KR 1996; the argument is in the
    `search` module docstring).  The pairs of adjacent coordinates still
    inside a cell are those where every member has equal symbols, and a
    vertex is no leader when it lies in the descent mask of one of them
    (`order_masks`, made when the first node opens).  Candidates below the
    least leader are dropped, since every later member exceeds the next
    one.
    """
    if size <= 0:
        return ()
    clique = []
    # Per open node: [candidates not yet branched on, the non-leaders, the
    # pairs inside a cell].
    stack = []
    live, fence = None, 0  # the root's pairs are made when it opens
    while True:
        lead = cand & ~fence
        cand &= -(lead & -lead)
        need = size - len(clique)
        if cand.bit_count() >= need:
            colours = len(_colour_classes(nonadj, cand)) if need > 1 else 0
            if need <= 1 or colours == cand.bit_count():
                # Every remaining candidate completes the clique: the least
                # completion takes the lowest ones.
                return tuple(clique + _lowest(cand, need))
            if colours >= need:
                if live is None:
                    live = order_masks(symbols)
                    for above, _ in live:
                        fence |= above
                stack.append([cand, fence, live])
        cand = None
        while stack:
            depth = len(stack) - 1
            del clique[depth:]
            frame = stack[-1]
            rest, fence, live = frame
            lead = rest & ~fence
            rest &= -(lead & -lead)  # empty when no leader is left
            if depth + rest.bit_count() < size:
                stack.pop()
                continue
            low = lead & -lead
            frame[0] = rest ^ low
            v = low.bit_length() - 1
            clique.append(v)
            cand = frame[0] & adj[v]
            live = [pair for pair in live if (pair[1] >> v) & 1]
            fence = 0
            for above, _ in live:
                fence |= above
            break
        if cand is None:
            return None
