"""Reference search on the whole space [0,q-1]^n for the differential tests:
the package's adjacency and maximum search on every vector, rooted only by
translation (at the zero vector, for the distance predicates), with no
weight set and no canonical roots, and the witness from the plain
lexicographic pass below, which uses no symmetry.  An optional permutation
reorders the vectors first; the maximum size does not depend on it, the
witness canon only holds for the identity order."""

from itertools import product

from basisbound import kernel
from basisbound.search import PRED_INTERSECT_CONST


def first_clique_of_size(adj, nonadj, size, cand):
    """Lexicographically least clique of exactly `size` vertices, all in the
    mask `cand`, or None: the witness pass without the lex-leader rule.

    Depth-first in increasing index order, pruning a node only when its
    colour bound shows it cannot reach `size`, so the first clique found is
    the least one.  `nonadj` is `kernel.complement(adj)`.
    """
    if size <= 0:
        return ()
    clique = []
    stack = []  # per open node: its candidates not yet branched on
    while True:
        need = size - len(clique)
        if cand.bit_count() >= need:
            colours = len(kernel._colour_classes(nonadj, cand)) if need > 1 else 0
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


def graph(problem, order=None):
    """(vectors, adjacency rows) of the whole space, in byte order unless
    `order` permutes it."""
    n = problem.n
    vectors = [bytes(v) for v in product(range(problem.q), repeat=n)]
    if order is not None:
        vectors = [vectors[i] for i in order]
    intersect = problem.predicate == PRED_INTERSECT_CONST
    symbols = kernel.symbol_masks(vectors, n)
    return vectors, kernel.adjacency(vectors, n, problem.pair_values(), intersect, symbols)


def search(problem, order=None):
    """(max_size, witness vectors, exhaustive) as search_max reports them."""
    vectors, adj = graph(problem, order)
    nonadj = kernel.complement(adj)
    everything = (1 << len(vectors)) - 1
    target = problem.target_size or 0
    rooted = problem.predicate != PRED_INTERSECT_CONST
    root = (vectors.index(bytes(problem.n)),) if rooted else ()
    size, _, _ = kernel.extend_max(adj, nonadj, root, everything, 0, target)
    early = bool(target) and size >= target
    if early:
        size = target
    witness = first_clique_of_size(adj, nonadj, size, everything)
    return size, tuple(tuple(vectors[i]) for i in sorted(witness)), not early
