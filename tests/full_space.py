"""Reference search on the whole space [0,q-1]^n for the differential tests:
the package's kernel on every vector, rooted only by translation (at the
zero vector, for the distance predicates), with no weight set and no
canonical roots.  An optional permutation reorders the vectors first; the
maximum size does not depend on it, the witness canon only holds for the
identity order."""

from itertools import product

from basisbound import kernel
from basisbound.search import PRED_INTERSECT_CONST


def search(problem, order=None):
    """(max_size, witness vectors, exhaustive) as search_max reports them."""
    n = problem.n
    vectors = [bytes(v) for v in product(range(problem.q), repeat=n)]
    if order is not None:
        vectors = [vectors[i] for i in order]
    rooted = problem.predicate != PRED_INTERSECT_CONST
    adj = kernel.adjacency(vectors, n, problem.pair_values(), not rooted)
    nonadj = kernel.complement(adj)
    everything = (1 << len(vectors)) - 1
    target = problem.target_size or 0
    root = (vectors.index(bytes(n)),) if rooted else ()
    size, _, _ = kernel.extend_max(adj, nonadj, root, everything, 0, target)
    early = bool(target) and size >= target
    if early:
        size = target
    witness = kernel.first_clique_of_size(adj, nonadj, size, everything)
    return size, tuple(tuple(vectors[i]) for i in sorted(witness)), not early
