"""Reference inertia for the differential tests: the pivoted exact LDL^T
on field elements that `inertia_psd_rank` ran before it went
fraction-free.  Slow and simple on purpose; only small matrices are given
to it."""

from basisbound.exactfield import ExactMatrix, rank


def inertia_psd_rank(g: ExactMatrix):
    """(is_psd, rank) of a symmetric matrix over Q or Q(sqrt d).  Pivots are
    taken from the diagonal; if only an all-zero diagonal remains while
    off-diagonal entries survive, the matrix is indefinite and the remaining
    rank is computed by plain elimination."""
    field = g.field
    n = g.nrows
    a = [g.row(i) for i in range(n)]
    remaining = list(range(n))
    pivot_signs = []
    while True:
        pivot = None
        for k in remaining:
            if a[k][k] != 0:
                pivot = k
                break
        if pivot is None:
            break
        d = a[pivot][pivot]
        pivot_signs.append(field.sign(d))
        remaining.remove(pivot)
        col = {i: a[i][pivot] for i in remaining}
        for i in remaining:
            if col[i] == 0:
                continue
            factor = col[i] / d
            for j in remaining:
                a[i][j] -= factor * col[j]
    residue_nonzero = any(a[i][j] != 0 for i in remaining for j in remaining)
    if residue_nonzero:
        block = [[a[i][j] for j in remaining] for i in remaining]
        return False, len(pivot_signs) + rank(ExactMatrix(field, block))
    return all(s > 0 for s in pivot_signs), len(pivot_signs)
