"""Reference search kernel for the differential tests: pairwise adjacency
and the plain recursive branch-and-bound with the size cutoff, exploring in
increasing index order so the first maximum clique found is the
lexicographically least one.  Slow and simple on purpose; only small graphs
are given to it."""

from itertools import product


def adjacency(vectors, n, values, intersect):
    count = len(vectors)
    rows = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if intersect:
                value = sum(1 for a, b in zip(vectors[i], vectors[j]) if a and b)
            else:
                value = sum(1 for a, b in zip(vectors[i], vectors[j]) if a != b)
            if value in values:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def extend_max(adj, count, prefix, lower, target):
    """Best clique extending `prefix` with indices above its maximum:
    (best_size, witness or None, nodes)."""
    if count == 0:
        return lower, None, 0
    full = (1 << count) - 1
    cand = full
    for v in prefix:
        cand &= adj[v]
    if prefix:
        cand &= full ^ ((1 << (max(prefix) + 1)) - 1)
    state = {"best": lower, "witness": None, "nodes": 0, "stop": False}
    clique = list(prefix)

    def visit(cand_mask):
        state["nodes"] += 1
        size = len(clique)
        if size > state["best"]:
            state["best"] = size
            state["witness"] = tuple(clique)
            if target and size >= target:
                state["stop"] = True
                return
        while cand_mask:
            if state["stop"] or size + cand_mask.bit_count() <= state["best"]:
                return
            low = cand_mask & -cand_mask
            cand_mask ^= low
            v = low.bit_length() - 1
            clique.append(v)
            visit(cand_mask & adj[v])
            clique.pop()

    visit(cand)
    return state["best"], state["witness"], state["nodes"]


def first_clique_of_size(adj, count, size):
    """Lexicographically least clique of exactly `size` vertices, or None."""
    if size <= 0:
        return ()
    if count == 0:
        return None
    found = []
    clique = []

    def visit(cand_mask):
        if len(clique) == size:
            found.extend(clique)
            return True
        while cand_mask:
            if len(clique) + cand_mask.bit_count() < size:
                return False
            low = cand_mask & -cand_mask
            cand_mask ^= low
            v = low.bit_length() - 1
            clique.append(v)
            if visit(cand_mask & adj[v]):
                return True
            clique.pop()
        return False

    if visit((1 << count) - 1):
        return tuple(found)
    return None


def search(problem):
    """(max_size, witness vectors, exhaustive) as the search reports them:
    the lexicographically least maximum family, or with a target size the
    first family of that size."""
    vectors = [bytes(v) for v in product(range(problem.q), repeat=problem.n)]
    # The predicate decoded from the problem's own fields.
    if problem.predicate == "distance-mod":
        values = [d for d in range(problem.n + 1) if d % problem.p == problem.lam % problem.p]
    elif problem.predicate == "distance-set-within":
        values = problem.allowed
    else:
        values = [problem.lam]
    intersect = problem.predicate == "intersection-constant"
    adj = adjacency(vectors, problem.n, values, intersect)
    target = problem.target_size or 0
    size, witness, _ = extend_max(adj, len(vectors), (), 0, target)
    early = bool(target) and size >= target
    return size, tuple(tuple(vectors[i]) for i in sorted(witness)), not early
