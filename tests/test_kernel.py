"""Search kernel against the naive reference kernel in tests/naive_kernel.py:
adjacency, the colour-bounded maximum search (rooted and unrooted), the
lexicographic witness pass, and whole searches on every predicate over the
small spaces, with and without a target size, also against the full-space
reference in tests/full_space.py."""

import random
import time
from dataclasses import replace
from itertools import combinations, product

import full_space
import naive_kernel
import pytest

from basisbound import kernel
from basisbound.search import (
    PRED_DIST_CONST,
    PRED_DIST_MOD,
    PRED_DIST_SET,
    PRED_INTERSECT_CONST,
    SearchProblem,
    search_max,
)


def random_graph(rng, count, density):
    adj = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def relabel(adj, perm):
    """The graph with vertex i renamed perm[i]."""
    count = len(adj)
    out = [0] * count
    for i in range(count):
        for j in range(count):
            if (adj[i] >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def is_clique(adj, vertices):
    return len(set(vertices)) == len(vertices) and all(
        (adj[a] >> b) & 1 for a, b in combinations(vertices, 2)
    )


def random_graphs(seed, trials, max_count=40):
    rng = random.Random(seed)
    for _ in range(trials):
        count = rng.randint(0, max_count)
        yield rng, count, random_graph(rng, count, rng.uniform(0.0, 0.8))


def extend_max(adj, prefix=(), target=0, cand=None, floor=0):
    """kernel.extend_max on the whole graph unless `cand` is given."""
    full = (1 << len(adj)) - 1
    return kernel.extend_max(adj, kernel.complement(adj), prefix,
                             full if cand is None else cand, floor, target)


def first_clique_of_size(adj, size, cand=None):
    """kernel.first_clique_of_size on the whole graph unless `cand` is given,
    with no symmetry (an empty symbol table)."""
    full = (1 << len(adj)) - 1
    return kernel.first_clique_of_size(adj, kernel.complement(adj), size,
                                       full if cand is None else cand, [])


def test_pure_kernel_empty_and_trivial():
    assert extend_max([]) == (0, None, 1)
    assert extend_max([0])[:2] == (1, (0,))
    assert extend_max([0], (0,))[:2] == (1, (0,))
    assert first_clique_of_size([0], 1) == (0,)
    assert first_clique_of_size([0], 2) is None
    assert first_clique_of_size([], 0) == ()
    assert first_clique_of_size([], 1) is None


def test_extend_max_matches_reference_on_random_graphs():
    for _, count, adj in random_graphs(424242, 150):
        want = naive_kernel.extend_max(adj, count, (), 0, 0)[0]
        size, witness, nodes = extend_max(adj)
        assert size == want
        if count:
            assert len(witness) == size and is_clique(adj, witness) and nodes >= 1


def test_rooted_extend_max_matches_reference():
    """Rooted at r, the maximum is that of the cliques through r: the
    reference computes it rooted at 0 after swapping r and 0."""
    for rng, count, adj in random_graphs(7, 120):
        if count == 0:
            continue
        r = rng.randrange(count)
        perm = list(range(count))
        perm[0], perm[r] = r, 0
        want = naive_kernel.extend_max(relabel(adj, perm), count, (0,), 0, 0)[0]
        size, witness, _ = extend_max(adj, (r,))
        assert size == want
        assert witness[0] == r and len(witness) == size and is_clique(adj, witness)


def test_extend_max_candidates_and_floor_match_reference():
    """With a candidate mask and an incumbent floor, extend_max returns the
    largest clique through `prefix` whose other members lie in the mask, or
    the floor and no witness when none beats it.  The reference searches the
    subgraph induced by the prefix followed by the mask."""
    for rng, count, adj in random_graphs(2718, 150):
        if count == 0:
            continue
        r = rng.randrange(count)
        prefix = (r,)
        if adj[r] and rng.random() < 0.5:
            prefix += (rng.choice([v for v in range(count) if (adj[r] >> v) & 1]),)
        cand = rng.getrandbits(count)
        keep = list(prefix) + [v for v in range(count) if (cand >> v) & 1 and v not in prefix]
        sub = [0] * len(keep)
        for a, u in enumerate(keep):
            for b, v in enumerate(keep):
                if (adj[u] >> v) & 1:
                    sub[a] |= 1 << b
        want = naive_kernel.extend_max(sub, len(keep), tuple(range(len(prefix))), 0, 0)[0]
        floor = rng.randint(0, want + 1)
        size, witness, _ = extend_max(adj, prefix, 0, cand, floor)
        if want > floor:
            assert size == want and len(witness) == size and is_clique(adj, witness)
            assert witness[:len(prefix)] == prefix
            assert all((cand >> v) & 1 for v in witness[len(prefix):])
        else:
            assert (size, witness) == (floor, None)


def test_extend_max_target_stops_at_a_large_enough_clique():
    for rng, count, adj in random_graphs(99, 80):
        if count == 0:
            continue
        best = naive_kernel.extend_max(adj, count, (), 0, 0)[0]
        target = rng.randint(1, best + 1)
        size, witness, _ = extend_max(adj, (), target)
        assert size >= target if target <= best else size == best
        assert size <= best and len(witness) == size and is_clique(adj, witness)


def test_first_clique_matches_reference():
    for _, count, adj in random_graphs(11, 80):
        best = naive_kernel.extend_max(adj, count, (), 0, 0)[0]
        for size in range(0, best + 2):
            assert first_clique_of_size(adj, size) == \
                naive_kernel.first_clique_of_size(adj, count, size)


def test_first_clique_in_candidates_matches_reference():
    """With a candidate mask, the least clique of the subgraph the mask
    induces, which the reference finds on that subgraph relabelled."""
    for rng, count, adj in random_graphs(31, 80):
        cand = rng.getrandbits(count)
        keep = [v for v in range(count) if (cand >> v) & 1]
        sub = [sum(1 << b for b, v in enumerate(keep) if (adj[u] >> v) & 1) for u in keep]
        best = naive_kernel.extend_max(sub, len(keep), (), 0, 0)[0]
        for size in range(0, best + 2):
            want = naive_kernel.first_clique_of_size(sub, len(keep), size)
            got = first_clique_of_size(adj, size, cand)
            assert got == (None if want is None else tuple(keep[b] for b in want))


def test_complete_graphs_beyond_word_sizes():
    """Counts straddling the 32- and 64-bit boundaries, up to a clique deeper
    than the interpreter's recursion limit."""
    for count in (31, 32, 33, 63, 64, 65, 100, 1500):
        adj = [((1 << count) - 1) ^ (1 << i) for i in range(count)]
        expected = tuple(range(count))
        assert extend_max(adj)[:2] == (count, expected)
        assert first_clique_of_size(adj, count) == expected


def test_nearly_complete_graph_has_no_recursion_limit():
    count = 1200
    full = (1 << count) - 1
    adj = [full ^ (1 << i) for i in range(count)]
    adj[0] ^= 1 << 1
    adj[1] ^= 1
    assert extend_max(adj)[0] == count - 1
    assert first_clique_of_size(adj, count - 1) == (0,) + tuple(range(2, count))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (4, 3), (2, 6)])
def test_adjacency_matches_reference(q, n, monkeypatch):
    """Whole space, shuffled, and a seeded random subset in enumeration
    order, as the search's vertex filter passes it; each at the default
    block height and with blocks forced to 1, 2, 5 and 7 rows, so that
    one-row blocks and ragged last blocks are computed too."""
    rng = random.Random(q * 100 + n)
    vectors = [bytes(v) for v in product(range(q), repeat=n)]
    cases = [([m], intersect) for m in range(n + 2) for intersect in (False, True)]
    cases += [([d for d in range(n + 1) if d % p == r], False) for p in (2, 3, 5) for r in range(p)]
    cases += [([d for d in range(n + 1) if rng.random() < 0.5], intersect)
              for intersect in (False, True) for _ in range(4)]
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    subset = [v for v in vectors if rng.random() < 0.4]
    default = kernel.BLOCK_BITS
    for order in (vectors, shuffled, subset):
        for values, intersect in cases:
            want = naive_kernel.adjacency(order, n, values, intersect)
            symbols = kernel.symbol_masks(order, n)
            for bits in (default, len(order), 2 * len(order), 5 * len(order), 7 * len(order)):
                monkeypatch.setattr(kernel, "BLOCK_BITS", bits)
                assert kernel.adjacency(order, n, values, intersect, symbols) == want, bits


@pytest.mark.parametrize("q,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
                         + [(4, n) for n in range(1, 4)])
def test_column_masks_match_per_vertex_reads(q, n):
    """The symbol masks, the weight masks read from their bit-sliced
    counts, and the order masks of adjacent coordinates, against the same
    facts read off each vector, on the whole space and on a seeded subset
    in enumeration order, as the search's vertex filter passes it."""
    rng = random.Random(q * 10 + n)
    space = [bytes(v) for v in product(range(q), repeat=n)]
    for vectors in (space, [v for v in space if rng.random() < 0.4], space[:1]):
        symbols = kernel.symbol_masks(vectors, n)
        top = max(b"".join(vectors)) + 1
        assert symbols == [[sum(1 << i for i, v in enumerate(vectors) if v[c] == s)
                            for s in range(top)] for c in range(n)]
        assert kernel.weight_masks(symbols, len(vectors)) == [
            sum(1 << i for i, v in enumerate(vectors) if n - v.count(0) >= w)
            for w in range(n + 1)]
        assert kernel.order_masks(symbols) == [
            (sum(1 << i for i, v in enumerate(vectors) if v[c] > v[c + 1]),
             sum(1 << i for i, v in enumerate(vectors) if v[c] == v[c + 1]))
            for c in range(n - 1)]


def problems(n, q):
    for lam in range(1, n + 1):
        yield SearchProblem(n, q, PRED_DIST_CONST, lam=lam)
        if q == 2:
            yield SearchProblem(n, q, PRED_INTERSECT_CONST, lam=lam)
    for p in (2, 3, 5):
        for lam in range(1, p + 1):
            yield SearchProblem(n, q, PRED_DIST_MOD, lam=lam, p=p)
    for allowed in combinations(range(1, n + 1), 2):
        yield SearchProblem(n, q, PRED_DIST_SET, allowed=allowed)
    yield SearchProblem(n, q, PRED_DIST_SET, allowed=tuple(range(1, n + 1)))


@pytest.mark.parametrize("q,n", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 5)])
def test_search_matches_reference_search(q, n):
    """Same maximum and same witness as the naive search on every predicate,
    and the same early answer under each target size."""
    for problem in problems(n, q):
        want = naive_kernel.search(problem)
        result = search_max(problem)
        assert (result.max_size, result.witness.vectors, result.exhaustive) == want, problem
        targets = {1, 2, want[0] - 1, want[0]} - {0}
        if q**n <= 81:
            # An unreachable target repeats the full reference search; the
            # smaller spaces cover that case at a fraction of the cost.
            targets.add(want[0] + 1)
        for target in targets:
            bounded = replace(problem, target_size=target)
            result = search_max(bounded)
            got = (result.max_size, result.witness.vectors, result.exhaustive)
            assert got == naive_kernel.search(bounded), bounded


@pytest.mark.parametrize(
    "q,n",
    [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
    + [(4, n) for n in range(1, 5)] + [(5, n) for n in range(1, 4)],
)
def test_local_graph_matches_full_space(q, n):
    """The search builds only the vertices of its weight set and searches
    canonical first and second roots per weight; the reference in
    tests/full_space.py searches the whole space, rooted only by
    translation.  Both give the same maximum, witness and exhaustiveness;
    only the node count differs.  From q = 4 an orbit of the second root
    merges different symbols other than 1 on supp(r_w).  The spaces of more
    than 128 vectors are checked without a target."""
    for problem in problems(n, q):
        size = full_space.search(problem)[0]
        for target in (None, 1, size) if q**n <= 128 else (None,):
            bounded = replace(problem, target_size=target)
            got = search_max(bounded)
            assert (got.max_size, got.witness.vectors, got.exhaustive) == \
                full_space.search(bounded), bounded


@pytest.mark.parametrize("q,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)])
def test_lex_leader_pass_matches_plain_pass(q, n):
    """On the whole space, for every predicate: the witness pass that
    branches only on lex-leaders returns the least clique of each size up
    to the maximum that the plain pass in tests/full_space.py returns.  On
    the spaces of at most 128 vectors this also holds one past the maximum,
    where both find none, and among the vertices of weight at least 1 and
    at least n // 2, which coordinate permutations also fix.  On the larger
    spaces the plain pass takes minutes to show that none exists."""
    small = q**n <= 128
    for problem in problems(n, q):
        vectors, adj = full_space.graph(problem)
        nonadj = kernel.complement(adj)
        symbols = kernel.symbol_masks(vectors, n)
        at_least = kernel.weight_masks(symbols, len(vectors))
        bests = {at_least[0]: full_space.search(problem)[0]}
        if small:
            for cand in (at_least[1], at_least[n // 2]):
                bests[cand] = kernel.extend_max(adj, nonadj, (), cand, 0, 0)[0]
        for cand, best in bests.items():
            for size in range(1, best + 1 + small):
                assert kernel.first_clique_of_size(adj, nonadj, size, cand, symbols) == \
                    full_space.first_clique_of_size(adj, nonadj, size, cand), (problem, size)


def test_biplane_found_in_seconds():
    """Intersection n=11, lambda=2: the maximum is 11, the biplane.  The
    witness pass searches only the vertices that can hold a maximum (those
    of weight >= 5, the least weight a maximum reaches), so the whole
    search takes seconds; over the full graph the pass took about a minute.
    The witness is the symmetric 2-(11,5,2) design: eleven 5-sets, every
    pair of points in exactly two of them, and it is the one the pass over
    the full graph returns."""
    started = time.monotonic()
    result = search_max(SearchProblem(11, 2, PRED_INTERSECT_CONST, lam=2))
    assert time.monotonic() - started < 20
    assert (result.max_size, result.exhaustive) == (11, True)
    blocks = [{i for i, x in enumerate(v) if x} for v in result.witness.vectors]
    assert len(blocks) == 11 and all(len(b) == 5 for b in blocks)
    assert all(sum(1 for b in blocks if {i, j} <= b) == 2 for i, j in combinations(range(11), 2))
    assert ["".join(map(str, v)) for v in result.witness.vectors] == [
        "00000011111", "00011100011", "00101101100", "01010110100", "01101010001", "01110001010",
        "10011011000", "10100110010", "10110000101", "11000101001", "11001000110",
    ]


def test_binary_n14_distance_6_within_a_node_budget():
    """Binary n=14, constant distance 6: the maximum is 13, and the linear
    programming bound (19.2) cannot settle it.  With one root per weight the
    search took over five million nodes; with a second root per orbit of
    the first roots' stabiliser it takes under 100,000.  The witness is the
    one the search with one root per weight returns."""
    result = search_max(SearchProblem(14, 2, PRED_DIST_CONST, lam=6))
    assert (result.max_size, result.exhaustive) == (13, True)
    assert result.nodes_explored < 100_000
    assert ["".join(map(str, v)) for v in result.witness.vectors] == [
        "00000000000000", "00000000111111", "00000111000111", "00001011011001", "00010011101010",
        "00011100001011", "00100101011010", "00101001100011", "00110001001101", "01000101101001",
        "01001001001110", "01010001010011", "01100010001011",
    ]


def test_intersection_n12_lambda_2_within_a_node_budget():
    """Intersection n=12, lambda=2: the maximum is 11.  One root per weight
    took over a million nodes; second roots take under 20,000.  The witness
    is the one the search with one root per weight returns: the ten 3-sets
    through {11, 12} and that pair itself."""
    result = search_max(SearchProblem(12, 2, PRED_INTERSECT_CONST, lam=2))
    assert (result.max_size, result.exhaustive) == (11, True)
    assert result.nodes_explored < 20_000
    assert ["".join(map(str, v)) for v in result.witness.vectors] == [
        "000000000011", "000000000111", "000000001011", "000000010011", "000000100011",
        "000001000011", "000010000011", "000100000011", "001000000011", "010000000011",
        "100000000011",
    ]


def test_intersection_n12_lambda_3_witness_pass():
    """Intersection n=12, lambda=3: the maximum is 11, a 5-set and ten
    6-sets.  The plain witness pass took about 27 s on a 2-core VM;
    branching only on lex-leaders it takes a fraction of a second.  The
    witness is the one the plain pass returns."""
    started = time.monotonic()
    result = search_max(SearchProblem(12, 2, PRED_INTERSECT_CONST, lam=3))
    assert time.monotonic() - started < 5
    assert (result.max_size, result.nodes_explored, result.exhaustive) == (11, 21_153, True)
    assert ["".join(map(str, v)) for v in result.witness.vectors] == [
        "000000011111", "000011100111", "000101111001", "001010111010", "001101001110",
        "001110010101", "010011011100", "010100110110", "010110001011", "011000101101",
        "011001010011",
    ]


def test_order_hook_roots_at_the_zero_vector():
    """Under a permuted enumeration the full-space reference roots the
    distance predicates at wherever the zero vector landed, and the maximum
    is unchanged."""
    rng = random.Random(5)
    for problem in (
        SearchProblem(4, 2, PRED_DIST_CONST, lam=2),
        SearchProblem(5, 2, PRED_DIST_SET, allowed=(1, 2)),
        SearchProblem(3, 3, PRED_DIST_MOD, lam=1, p=2),
        SearchProblem(5, 2, PRED_INTERSECT_CONST, lam=1),
    ):
        baseline = naive_kernel.search(problem)[0]
        assert search_max(problem).max_size == baseline
        order = list(range(problem.q**problem.n))
        for _ in range(4):
            rng.shuffle(order)
            assert full_space.search(problem, order)[0] == baseline
