"""Exhaustive search engine: exactness against subset enumeration,
determinism, guards and the distance-count maximum."""

import random
from itertools import combinations, product

import full_space
import pytest

from basisbound.acceptance import max_with_distance_count
from basisbound.errors import HypothesisViolationError, ResourceGuardError
from basisbound.families import distance_set, hamming_distance
from basisbound.search import (
    PRED_DIST_CONST,
    PRED_DIST_MOD,
    PRED_DIST_SET,
    PRED_INTERSECT_CONST,
    SearchProblem,
    enumerate_space,
    search_max,
    second_roots,
)


def brute_max_size(n, q, pair_ok):
    """Largest pairwise-compatible subset by direct subset enumeration."""
    vectors = list(product(range(q), repeat=n))
    count = len(vectors)
    ok = [[pair_ok(vectors[i], vectors[j]) for j in range(count)] for i in range(count)]
    best = 1
    for size in range(2, count + 1):
        found = False
        for combo in combinations(range(count), size):
            if all(ok[a][b] for a, b in combinations(combo, 2)):
                found = True
                break
        if not found:
            break
        best = size
    return best


def test_constant_distance_examples():
    result = search_max(SearchProblem(3, 2, PRED_DIST_CONST, lam=2))
    assert result.max_size == 4
    result = search_max(SearchProblem(3, 2, PRED_DIST_CONST, lam=1))
    assert result.max_size == 2


def test_mod_distance_example_tight_row():
    result = search_max(SearchProblem(4, 2, PRED_DIST_MOD, lam=2, p=3))
    assert result.max_size == 4
    assert result.witness.vectors == (
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
    )


@pytest.mark.parametrize(
    "n,q,predicate,kwargs,pair_ok",
    [
        (3, 2, PRED_DIST_CONST, {"lam": 2}, lambda u, v: hamming_distance(u, v) == 2),
        (3, 2, PRED_DIST_MOD, {"lam": 1, "p": 3}, lambda u, v: hamming_distance(u, v) % 3 == 1),
        (2, 3, PRED_DIST_CONST, {"lam": 2}, lambda u, v: hamming_distance(u, v) == 2),
        (3, 2, PRED_DIST_SET, {"allowed": (1, 3)}, lambda u, v: hamming_distance(u, v) in (1, 3)),
        (
            3,
            2,
            PRED_INTERSECT_CONST,
            {"lam": 1},
            lambda u, v: sum(1 for a, b in zip(u, v) if a and b) == 1,
        ),
    ],
)
def test_search_matches_subset_enumeration(n, q, predicate, kwargs, pair_ok):
    result = search_max(SearchProblem(n, q, predicate, **kwargs))
    assert result.max_size == brute_max_size(n, q, pair_ok)


def test_witness_satisfies_predicate_independently():
    problem = SearchProblem(4, 2, PRED_DIST_MOD, lam=2, p=3)
    witness = search_max(problem).witness
    assert all(d % 3 == 2 for d in distance_set(witness))


def test_witness_is_lexicographically_least():
    """Exhaustive cross-check of the witness canon on a small instance."""
    problem = SearchProblem(3, 2, PRED_DIST_CONST, lam=2)
    result = search_max(problem)
    vectors = list(product(range(2), repeat=3))
    best = None
    for combo in combinations(vectors, result.max_size):
        if all(hamming_distance(u, v) == 2 for u, v in combinations(combo, 2)):
            best = combo
            break  # combinations enumerate lexicographically
    assert result.witness.vectors == best


def test_order_permutation_hook_preserves_max_size():
    """The maximum search_max finds is the full-space reference's maximum
    under any enumeration order."""
    problem = SearchProblem(4, 2, PRED_DIST_MOD, lam=2, p=3)
    baseline = search_max(problem).max_size
    rng = random.Random(17)
    order = list(range(16))
    for _ in range(5):
        rng.shuffle(order)
        assert full_space.search(problem, list(order))[0] == baseline


def test_target_size_early_exit():
    problem = SearchProblem(4, 2, PRED_DIST_MOD, lam=2, p=3, target_size=2)
    result = search_max(problem)
    assert result.max_size >= 2
    assert not result.exhaustive


def test_constant_distance_bound_when_lambda_not_half():
    """Families with constant distance != (n+1)/2 have at most n members."""
    for n in range(1, 5):
        for lam in range(1, n + 1):
            if 2 * lam == n + 1:
                continue
            result = search_max(SearchProblem(n, 2, PRED_DIST_CONST, lam=lam))
            assert result.max_size <= n


def test_exceptional_lambda_reaches_n_plus_1():
    result = search_max(SearchProblem(3, 2, PRED_DIST_CONST, lam=2))
    assert result.max_size == 4


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_enumerate_space_by_weight(q, n):
    """Every weight set gives the vectors of those weights in enumeration
    order."""
    space = [bytes(v) for v in product(range(q), repeat=n)]
    for r in range(n + 2):
        for weights in combinations(range(n + 1), r):
            want = [v for v in space if n - v.count(0) in weights]
            assert enumerate_space(n, q, set(weights)) == want


def stabiliser_orbits(n, q, w):
    """The orbits of the stabiliser of 0 and r_w = 0^(n-w) 1^w in S_q wr S_n
    on [0,q-1]^n, by closure under generators: swaps of neighbouring
    coordinates on the same side of supp(r_w), and at each coordinate a swap
    and a cycle of the symbols it may move (1..q-1 off the support, 2..q-1
    on it)."""
    side = [c >= n - w for c in range(n)]
    perms = []
    for c in range(n):
        moved = list(range(2 if side[c] else 1, q))
        if len(moved) >= 2:
            swap = {moved[0]: moved[1], moved[1]: moved[0]}
            cycle = dict(zip(moved, moved[1:] + moved[:1]))
            perms += [(c, swap), (c, cycle)]

    def moves(v):
        for c in range(n - 1):
            if side[c] == side[c + 1]:
                yield v[:c] + (v[c + 1], v[c]) + v[c + 2:]
        for c, perm in perms:
            yield v[:c] + (perm.get(v[c], v[c]),) + v[c + 1:]

    orbit_of = {}
    for start in product(range(q), repeat=n):
        if start in orbit_of:
            continue
        orbit_of[start] = start
        todo = [start]
        while todo:
            for u in moves(todo.pop()):
                if u not in orbit_of:
                    orbit_of[u] = start
                    todo.append(u)
    return orbit_of


@pytest.mark.parametrize("n", range(1, 9))
def test_second_roots_one_per_orbit(n):
    """second_roots gives one vector of the space per orbit of the first
    roots' stabiliser, with its weight, ascending by weight then byte order,
    and only those of the weights asked for.  The orbits, found by closure
    under the group's generators, are the classes of the three counts (1s on
    supp(r_w), other nonzero symbols on it, nonzero symbols off it).  Every
    space of at most 256 vectors is checked."""
    for q, w in product([q for q in range(2, 257) if q**n <= 256], range(n + 1)):
        orbit_of = stabiliser_orbits(n, q, w)
        groups = {}
        for v, orbit in orbit_of.items():
            counts = (v[n - w:].count(1), sum(1 for x in v[n - w:] if x > 1),
                      sum(1 for x in v[:n - w] if x))
            groups.setdefault(counts, set()).add(orbit)
        assert all(len(orbits) == 1 for orbits in groups.values())
        assert len(groups) == len(set(orbit_of.values()))
        pairs = list(second_roots(n, q, w, range(n + 1)))
        roots = [root for _, root in pairs]
        assert all(tuple(root) in orbit_of for root in roots)
        assert sorted(orbit_of[tuple(root)] for root in roots) == sorted(set(orbit_of.values()))
        assert pairs == sorted((n - root.count(0), root) for root in roots)
        for weights in ({w}, {0, n}, set(range(w, n + 1, 2))):
            assert list(second_roots(n, q, w, weights)) == [p for p in pairs if p[0] in weights]


def test_graph_guard_before_enumeration(monkeypatch):
    """A graph of more than 2^16 vertices, or of vectors of more than 64
    coordinates, is refused from its size alone, and a small graph of a
    large space is searched."""
    def fail(*args):
        raise AssertionError("enumerate_space called")

    monkeypatch.setattr("basisbound.search.enumerate_space", fail)
    for problem in (
        SearchProblem(17, 2, PRED_INTERSECT_CONST, lam=1),
        SearchProblem(30, 2, PRED_DIST_CONST, lam=15),
        SearchProblem(64, 2, PRED_DIST_MOD, lam=1, p=2),
        SearchProblem(64, 256, PRED_DIST_CONST, lam=64),
        SearchProblem(65, 2, PRED_DIST_CONST, lam=65),
    ):
        with pytest.raises(ResourceGuardError):
            search_max(problem)
    monkeypatch.undo()
    result = search_max(SearchProblem(64, 2, PRED_DIST_CONST, lam=64))
    assert result.max_size == 2
    assert result.witness.vectors == ((0,) * 64, (1,) * 64)


def test_problem_validation():
    for args, clause in (
        ((3, 3, PRED_INTERSECT_CONST, 1), "qIsTwo"),
        ((3, 2, PRED_DIST_CONST, 0), "lambdaPositive"),
        ((3, 2, PRED_INTERSECT_CONST, -1), "lambdaPositive"),
    ):
        with pytest.raises(HypothesisViolationError) as err:
            SearchProblem(*args[:3], lam=args[3])
        assert err.value.clause == clause
    with pytest.raises(HypothesisViolationError) as err:
        SearchProblem(3, 2, PRED_DIST_MOD, lam=0, p=3)
    assert err.value.clause == "lambdaPositive"
    import basisbound.errors as errors

    with pytest.raises(errors.MalformedInputError):
        SearchProblem(3, 2, PRED_DIST_SET, allowed=(0, 1))
    with pytest.raises(errors.MalformedInputError):
        SearchProblem(3, 2, "bogus")
    with pytest.raises(errors.MalformedInputError, match="256"):
        SearchProblem(2, 257, PRED_DIST_CONST, lam=1)
    assert search_max(SearchProblem(1, 256, PRED_DIST_CONST, lam=1)).max_size == 256


def test_max_with_distance_count_matches_brute_force():
    exact = max_with_distance_count(3, 2, 1)
    by_sets = max(
        brute_max_size(3, 2, lambda u, v, d=d: hamming_distance(u, v) == d)
        for d in (1, 2, 3)
    )
    assert exact == by_sets == 4
