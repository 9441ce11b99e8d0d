"""Exhaustive branch-and-bound search for maximum families under distance
or intersection predicates: the brute-force oracle that validates every
bound at desk scale and produces extremal witnesses for the certifiers.

The search is a maximum-clique computation on the pairwise compatibility
graph of [0,q-1]^n.  Hamming distance is invariant under translation of
Z_q^n, so for the distance predicates every clique translates to one of the
same size through the zero vector, and the maximum is searched only among
cliques containing it; the intersection predicate is searched unrooted.  The
kernel bounds each node by a greedy colouring of its candidate set.  A
second, lexicographic pass then fixes the reported witness: the
lexicographically least clique of the proven maximum size, or of the target
size when `target_size` stopped the search early.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, product

from . import kernel
from .bounds import delsarte_bound, check_mod_distance_hypotheses
from .errors import HypothesisViolationError, MalformedInputError, ResourceGuardError
from .exactfield import is_prime
from .families import VectorSystem

DEFAULT_MAX_SPACE = 1 << 20
MAX_SPACE_ENV = "EXTREMAL_MAX_SPACE"

PRED_DIST_SET = "distance-set-within"
PRED_DIST_MOD = "distance-mod"
PRED_DIST_CONST = "distance-constant"
PRED_INTERSECT_CONST = "intersection-constant"

_PREDICATES = (PRED_DIST_SET, PRED_DIST_MOD, PRED_DIST_CONST, PRED_INTERSECT_CONST)
_TRANSLATION_INVARIANT = (PRED_DIST_SET, PRED_DIST_MOD, PRED_DIST_CONST)


@dataclass(frozen=True)
class SearchProblem:
    n: int
    q: int
    predicate: str
    lam: int | None = None
    p: int | None = None
    allowed: tuple[int, ...] | None = None
    target_size: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInputError(f"coordinate count must be positive: {self.n}")
        if self.q < 2:
            raise MalformedInputError(f"alphabet size must be at least 2: {self.q}")
        if self.predicate not in _PREDICATES:
            raise MalformedInputError(f"unknown predicate {self.predicate!r}")
        if self.target_size is not None and self.target_size < 1:
            raise MalformedInputError(f"target size must be at least 1: {self.target_size}")
        if self.predicate == PRED_DIST_SET:
            if not self.allowed:
                raise MalformedInputError("distance-set predicate needs a distance set")
            if any(not 1 <= d <= self.n for d in self.allowed):
                raise MalformedInputError(f"distance set outside [1, {self.n}]")
        elif self.predicate == PRED_DIST_MOD:
            if self.lam is None or self.p is None:
                raise MalformedInputError("distance-mod predicate needs lambda and p")
            if self.p < 2:
                raise MalformedInputError(f"modulus must be at least 2: {self.p}")
            if self.lam <= 0:
                raise HypothesisViolationError(f"lambda must be positive: {self.lam}")
        else:
            if self.lam is None or self.lam <= 0:
                raise HypothesisViolationError(f"lambda must be positive: {self.lam}")
            if self.predicate == PRED_INTERSECT_CONST and self.q != 2:
                raise HypothesisViolationError(
                    "intersection predicate is defined for set families (q = 2)"
                )

    def kernel_args(self):
        if self.predicate == PRED_DIST_CONST:
            return kernel.MODE_DIST_EQ, self.lam, 0, 0
        if self.predicate == PRED_DIST_MOD:
            return kernel.MODE_DIST_MOD, self.lam % self.p, self.p, 0
        if self.predicate == PRED_INTERSECT_CONST:
            return kernel.MODE_INTERSECT, self.lam, 0, 0
        mask = 0
        for d in self.allowed:
            mask |= 1 << d
        return kernel.MODE_DIST_SET, 0, 0, mask


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    witness: VectorSystem
    nodes_explored: int
    exhaustive: bool

    def to_json_dict(self):
        return {
            "max_size": self.max_size,
            "witness": self.witness.to_json_dict(),
            "nodes_explored": self.nodes_explored,
            "exhaustive": self.exhaustive,
        }


def space_guard(n: int, q: int, max_space: int | None = None) -> int:
    """Resolve the search-space guard: explicit argument, then the
    EXTREMAL_MAX_SPACE environment override, then the 2^20 default."""
    if max_space is None:
        env = os.environ.get(MAX_SPACE_ENV, "")
        max_space = int(env) if env else DEFAULT_MAX_SPACE
    size = q**n
    if size > max_space:
        raise ResourceGuardError(
            f"space size {q}^{n} = {size} exceeds the guard {max_space}"
        )
    return size


def enumerate_space(n: int, q: int) -> list[bytes]:
    return [bytes(v) for v in product(range(q), repeat=n)]


def search_max(
    problem: SearchProblem,
    max_space: int | None = None,
    _order=None,
) -> SearchResult:
    """Exact maximum family satisfying the pairwise predicate.

    `_order` is a test hook permuting the candidate enumeration; the
    maximum size is invariant under it (the witness canon is only
    guaranteed for the identity order).
    """
    space_guard(problem.n, problem.q, max_space)
    vectors = enumerate_space(problem.n, problem.q)
    if _order is not None:
        vectors = [vectors[i] for i in _order]
    mode, m1, m2, mask = problem.kernel_args()
    adj = kernel.adjacency(vectors, problem.n, mode, m1, m2, mask)
    count = len(vectors)
    target = problem.target_size or 0

    root = ()
    if problem.predicate in _TRANSLATION_INVARIANT:
        root = (vectors.index(bytes(problem.n)),)
    size, _, nodes = kernel.extend_max(adj, count, root, target)
    early = bool(target) and size >= target
    if early:
        # Report the target size itself, witnessed by the least clique of
        # that size; a negative target is met by any single vector.
        size = max(target, 1)
    witness = kernel.first_clique_of_size(adj, count, size)
    system = VectorSystem.from_lists(
        problem.n, problem.q, [tuple(vectors[i]) for i in sorted(witness)]
    )
    return SearchResult(size, system, nodes, not early)


def sweep_bound_grid(n_max: int, q_max: int, p_max: int) -> dict:
    """Empirical validation sweep.

    For every (n, q, p, lambda) grid point where the modular
    constant-distance hypotheses hold, assert the searched maximum is at
    most n(q-1); for s in {1, 2}, assert the maximum under at most s
    distinct distances is at most the Delsarte bound.  Grid points with a
    failing hypothesis are listed as excluded(clause).
    """
    mod_rows = []
    violations = 0
    primes = [p for p in range(2, p_max + 1) if is_prime(p)]
    for n in range(1, n_max + 1):
        for q in range(2, q_max + 1):
            for p in primes:
                for lam in range(1, p):
                    verdict = check_mod_distance_hypotheses(n, q, p, lam)
                    row = {"n": n, "q": q, "p": p, "lambda": lam}
                    if not verdict.holds:
                        row["status"] = f"excluded({verdict.failing_clauses()[0]})"
                        mod_rows.append(row)
                        continue
                    result = search_max(SearchProblem(n, q, PRED_DIST_MOD, lam=lam, p=p))
                    bound = verdict.bound
                    row.update(
                        status="ok",
                        bound=bound,
                        max=result.max_size,
                        tight=result.max_size == bound,
                    )
                    if result.max_size > bound:
                        row["status"] = "VIOLATION"
                        violations += 1
                    mod_rows.append(row)

    delsarte_rows = []
    for n in range(1, n_max + 1):
        for q in range(2, q_max + 1):
            for s in (1, 2):
                if s > n:
                    continue
                exact = max_with_distance_count(n, q, s)
                bound = delsarte_bound(n, q, s)
                ok = exact <= bound
                if not ok:
                    violations += 1
                delsarte_rows.append(
                    {"n": n, "q": q, "s": s, "bound": bound, "max": exact, "ok": ok}
                )
    return {
        "mod_distance_rows": mod_rows,
        "delsarte_rows": delsarte_rows,
        "violations": violations,
    }


def max_with_distance_count(n: int, q: int, s: int) -> int:
    """Exact maximum size of a system with at most s distinct pairwise
    distances: the maximum over all distance sets L of size s."""
    best = 0
    for allowed in combinations(range(1, n + 1), min(s, n)):
        result = search_max(SearchProblem(n, q, PRED_DIST_SET, allowed=allowed))
        best = max(best, result.max_size)
    return best
