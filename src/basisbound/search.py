"""Exhaustive branch-and-bound search for maximum families under distance
or intersection predicates: the brute-force oracle that validates every
bound at desk scale and produces extremal witnesses for the certifiers.

The search is a maximum-clique computation on the pairwise compatibility
graph of [0,q-1]^n.  Hamming distance is invariant under translation of
Z_q^n, so for the distance predicates every clique translates to one of the
same size through the zero vector, and the maximum is searched only among
cliques containing it.  Those cliques lie in the local graph: the zero
vector and its neighbours N(0), the vectors whose Hamming weight satisfies
the predicate.  Only that graph is built, with its vertices in enumeration
order, so the rooted search runs the same tree as on the whole space under
an order-preserving relabelling.  The intersection predicate is searched
unrooted on the whole space.  The kernel bounds each node by a greedy
colouring of its candidate set.  A second, lexicographic pass then fixes the
reported witness: the lexicographically least clique of the proven maximum
size, or of the target size when `target_size` stopped the search early.
For the distance predicates that clique lies in the local graph too: the
zero vector comes first in the enumeration and some clique of that size
contains it, so the least one does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

from . import kernel
from .errors import HypothesisViolationError, MalformedInputError, ResourceGuardError
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
    mode, m1, m2, mask = problem.kernel_args()
    rooted = problem.predicate in _TRANSLATION_INVARIANT
    if _order is not None:
        vectors = [vectors[i] for i in _order]
    elif rooted:
        # The zero vector (index 0) and its neighbours, in enumeration order.
        weights = {0, *kernel.allowed_values(problem.n, mode, m1, m2, mask)}
        vectors = [v for v in vectors if problem.n - v.count(0) in weights]
    adj = kernel.adjacency(vectors, problem.n, mode, m1, m2, mask)
    count = len(vectors)
    target = problem.target_size or 0
    root = (vectors.index(bytes(problem.n)),) if rooted else ()
    size, _, nodes = kernel.extend_max(adj, count, root, target)
    early = bool(target) and size >= target
    if early:
        # Report the target size itself, witnessed by the least clique of
        # that size.
        size = target
    witness = kernel.first_clique_of_size(adj, count, size)
    system = VectorSystem.from_lists(
        problem.n, problem.q, [tuple(vectors[i]) for i in sorted(witness)]
    )
    return SearchResult(size, system, nodes, not early)
