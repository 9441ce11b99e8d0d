"""Exhaustive branch-and-bound search for maximum families under distance
or intersection predicates: the brute-force oracle that validates every
bound at desk scale and produces extremal witnesses for the certifiers.

The search is a maximum-clique computation on the pairwise compatibility
graph of [0,q-1]^n.  Hamming distance is invariant under translation of
Z_q^n, so for the distance predicates only cliques through the zero vector
are searched, in the local graph of 0 and its neighbours N(0) (the vectors
of allowed weight), built in enumeration order.  The intersection predicate
has no translation symmetry and builds the whole space.  On that graph one
canonical root r_w = 0^(n-w) 1^w per weight w is searched, in ascending w,
with the other members drawn from the vertices of weight >= w and the best
size so far as the incumbent (isomorph rejection by canonical roots; McKay,
J. Algorithms 1998).  This is exact:

- Distances.  The stabiliser of 0 in S_q wr S_n permutes the coordinates
  and the nonzero symbols of each coordinate, preserving distances and
  weights.  It maps the member of least nonzero weight w of a clique
  through 0 to r_w, and so the clique into {0, r_w} and the vertices of
  weight >= w.  The roots (0, r_w) run over the allowed distances w.
- Intersections.  S_n preserves intersection sizes.  A clique of two or
  more sets has all weights >= lambda, and its least-weight member maps to
  r_w.  The roots r_w run over w = lambda..n; the incumbent starts at 1.

The kernel bounds each node by a greedy colouring of its candidate set.  A
second, lexicographic pass on the same graph fixes the reported witness
(so rooting changes only the node count): the least clique of the proven
maximum size, or of the target size when `target_size` stopped the search
early.  For the distance predicates it lies in the local graph, because the
zero vector comes first and some clique of that size contains it.
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
# Cap on the vertices of the graph actually built, whose rows take
# count^2 / 8 bytes: at most 512 MiB.
MAX_GRAPH_VERTICES = 1 << 16

PRED_DIST_SET = "distance-set-within"
PRED_DIST_MOD = "distance-mod"
PRED_DIST_CONST = "distance-constant"
PRED_INTERSECT_CONST = "intersection-constant"

_PREDICATES = (PRED_DIST_SET, PRED_DIST_MOD, PRED_DIST_CONST, PRED_INTERSECT_CONST)


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

    def pair_values(self) -> list[int]:
        """The pair values (distances, or intersection sizes) in [0, n]
        for which the predicate holds, ascending."""
        if self.predicate == PRED_DIST_MOD:
            return [d for d in range(self.n + 1) if d % self.p == self.lam % self.p]
        if self.predicate == PRED_DIST_SET:
            return sorted(set(self.allowed))
        return [self.lam] if self.lam <= self.n else []


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

    `_order` is a test hook permuting the candidate enumeration.  It takes
    the reference path: the whole space, rooted only at the zero vector for
    the distance predicates.  The maximum size is invariant under it (the
    witness canon is only guaranteed for the identity order).
    """
    space_guard(problem.n, problem.q, max_space)
    vectors = enumerate_space(problem.n, problem.q)
    n = problem.n
    rooted = problem.predicate != PRED_INTERSECT_CONST
    values = problem.pair_values()
    weights = {0, *values}
    if _order is not None:
        vectors = [vectors[i] for i in _order]
    elif rooted:
        # The zero vector (index 0) and its neighbours, in enumeration order.
        vectors = [v for v in vectors if n - v.count(0) in weights]
    count = len(vectors)
    if count > MAX_GRAPH_VERTICES:
        raise ResourceGuardError(
            f"search graph of {count} vertices exceeds the guard {MAX_GRAPH_VERTICES}"
        )
    adj = kernel.adjacency(vectors, n, values, not rooted)
    target = problem.target_size or 0
    if _order is not None:
        # Reference path: translation rooting only.
        root = (vectors.index(bytes(n)),) if rooted else ()
        size, _, nodes = kernel.extend_max(adj, count, root, target)
    else:
        # One canonical root per weight, ascending (see the module docstring).
        at_least = [0] * (n + 2)  # at_least[w]: the vertices of weight >= w
        for i, v in enumerate(vectors):
            at_least[n - v.count(0)] |= 1 << i
        for w in range(n, -1, -1):
            at_least[w] |= at_least[w + 1]
        size, nodes = 1, 0
        for w in sorted(weights - {0}) if rooted else range(problem.lam, n + 1):
            if target and size >= target:
                break
            r = vectors.index(bytes(n - w) + b"\x01" * w)
            prefix = (0, r) if rooted else (r,)
            size, _, more = kernel.extend_max(adj, count, prefix, target, at_least[w], size)
            nodes += more
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
