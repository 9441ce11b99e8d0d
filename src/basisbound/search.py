"""Exhaustive branch-and-bound search for maximum families under distance
or intersection predicates: the brute-force oracle that validates every
bound at desk scale and produces extremal witnesses for the certifiers.

Each predicate is one row of PREDICATES: its `search --pred` choice, its
pair statistic (the Hamming distance, or the size of the supports'
intersection), the problem fields it needs and which values of the
statistic, its pair values, it allows.  SearchProblem, the search and the
command line all read the table, so a new predicate is a new row.

The search is a maximum-clique computation on the pairwise compatibility
graph of the vectors of [0,q-1]^n whose weight lies in a set W, built in
enumeration (byte) order; every clique searched holds a start tuple, which
the statistic fixes with W.  Hamming distance is invariant under
translation of Z_q^n, so for distances the start is (0,), the zero vector,
and W is {0} and the pair values: the zero vector and its neighbours N(0).
For intersections the start is () and W is {0} and [lambda, n], lambda the
least pair value: every member of a clique of two or more sets has weight
at least lambda, and the zero vector is the one-set family when none has.  On
that graph one round per weight w is searched, in ascending w, with the
best size so far as the incumbent.  Round w fixes the canonical first roots
start + (r_w,), r_w = 0^(n-w) 1^w: (0, r_w) for distances and (r_w,) for
intersections.  It splits into one sub-round per orbit of a second root s
under the first roots' stabiliser, in ascending (weight of s, index of s).
A sub-round draws the other members from the vertices of
weight >= weight(s); a round with no second root adjacent to its first
roots yields the first roots themselves (isomorph rejection by canonical
roots; McKay, J. Algorithms 1998; Kaski & Ostergard, Classification
Algorithms for Codes and Designs, 2006).  This is exact:

- Distances.  The stabiliser of 0 in S_q wr S_n permutes the coordinates
  and the nonzero symbols of each coordinate, preserving distances and
  weights.  It maps the member of least nonzero weight w of a clique
  through 0 to r_w, and so the clique into {0, r_w} and the vertices of
  weight >= w.  The roots (0, r_w) run over the allowed distances w.
- Intersections.  S_n preserves intersection sizes.  A clique of two or
  more sets has all weights >= lambda, and its least-weight member maps to
  r_w.  The roots r_w run over w = lambda..n; the incumbent starts at 1.
- Second roots.  The stabiliser of the first roots permutes the
  coordinates inside supp(r_w) and inside its complement; for the distance
  predicates it also permutes, at each coordinate, the nonzero symbols
  other than 1 on the support and all nonzero symbols off it.  So a vector's
  orbit is fixed by three counts: its 1s on supp(r_w), its other nonzero
  symbols there, and its nonzero symbols off it (`second_roots` builds one
  vector per orbit).  Take a clique mapped as above with a member other
  than its first roots, and let s be such a member of least weight.  The
  stabiliser maps s to the vector of its orbit and keeps every weight and
  the first roots, so it maps the clique into the first roots, that vector
  and the vertices of weight >= weight(s), which is a sub-round of round w.

The kernel bounds each node by a greedy colouring of its candidate set.  A
second, lexicographic pass on the same graph fixes the reported witness
(so rooting changes only the node count): the least clique of the proven
maximum size, or of the target size when `target_size` stopped the search
early.  It is the least clique of the whole space too: for the distance
predicates the zero vector comes first and some clique of that size
contains it, and for the intersection predicate the sets of weight below
lambda meet no other set in lambda points.

The pass searches only the vertices that can hold that clique.  Let w* be
the first root weight whose round reached the final size k.  Every earlier
round w ran with an incumbent below k and found no clique of size k, so by
the symmetry above no such clique holding the start has least nonzero
weight w, and each one lies in the start and the vertices of weight >= w*.
The pass searches the whole graph when `target_size` stopped the search, or
when no round raised the size.  The argument holds with second roots
unchanged: the sub-rounds of round w together cover every clique whose
least nonzero weight is w.  The least clique holds the start, as shown
above (the zero vector is vertex 0), so the witness is the start followed
by the least clique of len(start) fewer vertices among the holders in
N(start), the common neighbours of the start's vertices.

The pass branches only on lex-leaders (Crawford, Ginsberg, Luks & Roy,
"Symmetry-breaking predicates for search problems", KR 1996).
Coordinate permutations preserve both predicates and every weight, so
they map the graph, the holders and the zero vector's neighbourhood onto
themselves.  Let C = (c_1 < c_2 < ...) be the least clique the pass must
return, and G_k the coordinate permutations that fix c_1 .. c_(k-1).  For
g in G_k, g(C) is a clique of the same size among the same vertices, so
g(C) >= C.  Its members other than c_1 .. c_(k-1) all exceed c_(k-1), or
g(C) would be the smaller; so its next member, the least of g(c_k),
g(c_(k+1)), ..., is at least c_k, and g(c_k) >= c_k: c_k is the
byte-least vector of its G_k-orbit.  The orbits of G_k on the
coordinates are the cells on which c_1 .. c_(k-1) agree column by
column.  By induction each c_j is non-decreasing inside every cell of its
own G_j, so the cells stay intervals, and a vector is least in its
G_k-orbit exactly when it is non-decreasing inside every cell of G_k.
So at depth k the pass branches only on candidates with v_i <= v_(i+1) at
every adjacent pair (i, i+1) inside one cell, and drops the candidates
below the least of them, since every later member exceeds c_k.  The
others stay in the candidate sets, because they can still be later
members.  On intersection n=12, lambda=3 the pass takes 0.03 s where the
plain one took 26.6 s (Python 3.11, a shared 2-core VM).

The rounds and the pass share the graph's complement table, built once,
and the vertices' symbol masks per coordinate, from which the adjacency,
the weight masks and the pass's order masks are read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from . import kernel
from .errors import HypothesisViolationError, MalformedInputError, ResourceGuardError
from .families import VectorSystem

# Cap on the vertices of the graph, whose rows take count^2 / 8 bytes: at
# most 512 MiB.
MAX_GRAPH_VERTICES = 1 << 16
# Cap on the coordinates.  The graph's vectors take count * n bytes and the
# adjacency's symbol masks n * q * count bits, so the two caps keep both
# well within the rows' 512 MiB.
MAX_COORDINATES = 64

PRED_DIST_SET = "distance-set-within"
PRED_DIST_MOD = "distance-mod"
PRED_DIST_CONST = "distance-constant"
PRED_INTERSECT_CONST = "intersection-constant"

# One row per predicate, in the order `search --pred` lists them:
# SearchProblem.predicate -> (its --pred choice; whether its pair statistic is
# the size of the supports' intersection, not the Hamming distance; the
# problem fields it needs; the error when one is missing; whether it allows
# the pair value d).
PREDICATES = {
    PRED_DIST_SET: ("dist-set", False, ("allowed",), "distance-set predicate needs a distance set",
                    lambda problem, d: d in problem.allowed),
    PRED_DIST_MOD: ("dist-mod", False, ("lam", "p"), "distance-mod predicate needs lambda and p",
                    lambda problem, d: d % problem.p == problem.lam % problem.p),
    PRED_DIST_CONST: ("dist-const", False, ("lam",), "distance-constant predicate needs lambda",
                      lambda problem, d: d == problem.lam),
    PRED_INTERSECT_CONST: ("inter-const", True, ("lam",),
                           "intersection-constant predicate needs lambda",
                           lambda problem, d: d == problem.lam),
}


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
        if not 2 <= self.q <= 256:
            # Vectors are byte strings.
            raise MalformedInputError(f"alphabet size must be in [2, 256]: {self.q}")
        if self.predicate not in PREDICATES:
            raise MalformedInputError(f"unknown predicate {self.predicate!r}")
        if self.target_size is not None and self.target_size < 1:
            raise MalformedInputError(f"target size must be at least 1: {self.target_size}")
        _, intersect, needs, missing, _ = PREDICATES[self.predicate]
        # An empty distance set is missing too.
        if any(getattr(self, field) in (None, ()) for field in needs):
            raise MalformedInputError(missing)
        if "p" in needs and self.p < 2:
            raise MalformedInputError(f"modulus must be at least 2: {self.p}")
        if "allowed" in needs and any(not 1 <= d <= self.n for d in self.allowed):
            raise MalformedInputError(f"distance set outside [1, {self.n}]")
        if "lam" in needs and self.lam <= 0:
            raise HypothesisViolationError(
                f"lambda must be positive: {self.lam}", clause="lambdaPositive")
        if intersect and self.q != 2:
            raise HypothesisViolationError(
                "intersection predicate is defined for set families (q = 2)", clause="qIsTwo")

    def pair_values(self) -> list[int]:
        """The pair values (distances, or intersection sizes) in [0, n]
        for which the predicate holds, ascending."""
        allows = PREDICATES[self.predicate][4]
        return [d for d in range(self.n + 1) if allows(self, d)]


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


def enumerate_space(n: int, q: int, weights) -> list[bytes]:
    """The vectors of [0,q-1]^n whose weight (number of nonzero entries) is
    in `weights`, in byte order.  They are grown from the last coordinate
    to the first in one list per suffix weight, each list kept only while
    its weight can still end at one in `weights`.  A coordinate put in
    front of a sorted list, zero first, keeps it sorted, so one sort merges
    the final lists."""
    weights = {w for w in weights if 0 <= w <= n}
    nonzero = [bytes((s,)) for s in range(1, q)]
    # gap[k]: the nonzero entries a suffix of weight k still needs to reach
    # the least weight in `weights` at or above k.
    gap = [n + 1] * (n + 2)
    for k in range(n, -1, -1):
        gap[k] = 0 if k in weights else gap[k + 1] + 1
    layers = [[b""]]  # layers[k]: the suffixes of weight k
    for left in range(n - 1, -1, -1):  # coordinates left in front of the new one
        grown = [[b"\x00" + v for v in layer] if gap[k] <= left else []
                 for k, layer in enumerate(layers)]
        grown.append([])
        for k in range(1, len(grown)):
            if gap[k] <= left and layers[k - 1]:
                for s in nonzero:
                    grown[k] += [s + v for v in layers[k - 1]]
        layers = grown
    return sorted([v for w in weights for v in layers[w]])


def second_roots(n: int, q: int, w: int, weights) -> Iterator[tuple[int, bytes]]:
    """One vector of [0,q-1]^n per orbit of the stabiliser of 0 and
    r_w = 0^(n-w) 1^w in S_q wr S_n, among the orbits whose weight is in
    `weights`, as (weight, vector) pairs ascending by weight, then in byte
    order.  An orbit is fixed by the 1s on supp(r_w), the other nonzero
    symbols on it and the nonzero symbols off it; its vector has, off the
    support, zeros then 1s, and on it zeros, then 2s, then 1s."""
    for k in sorted(weights):
        for off in range(max(0, k - w), min(n - w, k) + 1):
            head = bytes(n - w - off) + b"\x01" * off + bytes(w - k + off)
            for other in range(k - off + 1 if q > 2 else 1):
                yield k, head + b"\x02" * other + b"\x01" * (k - off - other)


def search_max(problem: SearchProblem) -> SearchResult:
    """Exact maximum family satisfying the pairwise predicate.  A graph past
    MAX_GRAPH_VERTICES, counted as the sum of C(n,w) (q-1)^w over W, or past
    MAX_COORDINATES raises ResourceGuardError before any vector is built."""
    n, q = problem.n, problem.q
    if n > MAX_COORDINATES:
        raise ResourceGuardError(f"{n} coordinates exceed the guard {MAX_COORDINATES}")
    intersect = PREDICATES[problem.predicate][1]
    values = problem.pair_values()
    # The start tuple and W (see the module docstring).
    start = () if intersect else (0,)
    weights = {0, *(range(min(values, default=n + 1), n + 1) if intersect else values)}
    # At most q^n <= 2^512, since n is capped.
    count = sum(comb(n, w) * (q - 1) ** w for w in weights)
    if count > MAX_GRAPH_VERTICES:
        raise ResourceGuardError(
            f"search graph of {count} vertices exceeds the guard {MAX_GRAPH_VERTICES}"
        )
    vectors = enumerate_space(n, q, weights)
    symbols = kernel.symbol_masks(vectors, n)
    adj = kernel.adjacency(vectors, n, values, intersect, symbols)
    nonadj = kernel.complement(adj)
    target = problem.target_size or 0
    # Canonical first and second roots per weight, ascending (see the module
    # docstring).
    at_least = kernel.weight_masks(symbols, len(vectors))
    size, nodes = 1, 0
    # The vertices that can hold a maximum clique besides `start` (see the
    # module docstring): all of them until a round raises the size, then
    # those of weight at least the raising round's.
    holders = at_least[0]
    for w in sorted(weights - {0}):
        if target and size >= target:
            break
        r = bisect_left(vectors, bytes(n - w) + b"\x01" * w)
        first = start + (r,)
        cand = at_least[w]
        for v in first:
            cand &= adj[v]
        # One second root per orbit of the first roots' stabiliser, in
        # ascending (weight, index); with none, `first` is the round's clique.
        seconds = []
        for k, s in second_roots(n, q, w, [k for k in weights if k >= w]):
            i = bisect_left(vectors, s)
            if cand >> i & 1:
                seconds.append((i, k))
        best = size if seconds else max(size, len(first))
        for i, k in seconds:
            if target and best >= target:
                break
            best, _, more = kernel.extend_max(
                adj, nonadj, first + (i,), at_least[k], best, target)
            nodes += more
        if best > size:
            size, holders = best, at_least[w]
    early = bool(target) and size >= target
    if early:
        # Report the target size, witnessed by the least clique of that size.
        size, holders = target, at_least[0]
    # The least clique holds `start`: the pass looks among its neighbours.
    for v in start:
        holders &= adj[v]
    witness = (*start, *kernel.first_clique_of_size(
        adj, nonadj, size - len(start), holders, symbols))
    system = VectorSystem.from_lists(n, q, [tuple(vectors[i]) for i in witness])
    return SearchResult(size, system, nodes, not early)
