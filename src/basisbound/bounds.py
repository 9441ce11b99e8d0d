"""Closed-form bound calculators and hypothesis checkers.

All calculators return arbitrary-precision integers; the hypothesis checker
returns a clause-by-clause verdict so reports can name the violated clause.
Inputs whose arithmetic would run for seconds are refused with
ResourceGuardError before any of it is done: each guard bounds the
calculator's work in machine-word products, estimated from its arguments.
A bound with more decimal digits than the interpreter will print is refused
too, after it is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import HypothesisViolationError, MalformedInputError, ResourceGuardError
from .exactfield import MAX_MODULUS, is_prime, printable

# Word-product budgets, each about a second of arithmetic at most.
MAX_DELSARTE_WORK = 2 * 10**9
MAX_MSD_WORK = 10**10


def _guard(work: int, budget: int, what: str):
    if work > budget:
        raise ResourceGuardError(f"{what}: work {work} exceeds the guard {budget}")


def delsarte_bound(n: int, q: int, s: int) -> int:
    """Size bound sum_{i<=s} C(n,i)(q-1)^i for systems with at most s
    distinct pairwise Hamming distances."""
    if q <= 1:
        raise HypothesisViolationError(f"alphabet size must exceed 1: {q}", clause="qAboveOne")
    if not 0 < s <= n:
        raise HypothesisViolationError(f"distance count s={s} outside (0, {n}]", clause="sInRange")
    # s steps, each a product of a term C(n,i)(q-1)^i, of at most
    # min(n b, i (log n + b)) bits, with q-1 (b bits).
    b = q.bit_length()
    work = s * min(n * b, s * (n.bit_length() + b)) * -(-b // 64)
    _guard(work, MAX_DELSARTE_WORK, "delsarte bound")
    total = term = 1
    for i in range(s):
        term = term * (n - i) * (q - 1) // (i + 1)  # C(n, i+1) (q-1)^(i+1)
        total += term
    return printable(total)


def msd_bound(n: int, s: int) -> int:
    """Size bound M(n,s) = C(n+s-1,s) + C(n+s-2,s-1) for spherical sets
    with at most s distinct inner products."""
    if n < 1 or s < 1:
        raise HypothesisViolationError(
            f"n and s must be positive: n={n}, s={s}", clause="nAndSPositive"
        )
    # comb(n+s-1, s) takes k = min(s, n-1) steps on numbers of at most
    # min(n+s, k log(n+s)) bits.
    k, big = min(s, n - 1), n + s
    _guard(k * min(big, k * big.bit_length()), MAX_MSD_WORK, "msd bound")
    return printable(comb(n + s - 1, s) + comb(n + s - 2, s - 1))


def two_distance_max(n: int) -> int:
    """Maximal size n(n+3)/2 of a spherical two-distance set in n dimensions."""
    if n < 1:
        raise HypothesisViolationError(f"dimension must be positive: {n}", clause="nPositive")
    value = n * (n + 3) // 2
    assert value == msd_bound(n, 2)
    return printable(value)


def uniform_two_intersection_conjecture(n: int, w: int) -> int:
    """Conjectured maximal size C(n-w+2, 2) of a uniform family of w-sets
    with two distinct intersection sizes (calculator only)."""
    if not 2 <= w <= n:
        raise HypothesisViolationError(f"need 2 <= w <= n, got w={w}, n={n}", clause="wInRange")
    return printable(comb(n - w + 2, 2))


@dataclass(frozen=True)
class ModDistanceHypotheses:
    """Clause-by-clause verdict for the modular constant-distance bound:
    systems in [0,q-1]^n whose pairwise distances are all congruent to
    lambda mod p have size at most n(q-1), provided every clause holds.
    `clauses` maps each clause's report name to its verdict, in report
    order."""

    n: int
    q: int
    p: int
    lam: int
    clauses: dict[str, bool]

    @property
    def holds(self) -> bool:
        return all(self.clauses.values())

    @property
    def bound(self) -> int | None:
        return self.n * (self.q - 1) if self.holds else None

    def failing_clauses(self) -> list[str]:
        return [name for name, ok in self.clauses.items() if not ok]

    def to_json_dict(self):
        return {
            "n": self.n,
            "q": self.q,
            "p": self.p,
            "lambda": self.lam,
            "clauses": self.clauses,
            "holds": self.holds,
            "bound": self.bound,
        }


def check_mod_distance_hypotheses(n: int, q: int, p: int, lam: int) -> ModDistanceHypotheses:
    """Evaluate every hypothesis clause of the modular constant-distance
    bound; the qLambda clause requires q*lambda != n(q-1)+1 mod p."""
    if q <= 1:
        raise HypothesisViolationError(f"alphabet size must exceed 1: {q}", clause="qAboveOne")
    if lam <= 0:
        raise HypothesisViolationError(f"lambda must be positive: {lam}", clause="lambdaPositive")
    if p < 2:
        raise MalformedInputError(f"modulus must be at least 2: {p}")
    if p >= MAX_MODULUS:
        raise ResourceGuardError(
            f"modulus {p} exceeds the guard {MAX_MODULUS}: primality is by trial division"
        )
    verdict = ModDistanceHypotheses(n, q, p, lam, {
        "pPrime": is_prime(p),
        "pGeqQ": p >= q,
        "nNonzeroModP": n % p != 0,
        "lambdaNonzeroModP": lam % p != 0,
        "qLambdaClause": (q * lam) % p != (n * (q - 1) + 1) % p,
    })
    if verdict.holds:
        printable(verdict.bound)
    return verdict
