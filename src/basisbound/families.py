"""Data model and statistics for q-ary vector systems and set families:
Hamming distances, intersection sizes, degrees and modular profiles.

Ground sets are 1-based in all I/O and 0-based internally; sets are
bit-packed into Python integers, vectors are tuples of small integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    HypothesisViolationError,
    InsufficientInputError,
    MalformedInputError,
)

MAX_GROUND = 1024


def is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool (Python's bool is an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(doc, key) -> int:
    """doc[key], which must be a JSON integer: a float, a bool or a string is
    malformed, not truncated or parsed."""
    value = doc[key]
    if not is_json_int(value):
        raise MalformedInputError(f"{key!r} must be a JSON integer, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class VectorSystem:
    """Ordered system of distinct vectors in [0, q-1]^n."""

    n: int
    q: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInputError(f"coordinate count must be positive: {self.n}")
        if self.n > MAX_GROUND:
            raise MalformedInputError(f"coordinate count out of range: {self.n}")
        if self.q < 2:
            raise MalformedInputError(f"alphabet size must be at least 2: {self.q}")
        seen = set()
        for v in self.vectors:
            if len(v) != self.n:
                raise MalformedInputError(f"vector length {len(v)} != n = {self.n}")
            if any((type(x) is not int and not is_json_int(x)) or not 0 <= x < self.q for x in v):
                raise MalformedInputError(f"entry not an integer in [0, {self.q - 1}] in {v}")
            if v in seen:
                raise MalformedInputError(f"duplicate vector {v}")
            seen.add(v)

    @classmethod
    def from_lists(cls, n, q, vectors):
        return cls(n, q, tuple(tuple(v) for v in vectors))

    def __len__(self):
        return len(self.vectors)

    def to_set_family(self) -> "SetFamily":
        if self.q != 2:
            raise MalformedInputError("characteristic vectors require q = 2")
        masks = tuple(sum(1 << i for i, x in enumerate(v) if x) for v in self.vectors)
        return SetFamily(self.n, masks)

    def to_json_dict(self):
        return {"n": self.n, "q": self.q, "vectors": [list(v) for v in self.vectors]}

    @classmethod
    def from_json_dict(cls, doc):
        try:
            return cls.from_lists(json_int(doc, "n"), json_int(doc, "q"), doc["vectors"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"bad vector-system document: {exc}") from exc


def _check_ground(n):
    if n < 0 or n > MAX_GROUND:
        raise MalformedInputError(f"ground-set size out of range: {n}")


@dataclass(frozen=True)
class SetFamily:
    """Ordered family of subsets of [n], each set stored as a bitmask
    (bit i represents element i+1).  Duplicate sets are allowed in raw
    input; operations that need distinctness restate it."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        _check_ground(self.n)
        full = (1 << self.n) - 1
        for m in self.masks:
            if m < 0 or m & ~full:
                raise MalformedInputError("set contains elements outside [n]")

    @classmethod
    def from_sets(cls, n, sets):
        # Checked first: an element may be as large as n, so n bounds the masks.
        _check_ground(n)
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if (type(e) is not int and not is_json_int(e)) or not 1 <= e <= n:
                    raise MalformedInputError(f"element {e!r} is not an integer in [1, {n}]")
                m |= 1 << (e - 1)
            masks.append(m)
        return cls(n, tuple(masks))

    def __len__(self):
        return len(self.masks)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(i + 1 for i in range(self.n) if m >> i & 1) for m in self.masks
        )

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.masks]

    def to_vector_system(self) -> VectorSystem:
        vecs = tuple(
            tuple(m >> i & 1 for i in range(self.n)) for m in self.masks
        )
        return VectorSystem(self.n, 2, vecs)

    def to_json_dict(self):
        return {"n": self.n, "sets": [list(s) for s in self.sets]}

    @classmethod
    def from_json_dict(cls, doc):
        try:
            return cls.from_sets(json_int(doc, "n"), doc["sets"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"bad family document: {exc}") from exc


def hamming_distance(u, v) -> int:
    """Number of coordinates where the two tuples differ."""
    if len(u) != len(v):
        raise MalformedInputError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.ne, u, v))


def distance_set(system: VectorSystem) -> tuple[int, ...]:
    """The distinct pairwise Hamming distances, ascending."""
    vecs = system.vectors
    if len(vecs) < 2:
        raise InsufficientInputError("distance set needs at least two vectors")
    return tuple(sorted({hamming_distance(u, v) for i, u in enumerate(vecs) for v in vecs[i + 1:]}))


def intersection_set(family: SetFamily) -> tuple[int, ...]:
    """The distinct pairwise intersection sizes, ascending."""
    masks = family.masks
    if len(masks) < 2:
        raise InsufficientInputError("intersection set needs at least two sets")
    return tuple(sorted({(a & b).bit_count() for i, a in enumerate(masks) for b in masks[i + 1:]}))


def set_bits(mask: int) -> list[int]:
    """0-based indices of the set bits of `mask`, ascending; one step per
    set bit, not per ground point."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def degrees(family: SetFamily) -> list[int]:
    """d_i = number of member sets containing point i, for i in [n]: every
    mask is written once as n binary digits, and point i's column, digit
    n-1-i of each row, is counted in the joined rows."""
    n = family.n
    bits = "".join([format(m, f"0{n}b") for m in family.masks])
    return [bits[i::n].count("1") for i in range(n - 1, -1, -1)]


def constant_vector_distance_sum(f, q: int, p) -> int:
    """Sum over j in [0, q-1] of d_H(f, (j,...,j)) reduced mod the prime of
    the field context p (an `exactfield.PrimeFieldCtx`).

    Always evaluates to n(q-1) mod p: every coordinate differs from all but
    one of the q constant values.
    """
    p_value = p.p
    if p_value < q:
        raise HypothesisViolationError(
            f"modulus {p_value} smaller than alphabet {q}", clause="pGeqQ"
        )
    f = tuple(f)
    if any(not (0 <= x < q) for x in f):
        raise MalformedInputError(f"entry outside [0, {q - 1}] in {f}")
    return sum(x != j for j in range(q) for x in f) % p_value
