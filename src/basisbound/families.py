"""Data model and statistics for q-ary vector systems and set families:
Hamming distances, intersection sizes, degrees and modular profiles.

Ground sets are 1-based in all I/O and 0-based internally; sets are
bit-packed into Python integers, vectors are tuples of small integers.
"""

from __future__ import annotations

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
        if self.n < 1 or self.n > MAX_GROUND:
            raise MalformedInputError(f"coordinate count out of range: {self.n}")
        if self.q < 2:
            raise MalformedInputError(f"alphabet size must be at least 2: {self.q}")
        seen = set()
        for v in self.vectors:
            if len(v) != self.n:
                raise MalformedInputError(f"vector length {len(v)} != n = {self.n}")
            if any(not (is_json_int(x) and 0 <= x < self.q) for x in v):
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
        masks = []
        for v in self.vectors:
            m = 0
            for i, x in enumerate(v):
                if x:
                    m |= 1 << i
            masks.append(m)
        return SetFamily(self.n, tuple(masks))

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
                if not (is_json_int(e) and 1 <= e <= n):
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


@dataclass(frozen=True)
class DistanceProfile:
    distances: tuple[int, ...]
    is_constant: bool
    common_value: int | None


@dataclass(frozen=True)
class IntersectionProfile:
    sizes: tuple[int, ...]  # multiset, sorted
    common_lambda: int | None


def hamming_distance(u, v) -> int:
    """Number of coordinates where the two tuples differ."""
    if len(u) != len(v):
        raise MalformedInputError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


def distance_set(system: VectorSystem) -> DistanceProfile:
    """Exact set of pairwise Hamming distances over all unordered pairs."""
    vecs = system.vectors
    if len(vecs) < 2:
        raise InsufficientInputError("distance set needs at least two vectors")
    dists = set()
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            dists.add(hamming_distance(vecs[i], vecs[j]))
    ordered = tuple(sorted(dists))
    constant = len(ordered) == 1
    return DistanceProfile(ordered, constant, ordered[0] if constant else None)


def intersection_profile(family: SetFamily) -> IntersectionProfile:
    """All pairwise intersection sizes; reports the common lambda when the
    profile is constant."""
    masks = family.masks
    if len(masks) < 2:
        raise InsufficientInputError("intersection profile needs at least two sets")
    sizes = []
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            sizes.append((mi & masks[j]).bit_count())
    sizes.sort()
    common = sizes[0] if sizes[0] == sizes[-1] else None
    return IntersectionProfile(tuple(sizes), common)


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
    """d_i = number of member sets containing point i, for i in [n]."""
    out = [0] * family.n
    for m in family.masks:
        for i in set_bits(m):
            out[i] += 1
    return out


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
    total = 0
    for j in range(q):
        total += sum(1 for x in f if x != j)
    return total % p_value
