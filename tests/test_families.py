"""Vector systems, set families and their statistics."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from basisbound.errors import (
    HypothesisViolationError,
    InsufficientInputError,
    MalformedInputError,
)
from basisbound.exactfield import PrimeFieldCtx
from basisbound.families import (
    SetFamily,
    VectorSystem,
    constant_vector_distance_sum,
    degrees,
    distance_set,
    hamming_distance,
    intersection_set,
    set_bits,
)


def test_hamming_distance_examples():
    assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert hamming_distance((1, 0, 0), (1, 1, 1)) == 2
    # characteristic vectors of {1} and [3]
    assert hamming_distance((1, 0, 0), (1, 1, 1)) == 2


def test_hamming_distance_length_mismatch():
    with pytest.raises(MalformedInputError):
        hamming_distance((0, 1), (0, 1, 2))


tuples3 = st.tuples(*[st.integers(0, 2)] * 4)


@given(tuples3, tuples3, tuples3)
def test_hamming_metric_axioms(u, v, w):
    assert hamming_distance(u, v) >= 0
    assert (hamming_distance(u, v) == 0) == (u == v)
    assert hamming_distance(u, v) == hamming_distance(v, u)
    assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


def test_distance_set_examples():
    hadamard = VectorSystem.from_lists(
        3, 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    )
    assert distance_set(hadamard) == (2,)
    assert distance_set(VectorSystem.from_lists(3, 2, [(0, 0, 0), (0, 0, 1)])) == (1,)
    ternary = VectorSystem.from_lists(3, 3, [(0, 0, 0), (0, 1, 2), (1, 1, 2)])
    assert distance_set(ternary) == (1, 2, 3)

    quad = VectorSystem.from_lists(
        4, 2, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]
    )
    assert distance_set(quad) == (2,)


def test_distance_set_needs_two_vectors():
    with pytest.raises(InsufficientInputError):
        distance_set(VectorSystem.from_lists(2, 2, [(0, 0)]))


def test_vector_system_validation():
    with pytest.raises(MalformedInputError):
        VectorSystem.from_lists(2, 2, [(0, 0), (0, 0)])  # duplicate
    with pytest.raises(MalformedInputError):
        VectorSystem.from_lists(2, 2, [(0, 2)])  # out of range
    with pytest.raises(MalformedInputError):
        VectorSystem.from_lists(2, 2, [(0, 0, 1)])  # wrong length
    with pytest.raises(MalformedInputError):
        VectorSystem.from_lists(2, 1, [(0, 0)])  # alphabet too small


def test_intersection_profile_examples():
    from basisbound.constructions import fano_plane, lambda_design_type1, projective_plane

    assert intersection_set(fano_plane()) == (1,)
    disjoint = SetFamily.from_sets(4, [[1, 2], [3, 4]])
    assert intersection_set(disjoint) == (0,)
    ld = lambda_design_type1(projective_plane(11), 0)
    assert intersection_set(ld) == (11,)


def test_intersection_profile_multiset():
    """Sizes met by several pairs appear once, in ascending order."""
    fam = SetFamily.from_sets(4, [[1, 2, 3], [2, 3], [1, 2]])
    assert intersection_set(fam) == (1, 2)
    with pytest.raises(InsufficientInputError):
        intersection_set(SetFamily.from_sets(4, [[1, 2]]))


def test_degrees_examples():
    from basisbound.constructions import fano_plane, near_pencil

    assert degrees(fano_plane()) == [3] * 7
    assert degrees(near_pencil(4)) == [3, 2, 2, 2]
    assert degrees(SetFamily(3, ())) == [0, 0, 0]


def test_degrees_double_count():
    import random

    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 8)
        fam = SetFamily.from_sets(
            n,
            [
                [e for e in range(1, n + 1) if rng.random() < 0.5]
                for _ in range(rng.randint(0, 6))
            ],
        )
        assert sum(degrees(fam)) == sum(fam.sizes())


def _degrees_by_set_bits(family):
    out = [0] * family.n
    for m in family.masks:
        for i in set_bits(m):
            out[i] += 1
    return out


def test_degrees_edge_cases():
    """No sets, no points, and a point that no set contains."""
    assert degrees(SetFamily(5, ())) == [0] * 5
    assert degrees(SetFamily(0, ())) == []
    assert degrees(SetFamily(0, (0, 0))) == []
    assert degrees(SetFamily.from_sets(4, [[1, 4], [], [4]])) == [1, 0, 0, 2]
    assert degrees(SetFamily.from_sets(70, [[70], [1, 70]])) == [1] + [0] * 68 + [2]


def test_degrees_match_a_set_bits_count():
    import random

    rng = random.Random(32)
    for _ in range(200):
        n = rng.choice([1, 2, 7, 63, 64, 65, 200])
        density = rng.random()
        masks = tuple(
            sum(1 << i for i in range(n) if rng.random() < density) for _ in range(rng.randint(0, 12))
        )
        family = SetFamily(n, masks)
        assert degrees(family) == _degrees_by_set_bits(family)


def test_element_and_entry_checks():
    """A plain int is settled by its type; an int subclass is still read,
    and a bool, a float or a string is refused with the same message."""

    class Label(int):
        pass

    assert SetFamily.from_sets(3, [[Label(2), 3]]).masks == (0b110,)
    assert VectorSystem.from_lists(2, 3, [[Label(2), 0]]).vectors == ((2, 0),)
    for bad in (True, 2.0, "2", None, 0, 4, -1):
        with pytest.raises(MalformedInputError) as err:
            SetFamily.from_sets(3, [[1, bad]])
        assert str(err.value) == f"element {bad!r} is not an integer in [1, 3]"
    for bad in (True, 1.0, "1", None, 3, -1):
        with pytest.raises(MalformedInputError) as err:
            VectorSystem.from_lists(2, 3, [[0, bad]])
        assert str(err.value) == f"entry not an integer in [0, 2] in {(0, bad)}"


def test_family_vector_roundtrip():
    from basisbound.constructions import fano_plane, hadamard_plus_full

    for fam in (fano_plane(), hadamard_plus_full(2), SetFamily.from_sets(3, [[], [1, 3]])):
        assert fam.to_vector_system().to_set_family() == fam


def test_set_family_json_roundtrip():
    fam = SetFamily.from_sets(5, [[1, 5], [2, 3, 4], []])
    assert SetFamily.from_json_dict(fam.to_json_dict()) == fam


def test_vector_system_json_roundtrip():
    vs = VectorSystem.from_lists(3, 3, [(0, 1, 2), (2, 2, 2)])
    assert VectorSystem.from_json_dict(vs.to_json_dict()) == vs


def test_set_family_rejects_out_of_range():
    with pytest.raises(MalformedInputError):
        SetFamily.from_sets(3, [[4]])
    with pytest.raises(MalformedInputError):
        SetFamily.from_sets(3, [[0]])


def test_ground_size_checked_before_masks_are_built():
    # An element as large as n would make a mask of n bits; the range check
    # must refuse n before any such mask exists.
    doc = {"n": 1 << 26, "sets": [[1 << 26]]}
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInputError, match="ground-set size out of range"):
            SetFamily.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- constant-vector distance sums -----------------------------------------


def test_constant_vector_distance_sum_examples():
    p5 = PrimeFieldCtx(5)
    assert constant_vector_distance_sum((0, 0, 0), 2, p5) == 3 % 5
    assert constant_vector_distance_sum((0, 1, 2), 3, p5) == 6 % 5
    p3 = PrimeFieldCtx(3)
    for f in product(range(3), repeat=4):
        assert constant_vector_distance_sum(f, 3, p3) == 8 % 3


@pytest.mark.parametrize("n,q,p", [(n, q, p) for n in (1, 2, 3, 4) for q in (2, 3) for p in (3, 5)])
def test_constant_vector_distance_sum_exhaustive(n, q, p):
    """The sum is n(q-1) mod p for every tuple in [0, q-1]^n."""
    if p < q:
        pytest.skip("modulus below alphabet")
    ctx = PrimeFieldCtx(p)
    expected = n * (q - 1) % p
    for f in product(range(q), repeat=n):
        assert constant_vector_distance_sum(f, q, ctx) == expected


def test_constant_vector_distance_sum_guards():
    with pytest.raises(HypothesisViolationError):
        constant_vector_distance_sum((0, 1), 3, PrimeFieldCtx(2))
    with pytest.raises(MalformedInputError):
        constant_vector_distance_sum((0, 5), 3, PrimeFieldCtx(5))
