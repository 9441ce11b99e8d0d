"""Named configurations and their construction-time self-checks."""

import math
from fractions import Fraction

import pytest

from basisbound import constructions
from basisbound.constructions import (
    MAX_HADAMARD_V,
    MAX_JOHNSON_M,
    GramTwoDistance,
    _two_distance,
    fano_plane,
    hadamard_design,
    hadamard_plus_full,
    johnson_pairs,
    lambda_design_type1,
    near_pencil,
    pentagon,
    projective_plane,
    schlafli27,
)
from basisbound.errors import (
    HypothesisViolationError,
    InternalInconsistencyError,
    MalformedInputError,
    UnsupportedOrderError,
)
from basisbound.exactfield import (
    ExactMatrix,
    QuadExt,
    QuadExtField,
    inertia_psd_rank,
    is_prime,
    rank,
)
from basisbound.families import (
    SetFamily,
    degrees,
    distance_set,
    intersection_set,
)


# -- projective planes ------------------------------------------------------


def test_fano_plane_parameters():
    fam = fano_plane()
    assert fam.n == 7 and len(fam) == 7
    assert set(fam.sizes()) == {3}
    assert intersection_set(fam) == (1,)
    assert degrees(fam) == [3] * 7


@pytest.mark.parametrize("r,n,size", [(3, 13, 4), (11, 133, 12)])
def test_projective_plane_parameters(r, n, size):
    fam = projective_plane(r)
    assert fam.n == n and len(fam) == n
    assert set(fam.sizes()) == {size}
    assert intersection_set(fam) == (1,)


def test_projective_plane_rejects_nonprime():
    with pytest.raises(HypothesisViolationError):
        projective_plane(6)
    with pytest.raises(HypothesisViolationError):
        projective_plane(37)


def test_projective_plane_checks_order_cap_before_primality():
    # A prime far above the cap; trial division on it would run for minutes.
    with pytest.raises(HypothesisViolationError, match="desk scale"):
        projective_plane(1000000000000000003)


# -- Hadamard designs -------------------------------------------------------


def test_hadamard_design_small_orders():
    fam = hadamard_design(1)
    assert sorted(fam.sets) == [(1,), (2,), (3,)]
    fam = hadamard_design(2)
    assert fam.n == 7 and set(fam.sizes()) == {3}
    assert intersection_set(fam) == (1,)
    fam = hadamard_design(3)
    assert fam.n == 11 and set(fam.sizes()) == {5}
    assert intersection_set(fam) == (2,)


def test_hadamard_design_order_cap():
    last = max(v for v in range(1, MAX_HADAMARD_V + 1) if is_prime(4 * v - 1))
    assert hadamard_design(last).n == 4 * last - 1
    with pytest.raises(HypothesisViolationError, match="desk scale"):
        hadamard_design(MAX_HADAMARD_V + 1)


def test_hadamard_design_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        hadamard_design(4)  # 15 is not prime


@pytest.mark.parametrize("v", [1, 2, 3, 5, 8])
def test_hadamard_plus_full_constant_distance(v):
    """The constructor checks distances on masks; the oracle on vectors."""
    fam = hadamard_plus_full(v)
    assert len(fam) == 4 * v and fam.n == 4 * v - 1
    assert distance_set(fam.to_vector_system()) == (2 * v,)


def test_hadamard_plus_full_rejects_a_broken_design(monkeypatch):
    """A design with one block changed fails the plus-full distance check,
    whose message lists the distinct distances found."""
    design = hadamard_design(3)
    broken = SetFamily(design.n, (design.masks[0] ^ 1,) + design.masks[1:])
    monkeypatch.setattr(constructions, "hadamard_design", lambda v: broken)
    plus_full = SetFamily(broken.n, broken.masks + ((1 << broken.n) - 1,))
    found = distance_set(plus_full.to_vector_system())
    assert len(found) > 1
    with pytest.raises(InternalInconsistencyError) as info:
        hadamard_plus_full(3)
    assert str(info.value) == f"expected constant distance 6, got {found}"


def test_hadamard_plus_full_v1_members():
    assert sorted(hadamard_plus_full(1).sets) == [(1,), (1, 2, 3), (2,), (3,)]


# -- lambda designs ---------------------------------------------------------


def test_lambda_design_from_fano():
    fam = lambda_design_type1(fano_plane(), 0)
    assert fam.n == 7 and len(fam) == 7
    assert sorted(set(fam.sizes())) == [3, 4]
    assert intersection_set(fam) == (2,)


def test_lambda_design_from_pg11():
    fam = lambda_design_type1(projective_plane(11), 0)
    assert fam.n == 133
    assert sorted(set(fam.sizes())) == [12, 22]
    assert intersection_set(fam) == (11,)


def test_lambda_design_block_choice_preserves_parameters():
    base = fano_plane()
    for index in range(3):
        fam = lambda_design_type1(base, index)
        assert intersection_set(fam) == (2,)
        assert sorted(set(fam.sizes())) == [3, 4]


def test_lambda_design_single_block_is_identity():
    single = SetFamily.from_sets(1, [[1]])
    assert lambda_design_type1(single, 0) == single


def test_lambda_design_rejects_non_design():
    with pytest.raises(HypothesisViolationError):
        lambda_design_type1(SetFamily.from_sets(3, [[1, 2], [2, 3]]), 0)
    with pytest.raises(HypothesisViolationError):
        lambda_design_type1(SetFamily.from_sets(3, [[1, 2], [2], [3]]), 0)


def test_near_pencil_shape():
    fam = near_pencil(5)
    assert fam.n == 5 and len(fam) == 5
    assert intersection_set(fam) == (1,)
    assert degrees(fam) == [4, 2, 2, 2, 2]


# -- two-distance sets ------------------------------------------------------


def test_pentagon_exact_values():
    gram = pentagon()
    field = gram.field
    a, b = gram.value_a, gram.value_b
    assert field.format(a) == "-1/4+1/4*sqrt(5)"
    assert abs(float(a) - math.cos(2 * math.pi / 5)) < 1e-12
    assert abs(float(b) - math.cos(4 * math.pi / 5)) < 1e-12
    assert a * b == field.coerce(Fraction(-1, 4))
    assert inertia_psd_rank(gram.gram) == (True, 2)


def test_pentagon_coordinates_match_gram():
    gram = pentagon()
    for i in range(5):
        for j in range(5):
            dot = sum(x * y for x, y in zip(gram.coords[i], gram.coords[j]))
            assert abs(dot - float(gram.field.coerce(gram.gram.entries[i][j]))) < 1e-12


def test_schlafli_combinatorics():
    gram = schlafli27()
    assert gram.count == 27 and gram.n == 6
    meet = Fraction(-1, 2)
    for i in range(27):
        row = gram.gram.entries[i]
        assert sum(row) == 0
        assert sum(1 for j, x in enumerate(row) if j != i and x == meet) == 10
    assert rank(gram.gram) == 6
    assert inertia_psd_rank(gram.gram) == (True, 6)


def test_johnson_pairs_parameters():
    gram = johnson_pairs(6)
    assert gram.count == 15 and gram.n == 6 and gram.affine_dim == 5
    assert gram.value_a == Fraction(1, 2) and gram.value_b == 0
    assert inertia_psd_rank(gram.gram) == (True, 6)
    assert johnson_pairs(4).count == 6


def _pentagon_neighbours(i, j):
    return (i - j) % 5 in (1, 4)


def test_two_distance_builder_checks_psd_rank():
    """The builder's one postcondition: a stated rank that the Gram does not
    have, and values that make the Gram indefinite, are both refused."""
    a, b = pentagon().value_a, pentagon().value_b
    assert _two_distance(2, a, b, range(5), _pentagon_neighbours, 2).count == 5
    with pytest.raises(InternalInconsistencyError, match=r"is \(True, 2\), not \(True, 3\)"):
        _two_distance(2, a, b, range(5), _pentagon_neighbours, 3)
    # With a = -1/2 and b = -3/4 every row sums to 1 + 2a + 2b = -3/2, so the
    # all-ones vector has a negative eigenvalue; the Gram has full rank 5.
    a, b = Fraction(-1, 2), Fraction(-3, 4)
    with pytest.raises(InternalInconsistencyError, match=r"is \(False, 5\)"):
        _two_distance(2, a, b, range(5), _pentagon_neighbours, 5)


def test_gram_values_held_in_the_gram_field():
    """a and b are coerced into the Gram's field once, at construction."""
    pent = pentagon()
    assert all(isinstance(x, QuadExt) for x in (pent.value_a, pent.value_b))
    john = johnson_pairs(5)
    assert all(type(x) is Fraction for x in (john.value_a, john.value_b))
    field = QuadExtField(5)
    gram = GramTwoDistance(1, 2, Fraction(-1, 2), 0, ExactMatrix(field, [[1, 0], [0, 1]]))
    assert gram.value_a == QuadExt(Fraction(-1, 2), Fraction(0), 5)
    assert all(isinstance(x, QuadExt) for x in (gram.value_a, gram.value_b))


def test_johnson_pairs_coordinates_match_gram():
    gram = johnson_pairs(5)
    for i in range(gram.count):
        for j in range(gram.count):
            dot = sum(x * y for x, y in zip(gram.coords[i], gram.coords[j]))
            assert abs(dot - float(gram.gram.entries[i][j])) < 1e-12


def test_johnson_pairs_guard():
    with pytest.raises(HypothesisViolationError):
        johnson_pairs(3)
    with pytest.raises(HypothesisViolationError, match="desk scale"):
        johnson_pairs(MAX_JOHNSON_M + 1)


def test_maximal_sets_hit_the_bound():
    from basisbound.bounds import two_distance_max

    assert pentagon().count == two_distance_max(2)
    assert schlafli27().count == two_distance_max(6)


# -- gram document round trips ---------------------------------------------


@pytest.mark.parametrize("build", [pentagon, schlafli27, lambda: johnson_pairs(4)])
def test_gram_json_roundtrip(build):
    gram = build()
    doc = gram.to_json_dict()
    loaded = GramTwoDistance.from_json_dict(doc)
    assert loaded.to_json_dict() == doc
    assert loaded.gram == gram.gram


def test_gram_document_validation():
    doc = pentagon().to_json_dict()
    bad = dict(doc)
    bad["gram"] = [row[:-1] for row in doc["gram"]]
    with pytest.raises(MalformedInputError):
        GramTwoDistance.from_json_dict(bad)
    bad = dict(doc)
    bad["gram"] = [list(row) for row in doc["gram"]]
    bad["gram"][0][0] = "2"
    with pytest.raises(MalformedInputError):
        GramTwoDistance.from_json_dict(bad)
