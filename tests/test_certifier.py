"""Certificates: independence, tight families, two-distance sets, design
congruences and the Ryser dichotomy."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from basisbound.certifier import (
    certify_independence,
    hamming_tight_certificate,
    indicator_poly,
    mod_design_certificate,
    neumaier_check,
    ryser_decompose,
    two_distance_certificate,
)
from basisbound.constructions import (
    GramTwoDistance,
    fano_plane,
    hadamard_plus_full,
    johnson_pairs,
    lambda_design_type1,
    near_pencil,
    pentagon,
    projective_plane,
    schlafli27,
)
from basisbound.errors import HypothesisViolationError, MalformedInputError
from basisbound.exactfield import (
    QQ,
    ExactMatrix,
    PrimeFieldCtx,
    QuadExt,
    QuadExtField,
    solve_linear,
)
from basisbound.families import SetFamily, VectorSystem, hamming_distance


# -- independence ------------------------------------------------------------


def test_independence_diagonal_passes():
    cert = certify_independence(ExactMatrix(QQ, [[2, 0], [0, Fraction(1, 3)]]))
    assert cert.passed and cert.details["rank"] == 2


def test_independence_equal_rows_fails_with_deficit():
    cert = certify_independence(ExactMatrix(QQ, [[1, 2], [1, 2]]))
    assert cert.verdict == "fail"
    assert cert.details["rank_deficit"] == 1


def test_independence_pentagon_evaluation_matrix():
    # the evaluation matrix of the pentagon's member polynomials is the
    # diagonal (1-a)(1-b) I, hence nonsingular
    gram = pentagon()
    field = gram.field
    a, b = gram.value_a, gram.value_b
    rows = [
        [(g - a) * (g - b) for g in gram.gram.entries[s]]
        for s in range(gram.count)
    ]
    cert = certify_independence(ExactMatrix(field, rows))
    assert cert.passed and cert.details["rank"] == 5


def test_independence_requires_square():
    with pytest.raises(MalformedInputError):
        certify_independence(ExactMatrix(QQ, [[1, 2]]))


def _brute_independent(rows, p):
    m = len(rows)
    for combo in product(range(p), repeat=m):
        if not any(combo):
            continue
        if all(
            sum(c * row[t] for c, row in zip(combo, rows)) % p == 0 for t in range(m)
        ):
            return False
    return True


def test_independence_matches_bruteforce_enumeration():
    rng = random.Random(99)
    for p in (2, 3, 5):
        ctx = PrimeFieldCtx(p)
        for _ in range(40):
            size = rng.randint(1, 4)
            rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
            cert = certify_independence(ExactMatrix(ctx, rows))
            assert cert.passed == _brute_independent(rows, p)


# -- indicator polynomials ---------------------------------------------------


def test_indicator_poly_binary():
    p5 = PrimeFieldCtx(5)
    assert indicator_poly(0, 2, p5) == [0, 1]  # x
    assert indicator_poly(1, 2, p5) == [1, 4]  # 1 - x


@pytest.mark.parametrize("q, p", [(3, 5), (4, 5), (4, 7), (5, 7)])
def test_indicator_poly_ternary_values(q, p):
    for a in range(q):
        coeffs = indicator_poly(a, q, PrimeFieldCtx(p))
        assert len(coeffs) <= q
        values = [sum(c * x**k for k, c in enumerate(coeffs)) % p for x in range(q)]
        assert values == [int(x != a) for x in range(q)]


def test_indicator_poly_needs_p_geq_q():
    with pytest.raises(HypothesisViolationError):
        indicator_poly(0, 3, PrimeFieldCtx(2))


# -- tight constant-distance certificates ------------------------------------


def test_hamming_tight_hadamard_v1():
    system = hadamard_plus_full(1).to_vector_system()
    cert = hamming_tight_certificate(system, 5, 2)
    assert cert.passed
    assert cert.coefficients == ["2"] * 4  # -1/2 = 2 in F_5
    ident = cert.identity("tightness_congruence")
    assert ident.left == ident.right == "4"


def test_hamming_tight_combination_check_independent_of_evaluation(monkeypatch):
    """The evaluation matrix comes from Hamming distances, the combination
    check from the indicator coefficients: a wrong indicator polynomial
    fails only the combination identities."""
    import basisbound.certifier as certifier

    real = certifier.indicator_poly
    monkeypatch.setattr(
        certifier, "indicator_poly", lambda a, q, p: [(real(a, q, p)[0] + 1) % p.p] + real(a, q, p)[1:]
    )
    cert = hamming_tight_certificate(hadamard_plus_full(2).to_vector_system(), 5, 4)
    failed = {i.name for i in cert.identities if not i.holds}
    assert cert.verdict == "fail" and failed == {"combination_constant_term"}


def test_hamming_tight_hadamard_v2():
    system = hadamard_plus_full(2).to_vector_system()
    cert = hamming_tight_certificate(system, 7, 4)
    assert cert.passed
    assert set(cert.coefficients) == {"5"}  # -1/4 = 5 in F_7
    ident = cert.identity("tightness_congruence")
    assert ident.left == ident.right == "1"


def test_hamming_tight_combination_is_polynomial_identity():
    system = hadamard_plus_full(1).to_vector_system()
    cert = hamming_tight_certificate(system, 5, 2)
    assert cert.identity("combination_constant_term").holds
    assert cert.identity("combination_nonconstant_terms").holds
    for j in (0, 1):
        assert cert.identity(f"member_sum_at_constant_vector_{j}").holds


def test_hamming_tight_not_applicable_below_bound():
    system = VectorSystem.from_lists(3, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    cert = hamming_tight_certificate(system, 5, 2)
    assert cert.verdict == "not-applicable"


def test_hamming_tight_distance_violation_raises():
    system = VectorSystem.from_lists(3, 2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    with pytest.raises(HypothesisViolationError) as err:
        hamming_tight_certificate(system, 5, 2)
    assert err.value.clause == "distancesCongruent"


def test_hamming_tight_lambda_zero_raises():
    system = hadamard_plus_full(1).to_vector_system()
    with pytest.raises(HypothesisViolationError):
        hamming_tight_certificate(system, 5, 5)


def test_hamming_tight_congruence_sides_differ_for_failing_parameters():
    """White-box check of the forced-congruence computation: parameters with
    n(q-1) = 0 mod p would not force the congruence, and the two sides then
    disagree (no genuine family realizes this at desk scale)."""
    n, q, p, lam = 6, 2, 3, 1
    left = q * lam % p
    right = (n * (q - 1) + 1) % p
    assert left != right



@pytest.mark.parametrize("v", [1, 2, 3, 5, 6, 8])
def test_hamming_tight_alpha_matches_elimination(v):
    """The closed-form alpha = -1/lambda equals the solution of E alpha = 1
    by the elimination engine, E the evaluation matrix d_H(v_s, v_t) -
    lambda over F_p, for every (p, lambda) with lambda = 2v mod p."""
    system = hadamard_plus_full(v).to_vector_system()
    vectors = system.vectors
    checked = 0
    for p in (3, 5, 7, 11, 13):
        if 2 * v % p == 0:
            continue
        for lam in (2 * v, 2 * v + p):
            evaluation = ExactMatrix(
                PrimeFieldCtx(p), [[hamming_distance(s, t) - lam for t in vectors] for s in vectors]
            )
            cert = hamming_tight_certificate(system, p, lam)
            assert cert.passed
            assert [int(c) for c in cert.coefficients] == solve_linear(evaluation, [1] * len(vectors))
            checked += 1
    assert checked >= 6


# -- two-distance certificates ------------------------------------------------


def test_two_distance_pentagon():
    cert = two_distance_certificate(pentagon())
    assert cert.passed
    relation = cert.identity("maximal_two_distance_relation")
    assert relation.left == relation.right == "5/4"
    assert set(cert.coefficients) == {"4/5"}
    assert cert.identity("coordinate_axis_sums_vanish").holds
    assert cert.identity("coordinate_norm_total").holds


def test_two_distance_schlafli():
    cert = two_distance_certificate(schlafli27())
    assert cert.passed
    relation = cert.identity("maximal_two_distance_relation")
    assert relation.left == relation.right == "9/8"
    assert set(cert.coefficients) == {"8/9"}
    assert cert.details["gram_rank"] == 6


def test_two_distance_johnson_not_applicable():
    cert = two_distance_certificate(johnson_pairs(6))
    assert cert.verdict == "not-applicable"
    assert cert.details["N"] == 15 and cert.details["maximal_size"] == 27


def test_two_distance_rejects_value_one():
    gram = ExactMatrix(QQ, [[1, 1], [1, 1]])
    bad = GramTwoDistance(n=1, count=2, value_a=Fraction(1), value_b=Fraction(0), gram=gram)
    with pytest.raises(HypothesisViolationError):
        two_distance_certificate(bad)


def _mutated_schlafli(new_value="1/3"):
    doc = schlafli27().to_json_dict()
    doc["a"] = new_value
    doc["gram"] = [[new_value if x == "1/4" else x for x in row] for row in doc["gram"]]
    return GramTwoDistance.from_json_dict(doc)


def _single_mutated(gram, outside):
    doc = gram.to_json_dict()
    doc["gram"][0][1] = outside
    doc["gram"][1][0] = outside
    return GramTwoDistance.from_json_dict(doc)


def test_two_distance_mutated_gram_fails_relation():
    cert = two_distance_certificate(_mutated_schlafli())
    assert cert.verdict == "fail"
    relation = cert.identity("maximal_two_distance_relation")
    assert not relation.holds
    assert relation.left != relation.right


def test_two_distance_single_mutated_entry_fails():
    """One symmetric pair of Gram entries outside {a, b} gives exactly two
    nonzero off-diagonal evaluation entries, over Q and over Q(sqrt 5)."""
    for gram, outside in ((schlafli27(), "1/3"), (pentagon(), "1/3+1/2*sqrt(5)")):
        cert = two_distance_certificate(_single_mutated(gram, outside))
        assert cert.verdict == "fail"
        assert not cert.identity("off_diagonal_values_match_declared").holds
        off = cert.identity("evaluation_matrix_off_diagonal_zero")
        assert (off.left, off.holds) == ("2", False)



@pytest.mark.parametrize(
    "gram",
    [pentagon(), schlafli27(), _mutated_schlafli(), _single_mutated(schlafli27(), "1/3"),
     _single_mutated(pentagon(), "1/3+1/2*sqrt(5)")],
    ids=["pentagon", "schlafli27", "schlafli27-all-a-mutated", "schlafli27-one-entry",
         "pentagon-one-entry"],
)
def test_two_distance_alpha_matches_elimination(gram):
    """The coefficients, read off a diagonal evaluation matrix or solved on
    one that is not, equal the solution of E alpha = 1 by the elimination
    engine, E = (<v_s, v_m> - a)(<v_s, v_m> - b) built entry by entry."""
    field = gram.field
    a, b = gram.value_a, gram.value_b
    evaluation = ExactMatrix(
        field,
        [[(g - a) * (g - b) for g in row] for row in gram.gram.entries],
    )
    cert = two_distance_certificate(gram)
    alpha = solve_linear(evaluation, [field.one] * gram.count)
    assert cert.coefficients == [field.format(x) for x in alpha]


def test_two_distance_off_diagonal_coefficients_pinned():
    """The solved path on a non-diagonal evaluation matrix: the two members
    of the mutated pair get 1/((1-a)(1-b) + e), e the mutated product, and
    every other member 1/((1-a)(1-b))."""
    cert = two_distance_certificate(_single_mutated(schlafli27(), "1/3"))
    assert cert.coefficients == ["36/43"] * 2 + ["8/9"] * 25
    ident = cert.identity("coefficients_equal_inverse_product")
    assert (ident.left, ident.right, ident.holds) == ("[36/43, 8/9]", "[8/9]", False)
    cert = two_distance_certificate(_single_mutated(pentagon(), "1/3+1/2*sqrt(5)"))
    assert cert.coefficients == ["117/217-27/217*sqrt(5)"] * 2 + ["4/5"] * 3
    ident = cert.identity("coefficients_equal_inverse_product")
    assert (ident.left, ident.holds) == ("[117/217-27/217*sqrt(5), 4/5]", False)


def _singular_gram():
    return GramTwoDistance.from_json_dict(
        {"n": 1, "N": 2, "a": "0", "b": "1/2", "gram": [["1", "-1/2"], ["-1/2", "1"]]}
    )


def test_two_distance_singular_evaluation_matrix():
    """a = 0, b = 1/2 and Gram entry -1/2 give E = [[1/2, 1/2], [1/2, 1/2]]:
    the solved path reports the rank and no coefficients."""
    cert = two_distance_certificate(_singular_gram())
    assert cert.verdict == "fail" and cert.coefficients == []
    assert cert.identity("coefficients_equal_inverse_product").left == "singular (rank 1)"


# -- squared-distance ratio ----------------------------------------------------


def test_neumaier_johnson():
    cert = neumaier_check(5, 15, Fraction(1), Fraction(2))
    assert cert.passed and cert.details["m"] == 2


def test_neumaier_inspection_case():
    cert = neumaier_check(5, 12, Fraction(3), Fraction(4))
    assert cert.passed and cert.details["m"] == 4


def test_neumaier_pentagon_not_applicable():
    gram = pentagon()
    a, b = gram.value_a, gram.value_b
    cert = neumaier_check(2, 5, 2 - 2 * a, 2 - 2 * b)
    assert cert.verdict == "not-applicable"


def test_neumaier_irrational_ratio_fails():
    a = QuadExt(Fraction(-1, 4), Fraction(1, 4), 5)
    b = QuadExt(Fraction(-1, 4), Fraction(-1, 4), 5)
    cert = neumaier_check(2, 8, 2 - 2 * a, 2 - 2 * b)
    assert cert.verdict == "fail"


def test_neumaier_rejects_unordered_distances():
    with pytest.raises(MalformedInputError):
        neumaier_check(5, 15, Fraction(2), Fraction(1))
    with pytest.raises(MalformedInputError):
        neumaier_check(5, 15, Fraction(0), Fraction(1))


def test_neumaier_rational_and_quadratic_arguments():
    # 1 and 2+sqrt(2) are joined in Q(sqrt 2); the ratio 1-sqrt(2)/2 is irrational.
    cert = neumaier_check(2, 8, Fraction(1), QuadExt(Fraction(2), Fraction(1), 2))
    assert cert.verdict == "fail"
    assert cert.identities[0].left == "1-1/2*sqrt(2)"
    # A rational ratio reached through Q(sqrt 2): sqrt(2) / (2*sqrt(2)) = 1/2 gives m = 2.
    cert = neumaier_check(5, 15, QuadExt(Fraction(0), Fraction(1), 2), QuadExt(Fraction(0), Fraction(2), 2))
    assert cert.passed and cert.details["m"] == 2
    with pytest.raises(MalformedInputError):
        neumaier_check(5, 15, QuadExt(Fraction(0), Fraction(1), 2), QuadExt(Fraction(0), Fraction(1), 3))


def test_neumaier_non_integer_ratio_fails():
    cert = neumaier_check(3, 20, Fraction(2), Fraction(5))
    assert cert.verdict == "fail"


# -- modular design congruences -------------------------------------------------


def test_mod_design_fano():
    cert = mod_design_certificate(fano_plane(), 5)
    assert cert.passed
    assert cert.identity("design_congruence").left == "1"  # 6 mod 5
    assert cert.details["k_residue"] == 3


def test_mod_design_pg11_lambda_design():
    cert = mod_design_certificate(lambda_design_type1(projective_plane(11), 0), 5)
    assert cert.passed
    assert (cert.details["n"] % 5, cert.details["k_residue"], cert.details["lambda_residue"]) == (3, 2, 1)


def test_mod_design_fano_p3_k_clause():
    with pytest.raises(HypothesisViolationError) as err:
        mod_design_certificate(fano_plane(), 3)
    assert err.value.clause == "kNonzero"


def test_mod_design_requires_common_residues():
    fam = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
    with pytest.raises(HypothesisViolationError) as err:
        mod_design_certificate(fam, 5)
    assert err.value.clause == "commonSizeResidue"


def test_mod_design_requires_square_family():
    fam = SetFamily.from_sets(4, [[1, 2], [2, 3]])
    with pytest.raises(HypothesisViolationError) as err:
        mod_design_certificate(fam, 5)
    assert err.value.clause == "familySize"


@pytest.mark.parametrize("p,r", [(5, 11), (5, 31), (7, 29)])
def test_mod_design_remark_family_sweep(p, r):
    """Type-1 lambda-designs from planes of order r = dp+1 satisfy both
    congruences for every prime r <= 31."""
    design = lambda_design_type1(projective_plane(r), 0)
    cert = mod_design_certificate(design, p)
    assert cert.passed


# -- Ryser dichotomy -------------------------------------------------------------


def test_ryser_fano_alternative_a():
    cert = ryser_decompose(fano_plane(), 1)
    assert cert.passed
    assert cert.details["alternative"] == "A"
    assert cert.details["kappa_values"] == ["1/3"]
    assert cert.details["r"] == "3"
    assert set(cert.coefficients) == {"1/3"}


@pytest.mark.parametrize("n", range(4, 9))
def test_ryser_near_pencil_alternative_b(n):
    cert = ryser_decompose(near_pencil(n), 1)
    assert cert.passed
    assert cert.details["alternative"] == "B"
    assert Fraction(cert.details["r"]) + Fraction(cert.details["r_prime"]) == n + 1
    assert cert.identity("kappa_pair_sum").holds
    assert cert.identity("point_reciprocal_sum").holds
    assert cert.identity("global_reciprocal_sum").holds
    assert len(cert.details["kappa_values"]) == 2


def test_ryser_near_pencil_4_kappas():
    cert = ryser_decompose(near_pencil(4), 1)
    assert cert.details["kappa_values"] == ["1/3", "2/3"]


def test_ryser_fano_lambda_design():
    cert = ryser_decompose(lambda_design_type1(fano_plane(), 0), 2)
    assert cert.passed
    assert cert.details["alternative"] == "B"
    r = Fraction(cert.details["r"])
    r_prime = Fraction(cert.details["r_prime"])
    assert r + r_prime == 8


def test_ryser_resubstitution_identity():
    cert = ryser_decompose(fano_plane(), 1)
    assert cert.identity("monomial_resubstitution_mismatches").left == "0"


def test_ryser_hadamard_plus_full_violates_intersections():
    with pytest.raises(HypothesisViolationError) as err:
        ryser_decompose(hadamard_plus_full(2), 1)
    assert err.value.clause == "constantIntersection"


def test_ryser_rejects_degenerate_and_bad_lambda():
    with pytest.raises(HypothesisViolationError):
        ryser_decompose(SetFamily.from_sets(1, [[1]]), 1)
    with pytest.raises(HypothesisViolationError):
        ryser_decompose(fano_plane(), 0)
    with pytest.raises(HypothesisViolationError):
        ryser_decompose(SetFamily.from_sets(2, [[1], [1]]), 1)  # size = lambda


def _pg2_over_gf4() -> SetFamily:
    """PG(2,4), which `projective_plane` does not build (prime orders only):
    points and lines are the normalised nonzero triples over
    GF(4) = F_2[w]/(w^2 + w + 1), incident when their dot product is 0."""

    def mul(a, b):
        prod = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return prod ^ 0b111 if prod & 0b100 else prod

    points = [v for v in product(range(4), repeat=3) if any(v) and next(x for x in v if x) == 1]
    return SetFamily.from_sets(len(points), [
        [k + 1 for k, pt in enumerate(points)
         if mul(line[0], pt[0]) ^ mul(line[1], pt[1]) ^ mul(line[2], pt[2]) == 0]
        for line in points
    ])


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 11, 13])
def test_ryser_projective_planes_alternative_a(r):
    plane = _pg2_over_gf4() if r == 4 else projective_plane(r)
    assert plane.n == r * r + r + 1 and set(plane.sizes()) == {r + 1}
    cert = ryser_decompose(plane, 1)
    assert cert.passed
    assert cert.details["alternative"] == "A"
    assert set(cert.coefficients) == {f"1/{r + 1}"}
    assert cert.details["r"] == str(r + 1)


@pytest.mark.parametrize("m", [12, 20, 40])
def test_ryser_near_pencil_gives_alternative_b(m):
    cert = ryser_decompose(near_pencil(m), 1)
    assert cert.passed
    assert cert.details["alternative"] == "B"


def test_ryser_resubstitution_catches_a_perturbed_expansion(monkeypatch):
    """Move 1/7 between the kappas of points 5 and 6: every member through
    exactly one of them now sums to lambda -+ 1/7, and the integer
    re-substitution A kappa = lambda 1 counts each such member once."""
    import basisbound.certifier as certifier

    real_kappa = certifier._fisher_kappa

    def perturbed_kappa(*args):
        kappa = real_kappa(*args)
        kappa[5] += Fraction(1, 7)
        kappa[6] -= Fraction(1, 7)
        return kappa

    monkeypatch.setattr(certifier, "_fisher_kappa", perturbed_kappa)
    plane = projective_plane(3)
    cert = ryser_decompose(plane, 1)
    split = sum(1 for m in plane.masks if (m >> 5 & 1) != (m >> 6 & 1))
    assert cert.identity("monomial_resubstitution_mismatches").left == str(split) != "0"
    assert cert.verdict == "fail"


@pytest.mark.parametrize(
    "family, lam",
    [(projective_plane(r), 1) for r in (2, 3, 5, 7)]
    + [(_pg2_over_gf4(), 1)]
    + [(near_pencil(m), 1) for m in (4, 12, 40)]
    + [(lambda_design_type1(fano_plane(), 0), 2)],
    ids=["pg2", "pg3", "pg5", "pg7", "pg4", "near_pencil4", "near_pencil12", "near_pencil40",
         "fano_lambda2"],
)
def test_ryser_kappa_matches_elimination(family, lam):
    """The closed-form kappa equals the solution of A kappa = lambda 1 by
    the elimination engine, A the incidence matrix (row j is member j)."""
    n = family.n
    incidence = ExactMatrix(QQ, [[m >> i & 1 for i in range(n)] for m in family.masks])
    cert = ryser_decompose(family, lam)
    assert cert.passed
    assert [Fraction(k) for k in cert.coefficients] == solve_linear(incidence, [lam] * n)


# -- payload pins ------------------------------------------------------------------


def _hadamard2_without_last():
    system = hadamard_plus_full(2).to_vector_system()
    return VectorSystem(system.n, system.q, system.vectors[:-1])


SQRT5 = QuadExt(Fraction(0), Fraction(1), 5)

# case -> (certificate builder, sha256 of its payload as the CLI prints it).
PAYLOAD_CASES = {
    "ryser-fano": (
        lambda: ryser_decompose(fano_plane(), 1),
        "1d839745b204824bba99bc70978e636e202c882c26d561e3e1b0c33d5fcdf99a",
    ),
    "ryser-near-pencil-12": (
        lambda: ryser_decompose(near_pencil(12), 1),
        "5131a407e8152c9f8e83650c9f613b45e9725a53b8786059c7b1ded2486a96a3",
    ),
    "hamming-tight-hadamard2": (
        lambda: hamming_tight_certificate(hadamard_plus_full(2).to_vector_system(), 7, 4),
        "15af77d8efa287089c83f91d7e9f491a2dfe7b6bb51d2bd19e42a8ade0ae3d13",
    ),
    "hamming-tight-not-applicable": (
        lambda: hamming_tight_certificate(_hadamard2_without_last(), 7, 4),
        "e11975d886be9420454b5c5b8097687ab4d9b71fec06d55daab5de406dfec8fd",
    ),
    "two-distance-pentagon": (
        lambda: two_distance_certificate(pentagon()),
        "ace0efb2e40299e5e9081130914d2a3b5a62cfdf3ca7339c59ecd23b3f4bfe6b",
    ),
    "two-distance-mutated-schlafli": (
        lambda: two_distance_certificate(_mutated_schlafli()),
        "b9604cdb086b903c247995a49773f5b5724e71434603e3b9aa304009f920459d",
    ),
    "two-distance-singular": (
        lambda: two_distance_certificate(_singular_gram()),
        "545941fed00c9ffb525f39995b2c6def5ba8c9d93d684642f3d12a1e26c14f0e",
    ),
    "two-distance-one-entry-schlafli": (
        lambda: two_distance_certificate(_single_mutated(schlafli27(), "1/3")),
        "cf1a9be7de7bc3fcbef97a75ef20903997fb6a5b319b0e29cce06ad2d3267db9",
    ),
    "two-distance-one-entry-pentagon": (
        lambda: two_distance_certificate(_single_mutated(pentagon(), "1/3+1/2*sqrt(5)")),
        "bc36c64b87b714a11c111fe274aa93cbe1afee1ad38509fbbdcf1338d2aecca1",
    ),
    "two-distance-johnson-6": (
        lambda: two_distance_certificate(johnson_pairs(6)),
        "741f27d961ef3c944414c66af2b450c92e4dc7e4c19f1f5293b71d58eedb42bf",
    ),
    "neumaier-pass": (
        lambda: neumaier_check(5, 12, Fraction(3), Fraction(4)),
        "b0d75b255bb391eaf6fe567982ed01893702bc1b40af547849e4173733db99cd",
    ),
    "neumaier-fail": (
        lambda: neumaier_check(2, 8, Fraction(1), 2 + SQRT5),
        "ccc98a05cc2a935f10894b45a75c922a1ea99b0b4d58b7fc8dc4029602ec7ec1",
    ),
    "neumaier-not-applicable": (
        lambda: neumaier_check(2, 5, Fraction(1), Fraction(2)),
        "60892a809dba7210378125325a298c2fe245becf746053f1ab56f379c92ca31b",
    ),
    "independence-q": (
        lambda: certify_independence(ExactMatrix(QQ, [[2, 1], [1, Fraction(1, 3)]])),
        "39d6e3a2b390bcc5ec5dcb59a5311583b125107bfb10a64a17e74f4e031c59bf",
    ),
    "independence-f5": (
        lambda: certify_independence(ExactMatrix(PrimeFieldCtx(5), [[1, 2], [3, 1]])),
        "5b1c2a0250eb1dff8343f566062365aa2fe00e783f6a95da52dc83511fee3c0b",
    ),
    "independence-q-sqrt5": (
        lambda: certify_independence(
            ExactMatrix(QuadExtField(5), [[1 + SQRT5, 2], [1, 1 - SQRT5]])
        ),
        "2b293ea66cf39438a2f9d240f23871e4764cf7cf444c5a31880c7e29ebdd5b66",
    ),
}


@pytest.mark.parametrize("case", list(PAYLOAD_CASES))
def test_certificate_payload_bytes_pinned(case):
    """Pass, fail and not-applicable certificates of every kind keep their
    payload byte for byte: identity sides, coefficients and details."""
    build, digest = PAYLOAD_CASES[case]
    payload = json.dumps(build().to_json_dict(), indent=2)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "certify, message, clause",
    [
        (lambda: ryser_decompose(hadamard_plus_full(2), 1),
         "sets 0 and 7 meet in 3 points, not 1", "constantIntersection"),
        (lambda: mod_design_certificate(
            SetFamily.from_sets(4, [[1, 2], [1, 3], [2, 3], [3, 4]]), 5),
         "intersections of pair (0,1) and (0,3) differ mod 5", "commonIntersectionResidue"),
        (lambda: hamming_tight_certificate(
            VectorSystem.from_lists(3, 2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]), 5, 2),
         "distance 1 between members 0 and 1 is not 2 mod 5", "distancesCongruent"),
    ],
    ids=["ryser", "mod-design", "hamming-tight"],
)
def test_hypothesis_violation_names_the_pair(certify, message, clause):
    with pytest.raises(HypothesisViolationError) as err:
        certify()
    assert type(err.value) is HypothesisViolationError
    assert (str(err.value), err.value.clause) == (message, clause)
