"""Certificates for the basis-property phenomenon: determinant-criterion
independence checks, combination-coefficient extraction for families that
meet a linear-algebra bound with equality, and exact verification of the
identities that equality forces (modular distance congruences, the maximal
two-distance relation, design congruences, the Ryser degree dichotomy).

The field objects of `exactfield` parse, coerce and format every scalar;
the scalars do their own arithmetic, residues mod p included.  Each
member function vanishes on every other member once the hypotheses hold,
so the evaluation matrix is diagonal and the coefficients of the constant
1 are read off its diagonal (Ryser's are stated in closed form).  They are
checked by exact re-substitution, not by an elimination; the one
elimination engine (`solve_linear`) runs only on a two-distance Gram whose
evaluation matrix is not diagonal, and on the interpolation systems of
`indicator_poly`.  Member functions are evaluated from the data directly:
the hamming-tight members at a vector are its Hamming distances minus
lambda, the two-distance members are products of Gram-entry differences,
one per distinct value in one count of the Gram's entries.
Both sides of every identity are computed by independent code paths.
An identity's `left` and `right` are, as a rule, two exact values
formatted in the certificate's field, and it holds when they are equal
(`_equal`); floating point appears only in the optional coordinate-level
checks of two-distance sets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .bounds import two_distance_max
from .constructions import GramTwoDistance
from .errors import (
    HypothesisViolationError,
    MalformedInputError,
    ResourceGuardError,
    SingularSystemError,
)
from .exactfield import (
    QQ,
    ExactMatrix,
    PrimeFieldCtx,
    QuadExt,
    determinant,
    inertia_psd_rank,
    invert,  # noqa: F401  unused here; perfbench/tracing.py hooks it at this name
    rank,
    scalar_field,
    solve_linear,
)
from .families import SetFamily, VectorSystem, degrees, hamming_distance, set_bits

FLOAT_TOLERANCE = 1e-9

# The hamming-tight indicators solve one q x q Vandermonde system per
# symbol, about q^4 residue products: on a 2-core Xeon VM, Python 3.11,
# q = 64 (2^24 products) takes about 0.3 s and q = 120 about 2 s.
MAX_INTERPOLATION_WORK = 1 << 24

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Identity:
    name: str
    left: str
    right: str
    holds: bool


@dataclass
class Certificate:
    """Structured verdict: hypothesis clauses, extracted coefficients and
    each derived identity with its two exactly-computed sides."""

    kind: str
    verdict: str
    hypotheses: list[tuple[str, bool]] = dataclass_field(default_factory=list)
    coefficients: list[str] = dataclass_field(default_factory=list)
    identities: list[Identity] = dataclass_field(default_factory=list)
    details: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def identity(self, name: str) -> Identity:
        for ident in self.identities:
            if ident.name == name:
                return ident
        raise KeyError(name)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "hypotheses": [{"clause": c, "holds": h} for c, h in self.hypotheses],
            "coefficients": list(self.coefficients),
            "identities": [
                {"name": i.name, "left": i.left, "right": i.right, "holds": i.holds}
                for i in self.identities
            ],
            "details": self.details,
        }


def _certificate(kind, hypotheses, coefficients, identities, details, not_applicable=False):
    if not_applicable:
        verdict = NOT_APPLICABLE
    else:
        ok = all(h for _, h in hypotheses) and all(i.holds for i in identities)
        verdict = PASS if ok else FAIL
    return Certificate(kind, verdict, hypotheses, coefficients, identities, details)


def _format_list(field, values):
    return "[" + ", ".join(field.format(v) for v in values) + "]"


def _equal(name, field, left, right) -> Identity:
    """The identity left == right between two exact values (or two lists of
    them), each side formatted in `field`."""
    fmt = (lambda v: _format_list(field, v)) if isinstance(left, list) else field.format
    return Identity(name, fmt(left), fmt(right), left == right)


def _float_close(x: float, y: float, tol: float = FLOAT_TOLERANCE) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Determinant criterion


def certify_independence(b: ExactMatrix) -> Certificate:
    """Nonsingular evaluation matrix implies the evaluated functions are
    linearly independent; pass iff det(B) != 0, with the rank recorded."""
    if not b.is_square():
        raise MalformedInputError("independence certificate needs a square matrix")
    det = determinant(b)
    size = b.nrows
    singular = det == 0
    # A nonsingular square matrix has full rank, so only det = 0 needs rank.
    rk = rank(b) if singular else size
    ident = Identity("determinant_nonzero", b.field.format(det), "0", not singular)
    return _certificate(
        kind="independence",
        hypotheses=[("squareMatrix", True)],
        coefficients=[],
        identities=[ident],
        details={"size": size, "rank": rk, "rank_deficit": size - rk},
    )


# ---------------------------------------------------------------------------
# Tight constant-distance families over F_p


def indicator_poly(a: int, q: int, p: PrimeFieldCtx) -> list[int]:
    """Coefficients over F_p of the minimal-degree polynomial that is 0 at
    a and 1 at every other point of [0, q-1]; degree at most q-1.  They
    solve the q x q Vandermonde system on the nodes 0..q-1, whose
    re-substitution checks the interpolation."""
    if p.p < q:
        raise HypothesisViolationError(f"need p >= q, got p={p.p}, q={q}", clause="pGeqQ")
    if not 0 <= a < q:
        raise MalformedInputError(f"symbol {a} outside [0, {q - 1}]")
    vandermonde = ExactMatrix(p, [[pow(t, k, p.p) for k in range(q)] for t in range(q)])
    coeffs = solve_linear(vandermonde, [int(t != a) for t in range(q)])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def hamming_tight_certificate(system: VectorSystem, p: int, lam: int) -> Certificate:
    """Certificate for a vector system meeting the modular constant-distance
    bound n(q-1) with one extra member.

    The member functions are f_a(x) = sum_i l_{a_i}(x_i) - lambda over F_p,
    where l_a is `indicator_poly(a)`: 0 at a and 1 elsewhere on [0, q-1].
    So f_a(h) = d_H(a, h) - lambda, and the member sums at the constant
    vectors are read from Hamming distances.  The hypotheses (every distance
    congruent to lambda, lambda nonzero mod p) make the evaluation matrix
    -lambda I, so the constant 1 is the combination with every coefficient
    -1/lambda.  That combination is re-expanded over the monomial
    coefficients of the l_a, independently of the distances, and the forced
    congruence q*lambda = n(q-1)+1 mod p is checked.  A tight system with
    q^4 > MAX_INTERPOLATION_WORK is refused before the l_a are interpolated.
    """
    ctx = PrimeFieldCtx(p)
    p_value = ctx.p
    n, q = system.n, system.q
    if p_value < q:
        raise HypothesisViolationError(
            f"need p >= q, got p={p_value}, q={q}", clause="pGeqQ"
        )
    lam_res = lam % p_value
    if lam <= 0 or lam_res == 0:
        raise HypothesisViolationError(
            f"lambda = {lam} is zero mod {p_value}", clause="lambdaNonzero"
        )
    vectors = system.vectors
    member_count = len(vectors)
    for i in range(member_count):
        for j in range(i + 1, member_count):
            d = hamming_distance(vectors[i], vectors[j])
            if d % p_value != lam_res:
                raise HypothesisViolationError(
                    f"distance {d} between members {i} and {j} is not "
                    f"{lam_res} mod {p_value}",
                    clause="distancesCongruent",
                )

    size_target = n * (q - 1) + 1
    hypotheses = [
        ("pPrime", True),
        ("pGeqQ", True),
        ("lambdaNonzeroModP", True),
        ("distancesCongruentToLambda", True),
        ("sizeEqualsBoundPlusOne", member_count == size_target),
    ]
    details = {
        "n": n,
        "q": q,
        "p": p_value,
        "lambda_residue": lam_res,
        "size": member_count,
        "tight_size": size_target,
    }
    if member_count != size_target:
        return _certificate(
            "hamming-tight", hypotheses, [], [], details, not_applicable=True
        )

    # f_s(v_t) = d_H(v_s, v_t) - lambda = -lambda [s = t] mod p, so the
    # evaluation matrix is -lambda I and every coefficient is -1/lambda.
    alpha = -pow(lam_res, -1, p_value) % p_value
    coefficients = [ctx.format(alpha)] * member_count
    identities = [
        _equal("evaluation_matrix_nonsingular", QQ, member_count, member_count),
        _equal("coefficients_equal_minus_inverse_lambda", ctx, [alpha], [alpha]),
    ]
    if q**4 > MAX_INTERPOLATION_WORK:
        raise ResourceGuardError(
            f"interpolating {q} indicators: work {q**4} exceeds the guard {MAX_INTERPOLATION_WORK}"
        )
    # Re-expand alpha sum_t f_t over the monomials: slot 0 holds the
    # constant, slot 1+i(q-1)+(j-1) the monomial x_i^j.
    indicators = [indicator_poly(a, q, ctx) for a in range(q)]
    combo = [0] * size_target
    for vec in vectors:
        combo[0] -= lam_res
        for i, a_i in enumerate(vec):
            la = indicators[a_i]
            combo[0] += la[0]
            for j in range(1, len(la)):
                combo[1 + i * (q - 1) + (j - 1)] += la[j]
    combo = [alpha * c % p_value for c in combo]
    identities.append(_equal("combination_constant_term", ctx, combo[0], ctx.one))
    nonconstant = sum(1 for c in combo[1:] if c)
    identities.append(_equal("combination_nonconstant_terms", QQ, nonconstant, 0))

    minus_lam = (-lam_res) % p_value
    for j in range(q):
        point = (j,) * n
        total = sum(hamming_distance(f, point) - lam for f in vectors) % p_value
        identities.append(_equal(f"member_sum_at_constant_vector_{j}", ctx, total, minus_lam))

    left, right = q * lam_res % p_value, (n * (q - 1) + 1) % p_value
    identities.append(_equal("tightness_congruence", ctx, left, right))
    return _certificate("hamming-tight", hypotheses, coefficients, identities, details)


# ---------------------------------------------------------------------------
# Maximal spherical two-distance sets


def two_distance_certificate(gram: GramTwoDistance) -> Certificate:
    """Certificate for a maximal spherical two-distance set.

    Applicable only at the maximal size N = n(n+3)/2.  One count of the
    Gram entries above the diagonal is checked against the declared a, b;
    one product (g-a)(g-b) per counted value g, twice by symmetry, gives
    the nonzero off-diagonal entries of the evaluation matrix
    (<v_s, v_m> - a)(<v_s, v_m> - b), whose diagonal is (1-a)(1-b).  When
    none is nonzero the coefficients of the constant 1 are 1/((1-a)(1-b))
    each; otherwise the matrix is built and solved, and the coefficients
    are compared with that value.  The forced relation N(ab + 1/n) =
    (1-a)(1-b) is verified exactly.  When floating coordinates are
    attached, the per-axis coordinate sums and the total squared norm are
    checked to relative 1e-9.
    """
    field = gram.field
    a, b = gram.value_a, gram.value_b
    if a == 1 or b == 1:
        raise HypothesisViolationError("inner products equal to 1 are not allowed", clause="valuesNotOne")
    n, count = gram.n, gram.count
    maximal = two_distance_max(n)
    hypotheses = [
        ("valuesDifferFromOne", True),
        ("valuesDistinct", a != b),
        ("sizeIsMaximal", count == maximal),
    ]
    details = {"n": n, "N": count, "maximal_size": maximal}
    if count != maximal:
        return _certificate(
            "two-distance", hypotheses, [], [], details, not_applicable=True
        )

    entries = gram.gram.entries
    # Each value above the diagonal with its count, in first-occurrence order.
    above = Counter(g for s, r in enumerate(entries) for g in r[s + 1:])
    identities = [
        Identity(
            "off_diagonal_values_match_declared",
            _format_list(field, list(above)),
            _format_list(field, [a, b]),
            above.keys() <= {a, b},
        )
    ]

    is_psd, rk = inertia_psd_rank(gram.gram)
    details["gram_rank"] = rk
    hypotheses.append(("gramPositiveSemidefinite", is_psd))
    hypotheses.append(("gramRankAtMostAmbient", rk <= n))

    target = (1 - a) * (1 - b)
    # One evaluation entry per distinct Gram value; every diagonal entry is 1.
    one = entries[0][0]
    product = {g: (g - a) * (g - b) for g in (one, *above)}
    off_nonzero = 2 * sum(k for g, k in above.items() if product[g] != 0)
    identities.append(_equal("evaluation_matrix_off_diagonal_zero", QQ, off_nonzero, 0))
    identities.append(_equal("evaluation_matrix_diagonal_value", field, [product[one]], [target]))

    # The unit diagonal makes every diagonal entry (1-a)(1-b), nonzero as
    # a, b != 1; with no off-diagonal entry left, alpha = 1/target.
    expected = 1 / target
    try:
        if off_nonzero:
            evaluation = ExactMatrix(field, [[product[g] for g in r] for r in entries])
            alpha = solve_linear(evaluation, [field.one] * count)
        else:
            alpha = [expected] * count
        coefficients = [field.format(x) for x in alpha]
        distinct = list(dict.fromkeys(alpha))
        identities.append(_equal("coefficients_equal_inverse_product", field, distinct, [expected]))
    except SingularSystemError as exc:
        coefficients = []
        identities.append(
            Identity("coefficients_equal_inverse_product", f"singular (rank {exc.rank})", "", False)
        )

    # N(ab + 1/n) = (1-a)(1-b): left side from N, n, a, b; right side from
    # a, b alone.
    left = count * (a * b + Fraction(1, n))
    identities.append(_equal("maximal_two_distance_relation", field, left, target))

    if gram.coords is not None:
        try:
            ab_sum = float(a + b)
            rhs = n * float(target) - n * count * float(a * b)
        except OverflowError:
            ab_sum = rhs = math.inf
        # A declared value beyond float range fails both float checks.
        finite = math.isfinite(ab_sum) and math.isfinite(rhs)
        worst = 0.0 if finite else math.inf
        for i in range(n if finite else 0):
            axis_total = ab_sum * sum(c[i] for c in gram.coords)
            worst = max(worst, abs(axis_total))
        identities.append(
            Identity(
                "coordinate_axis_sums_vanish",
                repr(worst),
                "0.0",
                finite and _float_close(worst, 0.0),
            )
        )
        norm_total = sum(x * x for c in gram.coords for x in c)
        identities.append(
            Identity(
                "coordinate_norm_total",
                repr(norm_total),
                repr(rhs),
                finite and _float_close(norm_total, rhs) and _float_close(norm_total, float(count)),
            )
        )

    return _certificate("two-distance", hypotheses, coefficients, identities, details)


# ---------------------------------------------------------------------------
# Integrality of the squared-distance ratio


def neumaier_check(n: int, count: int, d1sq, d2sq) -> Certificate:
    """For a two-distance set in dimension n with more than max(2n+1, 5)
    points, the squared-distance ratio must be (m-1)/m for an integer m.
    Both squared distances are computed in the one field that holds them."""
    field = scalar_field([d1sq, d2sq])
    d1sq, d2sq = field.coerce(d1sq), field.coerce(d2sq)
    if field.sign(d1sq) <= 0:
        raise MalformedInputError("squared distances must be positive")
    if field.sign(d2sq - d1sq) <= 0:
        raise MalformedInputError("expected d1^2 < d2^2 (swap the arguments)")
    threshold = max(2 * n + 1, 5)
    applicable = count > threshold
    hypotheses = [("sizeAboveThreshold", applicable)]
    details = {"n": n, "N": count, "threshold": threshold}
    if not applicable:
        return _certificate("neumaier", hypotheses, [], [], details, not_applicable=True)

    ratio = d1sq / d2sq
    m = _ratio_integer_m(ratio)
    details["m"] = m
    # m >= 2, so (m-1)/m is in lowest terms.
    ident = Identity(
        "ratio_is_m_minus_one_over_m",
        field.format(ratio),
        "(m-1)/m for integer m" if m is None else f"{m - 1}/{m}",
        m is not None,
    )
    return _certificate("neumaier", hypotheses, [], [ident], details)


def _ratio_integer_m(ratio):
    if isinstance(ratio, QuadExt):
        if ratio.surd != 0:
            return None
        ratio = ratio.rat
    complement = 1 - ratio
    if complement <= 0:
        return None
    m = 1 / complement
    if m.denominator != 1 or m < 2:
        return None
    return int(m)


# ---------------------------------------------------------------------------
# Modular design congruences


def mod_design_certificate(family: SetFamily, p: int) -> Certificate:
    """For n sets on n points with sizes congruent to k and pairwise
    intersections congruent to lambda mod p (n, k, k-lambda nonzero mod p),
    verify k(k-1) = lambda(n-1) mod p and that every point degree is
    congruent to k."""
    ctx = PrimeFieldCtx(p)
    p_value = ctx.p
    n = family.n
    if len(family) != n or n < 2:
        raise HypothesisViolationError(
            f"need as many sets as points (at least two): {len(family)} sets on [{n}]",
            clause="familySize",
        )
    sizes = family.sizes()
    k = sizes[0] % p_value
    for idx, s in enumerate(sizes):
        if s % p_value != k:
            raise HypothesisViolationError(
                f"sizes of sets 0 and {idx} differ mod {p_value}: {sizes[0]} vs {s}",
                clause="commonSizeResidue",
            )
    lam = None
    masks = family.masks
    for i in range(n):
        for j in range(i + 1, n):
            inter = (masks[i] & masks[j]).bit_count() % p_value
            if lam is None:
                lam = inter
            elif inter != lam:
                raise HypothesisViolationError(
                    f"intersections of pair (0,1) and ({i},{j}) differ mod {p_value}",
                    clause="commonIntersectionResidue",
                )
    for clause, value in (
        ("nNonzero", n % p_value),
        ("kNonzero", k),
        ("kMinusLambdaNonzero", (k - lam) % p_value),
    ):
        if value == 0:
            raise HypothesisViolationError(
                f"{clause} fails mod {p_value}", clause=clause
            )

    hypotheses = [
        ("familySizeEqualsGround", True),
        ("commonSizeResidue", True),
        ("commonIntersectionResidue", True),
        ("nNonzero", True),
        ("kNonzero", True),
        ("kMinusLambdaNonzero", True),
    ]
    degree_residues = sorted({d % p_value for d in degrees(family)})
    identities = [
        _equal("design_congruence", ctx, k * (k - 1) % p_value, lam * (n - 1) % p_value),
        _equal("degrees_congruent_to_size", ctx, degree_residues, [k]),
    ]
    details = {"n": n, "p": p_value, "k_residue": k, "lambda_residue": lam}
    return _certificate("mod-design", hypotheses, [], identities, details)


# ---------------------------------------------------------------------------
# Ryser dichotomy


def _fisher_kappa(members, excess, lam: int, n: int) -> list[Fraction]:
    """kappa = lambda A^{-1} 1 for the incidence matrix A (row j is member
    j), in closed form.  With d_j = |A_j| - lambda > 0 (`excess`), constant
    intersection gives A A^T = lambda J + diag(d_j) (Fisher's identity), and
    Sherman-Morrison gives kappa_i = lambda sigma_i / (1 + lambda S), where
    sigma_i = sum_{j : i in A_j} 1/d_j and S = sum_j 1/d_j.  Both sums are
    kept as integers over the common multiple of the d_j."""
    scale = math.lcm(*excess)
    weights = [scale // d for d in excess]
    sigma = [0] * n
    for member, w in zip(members, weights):
        for i in member:
            sigma[i] += w
    denom = scale + lam * sum(weights)
    return [Fraction(lam * s, denom) for s in sigma]


def ryser_decompose(family: SetFamily, lam: int) -> Certificate:
    """Exact decomposition certificate for n sets on [n] with constant
    pairwise intersection lambda and all sizes above lambda.

    Those hypotheses make the incidence matrix A nonsingular (Fisher's
    identity), so each coordinate monomial x_i has one expansion over the
    member polynomials <x, v_j> - lambda plus a constant, and that constant
    is kappa_i = lambda (A^{-1} 1)_i.  kappa is stated in closed form
    (`_fisher_kappa`) and checked by one integer re-substitution over the
    incidences.  Then verifies the degree identity r_i = kappa_i(n-1) + 1,
    the per-point and global reciprocal sums, that at most two kappa values
    occur, and classifies the family: one value gives the uniform regular
    alternative, two values give degrees r, r' with kappa + kappa' = 1 and
    r + r' = n + 1.
    """
    n = family.n
    if lam <= 0:
        raise HypothesisViolationError(f"lambda must be positive: {lam}", clause="lambdaPositive")
    count = len(family)
    if count < 2:
        raise HypothesisViolationError("need at least two sets", clause="familySize")
    masks = family.masks
    for i in range(count):
        for j in range(i + 1, count):
            inter = (masks[i] & masks[j]).bit_count()
            if inter != lam:
                raise HypothesisViolationError(
                    f"sets {i} and {j} meet in {inter} points, not {lam}",
                    clause="constantIntersection",
                )
    sizes = family.sizes()
    for idx, s in enumerate(sizes):
        if s <= lam:
            raise HypothesisViolationError(
                f"set {idx} has size {s} <= lambda = {lam}", clause="sizesAboveLambda"
            )
    if count != n:
        raise HypothesisViolationError(
            f"need as many sets as points: {count} != {n}", clause="familySize"
        )

    hypotheses = [
        ("familySizeEqualsGround", True),
        ("lambdaPositive", True),
        ("constantIntersection", True),
        ("sizesAboveLambda", True),
    ]

    members = [set_bits(m) for m in masks]
    point_degrees = degrees(family)
    kappa = _fisher_kappa(members, [s - lam for s in sizes], lam, n)

    # Re-substitution, in integers over the incidences: with kappa cleared
    # to integers c by its common denominator D, A kappa = lambda 1 reads
    # sum_{i in A_j} c_i = lambda D for every member j.  A is nonsingular,
    # so this pins kappa to lambda A^{-1} 1.
    denom = math.lcm(*(k.denominator for k in kappa))
    ints = [k.numerator * (denom // k.denominator) for k in kappa]
    mismatches = sum(1 for m in members if sum(ints[i] for i in m) != lam * denom)
    identities = [
        _equal("monomial_resubstitution_mismatches", QQ, mismatches, 0),
        _equal("degree_from_kappa", QQ, point_degrees, [k * (n - 1) + 1 for k in kappa]),
    ]

    # Fisher's identity makes A nonsingular, so every point lies in a
    # member and sigma_i > 0; sigma_i <= S then gives 0 < kappa_i < 1, and
    # neither 1/kappa_i nor 1/(1 - kappa_i) divides by zero.
    recip = [Fraction(1, s - lam) for s in sizes]
    point_sums = [0] * n
    for member, x in zip(members, recip):
        for i in member:
            point_sums[i] += x
    identities.append(_equal("point_reciprocal_sum", QQ, point_sums, [1 / (1 - k) for k in kappa]))

    global_sum = sum(recip)
    per_point = list(dict.fromkeys(1 / k + 1 / (1 - k) - Fraction(1, lam) for k in kappa))
    identities.append(
        Identity(
            "global_reciprocal_sum",
            QQ.format(global_sum),
            _format_list(QQ, per_point),
            per_point == [global_sum],
        )
    )

    kappa_values = sorted(set(kappa))
    identities.append(
        Identity("kappa_value_count", str(len(kappa_values)), "1 or 2", len(kappa_values) <= 2)
    )

    details = {
        "n": n,
        "lambda": lam,
        "kappa_values": [QQ.format(k) for k in kappa_values],
        "degrees": point_degrees,
    }
    coefficients = [QQ.format(k) for k in kappa]

    degree_set = sorted(set(point_degrees))
    rs = [k * (n - 1) + 1 for k in kappa_values]
    if len(rs) == 1:
        details.update(alternative="A", r=QQ.format(rs[0]))
        identities.append(_equal("uniform_size_equals_degree", QQ, sorted(set(sizes)), rs))
        identities.append(_equal("degrees_uniform", QQ, degree_set, rs))
    elif len(rs) == 2:
        details.update(alternative="B", r=QQ.format(rs[1]), r_prime=QQ.format(rs[0]))
        identities.append(_equal("kappa_pair_sum", QQ, sum(kappa_values), 1))
        identities.append(_equal("degree_pair_sum", QQ, sum(rs), n + 1))
        identities.append(_equal("degrees_take_both_values", QQ, degree_set, rs))
    else:
        details["alternative"] = "none"

    return _certificate("ryser", hypotheses, coefficients, identities, details)
