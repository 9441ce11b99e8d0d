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
evaluation matrix is not diagonal.  Member functions are evaluated from
the data directly: a hamming-tight member at another is n minus one
popcount of the two packed one-hot, minus lambda, and its indicators are
in Lagrange form; the two-distance members are products of Gram-entry
differences, one per distinct value in one count of the Gram's entries.
Both sides of every identity are computed by independent code paths,
but for Ryser's reciprocal sums: kappa's closed form is built from the
sums on their left sides (sigma), not checked against a second count.
An identity's `left` and `right` are, as a rule, two exact values
formatted in the certificate's field, and it holds when they are equal
(`_equal`); floating point appears only in the optional coordinate-level
checks of two-distance sets.  Three identities cannot fail, as both sides
come from one value: two-distance's `evaluation_matrix_diagonal_value`
(GramTwoDistance refuses a diagonal entry other than 1, so both sides are
(1-a)(1-b)) and hamming-tight's `evaluation_matrix_nonsingular` and
`coefficients_equal_minus_inverse_lambda`.  They restate what the
hypotheses force and are kept so that payloads do not change.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import accumulate

from .bounds import two_distance_max
from .constructions import GramTwoDistance
from .errors import (
    HypothesisViolationError,
    MalformedInputError,
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
from .families import SetFamily, VectorSystem, degrees, set_bits

FLOAT_TOLERANCE = 1e-9

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


def _float_close(x: float, y: float) -> bool:
    return abs(x - y) <= FLOAT_TOLERANCE * max(1.0, abs(x), abs(y))


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


def indicator_polys(q: int, p: PrimeFieldCtx):
    """l_0, ..., l_{q-1} over F_p, q coefficients each, lowest degree first:
    l_a is 0 at a and 1 elsewhere on [0, q-1].  In Lagrange form
    l_a = 1 - P(x) / ((x - a) P'(a)), with P = prod_t (x - t) built once and
    P'(a) = (-1)^(q-1-a) a! (q-1-a)!, each is one synthetic division."""
    if p.p < q:
        raise HypothesisViolationError(f"need p >= q, got p={p.p}, q={q}", clause="pGeqQ")
    m, big_p, fact = p.p, [1], [1]
    for t in range(q):
        big_p = [(c_prev - t * c) % m for c_prev, c in zip([0] + big_p, big_p + [0])]
        fact.append(fact[-1] * (t + 1) % m)

    def indicator(a):
        scale = -pow((-1) ** (q - 1 - a) * fact[a] * fact[q - 1 - a], -1, m)
        quotient = accumulate(big_p[:0:-1], lambda b, c: (c + a * b) % m)
        coeffs = [b * scale % m for b in quotient][::-1]
        coeffs[0] = (coeffs[0] + 1) % m
        return coeffs

    return map(indicator, range(q))


def _packed_members(vectors, q: int) -> list[int]:
    """Each of N members as one integer, a one-hot slot of min(q, N) bits per
    coordinate (columns relabelled densely when q > N), so that members u
    and v agree in popcount(u & v) coordinates."""
    width = min(q, len(vectors))
    if q > width:
        relabel = [{s: k for k, s in enumerate(dict.fromkeys(c))} for c in zip(*vectors)]
        vectors = [[ids[s] for ids, s in zip(relabel, v)] for v in vectors]
    slot = [format(1 << s, f"0{width}b") for s in range(width)]
    return [int("".join([slot[s] for s in v]), 2) for v in vectors]


def hamming_tight_certificate(system: VectorSystem, p: int, lam: int) -> Certificate:
    """Certificate for a vector system meeting the modular constant-distance
    bound n(q-1) with one extra member.

    The member functions are f_a(x) = sum_i l_{a_i}(x_i) - lambda over F_p,
    where l_a, from `indicator_polys`, is 0 at a and 1 elsewhere on [0, q-1].
    So f_a(h) = d_H(a, h) - lambda: n minus one popcount of two packed
    members (`_packed_members`), and, summed at (j,...,j), N n minus the
    count of entries j.  The hypotheses (every distance congruent to lambda,
    lambda nonzero mod p) make the evaluation matrix -lambda I, so the
    constant 1 is the combination with every coefficient -1/lambda.  That
    combination is re-expanded over the monomial coefficients of the l_a
    (Lagrange form, no elimination), count * l_a per column and symbol,
    independently of the distances, and the forced congruence q*lambda =
    n(q-1)+1 mod p is checked.
    """
    ctx = PrimeFieldCtx(p)
    p_value = ctx.p
    n, q = system.n, system.q
    if p_value < q:
        raise HypothesisViolationError(
            f"need p >= q, got p={p_value}, q={q}", clause="pGeqQ"
        )
    if lam <= 0:
        raise HypothesisViolationError(f"lambda must be positive: {lam}", clause="lambdaPositive")
    lam_res = lam % p_value
    if lam_res == 0:
        raise HypothesisViolationError(
            f"lambda = {lam} is zero mod {p_value}", clause="lambdaNonzero"
        )
    vectors = system.vectors
    member_count = len(vectors)
    packed = _packed_members(vectors, q)
    for i, u in enumerate(packed):
        for j in range(i + 1, member_count):
            d = n - (u & packed[j]).bit_count()
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
    # Re-expand alpha sum_t f_t over the monomials, count_i[a] l_a per column
    # i and symbol a: slot 0 holds the constant, slot 1+i(q-1)+(j-1) x_i^j.
    column_counts = [Counter(column) for column in zip(*vectors)]
    combo = [-member_count * lam_res] + [0] * (size_target - 1)
    for a, la in enumerate(indicator_polys(q, ctx)):
        head, tail = la[0], la[1:]
        for i, counts in enumerate(column_counts):
            c = counts[a]
            combo[0] += c * head
            row = slice(1 + i * (q - 1), 1 + (i + 1) * (q - 1))
            combo[row] = [s + c * t for s, t in zip(combo[row], tail)]
    combo = [alpha * c % p_value for c in combo]
    identities.append(_equal("combination_constant_term", ctx, combo[0], ctx.one))
    nonconstant = sum(1 for c in combo[1:] if c)
    identities.append(_equal("combination_nonconstant_terms", QQ, nonconstant, 0))

    minus_lam = (-lam_res) % p_value
    for j in range(q):
        total = (member_count * (n - lam) - sum(c[j] for c in column_counts)) % p_value
        identities.append(_equal(f"member_sum_at_constant_vector_{j}", ctx, total, minus_lam))

    left, right = q * lam_res % p_value, size_target % p_value
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
    masks = family.masks
    lam = (masks[0] & masks[1]).bit_count() % p_value
    for i in range(n):
        for j in range(i + 1, n):
            if (masks[i] & masks[j]).bit_count() % p_value != lam:
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


def _fisher_kappa(sigma, scale: int, total: int, lam: int) -> list[Fraction]:
    """kappa = lambda A^{-1} 1 for the incidence matrix A (row j is member
    j), in closed form.  With d_j = |A_j| - lambda > 0, constant
    intersection gives A A^T = lambda J + diag(d_j) (Fisher's identity), and
    Sherman-Morrison gives kappa_i = lambda sigma_i / (1 + lambda S), where
    sigma_i = sum_{j : i in A_j} 1/d_j and S = sum_j 1/d_j.  Both sums come
    as integers over L = lcm(d_j) (`scale`): sigma_i L and S L (`total`)."""
    value = {s: Fraction(lam * s, scale + lam * total) for s in dict.fromkeys(sigma)}
    return [value[s] for s in sigma]


def ryser_decompose(family: SetFamily, lam: int) -> Certificate:
    """Exact decomposition certificate for n sets on [n] with constant
    pairwise intersection lambda and all sizes above lambda.

    Those hypotheses make the incidence matrix A nonsingular (Fisher's
    identity), so each coordinate monomial x_i has one expansion over the
    member polynomials <x, v_j> - lambda plus a constant, and that constant
    is kappa_i = lambda (A^{-1} 1)_i.  kappa is stated in closed form from
    one pass over the incidences (`_fisher_kappa`) and checked by one
    integer re-substitution over them.  Then verifies the degree identity
    r_i = kappa_i(n-1) + 1, the per-point and global reciprocal sums, read
    from that pass, that at most two kappa values occur, and classifies
    the family: one value gives the uniform regular alternative, two
    values give degrees r, r' with kappa + kappa' = 1 and r + r' = n + 1.
    kappa_i depends on the integer sigma_i L alone, so each value derived
    from it is computed and formatted once per distinct sigma_i L; as the
    format is canonical, a per-point list identity compares the two texts.
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
            raise HypothesisViolationError(f"set {idx} has size {s} <= lambda = {lam}",
                                           clause="sizesAboveLambda")
    if count != n:
        raise HypothesisViolationError(f"need as many sets as points: {count} != {n}",
                                       clause="familySize")

    hypotheses = [(clause, True) for clause in (
        "familySizeEqualsGround", "lambdaPositive", "constantIntersection", "sizesAboveLambda")]

    members = [set_bits(m) for m in masks]
    point_degrees = degrees(family)
    # sigma and S over L = lcm(d_j), d_j = |A_j| - lambda (`_fisher_kappa`).
    scale = math.lcm(*(s - lam for s in sizes))
    weights = [scale // (s - lam) for s in sizes]
    sigma = [0] * n
    for member, w in zip(members, weights):
        for i in member:
            sigma[i] += w
    total = sum(weights)
    kappa = _fisher_kappa(sigma, scale, total, lam)
    # Re-substitution, in integers over the incidences: with kappa cleared
    # to integers c by its common denominator D, A kappa = lambda 1 reads
    # sum_{i in A_j} c_i = lambda D for every member j.  A is nonsingular,
    # so this pins kappa to lambda A^{-1} 1.
    denom = math.lcm(*(k.denominator for k in kappa))
    ints = [k.numerator * (denom // k.denominator) for k in kappa]
    mismatches = sum(1 for m in members if sum(ints[i] for i in m) != lam * denom)

    # Per distinct sigma_i L: Fisher's identity makes A nonsingular, so every
    # point lies in a member and sigma_i > 0; sigma_i <= S then gives
    # 0 < kappa_i < 1, and neither 1/kappa_i nor 1/(1 - kappa_i) divides by zero.
    by_sigma = dict(zip(sigma, kappa))
    inverse = {s: 1 / (1 - k) for s, k in by_sigma.items()}
    degree = {s: k * (n - 1) + 1 for s, k in by_sigma.items()}

    def listed(values, keys=sigma):
        """QQ.format(values[k]) for k in keys, each value formatted once."""
        text = {k: QQ.format(v) for k, v in values.items()}
        return [text[k] for k in keys]

    def same(name, left, right):
        left, right = "[" + ", ".join(left) + "]", "[" + ", ".join(right) + "]"
        return Identity(name, left, right, left == right)

    # The reciprocal sums sigma_i and S, read from the incidence pass.
    point_sums = {s: Fraction(s, scale) for s in by_sigma}
    global_sum = Fraction(total, scale)
    per_point = list(dict.fromkeys(
        1 / k + c - Fraction(1, lam) for k, c in zip(by_sigma.values(), inverse.values())))
    sigmas = sorted(by_sigma)  # kappa grows with sigma_i
    identities = [
        _equal("monomial_resubstitution_mismatches", QQ, mismatches, 0),
        same("degree_from_kappa", listed(dict(zip(point_degrees, point_degrees)), point_degrees),
             listed(degree)),
        same("point_reciprocal_sum", listed(point_sums), listed(inverse)),
        Identity("global_reciprocal_sum", QQ.format(global_sum), _format_list(QQ, per_point),
                 per_point == [global_sum]),
        Identity("kappa_value_count", str(len(sigmas)), "1 or 2", len(sigmas) <= 2),
    ]
    coefficients = listed(by_sigma)
    details = {"n": n, "lambda": lam, "kappa_values": listed(by_sigma, sigmas),
               "degrees": point_degrees}

    degree_set = sorted(set(point_degrees))
    rs = [degree[s] for s in sigmas]
    if len(rs) == 1:
        details.update(alternative="A", r=QQ.format(rs[0]))
        identities.append(_equal("uniform_size_equals_degree", QQ, sorted(set(sizes)), rs))
        identities.append(_equal("degrees_uniform", QQ, degree_set, rs))
    elif len(rs) == 2:
        details.update(alternative="B", r=QQ.format(rs[1]), r_prime=QQ.format(rs[0]))
        identities.append(_equal("kappa_pair_sum", QQ, sum(by_sigma.values()), 1))
        identities.append(_equal("degree_pair_sum", QQ, sum(rs), n + 1))
        identities.append(_equal("degrees_take_both_values", QQ, degree_set, rs))
    else:
        details["alternative"] = "none"

    return _certificate("ryser", hypotheses, coefficients, identities, details)
