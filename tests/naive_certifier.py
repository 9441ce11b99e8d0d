"""Reference certifiers for the differential tests: `hamming_tight_certificate`
and `ryser_decompose` as they ran before their hot loops moved onto
integers, and the matrix loader as it was before it parsed each distinct
literal once (`load_matrix`, one `field.parse` per entry).  The hamming-tight pair check and member sums loop over tuples
with `hamming_distance`, each indicator solves a q x q Vandermonde system
(`indicator_poly`), and the combination is re-expanded entry by entry;
Ryser's kappa has its own closed form here (`_fisher_kappa`), so the
differential test does not share the code it checks, and its reciprocal
sums add one `Fraction` per incidence and evaluate every kappa-dependent
value once per point; degrees walk the set bits of every mask.  Slow and
simple on purpose."""

import math
from fractions import Fraction

from basisbound.certifier import Identity, _certificate, _equal, _format_list
from basisbound.errors import HypothesisViolationError, MalformedInputError
from basisbound.exactfield import QQ, ExactMatrix, PrimeFieldCtx, QuadExtField, solve_linear
from basisbound.families import hamming_distance, json_int, set_bits


def degrees(family):
    out = [0] * family.n
    for m in family.masks:
        for i in set_bits(m):
            out[i] += 1
    return out


def _fisher_kappa(members, excess, lam, n):
    """kappa = lambda A^{-1} 1 by Fisher's identity and Sherman-Morrison:
    kappa_i = lambda sigma_i / (1 + lambda S), with sigma_i and S the sums
    of 1/d_j (`excess`) over the members through i and over all members,
    kept as integers over the common multiple of the d_j."""
    scale = math.lcm(*excess)
    weights = [scale // d for d in excess]
    sigma = [0] * n
    for member, w in zip(members, weights):
        for i in member:
            sigma[i] += w
    denom = scale + lam * sum(weights)
    return [Fraction(lam * s, denom) for s in sigma]


def indicator_poly(a, q, p):
    """Coefficients over F_p of the minimal-degree polynomial that is 0 at
    a and 1 at every other point of [0, q-1]: the solution of the q x q
    Vandermonde system on the nodes 0..q-1, trailing zeros trimmed."""
    if p.p < q:
        raise HypothesisViolationError(f"need p >= q, got p={p.p}, q={q}", clause="pGeqQ")
    if not 0 <= a < q:
        raise MalformedInputError(f"symbol {a} outside [0, {q - 1}]")
    vandermonde = ExactMatrix(p, [[pow(t, k, p.p) for k in range(q)] for t in range(q)])
    coeffs = solve_linear(vandermonde, [int(t != a) for t in range(q)])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def hamming_tight_certificate(system, p, lam):
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

    alpha = -pow(lam_res, -1, p_value) % p_value
    coefficients = [ctx.format(alpha)] * member_count
    identities = [
        _equal("evaluation_matrix_nonsingular", QQ, member_count, member_count),
        _equal("coefficients_equal_minus_inverse_lambda", ctx, [alpha], [alpha]),
    ]
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


def ryser_decompose(family, lam):
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

    denom = math.lcm(*(k.denominator for k in kappa))
    ints = [k.numerator * (denom // k.denominator) for k in kappa]
    mismatches = sum(1 for m in members if sum(ints[i] for i in m) != lam * denom)
    identities = [
        _equal("monomial_resubstitution_mismatches", QQ, mismatches, 0),
        _equal("degree_from_kappa", QQ, point_degrees, [k * (n - 1) + 1 for k in kappa]),
    ]

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


def load_matrix(doc):
    """`cli._load_matrix` with every entry parsed on its own, in row-major
    order, through `field.parse(str(entry))`."""
    try:
        field_doc = doc["field"]
        kind = field_doc["kind"]
        entries = doc["entries"]
        if kind == "rational":
            field = QQ
        elif kind == "prime":
            field = PrimeFieldCtx(json_int(field_doc, "p"))
        elif kind == "quadratic":
            field = QuadExtField(json_int(field_doc, "d"))
        else:
            raise MalformedInputError(f"unknown field kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"bad matrix document: {exc}") from exc
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise MalformedInputError("matrix entries must be a list of rows")
    return ExactMatrix(field, [[field.parse(str(x)) for x in row] for row in entries])
