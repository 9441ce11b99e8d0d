"""One-shot acceptance suite: every criterion the package must satisfy,
runnable from the CLI (`basisbound verify`) and mirrored one-to-one by
tests/test_acceptance.py.  Each criterion returns (passed, detail)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .bounds import check_mod_distance_hypotheses, delsarte_bound
from .certifier import (
    certify_independence,
    hamming_tight_certificate,
    mod_design_certificate,
    neumaier_check,
    ryser_decompose,
    two_distance_certificate,
)
from .constructions import (
    fano_plane,
    hadamard_plus_full,
    johnson_pairs,
    lambda_design_type1,
    near_pencil,
    pentagon,
    projective_plane,
    schlafli27,
)
from .exactfield import ExactMatrix, PrimeFieldCtx, inertia_psd_rank
from .families import constant_vector_distance_sum, distance_set
from .search import PRED_DIST_CONST, PRED_DIST_MOD, PRED_DIST_SET, SearchProblem, search_max


def hadamard_counterexample():
    for v in (1, 2, 3):
        family = hadamard_plus_full(v)
        n = 4 * v - 1
        if len(family) != 4 * v or family.n != n:
            return False, f"v={v}: size {len(family)} != 4v"
        distances = distance_set(family.to_vector_system())
        if distances != (2 * v,):
            return False, f"v={v}: distances {distances} not constant 2v"
    result = search_max(SearchProblem(3, 2, PRED_DIST_CONST, lam=2))
    if result.max_size != 4:
        return False, f"search(n=3, q=2, d=2) gave {result.max_size}, expected 4"
    return True, "sizes 4v = n+1 at constant distance 2v; searched maximum is exactly 4"


def mod_distance_bound_sweep():
    checked = 0
    tight = []
    for n, q, p in product(range(1, 5), (2, 3), (3, 5, 7)):
        for lam in range(1, p):
            verdict = check_mod_distance_hypotheses(n, q, p, lam)
            if not verdict.holds:
                continue
            result = search_max(SearchProblem(n, q, PRED_DIST_MOD, lam=lam, p=p))
            checked += 1
            if result.max_size > verdict.bound:
                return False, (
                    f"violation at (n={n}, q={q}, p={p}, lambda={lam}): "
                    f"{result.max_size} > {verdict.bound}"
                )
            if result.max_size == verdict.bound:
                tight.append((n, q, p, lam))
    anchor = search_max(SearchProblem(4, 2, PRED_DIST_MOD, lam=2, p=3))
    if anchor.max_size != 4:
        return False, f"anchor row (4,2,3,2) gave {anchor.max_size}, expected 4"
    if not tight:
        return False, "no tight row found in the sweep"
    return True, f"{checked} grid points within bound; {len(tight)} tight, anchor max = 4"


def max_with_distance_count(n: int, q: int, s: int) -> int:
    """Exact maximum size of a system with at most s distinct pairwise
    distances: the maximum over all distance sets L of size s."""
    best = 0
    for allowed in combinations(range(1, n + 1), min(s, n)):
        result = search_max(SearchProblem(n, q, PRED_DIST_SET, allowed=allowed))
        best = max(best, result.max_size)
    return best


def distance_count_bound_sweep():
    checked = 0
    for n, q in product(range(1, 5), (2, 3)):
        for s in (1, 2):
            if s > n:
                continue
            exact = max_with_distance_count(n, q, s)
            bound = delsarte_bound(n, q, s)
            checked += 1
            if exact > bound:
                return False, f"violation at (n={n}, q={q}, s={s}): {exact} > {bound}"
    return True, f"{checked} (n, q, s) points within the Delsarte bound"


def constant_vector_distance_sums():
    for n, q, p in ((3, 2, 5), (3, 3, 5), (4, 3, 5)):
        ctx = PrimeFieldCtx(p)
        expected = n * (q - 1) % p
        for f in product(range(q), repeat=n):
            got = constant_vector_distance_sum(f, q, ctx)
            if got != expected:
                return False, f"(n={n}, q={q}, p={p}), f={f}: {got} != {expected}"
    return True, "sum over constant vectors is n(q-1) mod p on all q^n tuples"


def hamming_tight_certificates():
    for v, p, lam in ((1, 5, 2), (2, 7, 4)):
        system = hadamard_plus_full(v).to_vector_system()
        cert = hamming_tight_certificate(system, p, lam)
        if not cert.passed:
            return False, f"v={v}: verdict {cert.verdict}"
        expected_alpha = str((-pow(lam, p - 2, p)) % p)
        if set(cert.coefficients) != {expected_alpha}:
            return False, f"v={v}: coefficients {set(cert.coefficients)} != -1/lambda"
        if not cert.identity("tightness_congruence").holds:
            return False, f"v={v}: tightness congruence failed"
    return True, "coefficients are -1/lambda and the forced congruence holds mod p"


def two_distance_certificates():
    cert = two_distance_certificate(pentagon())
    relation = cert.identity("maximal_two_distance_relation")
    if not (cert.passed and relation.left == relation.right == "5/4"):
        return False, f"pentagon: verdict {cert.verdict}, relation {relation}"
    for name in ("coordinate_axis_sums_vanish", "coordinate_norm_total"):
        if not cert.identity(name).holds:
            return False, f"pentagon: {name} failed"
    cert = two_distance_certificate(schlafli27())
    relation = cert.identity("maximal_two_distance_relation")
    if not (cert.passed and relation.left == relation.right == "9/8"):
        return False, f"27 lines: verdict {cert.verdict}, relation {relation}"
    is_psd, rank = inertia_psd_rank(schlafli27().gram)
    if not (is_psd and rank == 6):
        return False, f"27 lines: psd {is_psd}, rank {rank}"
    return True, "relation sides 5/4 and 9/8 match exactly; 27-line Gram is PSD of rank 6"


def neumaier_ratio():
    jp = johnson_pairs(6)
    d1sq, d2sq = sorted((2 - 2 * jp.value_a, 2 - 2 * jp.value_b))
    cert = neumaier_check(jp.affine_dim, jp.count, d1sq, d2sq)
    if not (cert.passed and cert.details.get("m") == 2):
        return False, f"johnson: verdict {cert.verdict}, m {cert.details.get('m')}"
    pent = pentagon()
    cert = neumaier_check(pent.n, pent.count, 2 - 2 * pent.value_a, 2 - 2 * pent.value_b)
    if cert.verdict != "not-applicable":
        return False, f"pentagon: verdict {cert.verdict}, expected not-applicable"
    return True, "johnson ratio 1/2 gives m = 2; pentagon below the size threshold"


def mod_design_certificates():
    cert = mod_design_certificate(fano_plane(), 5)
    if not cert.passed:
        return False, f"fano p=5: verdict {cert.verdict}"
    design = lambda_design_type1(projective_plane(11), 0)
    cert = mod_design_certificate(design, 5)
    if not cert.passed:
        return False, f"PG(2,11) lambda-design p=5: verdict {cert.verdict}"
    residues = (cert.details["n"] % 5, cert.details["k_residue"], cert.details["lambda_residue"])
    if residues != (3, 2, 1):
        return False, f"residues {residues} != (3, 2, 1)"
    return True, "fano and the PG(2,11) lambda-design satisfy both congruences"


def ryser_dichotomy():
    cert = ryser_decompose(fano_plane(), 1)
    if not (
        cert.passed
        and cert.details["alternative"] == "A"
        and cert.details["kappa_values"] == ["1/3"]
        and cert.details["r"] == "3"
    ):
        return False, f"fano: {cert.verdict}, details {cert.details}"
    for n in range(4, 9):
        cert = ryser_decompose(near_pencil(n), 1)
        if not (cert.passed and cert.details["alternative"] == "B"):
            return False, f"near-pencil {n}: {cert.verdict}, {cert.details}"
        r = Fraction(cert.details["r"])
        r_prime = Fraction(cert.details["r_prime"])
        if r + r_prime != n + 1:
            return False, f"near-pencil {n}: r + r' = {r + r_prime} != {n + 1}"
        for name in ("point_reciprocal_sum", "global_reciprocal_sum"):
            if not cert.identity(name).holds:
                return False, f"near-pencil {n}: {name} failed"
        if len(cert.details["kappa_values"]) > 2:
            return False, f"near-pencil {n}: more than two kappa values"
    return True, "fano is alternative A (kappa 1/3, r 3); near-pencils are B with r + r' = n+1"


def independence_oracle_equivalence():
    import random

    def brute_independent(rows, p):
        m = len(rows)
        for combo in product(range(p), repeat=m):
            if not any(combo):
                continue
            if all(
                sum(c * row[t] for c, row in zip(combo, rows)) % p == 0
                for t in range(m)
            ):
                return False
        return True

    ctx2 = PrimeFieldCtx(2)
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        cert = certify_independence(ExactMatrix(ctx2, rows))
        if cert.passed != brute_independent(rows, 2):
            return False, f"disagreement on F_2 matrix {rows}"
    ctx5 = PrimeFieldCtx(5)
    rng = random.Random(20260811)
    for _ in range(200):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
        cert = certify_independence(ExactMatrix(ctx5, rows))
        if cert.passed != brute_independent(rows, 5):
            return False, f"disagreement on F_5 matrix {rows}"
    return True, "matches brute-force enumeration on 512 F_2 and 200 random F_5 matrices"


CRITERIA = (
    ("hadamard-counterexample", hadamard_counterexample),
    ("mod-distance-bound-sweep", mod_distance_bound_sweep),
    ("distance-count-bound-sweep", distance_count_bound_sweep),
    ("constant-vector-distance-sum", constant_vector_distance_sums),
    ("hamming-tight-certificates", hamming_tight_certificates),
    ("two-distance-certificates", two_distance_certificates),
    ("neumaier-ratio", neumaier_ratio),
    ("mod-design-certificates", mod_design_certificates),
    ("ryser-dichotomy", ryser_dichotomy),
    ("independence-oracle-equivalence", independence_oracle_equivalence),
)


def run_suite(filter_substring: str | None = None, log=None):
    """Run every matching criterion; returns the result rows."""
    rows = []
    for index, (slug, fn) in enumerate(CRITERIA, start=1):
        if filter_substring and filter_substring not in slug:
            continue
        passed, detail = fn()
        rows.append({"index": index, "criterion": slug, "passed": passed, "detail": detail})
        if log is not None:
            log(f"{'PASS' if passed else 'FAIL'}  {index:2d} {slug}: {detail}")
    return rows
