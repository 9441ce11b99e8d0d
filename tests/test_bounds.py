"""Closed-form bound calculators and the modular-distance hypothesis check."""

import json
import sys
from math import comb

import pytest

from basisbound.bounds import (
    check_mod_distance_hypotheses,
    delsarte_bound,
    msd_bound,
    two_distance_max,
    uniform_two_intersection_conjecture,
)
from basisbound.errors import HypothesisViolationError, MalformedInputError, ResourceGuardError


@pytest.mark.parametrize(
    "n,q,s,expected",
    [(4, 2, 4, 16), (3, 2, 1, 4), (2, 3, 2, 9), (10, 2, 2, 56)],
)
def test_delsarte_values(n, q, s, expected):
    assert delsarte_bound(n, q, s) == expected


def test_delsarte_full_distance_count_is_whole_space():
    for n in range(1, 7):
        for q in range(2, 5):
            assert delsarte_bound(n, q, n) == q**n


def test_delsarte_matches_binomial_sum():
    for n in range(1, 25):
        for q in (2, 3, 7, 2**70):
            for s in range(1, n + 1):
                expected = sum(comb(n, i) * (q - 1) ** i for i in range(s + 1))
                assert delsarte_bound(n, q, s) == expected


def test_delsarte_guards():
    with pytest.raises(HypothesisViolationError):
        delsarte_bound(3, 2, 0)
    with pytest.raises(HypothesisViolationError):
        delsarte_bound(3, 2, 4)
    with pytest.raises(HypothesisViolationError):
        delsarte_bound(3, 1, 1)


@pytest.mark.parametrize("n,s,expected", [(2, 2, 5), (6, 2, 27), (5, 1, 6)])
def test_msd_values(n, s, expected):
    assert msd_bound(n, s) == expected


def test_msd_s1_is_n_plus_1():
    for n in range(1, 20):
        assert msd_bound(n, 1) == n + 1


@pytest.mark.parametrize("n,expected", [(2, 5), (6, 27), (22, 275)])
def test_two_distance_max_values(n, expected):
    assert two_distance_max(n) == expected


def test_two_distance_max_matches_msd():
    for n in range(1, 51):
        assert two_distance_max(n) == msd_bound(n, 2)


@pytest.mark.parametrize("n,w,expected", [(6, 6, 1), (6, 3, 10), (5, 2, 10)])
def test_conjecture_values(n, w, expected):
    assert uniform_two_intersection_conjecture(n, w) == expected


def test_conjecture_guard():
    with pytest.raises(HypothesisViolationError):
        uniform_two_intersection_conjecture(3, 1)


def test_mod_distance_check_all_clauses_hold():
    verdict = check_mod_distance_hypotheses(4, 2, 3, 2)
    assert verdict.holds and verdict.bound == 4
    assert verdict.failing_clauses() == []


def test_mod_distance_check_q_lambda_clause_fails():
    # matches the existence of the size-4 constant-distance-2 family on [3]
    verdict = check_mod_distance_hypotheses(3, 2, 5, 2)
    assert not verdict.holds
    assert verdict.failing_clauses() == ["qLambdaClause"]
    assert verdict.bound is None


def test_mod_distance_check_clause_order():
    """The payload and failing_clauses() list the clauses in one fixed order."""
    verdict = check_mod_distance_hypotheses(4, 5, 4, 4)
    assert verdict.failing_clauses() == ["pPrime", "pGeqQ", "nNonzeroModP", "lambdaNonzeroModP"]
    assert json.dumps(verdict.to_json_dict()) == (
        '{"n": 4, "q": 5, "p": 4, "lambda": 4, "clauses": {"pPrime": false, "pGeqQ": false, '
        '"nNonzeroModP": false, "lambdaNonzeroModP": false, "qLambdaClause": true}, '
        '"holds": false, "bound": null}'
    )


def test_mod_distance_check_n_clause_fails():
    verdict = check_mod_distance_hypotheses(3, 2, 3, 1)
    assert "nNonzeroModP" in verdict.failing_clauses()


def test_mod_distance_check_guards():
    with pytest.raises(HypothesisViolationError):
        check_mod_distance_hypotheses(3, 1, 3, 1)
    with pytest.raises(HypothesisViolationError):
        check_mod_distance_hypotheses(3, 2, 3, 0)
    for p in (1, 0, -3):  # p = 0 used to raise ZeroDivisionError
        with pytest.raises(MalformedInputError, match="modulus must be at least 2"):
            check_mod_distance_hypotheses(3, 2, p, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_mod_distance_hypotheses(5, 2, 1000000000000000003, 1),
        lambda: check_mod_distance_hypotheses(5, 2, 1 << 31, 1),
        lambda: delsarte_bound(3000000, 2, 3000000),
        lambda: delsarte_bound(10000, 2**64, 10000),
        lambda: msd_bound(3000000, 3000000),
    ],
)
def test_costly_inputs_are_refused(call):
    """Each of these ran for more than ten seconds before it was guarded."""
    with pytest.raises(ResourceGuardError, match="exceeds the guard"):
        call()


def test_cheap_inputs_with_large_arguments_still_compute():
    big = 10**200
    assert delsarte_bound(big, 2, 1) == big + 1
    assert msd_bound(big, 2) == two_distance_max(big) == big * (big + 3) // 2
    assert check_mod_distance_hypotheses(5, 2, (1 << 31) - 1, 1).p_prime


def test_unprintable_bounds_are_refused():
    """A bound longer than the interpreter's int-to-str limit could not be
    printed in a report."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-to-str limit disabled")
    big = 10 ** (limit // 2 + 1)
    for call in (
        lambda: msd_bound(10000, 10000),
        lambda: two_distance_max(big),
        lambda: uniform_two_intersection_conjecture(big, 2),
        lambda: check_mod_distance_hypotheses(10**limit + 1, 2, 3, 1),
    ):
        with pytest.raises(ResourceGuardError, match="decimal digits"):
            call()
    # Without a bound to print, the clause-by-clause verdict is reported.
    verdict = check_mod_distance_hypotheses(10**limit + 2, 2, 3, 1)
    assert verdict.failing_clauses() == ["nNonzeroModP"]
