"""Differential test of the exact elimination routines against sympy's
DomainMatrix: rank, determinant, solve and inverse over Q, GF(p) and
Q(sqrt d) for d = 2, 3, 5, 13 (d mod 4 = 2, 3, 1, 1) on seeded random
matrices, including entries with denominators, singular and rank-deficient
square inputs and non-square inputs for rank."""

import functools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from basisbound.errors import SingularSystemError  # noqa: E402
from basisbound.exactfield import (  # noqa: E402
    QQ,
    ExactMatrix,
    PrimeFieldCtx,
    QuadExt,
    QuadExtField,
    determinant,
    invert,
    rank,
    solve_linear,
)


def _random_scalar(rng, field):
    if isinstance(field, PrimeFieldCtx):
        return rng.randrange(field.p)
    rat = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
    if field == QQ:
        return rat
    if rng.random() < 0.3:
        return QuadExt(rat, Fraction(0), field.d)
    return QuadExt(rat, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))), field.d)


def _random_matrix(rng, field, nrows, ncols, deficiency=0):
    """Random matrix whose last `deficiency` rows are combinations of the
    others, so its rank is at most nrows - deficiency."""
    free = nrows - deficiency
    rows = [[_random_scalar(rng, field) for _ in range(ncols)] for _ in range(free)]
    for _ in range(deficiency):
        combo = [field.coerce(_random_scalar(rng, field)) for _ in range(free)]
        rows.append([sum((c * r[j] for c, r in zip(combo, rows)), field.zero)
                     for j in range(ncols)])
    rng.shuffle(rows)
    return ExactMatrix(field, rows)


@functools.cache
def _domain(field):
    if field == QQ:
        return sympy.QQ
    if isinstance(field, PrimeFieldCtx):
        return sympy.GF(field.p)
    return sympy.QQ.algebraic_field(sympy.sqrt(field.d))


def _to_sympy(field, x):
    dom = _domain(field)
    if field == QQ:
        return dom(x.numerator, x.denominator)
    if isinstance(field, PrimeFieldCtx):
        return dom(x)
    # Coefficients of the generator sqrt(d), highest power first.
    return dom([sympy.QQ(x.surd.numerator, x.surd.denominator),
                sympy.QQ(x.rat.numerator, x.rat.denominator)])


def _to_domain_matrix(m: ExactMatrix):
    dom = _domain(m.field)
    rows = [[_to_sympy(m.field, x) for x in r] for r in m.entries]
    return DomainMatrix(rows, (m.nrows, m.ncols), dom)


FIELDS = [QQ, PrimeFieldCtx(2), PrimeFieldCtx(7), PrimeFieldCtx(101)] + [
    QuadExtField(d) for d in (2, 3, 5, 13)
]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rank_matches_sympy(field):
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, nrows, ncols, rng.randint(0, nrows - 1))
        assert rank(m) == _to_domain_matrix(m).rank(), m.entries


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_square_routines_match_sympy(field):
    """det, solve and invert on square inputs, about half of them singular;
    a singular input raises SingularSystemError carrying sympy's rank."""
    rng = random.Random(23)
    singular_seen = regular_seen = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        deficiency = rng.choice((0, 0, 1, min(2, n - 1) if n > 1 else 0))
        m = _random_matrix(rng, field, n, n, deficiency)
        ref = _to_domain_matrix(m)
        ref_rank = ref.rank()
        assert _to_sympy(field, field.coerce(determinant(m))) == ref.det()
        rhs = [_random_scalar(rng, field) for _ in range(n)]
        if ref_rank < n:
            singular_seen += 1
            for call in (lambda: invert(m), lambda: solve_linear(m, rhs)):
                with pytest.raises(SingularSystemError) as exc:
                    call()
                assert exc.value.rank == ref_rank
            continue
        regular_seen += 1
        assert _to_domain_matrix(invert(m)) == ref.inv()
        b = DomainMatrix([[_to_sympy(field, field.coerce(v))] for v in rhs], (n, 1), ref.domain)
        x = solve_linear(m, rhs)
        assert DomainMatrix([[_to_sympy(field, v)] for v in x], (n, 1), ref.domain) == ref.lu_solve(b)
    assert singular_seen and regular_seen


def test_rational_row_scaling_with_large_denominators():
    """Rows with unrelated large denominators exercise the row-by-row
    clearing and its undoing, M^-1 = (DM)^-1 D."""
    rng = random.Random(5)
    for n in range(1, 8):
        rows = [
            [Fraction(rng.randint(-50, 50), rng.choice((1, 7, 97, 1024, 3 ** 9))) for _ in range(n)]
            for _ in range(n)
        ]
        m = ExactMatrix(QQ, rows)
        ref = _to_domain_matrix(m)
        assert _to_sympy(QQ, determinant(m)) == ref.det()
        if ref.rank() == n:
            assert _to_domain_matrix(invert(m)) == ref.inv()
