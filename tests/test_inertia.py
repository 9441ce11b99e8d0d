"""Differential test of `inertia_psd_rank` against the pivoted LDL^T it
replaced (`naive_inertia`) and against sympy, on seeded random symmetric
matrices over Q and Q(sqrt d) for d = 2, 5, 13: PSD matrices of every rank, zero rows and
columns at any index, indefinite matrices, and zero diagonals under nonzero
off-diagonal entries."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

import naive_inertia
from basisbound.exactfield import QQ, ExactMatrix, QuadExt, QuadExtField, inertia_psd_rank

FIELDS = [QQ, QuadExtField(2), QuadExtField(5), QuadExtField(13)]
KINDS = ("psd", "zero-line", "indefinite", "zero-diagonal")


def _scalar(rng, field):
    rat = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    if field == QQ or rng.random() < 0.4:
        return field.coerce(rat)
    return QuadExt(rat, Fraction(rng.randint(-2, 2), rng.choice((1, 2))), field.d)


def _psd(rng, field, n, r):
    """B B^T for a random n x r matrix B: PSD of rank at most r."""
    b = [[_scalar(rng, field) for _ in range(r)] for _ in range(n)]
    return [[sum(map(operator.mul, u, v), field.zero) for v in b] for u in b]


def _symmetric(rng, field, n):
    h = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
    return [[h[i][j] + h[j][i] for j in range(n)] for i in range(n)]


def _random_case(rng, field, kind, n):
    if kind == "psd":
        return _psd(rng, field, n, rng.randint(0, n))
    if kind == "zero-line":
        inner = _psd(rng, field, n - 1, rng.randint(0, n - 1)) if rng.random() < 0.5 else (
            _symmetric(rng, field, n - 1)
        )
        at = rng.randrange(n)
        rows = [r[:at] + [field.zero] + r[at:] for r in inner]
        return rows[:at] + [[field.zero] * n] + rows[at:]
    rows = _symmetric(rng, field, n)
    if kind == "zero-diagonal":
        for i in range(n):
            rows[i][i] = field.zero
    return rows


def _cases(field, seed, count):
    rng = random.Random(seed)
    for t in range(count):
        kind = KINDS[t % len(KINDS)]
        n = rng.randint(2 if kind == "zero-line" else 1, 6)
        yield kind, ExactMatrix(field, _random_case(rng, field, kind, n))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inertia_matches_ldlt_reference(field):
    seen = {kind: set() for kind in KINDS}
    for kind, m in _cases(field, 19, 400):
        got = inertia_psd_rank(m)
        assert got == naive_inertia.inertia_psd_rank(m), (kind, m.entries)
        seen[kind].add(got)
    # Every PSD rank from 0 to 6 occurs, and the indefinite kinds really are.
    assert {rk for psd, rk in seen["psd"] if psd} == set(range(7))
    assert any(not psd for psd, _ in seen["indefinite"])
    assert all(not psd or rk == 0 for psd, rk in seen["zero-diagonal"])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inertia_matches_sympy(field):
    """PSD iff every principal minor is nonnegative; the rank is sympy's."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    dom = sympy.QQ if field == QQ else sympy.QQ.algebraic_field(sympy.sqrt(field.d))

    def element(x):
        if field == QQ:
            return dom(x.numerator, x.denominator)
        return dom([sympy.QQ(x.surd.numerator, x.surd.denominator),
                    sympy.QQ(x.rat.numerator, x.rat.denominator)])

    for kind, m in _cases(field, 29, 80):
        n = m.nrows
        ref = DomainMatrix([[element(x) for x in r] for r in m.entries], (n, n), dom)
        minors_nonnegative = all(
            sympy.sign(dom.to_sympy(ref.extract(list(s), list(s)).det())) >= 0
            for k in range(1, n + 1)
            for s in itertools.combinations(range(n), k)
        )
        assert inertia_psd_rank(m) == (minors_nonnegative, ref.rank()), (kind, m.entries)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, 0], [0, 1]], (True, 1)),
        ([[0, 1], [1, 0]], (False, 2)),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], (True, 1)),
        ([[-1, 0], [0, -1]], (False, 2)),
        ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], (True, 1)),
    ],
)
def test_inertia_named_cases(field, rows, expected):
    """A zero leading row does not make a PSD matrix indefinite."""
    assert inertia_psd_rank(ExactMatrix(field, rows)) == expected
