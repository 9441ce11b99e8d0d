"""Differential test of the Z[sqrt d] elimination path: det, rank, solve
and invert over Q(sqrt d) for d = 2, 3, 5, 13 (d mod 4 = 2, 3, 1, 1)
against a Gauss-Jordan on the field elements (pivot scaled to one,
the path these routines took before they ran fraction-free).  Entries
carry denominators in both parts; the cases include singular and
rank-deficient matrices, a zero first column, a zero leading entry that
forces a row swap, and 1x1 matrices.  test_exactfield_sympy.py and
test_inertia.py compare the same fields with sympy and with the LDL^T
reference; here the inertia's exact sign of irrational pivots is pinned."""

import random
from fractions import Fraction

import pytest

from basisbound.errors import SingularSystemError
from basisbound.exactfield import (
    ExactMatrix,
    QuadExt,
    QuadExtField,
    determinant,
    inertia_psd_rank,
    invert,
    rank,
    solve_linear,
)

RADICANDS = (2, 3, 5, 13)
SHAPES = ("regular", "deficient", "zero-column", "row-swap")


def reference_gauss_jordan(m: ExactMatrix, rhs_rows=None):
    """(rank, det, solution rows or None) by the elements' own arithmetic."""
    f, width = m.field, m.ncols
    rows = [r + (rhs_rows[i] if rhs_rows else []) for i, r in enumerate(m.entries)]
    rk, det = 0, f.one
    for col in range(width):
        found = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if found is None:
            continue
        if found != rk:
            rows[rk], rows[found] = rows[found], rows[rk]
            det = -det
        inverse = 1 / rows[rk][col]
        det *= rows[rk][col]
        rows[rk] = [x * inverse for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                head = rows[i][col]
                rows[i] = [x - head * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    if rk < m.nrows or m.nrows != width:
        return rk, f.zero, None
    return rk, det, [r[width:] for r in rows] if rhs_rows else None


def _scalar(rng, d):
    rat = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 9)))
    surd = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 5, 7)))
    return QuadExt(rat, surd if rng.random() < 0.7 else Fraction(0), d)


def _matrix(rng, field, n, shape):
    rows = [[_scalar(rng, field.d) for _ in range(n)] for _ in range(n)]
    if shape == "deficient" and n > 1:
        lo = rng.randrange(n - 1)
        c = _scalar(rng, field.d)
        rows[-1] = [x + c * y for x, y in zip(rows[lo], rows[-2])]
        rows[0], rows[-1] = rows[-1], rows[0]
    elif shape == "zero-column":
        for r in rows:
            r[0] = field.zero
    elif shape == "row-swap":
        rows[0][0] = field.zero
    return ExactMatrix(field, rows)


def _cases(d, seed, count):
    rng = random.Random(seed)
    field = QuadExtField(d)
    for t in range(count):
        shape = SHAPES[t % len(SHAPES)]
        yield shape, _matrix(rng, field, 1 + t % 6, shape), rng


@pytest.mark.parametrize("d", RADICANDS)
def test_square_routines_match_field_reference(d):
    seen = set()
    for shape, m, rng in _cases(d, 1000 + d, 48):
        n = m.nrows
        identity = [[m.field.one if i == j else m.field.zero for j in range(n)] for i in range(n)]
        ref_rank, ref_det, ref_inverse = reference_gauss_jordan(m, identity)
        assert rank(m) == ref_rank, (shape, m.entries)
        assert determinant(m) == ref_det, (shape, m.entries)
        rhs = [_scalar(rng, d) for _ in range(n)]
        if ref_inverse is None:
            seen.add("singular")
            with pytest.raises(SingularSystemError) as exc:
                invert(m)
            assert exc.value.rank == ref_rank
            continue
        seen.add("regular")
        assert invert(m).entries == ref_inverse, (shape, m.entries)
        ref_solution = reference_gauss_jordan(m, [[v] for v in rhs])[2]
        assert solve_linear(m, rhs) == [r[0] for r in ref_solution]
    assert seen == {"singular", "regular"}


@pytest.mark.parametrize("d", [2, 13])
def test_rectangular_rank_matches_reference(d):
    rng = random.Random(d)
    field = QuadExtField(d)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[_scalar(rng, d) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
        m = ExactMatrix(field, rows)
        assert rank(m) == reference_gauss_jordan(m)[0], m.entries


@pytest.mark.parametrize("d", [2, 13])
def test_inertia_sign_of_irrational_pivots(d):
    """Pivots whose two parts have opposite signs: 1 - sqrt(d)/4 > 0 for
    d < 16, while -1 + sqrt(d)/4 < 0; (sqrt d - 1)^2 scaled keeps PSD."""
    f = QuadExtField(d)
    pos = QuadExt(Fraction(1), Fraction(-1, 4), d)
    assert inertia_psd_rank(ExactMatrix(f, [[pos]])) == (True, 1)
    assert inertia_psd_rank(ExactMatrix(f, [[-pos]])) == (False, 1)
    v = [QuadExt(Fraction(-1), Fraction(1), d), QuadExt(Fraction(1, 3), Fraction(0), d)]
    outer = [[x * y for y in v] for x in v]
    assert inertia_psd_rank(ExactMatrix(f, outer)) == (True, 1)
