"""Exact scalar arithmetic and matrix routines."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basisbound import exactfield
from basisbound.errors import InternalInconsistencyError, MalformedInputError, SingularSystemError
from basisbound.exactfield import (
    QQ,
    ExactMatrix,
    PrimeFieldCtx,
    QuadExt,
    QuadExtField,
    determinant,
    inertia_psd_rank,
    invert,
    rank,
    scalar_field,
    solve_linear,
)

F5 = QuadExtField(5)


def quad(r, s):
    return QuadExt(Fraction(r), Fraction(s), 5)


# -- scalar syntax ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Fraction(3)),
        ("-7/2", Fraction(-7, 2)),
        ("0", Fraction(0)),
    ],
)
def test_rational_parse_format_roundtrip(text, value):
    assert QQ.parse(text) == value
    assert QQ.parse(QQ.format(value)) == value


@pytest.mark.parametrize(
    "text",
    ["-1/4+1/4*sqrt(5)", "-1/4-1/4*sqrt(5)", "1*sqrt(5)", "-1*sqrt(5)", "3/2", "0"],
)
def test_quadratic_parse_format_roundtrip(text):
    x = F5.parse(text)
    assert F5.parse(F5.format(x)) == x


def test_quadratic_format_canonical():
    assert F5.format(quad(Fraction(-1, 4), Fraction(1, 4))) == "-1/4+1/4*sqrt(5)"
    assert F5.format(quad(0, Fraction(-1, 4))) == "-1/4*sqrt(5)"
    assert F5.format(quad(Fraction(5, 4), 0)) == "5/4"


@pytest.mark.parametrize("text", ["sqrt(7)", "1/4*sqrt(10)+1", "1/0", "x", "1 2"])
def test_bad_scalar_literals_rejected(text):
    with pytest.raises(MalformedInputError):
        F5.parse(text)


def test_prime_field_parse_range():
    p5 = PrimeFieldCtx(5)
    assert p5.parse("4") == 4
    with pytest.raises(MalformedInputError):
        p5.parse("5")
    with pytest.raises(MalformedInputError):
        p5.parse("-1")


def test_prime_field_requires_prime():
    with pytest.raises(MalformedInputError):
        PrimeFieldCtx(6)
    with pytest.raises(MalformedInputError):
        PrimeFieldCtx(1)


# -- quadratic arithmetic ---------------------------------------------------


def test_quadratic_sign_exact():
    # sqrt(5) is between 2 and 3: 9/4 - sqrt(5) > 0 but 2 - sqrt(5) < 0
    assert quad(Fraction(9, 4), -1).sign() == 1
    assert quad(2, -1).sign() == -1
    assert quad(-2, 1).sign() == 1
    assert quad(Fraction(-9, 4), 1).sign() == -1
    assert quad(0, 0).sign() == 0
    # Against sympy's sign of a + b*sqrt(d) on drawn rationals; half the
    # rational parts are rounded multiples of b*sqrt(d), so a^2 is close to
    # b^2 d and only the exact comparison decides.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(26)
    for _ in range(600):
        d = rng.choice((2, 3, 5, 6, 7, 13))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if rng.random() < 0.5:
            den = rng.randint(1, 10**6)
            a = -Fraction(round(float(b) * d**0.5 * den), den) * rng.choice((1, -1))
        else:
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        expected = sympy.sign(sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(d))
        assert QuadExt(a, b, d).sign() == expected, (a, b, d)


def test_quadratic_mixed_radicands_error():
    with pytest.raises(MalformedInputError):
        quad(1, 1) + QuadExt(Fraction(1), Fraction(1), 7)


def test_quadratic_radicand_must_be_squarefree():
    # 2^31 + 11 and 10^14 + 31 are squarefree but above the word-sized bound;
    # they are refused before any trial division.
    for d in (12, 9, 1, 0, -5, 2**31 + 11, 10**14 + 31):
        with pytest.raises(MalformedInputError):
            QuadExtField(d)


def test_scalar_field_joins_q_and_one_radicand():
    assert scalar_field(["1/2", "-3", 2, Fraction(1, 3)]) == QQ
    assert scalar_field([]) == QQ
    assert scalar_field(["1", "2-1/2*sqrt(5)", quad(1, 1)]) == F5
    assert scalar_field([Fraction(1), QuadExt(Fraction(0), Fraction(1), 2)]) == QuadExtField(2)
    for bad in (["sqrt(2)", "sqrt(3)"], [quad(0, 1), "sqrt(7)"], ["sqrt(4)"], [1.5], [True], [None]):
        with pytest.raises(MalformedInputError):
            scalar_field(bad)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
quads = st.builds(quad, rationals, rationals)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@settings(max_examples=200)
@given(quads, quads, quads)
def test_quadratic_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == F5.one


@given(st.integers(-100, 100) | rationals, quads.filter(bool))
def test_mixed_operands_act_as_coerced(x, y):
    """An int or Fraction on the left of a QuadExt (QuadExt's reflected
    operators), or compared with one, acts as its image in Q(sqrt 5)."""
    image = F5.coerce(x)
    assert x + y == image + y
    assert x - y == image - y
    assert x * y == image * y
    assert x / y == image / y
    assert (y == x) == (y == image)


# -- rank -------------------------------------------------------------------


def test_rank_identity_rational():
    assert rank(ExactMatrix.identity(QQ, 3)) == 3


def test_rank_repeated_rows_mod2():
    g = PrimeFieldCtx(2)
    assert rank(ExactMatrix(g, [[1, 1], [1, 1]])) == 1


def test_rank_of_27_line_gram_is_6():
    from basisbound.constructions import schlafli27

    gram = schlafli27().gram
    assert rank(gram) == 6

    # independent oracle: floating eigenvalues of the same matrix
    numpy = pytest.importorskip("numpy")
    dense = numpy.array([[float(x) for x in row] for row in gram.entries])
    eigenvalues = numpy.linalg.eigvalsh(dense)
    assert int((abs(eigenvalues) > 1e-8).sum()) == 6


def _span_size(rows, p, width):
    span = {(0,) * width}
    for row in rows:
        new = set()
        for base in span:
            for c in range(1, p):
                new.add(tuple((b + c * r) % p for b, r in zip(base, row)))
        span |= new
    return len(span)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_matches_row_span_enumeration(p):
    """Elimination rank equals brute-force row-subspace dimension."""
    import random

    rng = random.Random(p * 1009)
    ctx = PrimeFieldCtx(p)
    for _ in range(40):
        size = rng.randint(1, 4)
        rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        r = rank(ExactMatrix(ctx, rows))
        assert p**r == _span_size(rows, p, size)


# -- solve ------------------------------------------------------------------


def test_solve_identity():
    x = solve_linear(ExactMatrix.identity(QQ, 3), [1, 2, 3])
    assert x == [1, 2, 3]


def test_solve_diagonal_product_system():
    # diag((1-a)(1-b)) alpha = 1 with the pentagon's inner products: each
    # coefficient is 1/((1-a)(1-b)) = 4/5 since (1-a)(1-b) = 5/4
    a = quad(Fraction(-1, 4), Fraction(1, 4))
    b = quad(Fraction(-1, 4), Fraction(-1, 4))
    d = (F5.one - a) * (F5.one - b)
    m = ExactMatrix(F5, [[d if i == j else F5.zero for j in range(3)] for i in range(3)])
    alpha = solve_linear(m, [F5.one] * 3)
    assert all(x == d.inverse() for x in alpha)
    assert F5.format(alpha[0]) == "4/5"


def test_solve_fano_incidence_gives_uniform_kappa():
    """Row sums of the inverted Fano incidence are all 1/3."""
    from basisbound.constructions import fano_plane

    fam = fano_plane()
    a = ExactMatrix(QQ, [[m >> i & 1 for i in range(7)] for m in fam.masks])
    theta = invert(a)
    kappa = [sum(row) for row in theta.entries]
    assert kappa == [Fraction(1, 3)] * 7
    # consistency: degree r = kappa (n-1) + 1 = 3
    assert all(k * 6 + 1 == 3 for k in kappa)


def test_solve_singular_reports_rank():
    with pytest.raises(SingularSystemError) as err:
        solve_linear(ExactMatrix(QQ, [[1, 1], [1, 1]]), [1, 2])
    assert err.value.rank == 1


def test_solve_resubstitutes_exactly():
    import random

    rng = random.Random(11)
    for _ in range(25):
        size = rng.randint(1, 5)
        m = ExactMatrix(
            QQ,
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)
            ],
        )
        rhs = [Fraction(rng.randint(-6, 6)) for _ in range(size)]
        try:
            x = solve_linear(m, rhs)
        except SingularSystemError:
            continue
        for i in range(size):
            assert sum(m.entries[i][j] * x[j] for j in range(size)) == rhs[i]


@pytest.mark.parametrize(
    "field, shift",
    [(QQ, Fraction(1, 10**12)), (QQ, Fraction(-3)), (PrimeFieldCtx(7), 1), (F5, quad(0, 1))],
    ids=["Q-tiny", "Q", "GF7", "Q(sqrt5)"],
)
def test_resubstitution_catches_a_perturbed_solution(monkeypatch, field, shift):
    """With one entry of the solver's answer moved, solve_linear raises
    instead of returning it: in every field the check compares each coerced
    row sum with its right-hand side."""
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    rhs = [1, 2, 3]
    if field == QQ:  # a different denominator in each row
        rows = [[Fraction(x, 3 + i) for x in r] for i, r in enumerate(rows)]
        rhs[1] = Fraction(1, 2)
    m = ExactMatrix(field, rows)
    solve_linear(m, rhs)
    real = exactfield._solve

    def perturbed(matrix, rhs_rows):
        rows = real(matrix, rhs_rows)
        rows[1][0] = rows[1][0] + shift
        return rows

    monkeypatch.setattr(exactfield, "_solve", perturbed)
    with pytest.raises(InternalInconsistencyError):
        solve_linear(m, rhs)


def test_determinant_matches_cofactor_expansion():
    import random

    def cofactor(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor(minor)
        return total

    rng = random.Random(23)
    for _ in range(20):
        size = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
            for _ in range(size)
        ]
        assert determinant(ExactMatrix(QQ, rows)) == cofactor(rows)


# -- F_p routines against textbook elimination ------------------------------


def _naive_mod_p(rows, p, nrhs=0):
    """(rank, det, solution, reduced) of the first len(row) - nrhs columns
    of `rows` by textbook Gauss-Jordan mod p, one reduced entry at a time:
    det and solution are None unless those columns form a nonsingular
    square, and `reduced` is the eliminated matrix."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) - nrhs if rows else 0
    rk, det = 0, 1
    for col in range(width):
        found = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        if found != rk:
            rows[rk], rows[found] = rows[found], rows[rk]
            det = -det
        pivot = rows[rk][col]
        det = det * pivot % p
        rows[rk] = [x * pow(pivot, -1, p) % p for x in rows[rk]]
        for i, row in enumerate(rows):
            if i != rk and row[col]:
                rows[i] = [(a - row[col] * b) % p for a, b in zip(row, rows[rk])]
        rk += 1
    if rk < len(rows) or len(rows) != width:
        return rk, None, None, rows
    return rk, det, [r[width:] for r in rows], rows


def _prime_field_cases(p, rng):
    """Square, wide and tall matrices, the zero matrix, rank-deficient and
    sparse ones, each with three right-hand sides."""

    def entries(nrows, ncols, density=1.0):
        return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]

    cases = [entries(0, 0), entries(1, 1), entries(6, 6), entries(12, 12), entries(5, 9),
             entries(9, 5), [[0] * 7 for _ in range(7)], entries(10, 10, 0.2)]
    dependent = entries(8, 8)
    dependent[5] = [(a + 3 * b) % p for a, b in zip(dependent[1], dependent[2])]
    cases.append(dependent)
    thin = entries(9, 9)
    for row in thin:
        row[4] = (row[0] + row[7]) % p  # a dependent column
    cases.append(thin)
    return [(rows, entries(len(rows), 3)) for rows in cases]


@pytest.mark.parametrize("p", [2, 3, 67, 10007, 2**31 - 1])
def test_prime_field_routines_match_textbook_elimination(p):
    import random

    ctx = PrimeFieldCtx(p)
    for rows, rhs in _prime_field_cases(p, random.Random(p)):
        m = ExactMatrix(ctx, rows)
        augmented = [r + s for r, s in zip(rows, rhs)]
        rk, det, solution, reduced = _naive_mod_p(augmented, p, nrhs=3)
        assert rank(m) == rk
        assert exactfield._eliminate(augmented, m.ncols, p, jordan=True)[0] == rk
        assert augmented == reduced
        if not m.is_square():
            continue
        assert determinant(m) == (det or 0) % p
        if solution is None:
            with pytest.raises(SingularSystemError):
                exactfield._solve(m, rhs)
            continue
        assert exactfield._solve(m, rhs) == solution
        assert solve_linear(m, [r[0] for r in rhs]) == [r[0] for r in solution]
        assert invert(m).entries == _naive_mod_p(
            [r + [int(i == k) for k in range(len(rows))] for i, r in enumerate(rows)],
            p, nrhs=len(rows))[2]


def test_prime_field_slot_bound_edge():
    """Row e_i + (p-1) e_last for i < 63, then a row of ones: each of the 63
    pivots adds (p-1)^2 to the last entry of the row of ones, which with
    p = 2^31 - 1 fills all but a sliver of its slot."""
    p, n = 2**31 - 1, 64
    rows = [[int(j == i) + (p - 1) * (j == n - 1) for j in range(n)] for i in range(n - 1)]
    rows.append([1] * (n - 1) + [p - 1])
    m = ExactMatrix(PrimeFieldCtx(p), rows)
    rhs = [[1, i, p - 1] for i in range(n)]
    rk, det, solution, _ = _naive_mod_p([r + s for r, s in zip(rows, rhs)], p, nrhs=3)
    assert (rank(m), determinant(m)) == (rk, det) == (n, n - 2)
    assert exactfield._solve(m, rhs) == solution


# -- inertia ----------------------------------------------------------------


def test_inertia_identity():
    assert inertia_psd_rank(ExactMatrix.identity(QQ, 4)) == (True, 4)


def test_inertia_indefinite_pivots():
    assert inertia_psd_rank(ExactMatrix(QQ, [[1, 2], [2, 1]])) == (False, 2)


def test_inertia_pentagon_gram():
    from basisbound.constructions import pentagon

    assert inertia_psd_rank(pentagon().gram) == (True, 2)


def test_inertia_zero_diagonal_indefinite():
    assert inertia_psd_rank(ExactMatrix(QQ, [[0, 1], [1, 0]])) == (False, 2)


def test_inertia_rank_equals_rank():
    import random

    rng = random.Random(5)
    for _ in range(30):
        size = rng.randint(1, 5)
        half = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
        sym = [
            [half[i][j] + half[j][i] for j in range(size)] for i in range(size)
        ]
        m = ExactMatrix(QQ, sym)
        assert inertia_psd_rank(m)[1] == rank(m)


def test_inertia_requires_symmetry_and_order():
    with pytest.raises(MalformedInputError):
        inertia_psd_rank(ExactMatrix(QQ, [[1, 2], [3, 4]]))
    with pytest.raises(MalformedInputError):
        inertia_psd_rank(ExactMatrix.identity(PrimeFieldCtx(5), 2))


# -- matrices ---------------------------------------------------------------


def test_matrix_rejects_ragged_and_mixed():
    with pytest.raises(MalformedInputError):
        ExactMatrix(QQ, [[1, 2], [3]])
    with pytest.raises(MalformedInputError):
        ExactMatrix(QQ, [[quad(1, 1)]])
    with pytest.raises(MalformedInputError):
        ExactMatrix(PrimeFieldCtx(5), [[Fraction(1, 2)]])


def test_independence_matrix_size_error():
    with pytest.raises(MalformedInputError):
        solve_linear(ExactMatrix(QQ, [[1, 2]]), [1])
