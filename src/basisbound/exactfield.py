"""Exact scalar arithmetic over Q, prime fields F_p and real quadratic
extensions Q(sqrt(d)), plus the exact matrix routines used by the
certifiers.

No floating point ever enters a computation here: rationals are
`fractions.Fraction`, prime-field elements are residues, and quadratic
elements carry two Fraction parts.  The field objects parse, coerce and
format scalars; the elements do their own arithmetic with Python's
operators, and code over F_p reduces its residues mod p itself.  Signs of
quadratic elements are decided by exact comparison of squares.
`scalar_field` is the one place that decides whether a set of scalars
lives in Q or in Q(sqrt(d)).

rank, determinant, solve_linear and invert share one Gauss-Jordan engine,
`_eliminate`, with two paths.  Over Q and Q(sqrt(d)) it runs fraction-free
(Bareiss 1968) on integers, or on pairs (a, b) = a + b sqrt(d) of the ring
Z[sqrt d], after each row is cleared of denominators by their lcm.  Over
F_p it runs on packed residue rows: each row is one integer of s-bit slots,
one residue per slot, so that a row update is one big-integer multiply-add,
and the reduction mod p waits until a row is read.  Each pivot row is scaled
to a leading one, every addend is nonnegative, and
s = (p-1 + r (p-1)^2).bit_length() for r rows, so no slot ever borrows from
or carries into its neighbour.  solve_linear re-substitutes its answer in
the field itself.  inertia_psd_rank runs the fraction-free update on a
symmetric matrix, pivoting on its diagonal.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInconsistencyError,
    MalformedInputError,
    ResourceGuardError,
    SingularSystemError,
)

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_QUAD_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?"
    r"(?P<sign>[+-])?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?"
    r"sqrt\((?P<rad>\d+)\)$"
)
_RADICAND_RE = re.compile(r"sqrt\((\d+)\)")

# Moduli and radicands stay below a machine word, so that trial division
# (is_prime, is_squarefree) takes at most about 2^15.5 steps.
MAX_MODULUS = 1 << 31


def is_prime(m: int) -> bool:
    """Trial-division primality check; adequate at desk scale."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def is_squarefree(m: int) -> bool:
    if m < 1:
        return False
    f = 2
    while f * f <= m:
        if m % (f * f) == 0:
            return False
        f += 1
    return True


def printable(value: int) -> int:
    """`value`, unless its decimal form is longer than the interpreter's
    int-to-str limit, so that no report could print it."""
    limit = sys.get_int_max_str_digits()
    # 10^limit has more than 3 limit bits, so a shorter value is printable.
    if limit and abs(value).bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ResourceGuardError(f"integer has more than {limit} decimal digits")
    return value


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(printable(x.numerator))
    return f"{printable(x.numerator)}/{printable(x.denominator)}"


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    m = _RAT_RE.match(s)
    if not m:
        raise MalformedInputError(f"not a rational literal: {s!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise MalformedInputError(f"zero denominator: {s!r}") from exc
    except ValueError as exc:  # more digits than int() converts
        raise MalformedInputError(f"bad rational literal: {exc}") from exc


def _decimal(s: str) -> int:
    """int(s) of a digit string; one that int() refuses (more digits than
    it converts, or a digit such as '²' that is not decimal) is malformed."""
    try:
        return int(s)
    except ValueError as exc:
        raise MalformedInputError(f"bad decimal literal: {exc}") from exc


@dataclass(frozen=True)
class QuadExt:
    """Element rat + surd*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Mixing radicands is an error, not an implicit tower extension.
    """

    rat: Fraction
    surd: Fraction
    d: int

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise MalformedInputError(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.rat + o.rat, self.surd + o.surd, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rat, -self.surd, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.rat * o.rat + self.surd * o.surd * self.d,
            self.rat * o.surd + self.surd * o.rat,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.rat * self.rat - self.surd * self.surd * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        return QuadExt(self.rat / norm, -self.surd / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.surd == 0 and self.rat == other
        if isinstance(other, QuadExt):
            return (
                self.rat == other.rat
                and self.surd == other.surd
                and (self.d == other.d or (self.surd == 0 and other.surd == 0))
            )
        return NotImplemented

    def __hash__(self):
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd, self.d))

    def is_zero(self) -> bool:
        return self.rat == 0 and self.surd == 0

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """Exact sign: the parts' common sign, or when they differ, the sign
        of the rational part times that of a^2 - b^2 d."""
        sa, sb = (self.rat > 0) - (self.rat < 0), (self.surd > 0) - (self.surd < 0)
        if sa * sb >= 0:
            return sa or sb
        excess = self.rat * self.rat - self.surd * self.surd * self.d
        return sa * ((excess > 0) - (excess < 0))

    def __float__(self):
        return float(self.rat) + float(self.surd) * self.d**0.5

    def __repr__(self):
        return f"QuadExt({self.rat}, {self.surd}, sqrt{self.d})"


class RationalField:
    """Field tag for Q; elements are `fractions.Fraction`."""

    ordered = True

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise MalformedInputError("bool is not a rational scalar")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return parse_rational(x)
        raise MalformedInputError(f"cannot coerce {x!r} into Q")

    def sign(self, a):
        return 0 if a == 0 else (1 if a > 0 else -1)

    def parse(self, s):
        return parse_rational(s)

    def format(self, a):
        return format_rational(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeFieldCtx:
    """Field tag for F_p; elements are residues in [0, p), plain ints."""

    ordered = False

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= MAX_MODULUS:
            raise MalformedInputError("modulus must be a machine-word-sized integer")
        if not is_prime(p):
            raise MalformedInputError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise MalformedInputError(f"cannot coerce {x!r} into F_{self.p}")
        return x % self.p

    def parse(self, s):
        s = s.strip()
        if not s.isdigit():
            raise MalformedInputError(f"modular scalar must be a decimal residue: {s!r}")
        v = _decimal(s)
        if not 0 <= v < self.p:
            raise MalformedInputError(f"residue {v} outside [0, {self.p})")
        return v

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeFieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class QuadExtField:
    """Field tag for Q(sqrt(d)) with a fixed squarefree radicand 2 <= d < 2^31.

    The radicand is validated here, once; QuadExt elements trust it.
    """

    ordered = True

    def __init__(self, d: int):
        if not (isinstance(d, int) and 2 <= d < MAX_MODULUS and is_squarefree(d)):
            raise MalformedInputError(f"radicand must be squarefree in [2, 2^31): {d}")
        self.d = d
        self.zero = QuadExt(Fraction(0), Fraction(0), d)
        self.one = QuadExt(Fraction(1), Fraction(0), d)

    def coerce(self, x):
        if isinstance(x, QuadExt):
            if x.d != self.d:
                raise MalformedInputError(
                    f"mixed radicands sqrt({self.d}) and sqrt({x.d})"
                )
            return x
        if isinstance(x, bool):
            raise MalformedInputError("bool is not a scalar")
        if isinstance(x, (int, Fraction)):
            return QuadExt(Fraction(x), Fraction(0), self.d)
        if isinstance(x, str):
            return self.parse(x)
        raise MalformedInputError(f"cannot coerce {x!r} into Q(sqrt({self.d}))")

    def sign(self, a):
        return a.sign()

    def parse(self, s):
        s = s.strip()
        if "sqrt" not in s:
            return QuadExt(parse_rational(s), Fraction(0), self.d)
        m = _QUAD_RE.match(s)
        if not m:
            raise MalformedInputError(f"not a quadratic scalar literal: {s!r}")
        rad = _decimal(m.group("rad"))
        if rad != self.d:
            raise MalformedInputError(f"radicand {rad} does not match field sqrt({self.d})")
        rat = parse_rational(m.group("rat")) if m.group("rat") else Fraction(0)
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        elif m.group("sign") is None and m.group("rat") is not None:
            raise MalformedInputError(f"missing sign between terms: {s!r}")
        return QuadExt(rat, coef, self.d)

    def format(self, a):
        a = self.coerce(a)
        if a.surd == 0:
            return format_rational(a.rat)
        surd_str = f"{format_rational(abs(a.surd))}*sqrt({self.d})"
        if a.rat == 0:
            return surd_str if a.surd > 0 else "-" + surd_str
        joiner = "+" if a.surd > 0 else "-"
        return f"{format_rational(a.rat)}{joiner}{surd_str}"

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.d == self.d

    def __hash__(self):
        return hash(("quad", self.d))

    def __repr__(self):
        return f"QQ(sqrt({self.d}))"


def scalar_field(values):
    """The one field that holds every value: Q(sqrt(d)) when some value is a
    QuadExt or a string literal naming sqrt(d), else QQ.  Values must be
    string literals or exact elements (int, Fraction, QuadExt); mixed
    radicands are an error, not a tower extension."""
    radicands = set()
    for x in values:
        if isinstance(x, QuadExt):
            radicands.add(x.d)
        elif isinstance(x, str):
            radicands.update(_decimal(r) for r in _RADICAND_RE.findall(x))
        elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise MalformedInputError(f"not an exact scalar: {x!r}")
    if len(radicands) > 1:
        raise MalformedInputError(f"mixed radicands: {sorted(radicands)}")
    return QuadExtField(radicands.pop()) if radicands else QQ


class ExactMatrix:
    """Rectangular matrix with entries from one common exact field."""

    def __init__(self, field, rows):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MalformedInputError("ragged rows in matrix")
        else:
            width = 0
        self.field = field
        self.entries = [[field.coerce(x) for x in r] for r in rows]
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def identity(cls, field, n):
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    def row(self, i):
        return list(self.entries[i])

    def is_square(self):
        return self.nrows == self.ncols

    def is_symmetric(self):
        """Rows equal columns; entries are canonical, so `==` decides."""
        return self.is_square() and all(
            tuple(r) == c for r, c in zip(self.entries, zip(*self.entries))
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix) or other.field != self.field:
            return NotImplemented
        # Entries are canonical after `coerce`, so `==` on them decides.
        return self.entries == other.entries

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def _bareiss(d, pivot, head, prev, xs, ys):
    """[(pivot x - head y) / prev for x, y in zip(xs, ys)], the exact
    fraction-free update, on integers or, with a radicand d, on pairs
    (a, b) = a + b sqrt(d) of Z[sqrt d].  There both products are taken
    times conj(prev), so the division is an exact integer `//` by the norm
    N(prev) = prev conj(prev), which is not zero because d is squarefree."""
    if d is None:
        return [(pivot * a - head * b) // prev for a, b in zip(xs, ys)]
    c, e = prev[0], -prev[1]
    norm = c * c - d * e * e
    p0, p1 = pivot[0] * c + d * pivot[1] * e, pivot[0] * e + pivot[1] * c
    h0, h1 = head[0] * c + d * head[1] * e, head[0] * e + head[1] * c
    dp1, dh1 = d * p1, d * h1
    return [
        ((p0 * a + dp1 * b - h0 * u - dh1 * v) // norm,
         (p0 * b + p1 * a - h0 * v - h1 * u) // norm)
        for (a, b), (u, v) in zip(xs, ys)
    ]


def _packed(residues, s):
    """One integer holding residues[j] in bits [s j, s (j + 1))."""
    packed = 0
    for x in reversed(residues):
        packed = packed << s | x
    return packed


def _unpacked(packed, s, n, p):
    """The first n s-bit slots of `packed`, each reduced mod p."""
    mask = (1 << s) - 1
    return [(packed >> (s * j) & mask) % p for j in range(n)]


def _eliminate(rows, width, modulus=None, d=None, jordan=False):
    """Gauss-Jordan elimination of `rows` in place, pivoting on the first
    `width` columns; the columns after them ride along.

    There are two paths.  On integers, or with a radicand `d` on pairs
    (a, b) = a + b sqrt(d) of Z[sqrt d], the elimination is fraction-free
    (Bareiss 1968): every other row becomes (pivot * row - head * pivot_row)
    / prev, where head is the row's entry in the pivot column and prev the
    previous pivot.  The division is exact in Z or Z[sqrt d], because each
    entry is then a minor of the input.  On residues mod p = `modulus` the
    pivot row is scaled to a leading one instead and cancels every other
    row's head, on rows packed into slots of s = (p-1 + r (p-1)^2)
    .bit_length() bits for r rows, too wide to overflow
    (`_eliminate_residues`).  Rows below the pivot are cleared, and with
    `jordan` the rows above it too; columns left of the pivot are not
    updated again.

    Returns (rank, sign, last).  When the first `width` columns form a
    square matrix of full rank, its determinant is sign * last.  On
    integers last is the last pivot and, after a Gauss-Jordan, the
    ridden-along columns of row i hold last times row i of the solution; on
    residues last is the product of the pivots and they hold the solution.
    """
    if modulus:
        return _eliminate_residues(rows, width, modulus, jordan)
    nrows = len(rows)
    zero = (0, 0) if d else 0
    rank, sign, prev = 0, 1, (1, 0) if d else 1
    for col in range(width):
        if rank == nrows:
            break
        found = next((i for i in range(rank, nrows) if rows[i][col] != zero), None)
        if found is None:
            continue
        if found != rank:
            rows[rank], rows[found] = rows[found], rows[rank]
            sign = -sign
        pivot = rows[rank][col]
        top = rows[rank][col:]
        for i in range(0 if jordan else rank + 1, nrows):
            if i != rank:
                row = rows[i]
                row[col:] = _bareiss(d, pivot, row[col], prev, row[col:], top)
        prev = pivot
        rank += 1
    return rank, sign, prev


def _eliminate_residues(rows, width, p, jordan):
    """`_eliminate` on residues mod the prime p, with each row packed into
    one integer of s-bit slots, so that a row update is one big-integer
    multiply-add (the packing of Dumas, Fousse & Salvy, J. Symbolic Comput.
    2011).  The packed row holds the row's columns from the current one on,
    the current column in the lowest slot: a head is read with a mask and
    `% p`, and finishing a column writes its slot back, reduced, and
    shifts it out.

    The reduction mod p is delayed.  Once per pivot the pivot row is
    unpacked, reduced, scaled to a leading one and repacked as `top`; every
    other row with a nonzero head h gets row += (p - h) top, which cancels
    the head mod p.  The added term is never negative, so no slot borrows
    from its neighbour.  A slot starts below p and gains at most (p-1)^2 at
    each of at most r pivots, r the row count, so with
    s = (p-1 + r (p-1)^2).bit_length() no slot carries into the next.
    A row that stops changing (the pivot row, unless `jordan`) is written
    back at once; the rest are unpacked and reduced once at the end.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    s = (p - 1 + nrows * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    packed = [_packed(r, s) for r in rows]
    rank, sign, last, col = 0, 1, 1, 0
    while col < width and rank < nrows:
        found = next((i for i in range(rank, nrows) if (packed[i] & mask) % p), None)
        if found is not None:
            if found != rank:
                packed[rank], packed[found] = packed[found], packed[rank]
                rows[rank], rows[found] = rows[found], rows[rank]
                sign = -sign
            scaled = _unpacked(packed[rank], s, ncols - col, p)
            pivot = scaled[0]
            inverse = pow(pivot, p - 2, p)
            scaled = rows[rank][col:] = [x * inverse % p for x in scaled]
            top = packed[rank] = _packed(scaled, s)
            for i in range(0 if jordan else rank + 1, nrows):
                if i != rank and (head := (packed[i] & mask) % p):
                    packed[i] += (p - head) * top
            last = last * pivot % p
            rank += 1
        for i in range(0 if jordan else rank, nrows):
            rows[i][col] = (packed[i] & mask) % p
            packed[i] >>= s
        col += 1
    for i in range(0 if jordan else rank, nrows):
        rows[i][col:] = _unpacked(packed[i], s, ncols - col, p)
    return rank, sign, last


def _cleared(field, rows, common=False):
    """(rows, scales): each row over Q or Q(sqrt d) times the lcm of its
    denominators, or with `common` of all the matrix's denominators, which
    keeps a symmetric matrix symmetric.  Over Q the rows come back on
    integers, over Q(sqrt d) on pairs (a, b) = a + b sqrt(d) of integers."""
    if field == QQ:
        scales = [math.lcm(*(x.denominator for x in r)) for r in rows]
    else:
        scales = [math.lcm(*(y.denominator for x in r for y in (x.rat, x.surd)))
                  for r in rows]
    if common:
        scales = [math.lcm(*scales)] * len(rows)
    if field == QQ:
        return [[x.numerator * (s // x.denominator) for x in r] for r, s in zip(rows, scales)], scales
    return [
        [(x.rat.numerator * (s // x.rat.denominator), x.surd.numerator * (s // x.surd.denominator))
         for x in r]
        for r, s in zip(rows, scales)
    ], scales


def _quotient(d, x, y):
    """x / y in Q for integers, or in Q(sqrt d) for pairs x, y of Z[sqrt d]:
    x conj(y) / N(y)."""
    if d is None:
        return Fraction(x, y)
    (a, b), (c, e) = x, y
    norm = c * c - d * e * e
    return QuadExt(Fraction(a * c - d * b * e, norm), Fraction(b * c - a * e, norm), d)


def _reduce(m: ExactMatrix, rhs=None):
    """Eliminate M, augmented on the right by the rows of `rhs`; with `rhs`
    the elimination is Gauss-Jordan.  Over Q and Q(sqrt d) each row is
    first cleared of denominators by the lcm of its denominators, so the
    integer engine solves (DM) X = D rhs for a diagonal D, which has the
    same solution; the solution is the ridden-along columns divided by the
    last pivot, and det(M) = det(DM) / det(D).

    Returns (rank, det, solution): det is the determinant of a square M,
    and solution the rows of X with M X = rhs when `rhs` is given and M is
    nonsingular, else None.
    """
    field, width, jordan = m.field, m.ncols, rhs is not None
    modulus, d = getattr(field, "p", None), getattr(field, "d", None)
    rows = [r + rhs[i] if jordan else list(r) for i, r in enumerate(m.entries)]
    if not modulus:
        rows, scales = _cleared(field, rows)
    rk, sign, last = _eliminate(rows, width, modulus, d, jordan)
    if rk < m.nrows or m.nrows != width:
        return rk, field.zero, None
    if modulus:
        return rk, sign * last % modulus, [r[width:] for r in rows] if jordan else None
    scale = sign * math.prod(scales)
    det = _quotient(d, last, (scale, 0) if d else scale)
    solution = [[_quotient(d, x, last) for x in r[width:]] for r in rows] if jordan else None
    return rk, det, solution


def rank(m: ExactMatrix) -> int:
    """Exact rank."""
    return _reduce(m)[0]


def determinant(m: ExactMatrix):
    if not m.is_square():
        raise MalformedInputError("determinant of a non-square matrix")
    return _reduce(m)[1]


def _solve(m: ExactMatrix, rhs_rows):
    """Rows of the exact solution X of M X = rhs."""
    if not m.is_square():
        raise MalformedInputError("solve requires a square matrix")
    rk, _, solution = _reduce(m, rhs_rows)
    if solution is None:
        raise SingularSystemError(f"matrix is singular (rank {rk})", rk)
    return solution


def solve_linear(m: ExactMatrix, rhs):
    """Exact unique solution of M x = rhs; raises SingularSystemError with
    the rank when M is singular.  The result is re-substituted before it is
    returned."""
    if len(rhs) != m.nrows:
        raise MalformedInputError("right-hand side length does not match matrix")
    field = m.field
    rhs = [field.coerce(x) for x in rhs]
    x = [row[0] for row in _solve(m, [[v] for v in rhs])]
    # Over F_p, coerce reduces the sum mod p.
    holds = all(field.coerce(sum(map(operator.mul, r, x))) == v
                for r, v in zip(m.entries, rhs))
    if not holds:
        raise InternalInconsistencyError("solver re-substitution failed")
    return x


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularSystemError when M is singular."""
    f, n = m.field, m.nrows
    identity = [[f.one if i == k else f.zero for k in range(n)] for i in range(n)]
    return ExactMatrix(f, _solve(m, identity))


def inertia_psd_rank(g: ExactMatrix):
    """(is_psd, rank) of a symmetric matrix over an ordered field, by
    fraction-free symmetric elimination: each step pivots on the first
    remaining nonzero diagonal entry p and sets every remaining entry to
    (p a_ij - a_ip a_pj) / prev, an exact division (Bareiss 1968).  The
    LDL^T pivot is p / prev, so all are positive iff every p is.  The matrix
    is first scaled by the lcm of all its denominators, which keeps its
    inertia, and the loop runs on the engine's integer path: on integers
    over Q, on pairs of Z[sqrt d] over Q(sqrt d), where each pivot's sign is
    decided exactly.  If only an all-zero diagonal remains while
    off-diagonal entries survive, the matrix is indefinite and the remaining
    rank is computed by plain elimination.
    """
    field = g.field
    if not getattr(field, "ordered", False):
        raise MalformedInputError("inertia requires an ordered field (Q or Q(sqrt d))")
    if not g.is_symmetric():
        raise MalformedInputError("inertia requires a symmetric matrix")
    d = getattr(field, "d", None)
    rows, _ = _cleared(field, g.entries, common=True)
    zero, prev = ((0, 0), (1, 0)) if d else (0, 1)
    positive, pivots = True, 0
    while (k := next((i for i, r in enumerate(rows) if r[i] != zero), None)) is not None:
        top = rows.pop(k)
        pivot = top.pop(k)
        heads = [r.pop(k) for r in rows]
        rows = [_bareiss(d, pivot, h, prev, r, top) for r, h in zip(rows, heads)]
        positive = positive and (QuadExt(*pivot, d).sign() if d else pivot) > 0
        pivots, prev = pivots + 1, pivot
    if any(x != zero for r in rows for x in r):
        return False, pivots + _eliminate(rows, len(rows), d=d)[0]
    return positive, pivots
