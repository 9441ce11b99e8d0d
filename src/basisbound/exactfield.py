"""Exact scalar arithmetic over Q, prime fields F_p and real quadratic
extensions Q(sqrt(d)), plus the generic exact matrix routines used by the
certifiers.

No floating point ever enters a computation here: rationals are
`fractions.Fraction`, prime-field elements are residues, and quadratic
elements carry two Fraction parts.  Signs of quadratic elements are decided
by exact comparison of squares.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInconsistencyError,
    MalformedInputError,
    SingularSystemError,
)

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_QUAD_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?"
    r"(?P<sign>[+-])?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?"
    r"sqrt\((?P<rad>\d+)\)$"
)


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


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if not _RAT_RE.match(s):
        raise MalformedInputError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise MalformedInputError(f"zero denominator: {s!r}") from exc


@dataclass(frozen=True)
class QuadExt:
    """Element rat + surd*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Mixing radicands is an error, not an implicit tower extension.
    """

    rat: Fraction
    surd: Fraction
    d: int

    def __post_init__(self):
        if self.d < 2 or not is_squarefree(self.d) or is_square_int(self.d):
            raise MalformedInputError(f"radicand must be squarefree and >= 2: {self.d}")

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

    def sign(self) -> int:
        """Exact sign via case analysis on the signs of the two parts."""
        a, b = self.rat, self.surd
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 against b^2 * d.
        lhs = a * a
        rhs = b * b * self.d
        if a > 0:  # b < 0
            if lhs == rhs:
                return 0
            return 1 if lhs > rhs else -1
        if lhs == rhs:  # a < 0, b > 0
            return 0
        return -1 if lhs > rhs else 1

    def __float__(self):
        return float(self.rat) + float(self.surd) * self.d**0.5

    def __repr__(self):
        return f"QuadExt({self.rat}, {self.surd}, sqrt{self.d})"


def is_square_int(m: int) -> bool:
    if m < 0:
        return False
    r = math.isqrt(m)
    return r * r == m


class RationalField:
    """Field tag for Q; elements are `fractions.Fraction`."""

    name = "rational"
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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / self.coerce(b) if isinstance(b, (int, str)) else a / b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

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
    """Arithmetic context for F_p; elements are residues in [0, p)."""

    ordered = False

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 1 << 31:
            raise MalformedInputError("modulus must be a machine-word-sized integer")
        if not is_prime(p):
            raise MalformedInputError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def name(self):
        return f"mod {self.p}"

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise MalformedInputError(f"cannot coerce {x!r} into F_{self.p}")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def parse(self, s):
        s = s.strip()
        if not s.isdigit():
            raise MalformedInputError(f"modular scalar must be a decimal residue: {s!r}")
        v = int(s)
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
    """Field tag for Q(sqrt(d)) with a fixed squarefree radicand d."""

    ordered = True

    def __init__(self, d: int):
        if d < 2 or not is_squarefree(d) or is_square_int(d):
            raise MalformedInputError(f"radicand must be squarefree and >= 2: {d}")
        self.d = d
        self.zero = QuadExt(Fraction(0), Fraction(0), d)
        self.one = QuadExt(Fraction(1), Fraction(0), d)

    @property
    def name(self):
        return f"sqrt {self.d}"

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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return a.inverse()

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a.is_zero()

    def eq(self, a, b):
        return a == b

    def sign(self, a):
        return a.sign()

    def parse(self, s):
        s = s.strip()
        if "sqrt" not in s:
            return QuadExt(parse_rational(s), Fraction(0), self.d)
        m = _QUAD_RE.match(s)
        if not m:
            raise MalformedInputError(f"not a quadratic scalar literal: {s!r}")
        rad = int(m.group("rad"))
        if rad != self.d:
            raise MalformedInputError(f"radicand {rad} does not match field sqrt({self.d})")
        rat = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
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


def parse_scalar(s: str, field):
    return field.parse(s)


def format_scalar(x, field) -> str:
    return field.format(x)


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

    def column(self, j):
        return [r[j] for r in self.entries]

    def transpose(self):
        return ExactMatrix(
            self.field,
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def is_square(self):
        return self.nrows == self.ncols

    def is_symmetric(self):
        if not self.is_square():
            return False
        f = self.field
        return all(
            f.eq(self.entries[i][j], self.entries[j][i])
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix) or other.field != self.field:
            return NotImplemented
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            return False
        f = self.field
        return all(
            f.eq(self.entries[i][j], other.entries[i][j])
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def _rational_int_rows(m: ExactMatrix):
    """Clear denominators row by row; row scaling preserves rank and
    multiplies the determinant by a known factor."""
    int_rows = []
    scale = Fraction(1)
    for r in m.entries:
        lcm = 1
        for x in r:
            lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        scale *= lcm
        int_rows.append([int(x * lcm) for x in r])
    return int_rows, scale


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _bareiss(int_rows, nrows, ncols):
    """Fraction-free elimination; returns (rank, det_of_leading_square, swaps).

    det is meaningful only when the matrix is square and has full rank;
    otherwise the determinant is 0 by rank deficiency.
    """
    rows = [list(r) for r in int_rows]
    prev = 1
    rank = 0
    sign = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            sign = -sign
        pivot = rows[rank][col]
        for i in range(rank + 1, nrows):
            head = rows[i][col]
            for j in range(col + 1, ncols):
                rows[i][j] = (pivot * rows[i][j] - head * rows[rank][j]) // prev
            rows[i][col] = 0
        prev = pivot
        rank += 1
    det = sign * prev if (nrows == ncols and rank == nrows) else 0
    return rank, det


def _generic_elimination(field, rows, nrows, ncols):
    """Ordinary exact Gaussian elimination over an arbitrary field.

    Returns (rank, det_sign_adjusted_pivot_product, echelon rows, pivot cols).
    """
    rows = [list(r) for r in rows]
    rank = 0
    det = field.one
    pivots = []
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = None
        for i in range(rank, nrows):
            if not field.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            det = field.neg(det)
        pivot = rows[rank][col]
        det = field.mul(det, pivot)
        for i in range(rank + 1, nrows):
            if field.is_zero(rows[i][col]):
                continue
            factor = field.div(rows[i][col], pivot)
            for j in range(col, ncols):
                rows[i][j] = field.sub(rows[i][j], field.mul(factor, rows[rank][j]))
        pivots.append(col)
        rank += 1
    if not (nrows == ncols and rank == nrows):
        det = field.zero
    return rank, det, rows, pivots


def rank(m: ExactMatrix) -> int:
    """Exact rank by fraction-free (Q) or ordinary elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    if m.field == QQ:
        int_rows, _ = _rational_int_rows(m)
        r, _ = _bareiss(int_rows, m.nrows, m.ncols)
        return r
    r, _, _, _ = _generic_elimination(m.field, m.entries, m.nrows, m.ncols)
    return r


def determinant(m: ExactMatrix):
    if not m.is_square():
        raise MalformedInputError("determinant of a non-square matrix")
    if m.nrows == 0:
        return m.field.one
    if m.field == QQ:
        int_rows, scale = _rational_int_rows(m)
        _, det = _bareiss(int_rows, m.nrows, m.ncols)
        return Fraction(det) / scale
    _, det, _, _ = _generic_elimination(m.field, m.entries, m.nrows, m.ncols)
    return det


def _solve_echelon(field, rows, ncols_left, rhs_width):
    """Back-substitute an echelon-form augmented system (full-rank square)."""
    n = ncols_left
    xs = [[field.zero] * rhs_width for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for k in range(rhs_width):
            acc = rows[i][n + k]
            for j in range(i + 1, n):
                acc = field.sub(acc, field.mul(rows[i][j], xs[j][k]))
            xs[i][k] = field.div(acc, rows[i][i])
    return xs


def _solve_many(m: ExactMatrix, rhs_columns):
    """Exact solution columns of M x = rhs for each rhs column."""
    if not m.is_square():
        raise MalformedInputError("solve requires a square matrix")
    field = m.field
    n = m.nrows
    width = len(rhs_columns)
    aug = [
        m.row(i) + [field.coerce(rhs_columns[k][i]) for k in range(width)]
        for i in range(n)
    ]
    rk, _, rows, pivots = _generic_elimination(field, aug, n, n + width)
    left_rank = sum(1 for c in pivots if c < n)
    if left_rank < n:
        raise SingularSystemError(f"matrix is singular (rank {left_rank})", left_rank)
    return _solve_echelon(field, rows, n, width)


def solve_linear(m: ExactMatrix, rhs):
    """Exact unique solution of M x = rhs; raises SingularSystemError with
    the rank when M is singular.  The result is re-substituted before it is
    returned."""
    if len(rhs) != m.nrows:
        raise MalformedInputError("right-hand side length does not match matrix")
    field = m.field
    rhs = [field.coerce(x) for x in rhs]
    xs = _solve_many(m, [rhs])
    x = [row[0] for row in xs]
    for i in range(m.nrows):
        acc = field.zero
        for j in range(m.ncols):
            acc = field.add(acc, field.mul(m.entries[i][j], x[j]))
        if not field.eq(acc, rhs[i]):
            raise InternalInconsistencyError("solver re-substitution failed")
    return x


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularSystemError when M is singular."""
    n = m.nrows
    field = m.field
    cols = [[field.one if i == k else field.zero for i in range(n)] for k in range(n)]
    xs = _solve_many(m, cols)
    return ExactMatrix(field, xs)


def inertia_psd_rank(g: ExactMatrix):
    """Pivoted exact LDL^T on a symmetric matrix over an ordered field.

    Returns (is_psd, rank).  Pivots are taken from the diagonal; if only an
    all-zero diagonal remains while off-diagonal entries survive, the matrix
    is indefinite and the remaining rank is computed by plain elimination.
    """
    field = g.field
    if not getattr(field, "ordered", False):
        raise MalformedInputError("inertia requires an ordered field (Q or Q(sqrt d))")
    if not g.is_symmetric():
        raise MalformedInputError("inertia requires a symmetric matrix")
    n = g.nrows
    a = [g.row(i) for i in range(n)]
    remaining = list(range(n))
    pivot_signs = []
    while True:
        pivot = None
        for k in remaining:
            if not field.is_zero(a[k][k]):
                pivot = k
                break
        if pivot is None:
            break
        d = a[pivot][pivot]
        pivot_signs.append(field.sign(d))
        remaining.remove(pivot)
        col = {i: a[i][pivot] for i in remaining}
        for i in remaining:
            if field.is_zero(col[i]):
                continue
            factor = field.div(col[i], d)
            for j in remaining:
                a[i][j] = field.sub(a[i][j], field.mul(factor, col[j]))
    residue_nonzero = any(
        not field.is_zero(a[i][j]) for i in remaining for j in remaining
    )
    if residue_nonzero:
        block = [[a[i][j] for j in remaining] for i in remaining]
        extra, _, _, _ = _generic_elimination(field, block, len(remaining), len(remaining))
        return False, len(pivot_signs) + extra
    return all(s > 0 for s in pivot_signs), len(pivot_signs)
