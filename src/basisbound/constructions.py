"""Concrete extremal and counterexample configurations: Paley-Hadamard
designs and their full-set extension, projective planes, type-1
lambda-designs, and spherical two-distance sets (pentagon, the 27-line
Schlaefli set, Johnson pair sets).

Every constructor re-verifies its own postconditions (intersection
constancy, distance constancy; for a Gram, positive semidefiniteness of the
stated rank) and aborts with InternalInconsistencyError on failure, so
downstream certificates can trust the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolationError,
    InternalInconsistencyError,
    MalformedInputError,
    UnsupportedOrderError,
)
from .exactfield import (
    ExactMatrix,
    QuadExt,
    inertia_psd_rank,
    is_prime,
    scalar_field,
)
from .families import SetFamily, intersection_set, json_int

MAX_PLANE_ORDER = 31
MAX_HADAMARD_V = 128  # 4v-1 <= 511 points: v = 125 builds and writes in about 0.5 s
MAX_JOHNSON_M = 24  # m(m-1)/2 <= 276 vectors: the Gram check takes under a second


@dataclass
class GramTwoDistance:
    """Gram matrix of a spherical two-distance point set.

    Exact data first: the matrix has unit diagonal and off-diagonal values
    in {a, b} over Q or Q(sqrt d).  Coordinates are an optional floating
    attachment used only for coordinate-level checks; `affine_dim` records
    the dimension of the affine hull when it is smaller than the ambient
    space (Johnson sets).
    """

    n: int
    count: int
    value_a: object
    value_b: object
    gram: ExactMatrix
    coords: tuple[tuple[float, ...], ...] | None = None
    affine_dim: int | None = None

    def __post_init__(self):
        g = self.gram
        if g.nrows != self.count or g.ncols != self.count:
            raise MalformedInputError(
                f"gram must be {self.count}x{self.count}, got {g.nrows}x{g.ncols}"
            )
        if not g.is_symmetric():
            raise MalformedInputError("gram matrix must be symmetric")
        for i in range(self.count):
            if g.entries[i][i] != 1:
                raise MalformedInputError(f"diagonal entry {i} differs from 1")
        if self.coords is not None and len(self.coords) != self.count:
            raise MalformedInputError("coordinate count does not match point count")
        if self.affine_dim is not None and not 0 <= self.affine_dim <= self.n:
            raise MalformedInputError(f"affine_dim {self.affine_dim} is outside [0, {self.n}]")
        # Held in the Gram's field from here on: readers use them as they are.
        self.value_a = g.field.coerce(self.value_a)
        self.value_b = g.field.coerce(self.value_b)

    @property
    def field(self):
        return self.gram.field

    def to_json_dict(self):
        field = self.field
        doc = {
            "n": self.n,
            "N": self.count,
            "a": field.format(self.value_a),
            "b": field.format(self.value_b),
            "gram": [[field.format(x) for x in row] for row in self.gram.entries],
        }
        if self.coords is not None:
            doc["coords"] = [list(c) for c in self.coords]
        if self.affine_dim is not None:
            doc["affine_dim"] = self.affine_dim
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        try:
            n = json_int(doc, "n")
            count = json_int(doc, "N")
            scalars = [doc["a"], doc["b"]]
            grid = doc["gram"]
            coords = doc.get("coords")
            affine_dim = doc.get("affine_dim")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"bad gram document: {exc}") from exc
        if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
            raise MalformedInputError("gram must be a list of rows")
        flat = [s for row in grid for s in row] + scalars
        if not all(isinstance(s, str) for s in flat):
            raise MalformedInputError("gram scalars must be strings")
        literals = dict.fromkeys(flat)
        field = scalar_field(literals)
        value = {s: field.parse(s) for s in literals}
        gram = ExactMatrix(field, [[value[s] for s in row] for row in grid])
        return cls(
            n=n,
            count=count,
            value_a=value[scalars[0]],
            value_b=value[scalars[1]],
            gram=gram,
            coords=None if coords is None else _coordinate_rows(coords, n),
            affine_dim=None if affine_dim is None else json_int(doc, "affine_dim"),
        )


def _coordinate_rows(coords, n):
    """`coords` as float rows, each of exactly n finite JSON numbers (a bool
    or a string is not a number)."""
    try:
        if isinstance(coords, list) and all(
            isinstance(c, list)
            and len(c) == n
            and all(type(x) in (int, float) and math.isfinite(x) for x in c)
            for c in coords
        ):
            return tuple(tuple(map(float, c)) for c in coords)
    except OverflowError:  # an integer beyond float range
        pass
    raise MalformedInputError(f"coords must be rows of {n} finite JSON numbers")


def projective_plane(r: int) -> SetFamily:
    """Projective plane of prime order r: r^2+r+1 points and as many lines
    of size r+1, any two lines meeting in one point."""
    if r > MAX_PLANE_ORDER:
        raise HypothesisViolationError(f"plane order above desk scale: {r} > {MAX_PLANE_ORDER}",
                                       clause="planeOrderDeskScale")
    if not is_prime(r):
        raise HypothesisViolationError(f"plane order must be prime: {r}", clause="planeOrderPrime")
    points = _projective_points(r)
    index = {pt: k + 1 for k, pt in enumerate(points)}
    n = len(points)
    lines = []
    for a, b, c in points:
        members = [
            index[(x, y, z)]
            for (x, y, z) in points
            if (a * x + b * y + c * z) % r == 0
        ]
        lines.append(members)
    family = SetFamily.from_sets(n, lines)
    _check_design(family, n, r + 1, 1)
    return family


def _projective_points(r):
    pts = [(1, y, z) for y in range(r) for z in range(r)]
    pts += [(0, 1, z) for z in range(r)]
    pts.append((0, 0, 1))
    return pts


def _check_design(family, n_expected, size_expected, lam_expected):
    if family.n != n_expected or len(family) != n_expected:
        raise InternalInconsistencyError("design has wrong point or block count")
    if any(s != size_expected for s in family.sizes()):
        raise InternalInconsistencyError("design blocks have wrong size")
    if intersection_set(family) != (lam_expected,):
        raise InternalInconsistencyError("design intersection profile not constant")


def fano_plane() -> SetFamily:
    return projective_plane(2)


def hadamard_design(v: int) -> SetFamily:
    """Paley construction of a (4v-1, 2v-1, v-1) design: the blocks are the
    translates of the nonzero quadratic residues mod 4v-1.  Only orders
    with 4v-1 prime are supported."""
    if v < 1:
        raise HypothesisViolationError(f"order parameter must be positive: {v}", clause="vPositive")
    if v > MAX_HADAMARD_V:
        raise HypothesisViolationError(f"order parameter above desk scale: {v} > {MAX_HADAMARD_V}",
                                       clause="vDeskScale")
    m = 4 * v - 1
    if not is_prime(m):
        raise UnsupportedOrderError(f"4v-1 = {m} is not prime; Paley construction unavailable")
    residues = {(x * x) % m for x in range(1, m)} - {0}
    blocks = [[(x + t) % m + 1 for x in residues] for t in range(m)]
    family = SetFamily.from_sets(m, blocks)
    _check_design(family, m, 2 * v - 1, v - 1)
    return family


def hadamard_plus_full(v: int) -> SetFamily:
    """Hadamard design together with the full ground set: 4v sets on
    [4v-1] whose characteristic vectors are pairwise at Hamming distance
    exactly 2v, exceeding the n-set bound for constant-distance families.
    The distance of two sets is the number of set bits of their masks' xor."""
    design = hadamard_design(v)
    m = design.n
    masks = design.masks + ((1 << m) - 1,)
    distances = {(a ^ b).bit_count() for i, a in enumerate(masks) for b in masks[i + 1:]}
    if distances != {2 * v}:
        raise InternalInconsistencyError(
            f"expected constant distance {2 * v}, got {tuple(sorted(distances))}"
        )
    return SetFamily(m, masks)


def lambda_design_type1(design: SetFamily, block_index: int = 0) -> SetFamily:
    """Type-1 lambda-design: keep one block B0 of a symmetric design and
    replace every other block C by the symmetric difference C xor B0.

    The output has block sizes k' and 2(k'-lambda') and constant pairwise
    intersection k'-lambda'."""
    n = design.n
    if len(design) != n:
        raise HypothesisViolationError(
            f"symmetric design needs as many blocks as points: {len(design)} != {n}",
            clause="designSquare")
    if not 0 <= block_index < len(design):
        raise MalformedInputError(f"block index {block_index} out of range")
    sizes = design.sizes()
    if len(set(sizes)) != 1:
        raise HypothesisViolationError("design blocks are not uniform", clause="designUniform")
    k = sizes[0]
    if len(design) == 1:
        return design
    intersections = intersection_set(design)
    if len(intersections) != 1:
        raise HypothesisViolationError("design intersections are not constant",
                                       clause="designConstantIntersection")
    lam_prime = intersections[0]
    base = design.masks[block_index]
    masks = tuple(m if i == block_index else m ^ base for i, m in enumerate(design.masks))
    family = SetFamily(n, masks)

    lam = k - lam_prime
    expected_sizes = {k, 2 * (k - lam_prime)}
    if set(family.sizes()) - expected_sizes:
        raise InternalInconsistencyError("lambda-design block sizes unexpected")
    if intersection_set(family) != (lam,):
        raise InternalInconsistencyError("lambda-design intersections not constant")
    return family


def near_pencil(n: int) -> SetFamily:
    """The non-uniform lambda = 1 family on [n]: all pairs {1, x} plus the
    complement of {1}."""
    if n < 3:
        raise MalformedInputError(f"near-pencil needs n >= 3: {n}")
    sets = [[1, x] for x in range(2, n + 1)]
    sets.append(list(range(2, n + 1)))
    return SetFamily.from_sets(n, sets)


def _two_distance(n, a, b, points, takes_a, rank, coords=None, affine_dim=None):
    """Unit-diagonal Gram of `points` in dimension n: inner product a between
    distinct points x, y with takes_a(x, y), b between the others.  Its
    entries are a, b and 1 by construction; the one postcondition checked
    is that the Gram is positive semidefinite of rank `rank`."""
    field = scalar_field([a, b])
    rows = [
        [field.one if i == j else a if takes_a(x, y) else b for j, y in enumerate(points)]
        for i, x in enumerate(points)
    ]
    gram = GramTwoDistance(n, len(rows), a, b, ExactMatrix(field, rows), coords, affine_dim)
    psd_rank = inertia_psd_rank(gram.gram)
    if psd_rank != (True, rank):
        raise InternalInconsistencyError(f"gram (PSD, rank) is {psd_rank}, not (True, {rank})")
    return gram


def pentagon() -> GramTwoDistance:
    """Regular pentagon on the unit circle: 5 = 2(2+3)/2 points with inner
    products (sqrt5 - 1)/4 between neighbours and -(sqrt5 + 1)/4 otherwise,
    exact over Q(sqrt 5)."""
    coords = tuple(
        (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)) for k in range(5)
    )
    a = QuadExt(Fraction(-1, 4), Fraction(1, 4), 5)
    b = QuadExt(Fraction(-1, 4), Fraction(-1, 4), 5)
    return _two_distance(2, a, b, range(5), lambda i, j: (i - j) % 5 in (1, 4), 2, coords)


_SCHLAEFLI_MEET = -Fraction(1, 2)
_SCHLAEFLI_SKEW = Fraction(1, 4)


def schlafli27() -> GramTwoDistance:
    """The 27-line two-distance set in dimension 6, built from double-six
    combinatorics: labels a_1..a_6, b_1..b_6 and c_ij (i<j); a_i meets b_j
    iff i != j, a_i and b_i meet c_jk iff i is in {j, k}, and c_ij meets
    c_kl iff the index pairs are disjoint.  Meeting pairs get inner product
    -1/2, all other distinct pairs 1/4; every line meets exactly 10 others
    and the Gram matrix is PSD of rank 6."""
    labels = [("a", i) for i in range(1, 7)]
    labels += [("b", i) for i in range(1, 7)]
    labels += [("c", i, j) for i in range(1, 7) for j in range(i + 1, 7)]

    def meets(x, y):
        if x[0] == "a" and y[0] == "a":
            return False
        if x[0] == "b" and y[0] == "b":
            return False
        if {x[0], y[0]} == {"a", "b"}:
            return x[1] != y[1]
        if x[0] == "c" and y[0] == "c":
            return not ({x[1], x[2]} & {y[1], y[2]})
        if x[0] == "c":
            x, y = y, x
        return x[1] in y[1:]

    for x in labels:
        degree = sum(1 for y in labels if y != x and meets(x, y))
        if degree != 10:
            raise InternalInconsistencyError(f"label {x} meets {degree} lines, expected 10")

    return _two_distance(
        6, _SCHLAEFLI_SKEW, _SCHLAEFLI_MEET, labels, lambda x, y: not meets(x, y), 6
    )


def johnson_pairs(m: int) -> GramTwoDistance:
    """Unit vectors (e_i + e_j)/sqrt(2) for all pairs i < j in R^m: inner
    products 1/2 when the pairs share an index and 0 otherwise.  The span
    is all of R^m; the affine hull has dimension m-1."""
    if m < 4:
        raise HypothesisViolationError(f"need m >= 4: {m}", clause="mAtLeastFour")
    if m > MAX_JOHNSON_M:
        raise HypothesisViolationError(f"dimension above desk scale: {m} > {MAX_JOHNSON_M}",
                                       clause="mDeskScale")
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    inv_sqrt2 = 1 / math.sqrt(2)
    coords = tuple(
        tuple(inv_sqrt2 if k in pair else 0.0 for k in range(m)) for pair in pairs
    )
    return _two_distance(
        m, Fraction(1, 2), Fraction(0), pairs, lambda x, y: set(x) & set(y), m, coords, m - 1
    )
