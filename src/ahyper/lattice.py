"""Exact integer and rational linear algebra for column configurations.

Everything here is arbitrary precision: int for lattice data, Fraction for
rational solves.  No floats.  Matrices are tuples of row tuples; vectors are
plain tuples.  The Hermite form convention is the column one: H = M * U with
U unimodular, so the column lattice never changes and residues reduced
against H are canonical.  It is the one integer elimination: integer
solves, saturated kernels, coset lists and cell volumes are all read off
H and U.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from .errors import (
    INVARIANT_VIOLATED,
    NOT_FULL_DIM,
    NOT_HOMOGENEOUS,
    NOT_SUBLATTICE,
    PARSE,
    InputError,
    InternalError,
)

# Entries kept by each cache keyed by a parameter or shift vector: thousands
# of distinct queries stay cached, while a long-running process stays bounded.
PARAMETER_CACHE_SIZE = 8192


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _rref(m) -> list[int]:
    """Bring the Fraction rows m to reduced row echelon form, in place.

    Returns the pivot columns in increasing order.  Columns are scanned left
    to right and the scan stops once every row has a pivot, so the pivot
    columns are the lexicographically first column basis.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        row = m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], row)]
        pivots.append(col)
    return pivots


def rational_rank(rows) -> int:
    """Rank over Q."""
    return len(_rref([[Fraction(x) for x in row] for row in rows]))


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, or None.

    Free variables are set to zero, so the answer is deterministic.  The
    augmented matrix is eliminated once; the system is inconsistent exactly
    when its last column holds a pivot.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return tuple(x)


def nullspace_rational(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel over Q, one vector per free column."""
    ncols = len(rows[0]) if rows else 0
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][f]
        basis.append(tuple(v))
    return basis


def clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same line)."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def hermite_normal_form(M):
    """Column Hermite form: returns (H, U) with H = M * U, U unimodular.

    Pivots walk down and right, pivot entries are positive, entries to the
    right of a pivot in its row vanish, entries to the left are reduced into
    [0, pivot).  The column lattice of H equals the column lattice of M.
    """
    rows = [list(r) for r in M]
    d = len(rows)
    n = len(rows[0]) if d else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(j, k, a, b, c, e):
        # (col_j, col_k) <- (a*col_j + b*col_k, c*col_j + e*col_k)
        for mat in (rows, U):
            for r in mat:
                rj, rk = r[j], r[k]
                r[j] = a * rj + b * rk
                r[k] = c * rj + e * rk

    pc = 0
    for r in range(d):
        piv = next((j for j in range(pc, n) if rows[r][j]), None)
        if piv is None:
            continue
        if piv != pc:
            for mat in (rows, U):
                for row in mat:
                    row[pc], row[piv] = row[piv], row[pc]
        for j in range(pc + 1, n):
            if rows[r][j] == 0:
                continue
            a, b = rows[r][pc], rows[r][j]
            g, x, y = xgcd(a, b)
            colop(pc, j, x, y, -(b // g), a // g)
        if rows[r][pc] < 0:
            for mat in (rows, U):
                for row in mat:
                    row[pc] = -row[pc]
        p = rows[r][pc]
        for j in range(pc):
            q = rows[r][j] // p
            if q:
                for mat in (rows, U):
                    for row in mat:
                        row[j] -= q * row[pc]
        pc += 1
        if pc == n:
            break
    H = tuple(tuple(r) for r in rows)
    return H, tuple(tuple(r) for r in U)


def integer_solve(rows, rhs):
    """One integer solution of rows * x = rhs, or None.

    With H = rows * U in column Hermite form, x = U y for any integer y
    with H y = rhs.  rhs may be rational: it is scaled once by the common
    denominator q of its entries, and y is read off H by forward
    substitution in integers.  A pivot row fixes the next coordinate of y,
    which must be integral; a row without a pivot must already hold.  The
    coordinates past the pivots are zero.
    """
    H, U = _hnf_cached(tuple(tuple(r) for r in rows))
    n = len(U)
    q = lcm(*(x.denominator for x in rhs))
    y = []
    for row, x in zip(H, rhs):
        t = x.numerator * (q // x.denominator) - q * dot(row, y)
        k = len(y)
        if k < n and row[k]:
            c, r = divmod(t, q * row[k])
            if r:
                return None
            y.append(c)
        elif t:
            return None
    y += [0] * (n - len(y))
    return mat_vec(U, y)


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _hnf_cached(rows):
    return hermite_normal_form(rows)


@dataclass(frozen=True)
class IntMatrix:
    """An integer d x n matrix of full row rank d, columns a_1..a_n."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise InputError(NOT_FULL_DIM, "empty matrix")
        n = len(self.entries[0])
        for row in self.entries:
            if len(row) != n:
                raise InputError(PARSE, "ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise InputError(NOT_FULL_DIM, "entries must be integers")
        if len(self.entries) > n or rational_rank(self.entries) != len(self.entries):
            raise InputError(NOT_FULL_DIM, "rows are not independent")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.n))

    def apply(self, u) -> tuple:
        """A * u for a length-n vector."""
        return mat_vec(self.entries, u)


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^ambient, stored in column-Hermite canonical form."""

    ambient: int
    vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, ambient: int, gens) -> "LatticeBasis":
        gens = [tuple(int(x) for x in g) for g in gens]
        if not gens:
            return cls(ambient, ())
        mat = tuple(tuple(g[i] for g in gens) for i in range(ambient))
        H, _ = hermite_normal_form(mat)
        cols = []
        for j in range(len(gens)):
            col = tuple(H[i][j] for i in range(ambient))
            if any(col):
                cols.append(col)
        return cls(ambient, tuple(cols))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def span_solve(self, v):
        """Rational coordinates of v in this basis, or None if v is off-span.

        v is scaled to integers once and read by the cached rows of
        `_residue_rows`: v is on the span iff the equation rows vanish on
        it, and then the coordinate rows give its coordinates.
        """
        q, w = _scaled(self, v)
        rows = _residue_rows(self)
        if any(dot(row, w) for row, _den in rows[self.rank:]):
            return None
        return tuple(Fraction(dot(row, w), den * q) for row, den in rows[:self.rank])

    def member(self, v):
        """Integer coordinates of v if v lies in the lattice, else None."""
        c = self.span_solve(v)
        if c is None:
            return None
        out = []
        for x in c:
            if Fraction(x).denominator != 1:
                return None
            out.append(int(x))
        return tuple(out)


def _scaled(basis: LatticeBasis, v):
    """(q, q * v) for the least q > 0 making q * v integral; v must have
    the basis's ambient length."""
    if len(v) != basis.ambient:
        raise ValueError(f"vector of length {len(v)} in a lattice in Z^{basis.ambient}")
    v = [Fraction(x) for x in v]
    q = lcm(*(x.denominator for x in v))
    return q, [x.numerator * (q // x.denominator) for x in v]


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _residue_rows(basis: LatticeBasis):
    """The one coordinate map of a lattice: ((row, den), ...), one integer
    row with its denominator per ambient coordinate.

    One elimination of [basis | I] does it all.  Its pivot columns past the
    basis pick the standard complement (e_i is taken when it is independent
    of the basis and the e_j taken before it), and the row operations,
    read off the right block, invert [basis | complement].  Row i over den
    maps any v in Q^ambient to its i-th coordinate over basis +
    complement: the first rank rows give the basis coordinates, and the
    remaining rows vanish exactly on the span of the basis.
    """
    k, amb = basis.rank, basis.ambient
    m = [[Fraction(v[i]) for v in basis.vectors] + [Fraction(int(i == j)) for j in range(amb)]
         for i in range(amb)]
    if _rref(m)[:k] != list(range(k)):
        raise InternalError(
            INVARIANT_VIOLATED, f"_residue_rows: dependent basis {basis.vectors}")
    out = []
    for row in m:
        den = lcm(*(x.denominator for x in row[k:]))
        out.append((tuple(int(x * den) for x in row[k:]), den))
    return tuple(out)


def affine_residue(basis: LatticeBasis, v):
    """Canonical representative of v modulo the lattice, any v in Q^ambient.

    Reads the basis coordinates c_i of v off the coordinate map
    `_residue_rows`, the one `span_solve` uses, and reduces them into
    [0, 1): the answer is v - sum floor(c_i) b_i.  A call works in integers
    over the common denominator of v, so it does no elimination.  Two
    vectors get the same residue iff they differ by a lattice element.
    """
    q, w = _scaled(basis, v)
    for (row, den), b in zip(_residue_rows(basis), basis.vectors):
        k = dot(row, w) // (den * q)
        if k:
            w = [x - k * q * y for x, y in zip(w, b)]
    return tuple(Fraction(x, q) for x in w)


@dataclass(frozen=True)
class QuotientResidues:
    """Coset data for a finite quotient big/small of equal-rank lattices."""

    big: LatticeBasis
    small: LatticeBasis
    index: int
    representatives: tuple[tuple[Fraction, ...], ...]


def quotient_representatives(big: LatticeBasis, small: LatticeBasis) -> QuotientResidues:
    """All cosets of small inside big, canonically reduced against small.

    With C the coordinates of the small basis in the big one, the cosets
    are those of C Z^k in Z^k.  C is square and nonsingular, so its
    Hermite form H is lower triangular with a positive diagonal and spans
    the same lattice: the box 0 <= y_i < H_ii holds one point of each
    coset, and the index is the product of the H_ii.
    """
    # coordinates of the small basis in the big basis, as columns
    C = [big.member(v) for v in small.vectors]
    if None in C:
        raise InputError(NOT_SUBLATTICE, "small is not contained in big")
    if small.rank != big.rank:
        raise InputError(NOT_SUBLATTICE, "quotient has infinite index")
    k = big.rank
    if k == 0:
        zero = tuple(Fraction(0) for _ in range(big.ambient))
        return QuotientResidues(big, small, 1, (zero,))
    H, _U = hermite_normal_form(tuple(tuple(C[j][i] for j in range(k)) for i in range(k)))
    diag = [H[i][i] for i in range(k)]
    index = prod(diag)
    reps = sorted({
        affine_residue(small, tuple(
            sum(c * b[i] for c, b in zip(y, big.vectors)) for i in range(big.ambient)))
        for y in product(*(range(m) for m in diag))
    })
    if len(reps) != index:
        raise InternalError(
            INVARIANT_VIOLATED,
            f"quotient_representatives: {len(reps)} cosets of index {index} "
            f"for big={big.vectors} small={small.vectors}",
        )
    return QuotientResidues(big, small, index, tuple(reps))


def integer_kernel(rows, ncols):
    """Saturated basis of {x in Z^ncols : rows * x = 0}, via the Hermite form.

    With H = rows * U, the columns of U past H's nonzero columns span the
    kernel, and U is unimodular, so they span it over Z.
    """
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    H, U = _hnf_cached(tuple(tuple(r) for r in rows))
    r = sum(1 for j in range(ncols) if any(row[j] for row in H))
    return [tuple(U[i][j] for i in range(ncols)) for j in range(r, ncols)]


@lru_cache(maxsize=None)
def kernel_lattice(A: IntMatrix) -> LatticeBasis:
    """Saturated lattice {u in Z^n : A u = 0}."""
    return LatticeBasis.from_generators(A.n, integer_kernel(A.entries, A.n))


@lru_cache(maxsize=None)
def column_lattice(A: IntMatrix) -> LatticeBasis:
    """The lattice generated by the columns of A (rank d)."""
    return LatticeBasis.from_generators(A.d, A.columns())


@lru_cache(maxsize=None)
def homogeneity_witness(A: IntMatrix) -> tuple[Fraction, ...]:
    """The rational row vector h with h . a_j = 1 for every column.

    Raises NOT_HOMOGENEOUS when no such functional exists.  Uniqueness is
    forced by full row rank.
    """
    cols = A.columns()
    rows = tuple(cols[j] for j in range(A.n))
    ones = tuple(1 for _ in range(A.n))
    h = solve_rational(rows, ones)
    if h is None:
        raise InputError(NOT_HOMOGENEOUS, "columns do not lie on an affine hyperplane at height 1")
    return tuple(Fraction(x) for x in h)
