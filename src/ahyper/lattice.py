"""Exact integer and rational linear algebra for column configurations.

Everything here is arbitrary precision: int for lattice data, Fraction for
rational solves.  No floats.  Matrices are tuples of row tuples; vectors are
plain tuples.  The Hermite form convention is the column one: H = M * U with
U unimodular, so the column lattice never changes and residues reduced
against H are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InputError, NOT_FULL_DIM, NOT_HOMOGENEOUS, NOT_SUBLATTICE, PARSE

# Entries kept by each cache keyed by a parameter or shift vector: thousands
# of distinct queries stay cached, while a long-running process stays bounded.
PARAMETER_CACHE_SIZE = 8192


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


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


def rational_rank(rows) -> int:
    """Rank over Q by fraction-free style Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [inv * x for x in aug[rank]]
        for r in range(nrows):
            if r != rank and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, nrows):
        if aug[r][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return tuple(x)


def nullspace_rational(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel over Q."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
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


def smith_normal_form(M):
    """Smith form: (D, S, T) with D = S * M * T, S and T unimodular."""
    rows = [list(r) for r in M]
    d = len(rows)
    n = len(rows[0]) if d else 0
    S = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def rowop(i, k, a, b, c, e):
        for mat in (rows, S):
            ri = mat[i][:]
            rk = mat[k][:]
            mat[i] = [a * x + b * y for x, y in zip(ri, rk)]
            mat[k] = [c * x + e * y for x, y in zip(ri, rk)]

    def colop(j, k, a, b, c, e):
        for mat in (rows, T):
            for r in mat:
                rj, rk = r[j], r[k]
                r[j] = a * rj + b * rk
                r[k] = c * rj + e * rk

    def pivot_nonzero(t):
        for i in range(t, d):
            for j in range(t, n):
                if rows[i][j]:
                    return i, j
        return None

    t = 0
    while t < min(d, n):
        pos = pivot_nonzero(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            rowop(t, i, 0, 1, 1, 0)
        if j != t:
            colop(t, j, 0, 1, 1, 0)
        while True:
            # Clear column t with row ops, then row t with column ops.  When
            # the pivot divides the entry we subtract a multiple, which never
            # touches the pivot row or column; otherwise the xgcd transform
            # strictly shrinks |pivot|, so the loop terminates.
            done = True
            for i in range(t + 1, d):
                b = rows[i][t]
                if b:
                    a = rows[t][t]
                    if b % a == 0:
                        rowop(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        rowop(t, i, x, y, -(b // g), a // g)
                    done = False
            for j in range(t + 1, n):
                b = rows[t][j]
                if b:
                    a = rows[t][t]
                    if b % a == 0:
                        colop(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        colop(t, j, x, y, -(b // g), a // g)
                    done = False
            if done:
                break
        if rows[t][t] < 0:
            for mat in (rows, S):
                mat[t] = [-x for x in mat[t]]
        t += 1
    # enforce divisibility d_i | d_{i+1}
    r = min(d, n)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = rows[i][i], rows[i + 1][i + 1]
            if a and b and b % a != 0:
                rowop(i, i + 1, 1, 1, 0, 1)  # row_i += row_{i+1}
                a2, b2 = rows[i][i], rows[i][i + 1]
                g, x, y = xgcd(a2, b2)
                colop(i, i + 1, x, y, -(b2 // g), a2 // g)
                if rows[i + 1][i]:
                    q = rows[i + 1][i] // rows[i][i]
                    rowop(i, i + 1, 1, 0, -q, 1)  # row_{i+1} -= q*row_i
                for t2 in (i, i + 1):
                    if rows[t2][t2] < 0:
                        for mat in (rows, S):
                            mat[t2] = [-x for x in mat[t2]]
                changed = True
    D = tuple(tuple(r_) for r_ in rows)
    return D, tuple(tuple(r_) for r_ in S), tuple(tuple(r_) for r_ in T)


def invert_unimodular(U):
    """Exact inverse of a unimodular integer matrix."""
    k = len(U)
    cols = []
    for j in range(k):
        rhs = tuple(1 if i == j else 0 for i in range(k))
        sol = solve_rational(U, rhs)
        cols.append([int(x) for x in sol])
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def integer_solve(rows, rhs):
    """One integer solution of rows * x = rhs, or None.

    rhs may be rational; non-integral targets are simply unsolvable unless
    the fractional parts cancel, which the Smith reduction detects.
    """
    D, S, T = _snf_cached(tuple(tuple(r) for r in rows))
    d = len(rows)
    n = len(rows[0]) if d else 0
    y = mat_vec(S, [Fraction(x) for x in rhs])
    r = min(d, n)
    z = [Fraction(0)] * n
    for i in range(d):
        di = D[i][i] if i < r else 0
        if di:
            q = y[i] / di
            if q.denominator != 1:
                return None
            z[i] = q
        else:
            if y[i]:
                return None
    x = mat_vec(T, z)
    return tuple(int(v) for v in x)


@lru_cache(maxsize=None)
def _snf_cached(rows):
    return smith_normal_form(rows)


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

    def matrix_rows(self):
        """Basis vectors as columns of an ambient x rank matrix."""
        return tuple(tuple(v[i] for v in self.vectors) for i in range(self.ambient))

    def span_solve(self, v):
        """Rational coordinates of v in this basis, or None if v is off-span."""
        if not self.vectors:
            return () if all(Fraction(x) == 0 for x in v) else None
        return solve_rational(self.matrix_rows(), v)

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

    def reduce_mod(self, v):
        """Canonical residue of v (required to lie in the rational span).

        Coordinates relative to the Hermite basis are shifted into [0, 1).
        """
        c = self.span_solve(v)
        if c is None:
            raise ValueError("vector is outside the rational span")
        res = [Fraction(x) for x in v]
        for coef, b in zip(c, self.vectors):
            k = Fraction(coef).__floor__()
            if k:
                for i in range(self.ambient):
                    res[i] -= k * b[i]
        return tuple(res)


@lru_cache(maxsize=None)
def _complement_columns(basis: LatticeBasis):
    """Standard basis vectors completing span(basis) to the ambient space."""
    rows = [list(v) for v in basis.vectors]
    chosen = []
    for i in range(basis.ambient):
        e = [0] * basis.ambient
        e[i] = 1
        if rational_rank(rows + [e]) > len(rows):
            rows.append(e)
            chosen.append(tuple(e))
    return tuple(chosen)


def affine_residue(basis: LatticeBasis, v):
    """Canonical representative of v modulo the lattice, any v in Q^ambient.

    Splits v over basis + a fixed standard complement and reduces the basis
    coordinates into [0, 1).  Two vectors get the same residue iff they
    differ by a lattice element.
    """
    comp = _complement_columns(basis)
    cols = list(basis.vectors) + list(comp)
    if not cols:
        return tuple(Fraction(x) for x in v)
    rows = tuple(tuple(c[i] for c in cols) for i in range(basis.ambient))
    sol = solve_rational(rows, v)
    res = [Fraction(0)] * basis.ambient
    k = len(basis.vectors)
    for idx, coef in enumerate(sol):
        c = coef - coef.__floor__() if idx < k else coef
        if c:
            for i in range(basis.ambient):
                res[i] += c * cols[idx][i]
    return tuple(res)


@dataclass(frozen=True)
class QuotientResidues:
    """Coset data for a finite quotient big/small of equal-rank lattices."""

    big: LatticeBasis
    small: LatticeBasis
    index: int
    representatives: tuple[tuple[Fraction, ...], ...]


def quotient_representatives(big: LatticeBasis, small: LatticeBasis) -> QuotientResidues:
    """All cosets of small inside big, canonically reduced against small."""
    for v in small.vectors:
        if big.member(v) is None:
            raise InputError(NOT_SUBLATTICE, "small is not contained in big")
    if small.rank != big.rank:
        raise InputError(NOT_SUBLATTICE, "quotient has infinite index")
    k = big.rank
    if k == 0:
        zero = tuple(Fraction(0) for _ in range(big.ambient))
        return QuotientResidues(big, small, 1, (zero,))
    # coordinates of the small basis in the big basis, as columns
    C = []
    for v in small.vectors:
        C.append(big.member(v))
    Crows = tuple(tuple(C[j][i] for j in range(k)) for i in range(k))
    D, S, _T = smith_normal_form(Crows)
    diag = [abs(D[i][i]) for i in range(k)]
    index = 1
    for x in diag:
        index *= x
    Sinv = invert_unimodular(S)
    reps = []
    from itertools import product

    for y in product(*(range(m) for m in diag)):
        c = mat_vec(Sinv, y)
        vec = [0] * big.ambient
        for coef, b in zip(c, big.vectors):
            for i in range(big.ambient):
                vec[i] += coef * b[i]
        reps.append(small.reduce_mod(tuple(vec)))
    reps = sorted(set(reps))
    if len(reps) != index:
        raise AssertionError("coset enumeration lost representatives")
    return QuotientResidues(big, small, index, tuple(reps))


@lru_cache(maxsize=None)
def kernel_lattice(A: IntMatrix) -> LatticeBasis:
    """Saturated lattice {u in Z^n : A u = 0}, via the Smith form of A."""
    D, _S, T = smith_normal_form(A.entries)
    r = A.d  # full row rank
    gens = []
    for j in range(r, A.n):
        gens.append(tuple(T[i][j] for i in range(A.n)))
    return LatticeBasis.from_generators(A.n, gens)


@lru_cache(maxsize=None)
def column_lattice(A: IntMatrix) -> LatticeBasis:
    """The lattice generated by the columns of A (rank d)."""
    return LatticeBasis.from_generators(A.d, A.columns())


def lattice_member(basis: LatticeBasis, v):
    """Integer coordinates of v in the given basis, or None."""
    return basis.member(tuple(Fraction(x) for x in v))


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
