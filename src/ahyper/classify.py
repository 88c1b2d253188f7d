"""Isomorphism classification of A-hypergeometric systems.

The family of residue sets E_tau(beta), one per face of the cone, is a
complete isomorphism invariant: two parameters give isomorphic systems
exactly when every face carries the same residues.  This module computes
the full profile, decides isomorphism, constructs explicit two-sided
contiguity witnesses for isomorphic pairs, and provides the closed-form
criteria available for normal semigroups and for monomial curves, along
with class enumeration over boxes, Laurent solution face counting, and
the normalized volume of the column polytope.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, product
from math import gcd

from .cone import Face, face_lattice, facets
from .errors import (
    NOT_CURVE,
    NOT_ISOMORPHIC,
    NOT_NORMAL,
    PARSE,
    WITNESS_FAILURE,
    InputError,
    InternalError,
)
from .lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    LatticeBasis,
    affine_residue,
    column_lattice,
    dot,
    homogeneity_witness,
    nullspace_rational,
    clear_denominators,
    vec_add,
    vec_sub,
)
from .semigroup import (
    ETauSet,
    NumericalSemigroup,
    _face_sublattice,
    e_tau,
    facet_value_semigroup,
    in_NA,
    is_normal,
    numerical_semigroup,
)
from .toric import BPoly, b_ideal, b_poly_avoiding, shift_pair
from .weyl import SymmetryOperator, contiguity_operator


def _as_fractions(v):
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class EProfile:
    """The residue sets of one parameter over every face of the cone."""

    matrix: IntMatrix
    beta: tuple[Fraction, ...]
    sets: tuple[ETauSet, ...]

    def residue_table(self):
        """Face-indexed residues only; equal tables mean isomorphic systems."""
        return tuple(s.residues for s in self.sets)

    def set_for(self, tau: Face) -> ETauSet:
        for s in self.sets:
            if s.face == tau:
                return s
        raise KeyError(f"face {tau.columns} is not in the profile")


def e_profile(A: IntMatrix, beta) -> EProfile:
    """Evaluate E_tau(beta) over the full face lattice, faces in canonical order."""
    beta = _as_fractions(beta)
    fl = face_lattice(A)
    sets = tuple(e_tau(A, tau, beta) for tau in fl.faces)
    return EProfile(matrix=A, beta=beta, sets=sets)


def profile_difference(p: EProfile, q: EProfile):
    """First face whose residues disagree, or None when the profiles match."""
    for s, t in zip(p.sets, q.sets):
        if s.residues != t.residues:
            return s.face
    return None


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _residue_table(A: IntMatrix, beta: tuple[Fraction, ...]):
    return e_profile(A, beta).residue_table()


def isomorphic(A: IntMatrix, beta, beta2) -> bool:
    return _residue_table(A, _as_fractions(beta)) == _residue_table(A, _as_fractions(beta2))


@dataclass(frozen=True)
class IsoWitness:
    """Two-sided contiguity data certifying an isomorphism.

    op_plus carries solutions of the system at beta to the system at
    beta + chi and op_minus carries them back; the composition acts by
    scalar = p_plus(beta + chi) * p_minus(beta), which is nonzero by the
    choice of the two avoidance polynomials.
    """

    chi: tuple[int, ...]
    p_plus: BPoly
    p_minus: BPoly
    op_plus: SymmetryOperator
    op_minus: SymmetryOperator
    scalar: Fraction


def iso_witness(A: IntMatrix, beta, beta2) -> IsoWitness:
    beta = _as_fractions(beta)
    beta2 = _as_fractions(beta2)
    if not isomorphic(A, beta, beta2):
        face = profile_difference(e_profile(A, beta), e_profile(A, beta2))
        raise InputError(
            NOT_ISOMORPHIC,
            f"residue sets differ at the face with columns {face.columns}",
        )
    diff = vec_sub(beta2, beta)
    if any(x.denominator != 1 for x in diff):
        raise InputError(NOT_ISOMORPHIC, "parameters do not differ by a lattice vector")
    chi = tuple(int(x) for x in diff)
    if column_lattice(A).member(chi) is None:
        raise InputError(NOT_ISOMORPHIC, "parameters do not differ by a lattice vector")
    neg = tuple(-x for x in chi)

    p_plus = b_poly_avoiding(b_ideal(A, chi), vec_add(beta, chi))
    p_minus = b_poly_avoiding(b_ideal(A, neg), beta)
    if p_plus is None or p_minus is None:
        # matching profiles guarantee beta avoids V(B_{-chi}) and
        # beta + chi avoids V(B_chi), so reaching this is a defect
        raise InternalError(WITNESS_FAILURE, "no avoidance polynomial for a matching pair")

    u, v = shift_pair(A, chi)
    op_plus = contiguity_operator(A, chi, p_plus, u, v)
    op_minus = contiguity_operator(A, neg, p_minus, v, u)

    scalar = p_plus.evaluate(vec_add(beta, chi)) * p_minus.evaluate(beta)
    if scalar == 0:
        raise InternalError(WITNESS_FAILURE, "avoidance polynomial vanished after all")
    return IsoWitness(
        chi=chi,
        p_plus=p_plus,
        p_minus=p_minus,
        op_plus=op_plus,
        op_minus=op_minus,
        scalar=scalar,
    )


def classify_normal(A: IntMatrix, beta, beta2) -> bool:
    """Isomorphism test for normal semigroups: lattice shift plus equal
    facet sets with natural value."""
    if not is_normal(A):
        raise InputError(NOT_NORMAL, "the semigroup of the matrix is not saturated")
    beta = _as_fractions(beta)
    beta2 = _as_fractions(beta2)
    diff = vec_sub(beta2, beta)
    if any(x.denominator != 1 for x in diff):
        return False
    if column_lattice(A).member(tuple(int(x) for x in diff)) is None:
        return False
    sigma = facets(A)
    for s in sigma:
        a = s.value(beta)
        b = s.value(beta2)
        if (a.denominator == 1 and a >= 0) != (b.denominator == 1 and b >= 0):
            return False
    return True


# ---------------------------------------------------------------------------
# monomial curves


@dataclass(frozen=True)
class HoleSet:
    """Lattice parameters with both facet values in the facet semigroups
    but lying outside NA; exactly the parameters of maximal rank."""

    matrix: IntMatrix
    holes: tuple[tuple[int, int], ...]

    def __contains__(self, beta) -> bool:
        v = _as_fractions(beta)
        if any(x.denominator != 1 for x in v):
            return False
        return tuple(int(x) for x in v) in self.holes


def _curve_weights(A: IntMatrix) -> tuple[int, ...]:
    """The exponent row (0, i_2, ..., i_n) of a monomial curve, validated."""
    if A.d != 2 or A.n < 2:
        raise InputError(NOT_CURVE, "expected a 2-row matrix with at least 2 columns")
    if any(A.entries[0][j] != 1 for j in range(A.n)):
        raise InputError(NOT_CURVE, "first row must be all ones")
    w = A.entries[1]
    if w[0] != 0:
        raise InputError(NOT_CURVE, "second row must start at 0")
    if any(w[j] <= w[j - 1] for j in range(1, A.n)):
        raise InputError(NOT_CURVE, "second row must increase strictly")
    g = 0
    for x in w[1:]:
        g = gcd(g, x)
    if g != 1:
        raise InputError(NOT_CURVE, "positive exponents must be coprime")
    return w


@lru_cache(maxsize=None)
def curve_facet_indices(A: IntMatrix) -> tuple[int, int]:
    """Positions in facets(A) of the facet through a_1 and the one through a_n."""
    _curve_weights(A)
    first = last = None
    for i, s in enumerate(facets(A)):
        if 0 in s.zero_columns:
            first = i
        if A.n - 1 in s.zero_columns:
            last = i
    assert first is not None and last is not None and first != last
    return first, last


def curve_semigroups(A: IntMatrix) -> tuple[NumericalSemigroup, NumericalSemigroup]:
    """Facet value semigroups, ordered as (through a_1, through a_n)."""
    j1, j2 = curve_facet_indices(A)
    return facet_value_semigroup(A, j1), facet_value_semigroup(A, j2)


@lru_cache(maxsize=None)
def curve_holes(A: IntMatrix) -> HoleSet:
    """All holes of a monomial curve, by exact semigroup arithmetic.

    Write beta = (c, m) and e = i_n*c - m.  Then beta is in NA exactly
    when m is a sum of at most c of the positive exponents, so that beta
    is a hole iff m and e lie in the facet semigroups and e < delta(m),
    where delta(m) = i_n*cmin(m) - m is the least total deficit
    sum(i_n - part) over representations of m.  Deficits are sums over
    D = {i_n - i_j : j < n}, and appending an i_n part shows delta is
    non-increasing along each residue class of m mod i_n, with limit the
    least element of <D> in the class of -m: every facet semigroup value
    splits as (multiple of i_n) + (element of <D> in the same class), so
    nothing in the class beats the limit.  Scanning m below the point
    where each class reaches its limit is therefore exhaustive.
    """
    w = _curve_weights(A)
    top = w[-1]
    s1, s2 = curve_semigroups(A)
    deficits = [top - x for x in w[1:-1]]

    # least <D>-element per class mod top, with a part count realizing it;
    # shortest paths on the class graph, edges weighted by the deficits
    best: dict[int, tuple[int, int]] = {}
    heap = [(0, 0, 0)]
    while heap and len(best) < top:
        e, parts, r = heappop(heap)
        if r in best:
            continue
        best[r] = (e, parts)
        for dx in deficits:
            r2 = (r + dx) % top
            if r2 not in best:
                heappush(heap, (e + dx, parts + 1, r2))
    # gcd(D) is prime to top, so <D> meets every class unless D is empty,
    # which the coprimality of the exponents confines to top = 1
    assert len(best) == top

    bound = 0
    for e, parts in best.values():
        bound = max(bound, top * parts - e)

    # cmin[m]: least number of positive parts summing to m, or None
    cmin: list[int | None] = [None] * max(bound, 1)
    cmin[0] = 0
    for m in range(1, len(cmin)):
        least = None
        for x in w[1:]:
            if x <= m and cmin[m - x] is not None:
                cand = cmin[m - x] + 1
                if least is None or cand < least:
                    least = cand
        cmin[m] = least

    found = []
    for m in range(len(cmin)):
        if cmin[m] is None:
            continue
        delta = top * cmin[m] - m
        for e in range((-m) % top, delta, top):
            if s2.contains(e):
                found.append(((m + e) // top, m))
    return HoleSet(matrix=A, holes=tuple(sorted(found)))


def curve_part(A: IntMatrix, beta) -> str:
    """Which of the five isomorphism regions an integer parameter is in."""
    v = _as_fractions(beta)
    if any(x.denominator != 1 for x in v):
        raise InputError(PARSE, "region labels apply to lattice parameters only")
    s1, s2 = curve_semigroups(A)
    j1, j2 = curve_facet_indices(A)
    sigma = facets(A)
    m1 = s1.contains(sigma[j1].value(v))
    m2 = s2.contains(sigma[j2].value(v))
    if m1 and m2:
        if in_NA(A, v) is not None:
            return "semigroup"
        return "hole"
    if m1:
        return "first_facet_only"
    if m2:
        return "second_facet_only"
    return "neither"


def classify_curve(A: IntMatrix, beta, beta2) -> bool:
    """Isomorphism test for monomial curves: holes are one class, everything
    else needs a lattice shift and equal facet membership."""
    holes = curve_holes(A)
    beta = _as_fractions(beta)
    beta2 = _as_fractions(beta2)
    if beta in holes or beta2 in holes:
        return beta in holes and beta2 in holes
    diff = vec_sub(beta2, beta)
    if any(x.denominator != 1 for x in diff):
        return False
    if column_lattice(A).member(tuple(int(x) for x in diff)) is None:
        return False
    s1, s2 = curve_semigroups(A)
    j1, j2 = curve_facet_indices(A)
    sigma = facets(A)
    for s, sg in ((sigma[j1], s1), (sigma[j2], s2)):
        if sg.contains(s.value(beta)) != sg.contains(s.value(beta2)):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class IsoClass:
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClassEnumeration:
    matrix: IntMatrix
    box: tuple[tuple[int, int], ...]
    classes: tuple[IsoClass, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of(self, beta):
        key = tuple(int(x) for x in beta)
        for c in self.classes:
            if key in c.members:
                return c
        raise KeyError(f"{key} is not in the enumerated box")


def enumerate_classes(A: IntMatrix, box) -> ClassEnumeration:
    """Group the integer points of a box by their residue profiles.

    box is one inclusive (lo, hi) pair per row of A.  Representatives are
    the lexicographically least members.
    """
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != A.d:
        raise InputError(PARSE, f"box needs {A.d} ranges, got {len(box)}")
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for point in product(*(range(lo, hi + 1) for lo, hi in box)):
        key = _residue_table(A, _as_fractions(point))
        groups.setdefault(key, []).append(point)
    classes = sorted(
        (IsoClass(members[0], tuple(members)) for members in groups.values()),
        key=lambda c: c.representative,
    )
    return ClassEnumeration(matrix=A, box=box, classes=tuple(classes))


# ---------------------------------------------------------------------------
# Laurent solution faces


@dataclass(frozen=True)
class LaurentFaces:
    """Simplex faces whose residue sets witness a Laurent solution.

    count is the asserted dimension of the space of Laurent polynomial
    solutions; the library does not verify it against actual series.
    """

    faces: tuple[Face, ...]
    count: int


def _zero_residue_in(A: IntMatrix, tau: Face, beta) -> bool:
    """Whether the zero coset belongs to E_tau(beta)."""
    zero = tuple(Fraction(0) for _ in range(A.d))
    if tau.is_whole_cone():
        sub = column_lattice(A)
    else:
        sub = _face_sublattice(A, tau)
    return affine_residue(sub, zero) in e_tau(A, tau, beta).residues


def laurent_solution_faces(A: IntMatrix, beta) -> LaurentFaces:
    """Faces tau spanned by exactly dim(tau) columns with 0 in E_tau(beta)
    and 0 outside E of every strictly smaller face."""
    beta = _as_fractions(beta)
    fl = face_lattice(A)
    kept = []
    for tau in fl.faces:
        if tau.dim != len(set(A.column(j) for j in tau.columns)):
            continue
        if not _zero_residue_in(A, tau, beta):
            continue
        smaller = [
            t
            for t in fl.faces
            if t != tau and set(t.columns) <= set(tau.columns)
        ]
        if any(_zero_residue_in(A, t, beta) for t in smaller):
            continue
        kept.append(tau)
    return LaurentFaces(faces=tuple(kept), count=len(kept))


# ---------------------------------------------------------------------------
# normalized volume


def _det(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    k = len(m)
    out = Fraction(1)
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            out = -out
        out *= m[i][i]
        inv = Fraction(1) / m[i][i]
        for r in range(i + 1, k):
            if m[r][i]:
                f = m[r][i] * inv
                for c in range(i, k):
                    m[r][c] -= f * m[i][c]
    return out


def _supporting_hyperplanes(pts, dim):
    """Supporting hyperplanes of the hull spanned by point subsets.

    Yields (normal, offset, members) with normal primitive, oriented so
    that every point satisfies normal . p <= offset.
    """
    seen = {}
    for sub in combinations(pts, dim):
        diffs = [vec_sub(p, sub[0]) for p in sub[1:]]
        if diffs:
            kern = nullspace_rational(diffs)
        else:
            kern = [(Fraction(1),)]
        if len(kern) != 1:
            continue
        normal = clear_denominators(kern[0])
        offset = dot(normal, sub[0])
        values = [dot(normal, p) for p in pts]
        if any(v > offset for v in values):
            if any(v < offset for v in values):
                continue
            normal = tuple(-x for x in normal)
            offset = -offset
            values = [-v for v in values]
        key = (normal, offset)
        if key not in seen:
            seen[key] = tuple(p for p, v in zip(pts, values) if v == offset)
    return [(n, c, members) for (n, c), members in seen.items()]


def _triangulate(pts, dim, from_last=False):
    """Simplices covering the hull of an affinely spanning point set,
    starred from the lexicographically extreme vertex."""
    pts = sorted(set(pts))
    if dim == 0:
        return [(pts[0],)]
    apex = pts[-1] if from_last else pts[0]
    cells = []
    for normal, offset, members in _supporting_hyperplanes(pts, dim):
        if dot(normal, apex) == offset:
            continue
        drop = max(range(dim), key=lambda i: abs(normal[i]))
        flat = {tuple(p[:drop] + p[drop + 1 :]): p for p in members}
        for cell in _triangulate(sorted(flat), dim - 1):
            cells.append((apex,) + tuple(flat[q] for q in cell))
    return cells


def _hyperplane_coordinates(A: IntMatrix):
    """Columns of A in integer coordinates on their affine hyperplane."""
    homogeneity_witness(A)
    base = A.column(0)
    gens = [vec_sub(A.column(j), base) for j in range(1, A.n)]
    basis = LatticeBasis.from_generators(A.d, gens)
    pts = []
    for j in range(A.n):
        c = basis.member(vec_sub(A.column(j), base))
        assert c is not None
        pts.append(c)
    return pts, basis.rank


def normalized_volume(A: IntMatrix) -> int:
    """Volume of the column polytope, normalized so that a simplex spanning
    the hyperplane lattice has volume one; the two opposite star
    triangulations must agree."""
    pts, dim = _hyperplane_coordinates(A)
    if dim == 0:
        return 1
    totals = []
    for from_last in (False, True):
        vol = Fraction(0)
        for cell in _triangulate(pts, dim, from_last):
            vol += abs(_det([vec_sub(p, cell[0]) for p in cell[1:]]))
        totals.append(vol)
    assert totals[0] == totals[1] and totals[0].denominator == 1 and totals[0] > 0
    return int(totals[0])
