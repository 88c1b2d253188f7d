"""Membership in the column semigroup and the face-relative invariants.

The two membership problems (gamma in NA, gamma in NA + Z(A cap tau)) are
decided by complete bounded searches: homogeneity forces the total degree
of any representation, and the positive functional of a face bounds the
level set of exponents off the face.  Both searches memoize failures, and
the public entry points cache whole answers keyed on exact inputs.

Everything that depends only on (A, tau) is computed once, on first use, into
one cached record per face (`_face_data`): the face sublattice, the span
equations F and their values FZ on the basis of ZA, the coset
representatives of the sublattice in its saturation, the positive
functional and the columns off the face with their weights.  `e_tau` and
the membership search read it, and residues modulo the sublattice come from
`affine_residue`, whose coordinate rows are cached per lattice.  Both caches
hold at most `PARAMETER_CACHE_SIZE` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cone import Face, facets, positive_functional
from .lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    LatticeBasis,
    affine_residue,
    clear_denominators,
    column_lattice,
    dot,
    homogeneity_witness,
    integer_kernel,
    integer_solve,
    nullspace_rational,
    quotient_representatives,
    vec_sub,
)


def _as_fractions(v):
    return tuple(Fraction(x) for x in v)


def _integral(v):
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            return None
        out.append(int(f))
    return tuple(out)


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _in_na_int(A: IntMatrix, gamma: tuple[int, ...]):
    """Witness search for integral gamma; degree is forced by homogeneity."""
    h = homogeneity_witness(A)
    deg = dot(h, gamma)
    if deg.denominator != 1 or deg < 0:
        return None
    deg = int(deg)
    if column_lattice(A).member(gamma) is None:
        return None
    sigma = facets(A)
    fvals_cols = [[s.value(A.column(j)) for s in sigma] for j in range(A.n)]
    n = A.n
    cols = A.columns()
    failed = set()

    def search(idx, rest, rest_deg):
        if rest_deg == 0:
            return () if not any(rest) else None
        if idx == n:
            return None
        key = (idx, rest)
        if key in failed:
            return None
        fk = [s.value(rest) for s in sigma]
        if any(v < 0 for v in fk):
            failed.add(key)
            return None
        cap = rest_deg
        for s_i, v in enumerate(fvals_cols[idx]):
            if v > 0:
                cap = min(cap, int(fk[s_i] / v))
        for u in range(cap, -1, -1):
            nxt = tuple(r - u * c for r, c in zip(rest, cols[idx]))
            tail = search(idx + 1, nxt, rest_deg - u)
            if tail is not None:
                return (u,) + tail
        failed.add(key)
        return None

    found = search(0, gamma, deg)
    if found is None:
        return None
    return found + (0,) * (n - len(found))


def in_NA(A: IntMatrix, gamma):
    """An exponent u in N^n with A u = gamma, or None."""
    g = _integral(gamma)
    if g is None:
        return None
    return _in_na_int(A, g)


def _face_sublattice(A: IntMatrix, tau: Face) -> LatticeBasis:
    """Z(A cap tau): the lattice generated by the columns on tau."""
    return LatticeBasis.from_generators(A.d, [A.column(j) for j in tau.columns])


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _in_na_mod_face_int(A: IntMatrix, tau: Face, gamma: tuple[int, ...]) -> bool:
    face = _face_data(A, tau)
    sub, g = face.sub, face.functional
    target = Fraction(dot(g, gamma))
    if target < 0 or target.denominator != 1:
        return False
    weights, cols = face.off_weights, face.off_columns
    failed = set()

    def search(idx, rest):
        t = int(dot(g, rest))
        if t == 0:
            return sub.member(rest) is not None
        if idx == len(cols):
            return False
        key = (idx, affine_residue(sub, rest))
        if key in failed:
            return False
        for u in range(t // weights[idx], -1, -1):
            nxt = vec_sub(rest, tuple(u * c for c in cols[idx]))
            if search(idx + 1, nxt):
                return True
        failed.add(key)
        return False

    return search(0, gamma)


def in_NA_mod_face(A: IntMatrix, tau: Face, gamma) -> bool:
    """Whether gamma lies in NA + Z(A cap tau)."""
    if tau.is_whole_cone():
        gi = _integral(gamma)
        return gi is not None and column_lattice(A).member(gi) is not None
    gi = _integral(gamma)
    if gi is None:
        return False
    return _in_na_mod_face_int(A, tau, gi)


@dataclass(frozen=True)
class ETauSet:
    face: Face
    residues: tuple[tuple[Fraction, ...], ...]


def _span_equations(A: IntMatrix, tau: Face):
    """Integer rows F with F x = 0 exactly on the span of tau's columns."""
    rows = [A.column(j) for j in tau.columns]
    if rows:
        kern = nullspace_rational(rows)
    else:
        kern = [
            tuple(Fraction(1) if i == k else Fraction(0) for i in range(A.d))
            for k in range(A.d)
        ]
    return tuple(clear_denominators(f) for f in kern)


def _saturated_face_lattice(A: IntMatrix, tau: Face) -> LatticeBasis:
    """ZA intersected with the rational span of tau's columns."""
    F = _span_equations(A, tau)
    ZA = column_lattice(A)
    if not F:
        return ZA
    Zcols = ZA.vectors
    FZ = tuple(tuple(dot(f, z) for z in Zcols) for f in F)
    if all(all(x == 0 for x in row) for row in FZ):
        return ZA
    coeff_kernel = integer_kernel(FZ, len(Zcols))
    gens = [
        tuple(sum(c * z[i] for c, z in zip(coefs, Zcols)) for i in range(A.d))
        for coefs in coeff_kernel
    ]
    return LatticeBasis.from_generators(A.d, gens)


@dataclass(frozen=True)
class _FaceData:
    """What e_tau and the membership search need of a proper face tau."""

    sub: LatticeBasis  # Z(A cap tau)
    span_equations: tuple  # F, integer rows vanishing exactly on span(tau)
    fz: tuple  # F times the Hermite basis of ZA
    representatives: tuple  # the cosets of Z(A cap tau) in ZA cap span(tau)
    functional: tuple  # positive_functional(A, tau)
    off_weights: tuple  # its values on the columns off tau
    off_columns: tuple  # those columns


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _face_data(A: IntMatrix, tau: Face) -> _FaceData:
    """The per-face record, built on first use of (A, tau)."""
    sub = _face_sublattice(A, tau)
    F = _span_equations(A, tau)
    g = positive_functional(A, tau)
    off = [A.column(j) for j in range(A.n) if j not in tau.columns]
    return _FaceData(
        sub=sub,
        span_equations=F,
        fz=tuple(tuple(dot(f, z) for z in column_lattice(A).vectors) for f in F),
        representatives=quotient_representatives(
            _saturated_face_lattice(A, tau), sub).representatives,
        functional=g,
        off_weights=tuple(int(dot(g, c)) for c in off),
        off_columns=tuple(off),
    )


def e_tau(A: IntMatrix, tau: Face, beta) -> ETauSet:
    """The finite residue set attached to a face and a parameter."""
    beta = _as_fractions(beta)
    ZA = column_lattice(A)
    if tau.is_whole_cone():
        return ETauSet(face=tau, residues=(affine_residue(ZA, beta),))
    face = _face_data(A, tau)
    Fbeta = tuple(dot(f, beta) for f in face.span_equations)
    c = integer_solve(face.fz, Fbeta)
    if c is None:
        return ETauSet(face=tau, residues=())
    Zcols = ZA.vectors
    lam0 = vec_sub(beta, tuple(
        sum(ci * z[i] for ci, z in zip(c, Zcols)) for i in range(A.d)
    ))
    kept = []
    for rep in face.representatives:
        lam = tuple(a + b for a, b in zip(lam0, rep))
        if in_NA_mod_face(A, tau, vec_sub(beta, lam)):
            kept.append(affine_residue(face.sub, lam))
    return ETauSet(face=tau, residues=tuple(sorted(set(kept))))


@lru_cache(maxsize=None)
def is_normal(A: IntMatrix) -> bool:
    """Whether NA equals all lattice points of the cone.

    Any Hilbert basis element of ZA cap cone is a lattice point of the
    parallelepiped spanned by d of the degree-one generators, so its degree
    is at most d - 1; it suffices to sweep that slab.
    """
    h = homogeneity_witness(A)
    ZA = column_lattice(A)
    sigma = facets(A)
    d = A.d
    lo = [min(A.column(j)[i] for j in range(A.n)) for i in range(d)]
    hi = [max(A.column(j)[i] for j in range(A.n)) for i in range(d)]
    bound = d - 1

    def points(prefix, i):
        if i == d:
            yield prefix
            return
        a = min(0, bound * lo[i]) if bound else 0
        b = max(0, bound * hi[i]) if bound else 0
        for x in range(a, b + 1):
            yield from points(prefix + (x,), i + 1)

    for gamma in points((), 0):
        deg = dot(h, gamma)
        if deg.denominator != 1 or not 0 <= deg <= bound:
            continue
        if any(s.value(gamma) < 0 for s in sigma):
            continue
        if ZA.member(gamma) is None:
            continue
        if in_NA(A, gamma) is None:
            return False
    return True


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    frobenius: int
    gaps: tuple[int, ...]

    def contains(self, m) -> bool:
        f = Fraction(m)
        if f.denominator != 1 or f < 0:
            return False
        m = int(f)
        if m > self.frobenius:
            return True
        return m not in self.gaps


def numerical_semigroup(generators) -> NumericalSemigroup:
    """Gap data of the semigroup generated by positive integers of gcd 1."""
    gens = sorted({int(g) for g in generators if g})
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("generators must have gcd 1")
    gmin = gens[0]
    reachable = [True]
    run = 1 if gmin == 1 else 0
    i = 0
    while run < gmin:
        i += 1
        ok = any(x <= i and reachable[i - x] for x in gens)
        reachable.append(ok)
        run = run + 1 if ok else 0
    gaps = tuple(k for k, ok in enumerate(reachable) if not ok)
    frob = gaps[-1] if gaps else -1
    return NumericalSemigroup(generators=tuple(gens), frobenius=frob, gaps=gaps)


def facet_value_semigroup(A: IntMatrix, facet_index: int) -> NumericalSemigroup:
    """The numerical semigroup of facet values F_sigma(NA)."""
    s = facets(A)[facet_index]
    vals = [int(s.value(A.column(j))) for j in range(A.n)]
    return numerical_semigroup(vals)
