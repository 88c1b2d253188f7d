"""Toric ideal, the shifted monomial ideals, standard pairs, and b-ideals.

Polynomials live in a commutative ring k[x_1..x_n] encoded as dicts from
exponent tuples to Fractions.  There is one completion procedure, the
Graver basis of the kernel lattice; the reduced Groebner bases of I_A are
read off it, since it contains every one of them (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 4), and the minimal solutions behind M_chi
are the closure of one solution under its steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cone import Face, FaceLattice, face_lattice, facets
from .errors import InputError, InternalError, CHI_NOT_IN_LATTICE, NOT_MINIMAL
from .lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    column_lattice,
    dot,
    integer_solve,
    kernel_lattice,
    vec_add,
    vec_sub,
)


# ---------------------------------------------------------------------------
# commutative polynomial helpers


def grevlex_key(sequence):
    """Sort key for graded reverse lex with variables ordered by sequence.

    sequence lists variable indices from highest to lowest; ties in total
    degree are broken at the lowest differing variable, where the smaller
    exponent wins.
    """
    rev = tuple(reversed(sequence))

    def key(m):
        return (sum(m), tuple(-m[v] for v in rev))

    return key


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, Fraction(0)) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def poly_mul_mono(p, m, c=Fraction(1)):
    return {mono_mul(t, m): c * v for t, v in p.items()}


def leading_term(p, key):
    m = max(p, key=key)
    return m, p[m]


def divide(p, basis, key):
    """Division of p by the list of (poly, lt, lc) triples.

    Returns (remainder, quotients), quotients[t] mapping monomial shifts to
    coefficients, with p = sum_t quotients[t] * basis[t] + remainder and no
    remainder monomial divisible by any leading term.  Each step reduces
    the leading term by the first basis element whose leading term divides
    it; leading terms strictly decrease, so no shift is hit twice.
    """
    work = dict(p)
    rem = {}
    quots = [{} for _ in basis]
    while work:
        m, c = leading_term(work, key)
        hit = next((t for t, (_, lt, _) in enumerate(basis) if mono_divides(lt, m)), None)
        if hit is None:
            rem[m] = c
            del work[m]
            continue
        g, lt, lc = basis[hit]
        shift = tuple(a - b for a, b in zip(m, lt))
        q = c / lc
        quots[hit][shift] = q
        work = poly_add(work, poly_mul_mono(g, shift, -q))
    return rem, quots


# ---------------------------------------------------------------------------
# the toric ideal


@dataclass(frozen=True)
class Binomial:
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def as_poly(self):
        if self.plus == self.minus:
            return {}
        return {self.plus: Fraction(1), self.minus: Fraction(-1)}


class ToricIdeal:
    """I_A with a cache of reduced Groebner bases per lowest variable.

    generators is the reduced basis with the last variable lowest, read as
    binomials plus - minus and checked to be pure differences of two
    monomials of equal A-degree.
    """

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix
        self._cache = {}
        self.generators = tuple(
            _checked_binomial(matrix, p) for p in self.groebner(matrix.n - 1)
        )

    def groebner(self, lowest: int):
        """Reduced basis for grevlex with the given variable lowest.

        The Graver basis contains every reduced Groebner basis of I_A, so
        its binomials, each oriented by the order, are a Groebner basis.
        The reduced basis has one element lt - NF(lt) per minimal leading
        term lt; NF(lt) is a single monomial.
        """
        if lowest not in self._cache:
            n = self.matrix.n
            key = grevlex_key(tuple(j for j in range(n) if j != lowest) + (lowest,))
            triples = []
            for g in graver_basis(self.matrix):
                lt, tail = _sign_split(g)
                # g and -g are both Graver elements: keep each binomial once
                if key(lt) > key(tail):
                    triples.append(({lt: Fraction(1), tail: Fraction(-1)}, lt, Fraction(1)))
            reduced = []
            for lt in sorted(_antichain(lt for _, lt, _ in triples), key=key):
                (tail,) = divide({lt: Fraction(1)}, triples, key)[0]
                reduced.append(tuple(sorted(((lt, Fraction(1)), (tail, Fraction(-1))))))
            self._cache[lowest] = tuple(reduced)
        return [dict(p) for p in self._cache[lowest]]


def _sign_split(v):
    """The positive and negative parts (v+, v-) of an integer vector."""
    return tuple(x if x > 0 else 0 for x in v), tuple(-x if x < 0 else 0 for x in v)


def _conformal_leq(s, f):
    """Whether s lies in f's orthant and below f in every coordinate."""
    return all(0 <= a <= b or b <= a <= 0 for a, b in zip(s, f))


def _conformal_normal_form(f, pool):
    """f less elements of pool, each conformally below what is left of f
    when it is subtracted, until none is."""
    changed = True
    while changed and any(f):
        changed = False
        for s in pool:
            if _conformal_leq(s, f):
                f = vec_sub(f, s)
                changed = True
                break
    return f


def _checked_binomial(A: IntMatrix, p) -> Binomial:
    if len(p) != 2:
        raise InternalError(NOT_MINIMAL, "toric basis element is not binomial")
    (m1, c1), (m2, c2) = sorted(p.items(), key=lambda t: -t[1])
    if c1 != 1 or c2 != -1:
        raise InternalError(NOT_MINIMAL, "toric binomial is not unit-monic")
    if A.apply(m1) != A.apply(m2):
        raise InternalError(NOT_MINIMAL, "binomial degrees disagree")
    if any(a and b for a, b in zip(m1, m2)):
        raise InternalError(NOT_MINIMAL, "binomial supports overlap")
    return Binomial(plus=m1, minus=m2)


@lru_cache(maxsize=None)
def toric_ideal(A: IntMatrix) -> ToricIdeal:
    """I_A, built once per matrix."""
    return ToricIdeal(A)


# ---------------------------------------------------------------------------
# monomial ideals M_chi and their standard pairs


@dataclass(frozen=True)
class MonomialIdeal:
    gens: tuple[tuple[int, ...], ...]

    def contains(self, m) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[0])


def _antichain(vectors):
    out = []
    for v in sorted(set(vectors), key=lambda t: (sum(t), t)):
        if not any(mono_divides(w, v) for w in out):
            out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def graver_basis(A: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """All primitive kernel vectors of A (both signs), by completion.

    Starts from a saturated kernel basis closed under negation and keeps
    adjoining conformal normal forms of pairwise sums until stable; the
    positive-negative part encoding makes the reduction order a well
    partial order, so the loop terminates.  The final sweep keeps exactly
    the elements with no proper conformal decomposition.
    """
    basis = kernel_lattice(A).vectors
    gens: list[tuple[int, ...]] = []
    for b in basis:
        gens.append(b)
        gens.append(tuple(-x for x in b))

    pool: list[tuple[int, ...]] = []
    for g in gens:
        g = _conformal_normal_form(g, pool)
        if any(g):
            pool.append(g)
    queue = [(pool[i], pool[j]) for i in range(len(pool)) for j in range(i, len(pool))]
    while queue:
        f, g = queue.pop()
        h = _conformal_normal_form(vec_add(f, g), pool)
        if any(h):
            queue.extend((h, p) for p in pool)
            queue.append((h, h))
            pool.append(h)
    out = [g for g in pool if not any(p is not g and _conformal_leq(p, g) for p in pool)]
    out.sort()
    return tuple(out)


def _minimal_inhomogeneous_solutions(A: IntMatrix, chi):
    """Minimal (u, v) in N^n x N^n with A(u - v) = chi, as the closure of
    one solution under Graver steps.

    The minimal pairs have disjoint supports, so they are the w = u - v
    that are conformally minimal in the coset w0 + ker A of any integer
    solution w0.  With G the Graver basis (both signs) and NF the
    conformal normal form against G, the result is the closure S of
    {NF(w0)} under h -> NF(h + g), g in G.  S is exactly the set of
    minimal solutions:

    (a) An NF-irreducible coset element w is minimal.  If another coset
    element m lay conformally below w, then w - m would be a nonzero
    kernel vector conformally below w; its conformal Graver decomposition
    puts some g below w, so w was not irreducible.  Hence S holds only
    minimal solutions, of which there are finitely many, and the closure
    ends.

    (b) Every minimal solution m is in S.  Write m = s + sum g_i with s in
    S and each g_i in G, choosing the least total 1-norm |s| + sum |g_i|;
    such sums exist, since m - s is a kernel vector and hence a sum of
    Graver elements.  If two summands had opposite signs in some
    coordinate, replacing them by a conformal representation of their sum
    would lower the norm: for two Graver elements the Graver property
    gives one, and for s + g the normal form gives one, s' + sum r_k with
    s' = NF(s + g) in S and every piece conformally below s + g.  So the
    representation is conformal, s lies conformally below m, and since m
    is minimal, s = m.

    This is Hemmecke's completion (On the computation of Hilbert bases of
    cones, ICMS 2002) on the lattice {(w, t) : Aw = t chi}, truncated to
    the slice t = 1.
    """
    w0 = integer_solve(A.entries, chi)
    if w0 is None:
        return []
    G = graver_basis(A)
    start = _conformal_normal_form(w0, G)
    closure = {start}
    todo = [start]
    while todo:
        h = todo.pop()
        for g in G:
            s = _conformal_normal_form(vec_add(h, g), G)
            if s not in closure:
                closure.add(s)
                todo.append(s)
    return [_sign_split(w) for w in sorted(closure)]


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def minimal_solutions(A: IntMatrix, chi: tuple[int, ...]):
    """The minimal (u, v) with A(u - v) = chi, searched once per (A, chi)."""
    return tuple(_minimal_inhomogeneous_solutions(A, chi))


def shift_pair(A: IntMatrix, chi: tuple[int, ...]):
    """The minimal (u, v) of least total degree |u| + |v|, ties broken
    lexicographically; contiguity operators for chi take d^u and d^v as
    their right factors, so a lower degree means less to reduce."""
    return min(minimal_solutions(A, chi), key=lambda p: (sum(p[0]) + sum(p[1]), p))


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def m_chi(A: IntMatrix, chi: tuple[int, ...]) -> MonomialIdeal:
    """The monomial ideal of exponents u with Au in chi + NA."""
    if column_lattice(A).member(chi) is None:
        raise InputError(CHI_NOT_IN_LATTICE, f"{chi} is not in the column lattice")
    sols = minimal_solutions(A, chi)
    gens = _antichain(u for u, _v in sols)
    if not gens:
        raise InternalError(NOT_MINIMAL, "M_chi of a lattice element cannot be empty")
    return MonomialIdeal(gens=gens)


@dataclass(frozen=True)
class StandardPair:
    u: tuple[int, ...]
    tau: Face


def standard_pairs(M: MonomialIdeal, faces: FaceLattice) -> tuple[StandardPair, ...]:
    """All standard pairs (u, tau) of M over the proper faces.

    Condition (2), the pair misses M, says no generator fits below u off
    tau; condition (3), maximality, asks for each extra direction j a
    generator fitting below u off tau and j.  Both are finite checks
    against the generator list, and u is bounded by the generator box.
    """
    if M.is_unit():
        return ()
    n = len(M.gens[0]) if M.gens else 0
    maxexp = [max((g[j] for g in M.gens), default=0) for j in range(n)]
    out = []
    for tau in faces.proper_faces():
        inside = set(tau.columns)
        off = [j for j in range(n) if j not in inside]

        def sub_fits(g, u, skip):
            return all(g[j] <= u[j] for j in off if j != skip)

        def walk(idx, u):
            if idx == len(off):
                if any(sub_fits(g, u, None) for g in M.gens):
                    return
                for j in off:
                    if not any(
                        g[j] > u[j] and sub_fits(g, u, j) for g in M.gens
                    ):
                        return
                out.append(StandardPair(u=tuple(u), tau=tau))
                return
            j = off[idx]
            for x in range(maxexp[j]):
                u[j] = x
                walk(idx + 1, u)
            u[j] = 0

        walk(0, [0] * n)
    out.sort(key=lambda p: (p.tau.columns, p.u))
    return tuple(out)


# ---------------------------------------------------------------------------
# b-ideals


@dataclass(frozen=True)
class BIdeal:
    """Intersection of the face primes attached to the standard pairs.

    Each component (point, face) encodes the prime generated by
    F_sigma - F_sigma(point) over the facets sigma containing the face;
    its zero set is the affine subspace point + span(A cap face).
    """

    matrix: IntMatrix
    chi: tuple[int, ...]
    components: tuple[tuple[tuple[int, ...], Face], ...]


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def b_ideal(A: IntMatrix, chi: tuple[int, ...]) -> BIdeal:
    M = m_chi(A, chi)
    fl = face_lattice(A)
    pairs = standard_pairs(M, fl)
    sigma = facets(A)
    comps = {}
    for p in pairs:
        point = A.apply(p.u)
        vals = tuple(sigma[i].value(point) for i in p.tau.incident_facets)
        key = (p.tau.columns, vals)
        if key not in comps or comps[key][0] > point:
            comps[key] = (point, p.tau)
    ordered = tuple(comps[k] for k in sorted(comps))
    return BIdeal(matrix=A, chi=tuple(int(x) for x in chi), components=ordered)


@dataclass(frozen=True)
class BPoly:
    """A product of linear forms (f . s - c), one per b-ideal component."""

    factors: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def evaluate(self, s):
        out = Fraction(1)
        for f, c in self.factors:
            out *= dot(f, s) - c
        return out

    def degree(self) -> int:
        return len(self.factors)


def b_poly_avoiding(B: BIdeal, point):
    """A member of the b-ideal that does not vanish at point.

    Picks, for every component, one facet factor F_sigma - F_sigma(Au)
    nonvanishing at point (facets scanned in canonical order).  Absent when
    point lies on some component, where every factor of it vanishes.
    """
    sigma = facets(B.matrix)
    point = tuple(Fraction(x) for x in point)
    factors = []
    for comp_point, tau in B.components:
        chosen = None
        for i in tau.incident_facets:
            c = sigma[i].value(comp_point)
            if sigma[i].value(point) != c:
                chosen = (tuple(Fraction(x) for x in sigma[i].f), Fraction(c))
                break
        if chosen is None:
            return None
        factors.append(chosen)
    return BPoly(factors=tuple(factors))
