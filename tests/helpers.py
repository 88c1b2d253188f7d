"""Helpers that only the tests call: region labels, resonance flags,
b-ideal variety membership and Weyl-side identities used as checks."""

from dataclasses import dataclass
from fractions import Fraction

from ahyper.classify import curve_facet_indices, curve_semigroups
from ahyper.cone import facets
from ahyper.errors import PARSE, InputError
from ahyper.lattice import IntMatrix, dot, vec_sub
from ahyper.semigroup import _face_sublattice, in_NA
from ahyper.toric import BIdeal, BPoly, divide, grevlex_key, leading_term, toric_ideal
from ahyper.weyl import WeylElement


def curve_part(A: IntMatrix, beta) -> str:
    """Which of the five isomorphism regions an integer parameter is in."""
    v = tuple(Fraction(x) for x in beta)
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


@dataclass(frozen=True)
class Resonance:
    facet_integral: tuple[bool, ...]
    facet_natural: tuple[bool, ...]
    nonresonant: bool
    semi_nonresonant: bool


def resonance(A: IntMatrix, beta) -> Resonance:
    """Integrality flags of the facet values of beta."""
    beta = tuple(Fraction(x) for x in beta)
    integral = []
    natural = []
    for s in facets(A):
        v = s.value(beta)
        isint = v.denominator == 1
        integral.append(isint)
        natural.append(isint and v >= 0)
    return Resonance(
        facet_integral=tuple(integral),
        facet_natural=tuple(natural),
        nonresonant=not any(integral),
        semi_nonresonant=not any(natural),
    )


def v_b_member(B: BIdeal, beta) -> bool:
    """Whether beta lies on some component subspace point + span(A cap tau)."""
    beta = tuple(Fraction(x) for x in beta)
    for point, tau in B.components:
        diff = vec_sub(beta, point)
        sub = _face_sublattice(B.matrix, tau)
        if sub.span_solve(diff) is not None:
            return True
    return False


def euler_operator(A: IntMatrix, i: int) -> WeylElement:
    """The operator s_i = sum_j a_ij x_j d_j."""
    terms = {}
    for j in range(A.n):
        a = A.entries[i][j]
        if a:
            e = tuple(1 if t == j else 0 for t in range(A.n))
            terms[e, e] = Fraction(a)
    return WeylElement(A.n, terms)


def shift_bpoly(b: BPoly, chi) -> BPoly:
    """The polynomial s -> b(s + chi), still in factored form."""
    chi = tuple(Fraction(x) for x in chi)
    return BPoly(factors=tuple((f, c - dot(f, chi)) for f, c in b.factors))


def in_left_toric_ideal(A: IntMatrix, E: WeylElement) -> bool:
    """Exact membership of E in the left ideal D I_A.

    Since I_A lives in the partials alone, any member is a sum of
    x^alpha q(d) with q in I_A, so membership splits into commutative
    normal forms slice by slice.
    """
    key = grevlex_key(tuple(range(A.n)))
    triples = []
    for g in toric_ideal(A).generators:
        p = g.as_poly()
        lt, lc = leading_term(p, key)
        triples.append((p, lt, lc))
    slices = {}
    for (alpha, m), c in E.terms.items():
        slices.setdefault(alpha, {})[m] = c
    return all(not divide(p, triples, key)[0] for p in slices.values())
