"""Normally ordered Weyl algebra arithmetic and contiguity operators.

An element is a finite rational combination of monomials x^alpha d^m with
every x to the left of every d.  Products are renormalized through the one
nontrivial relation d_i x_i = x_i d_i + 1.

A contiguity operator for an integer shift chi of the parameter vector is
built by reduction: expand the b-polynomial at the Euler operators,
multiply by d^v on the right, reduce variable by variable modulo Groebner
bases of the toric ideal (each basis with a different variable lowest),
and divide off the right factor d_i^{u_i} that the reduction exposes.
Every subtraction along the way is logged, so the congruence

    E d^u  =  b(theta) d^v   modulo the left ideal D I_A

ships with a certificate replayable by plain multiplication.

The two checks on an operator form no product with it or with its
certificate's cofactors, so they cost time linear in their sizes.  Each
monomial x^alpha d^m is an eigenvector of [theta_j, .] with eigenvalue
alpha_j - m_j, hence of [s_i, .] with eigenvalue (A(alpha - m))_i; since
distinct monomials are linearly independent, [s_i, E] = chi_i E for all i
exactly when every term of E has A(alpha - m) = chi.  Every certificate
generator d^plus - d^minus contains no x, so right-multiplying a normally
ordered term by it needs no reordering: it only shifts the term's m by
plus and by minus, and the replay is one accumulation of shifted terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial

from .errors import (
    NOT_IN_B_IDEAL,
    PARSE,
    RIGHT_FACTOR_MISSING,
    WITNESS_FAILURE,
    InputError,
    InternalError,
)
from .lattice import IntMatrix, dot, vec_add, vec_sub
from .toric import Binomial, b_ideal, divide, grevlex_key, leading_term, toric_ideal


class WeylElement:
    """A rational combination of normal-order monomials x^alpha d^m."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        for (alpha, m), c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            alpha = tuple(int(a) for a in alpha)
            m = tuple(int(e) for e in m)
            if len(alpha) != n or len(m) != n or min(alpha + m, default=0) < 0:
                raise ValueError("exponent pair does not fit the variable count")
            clean[alpha, m] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "WeylElement":
        """Wrap terms already in normal form, without checking them.

        For results computed here from valid elements: every key a pair of
        length-n tuples of nonnegative ints, every value a nonzero Fraction.
        """
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "WeylElement":
        c = Fraction(c)
        if not c:
            return WeylElement._raw(self.n, {})
        return WeylElement._raw(self.n, {k: c * v for k, v in self.terms.items()})

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return WeylElement._raw(self.n, out)

    def __neg__(self) -> "WeylElement":
        return self.scale(-1)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for alpha, m in sorted(self.terms):
            parts = [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(alpha) if e]
            parts += [f"d{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(m) if e]
            bits.append("*".join([str(self.terms[alpha, m])] + parts))
        return " + ".join(bits)


def weyl_monomial(n: int, alpha, m, c=1) -> WeylElement:
    return WeylElement(n, {(tuple(alpha), tuple(m)): Fraction(c)})


def weyl_one(n: int) -> WeylElement:
    return weyl_monomial(n, (0,) * n, (0,) * n)


def weyl_mul(P: WeylElement, Q: WeylElement) -> WeylElement:
    """Exact product, normal order restored termwise.

    Commuting d^m past x^beta follows the closed form
    d^m x^beta = sum_w prod_i C(m_i, w_i) C(beta_i, w_i) w_i!  x^{beta-w} d^{m-w}.
    """
    if P.n != Q.n:
        raise ValueError("mixed variable counts")
    n = P.n
    out = {}
    for (alpha, m), c in P.terms.items():
        for (beta, k), c2 in Q.terms.items():
            base = c * c2
            for w in product(*(range(min(mi, bi) + 1) for mi, bi in zip(m, beta))):
                coef = base
                for mi, bi, wi in zip(m, beta, w):
                    if wi:
                        coef *= comb(mi, wi) * comb(bi, wi) * factorial(wi)
                key = (
                    tuple(a + b - s for a, b, s in zip(alpha, beta, w)),
                    tuple(a + b - s for a, b, s in zip(m, k, w)),
                )
                s = out.get(key, 0) + coef
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return WeylElement._raw(n, out)


def substitute_euler(b, A: IntMatrix) -> WeylElement:
    """Expand the polynomial b at s_i = sum_j a_ij theta_j.

    Accepts a plain scalar or a factored product of linear forms; each
    factor f.s - c turns into sum_j (f^T A)_j theta_j - c and the factors
    are multiplied out in the Weyl algebra.
    """
    n = A.n
    if isinstance(b, (int, Fraction)):
        return WeylElement(n, {((0,) * n, (0,) * n): Fraction(b)})
    out = weyl_one(n)
    for f, c in b.factors:
        terms = {}
        for j in range(n):
            g = sum(f[i] * A.entries[i][j] for i in range(A.d))
            if g:
                e = tuple(1 if t == j else 0 for t in range(n))
                terms[e, e] = Fraction(g)
        if c:
            terms[(0,) * n, (0,) * n] = -Fraction(c)
        out = weyl_mul(out, WeylElement(n, terms))
    return out


@dataclass(frozen=True)
class Certificate:
    """Reduction log: sum of cofactor * (d^plus - d^minus) over the pairs
    equals E d^u - b(theta) d^v exactly in the Weyl algebra."""

    pairs: tuple[tuple[WeylElement, Binomial], ...]


@dataclass(frozen=True)
class SymmetryOperator:
    """An element of weight chi in the symmetry algebra, with provenance."""

    chi: tuple[int, ...]
    element: WeylElement
    b: object
    shift_plus: tuple[int, ...]
    shift_minus: tuple[int, ...]
    certificate: Certificate


def _shift_partials(E: WeylElement, w) -> WeylElement:
    """Right-multiply by d^w; pure partial powers need no renormalizing."""
    if not any(w):
        return E
    return WeylElement(
        E.n, {(alpha, vec_add(m, w)): c for (alpha, m), c in E.terms.items()}
    )


def _vanishes_on(factor, A: IntMatrix, point, tau) -> bool:
    # f.s - c is zero on all of point + span(A cap tau)
    f, c = factor
    if dot(f, point) != c:
        return False
    return all(dot(f, A.column(j)) == 0 for j in tau.columns)


def _b_member(b, A: IntMatrix, chi) -> bool:
    """Whether b lies in the b-ideal of chi.

    The b-ideal is an intersection of primes, each the full vanishing
    ideal of one component subspace, so a product of linear forms belongs
    iff every component has some factor vanishing identically on it.
    """
    B = b_ideal(A, tuple(chi))
    if isinstance(b, (int, Fraction)):
        return b == 0 or not B.components
    return all(
        any(_vanishes_on(fac, A, point, tau) for fac in b.factors)
        for point, tau in B.components
    )


def contiguity_operator(A: IntMatrix, chi, b, u, v) -> SymmetryOperator:
    """The operator E with E d^u = b(theta) d^v modulo D I_A.

    Reduction runs once per variable, against the Groebner basis that puts
    that variable lowest, and then divides off the right factor d_i^{u_i}.
    Cofactors logged before a division are right-multiplied by the partial
    powers divided off so far, which keeps the certificate identity exact
    through the telescoping.
    """
    n, d = A.n, A.d
    chi = tuple(int(x) for x in chi)
    u = tuple(int(x) for x in u)
    v = tuple(int(x) for x in v)
    if len(chi) != d or len(u) != n or len(v) != n or min(u + v, default=0) < 0:
        raise InputError(PARSE, "shift data has the wrong shape")
    if vec_sub(A.apply(u), A.apply(v)) != chi:
        raise InputError(PARSE, "Au - Av differs from chi")
    if not _b_member(b, A, chi):
        raise InternalError(NOT_IN_B_IDEAL, "b does not vanish on V(B_chi)")

    element = _shift_partials(substitute_euler(b, A), v)
    ideal = toric_ideal(A)
    logged = {}
    divided = [0] * n
    for i in range(n):
        key = grevlex_key(tuple(j for j in range(n) if j != i) + (i,))
        triples = []
        gens = []
        for g in ideal.groebner(i):
            lt, lc = leading_term(g, key)
            rest = [mm for mm in g if mm != lt]
            if len(g) != 2 or lc != 1 or g[rest[0]] != -1:
                raise InternalError(WITNESS_FAILURE, "basis element is not a monic binomial")
            triples.append((g, lt, lc))
            gens.append(Binomial(plus=lt, minus=rest[0]))
        w = tuple(divided)
        slices = {}
        for (alpha, m), c in element.terms.items():
            slices.setdefault(alpha, {})[m] = c
        new_terms = {}
        for alpha in sorted(slices):
            rem, quots = divide(slices[alpha], triples, key)
            for t, q in enumerate(quots):
                if not q:
                    continue
                acc = logged.setdefault(gens[t], {})
                for shift, coef in q.items():
                    mkey = (alpha, vec_add(shift, w))
                    s = acc.get(mkey, 0) + coef
                    if s:
                        acc[mkey] = s
                    elif mkey in acc:
                        del acc[mkey]
            for m, c in rem.items():
                new_terms[alpha, m] = c
        if u[i]:
            for alpha, m in new_terms:
                if m[i] < u[i]:
                    raise InternalError(
                        RIGHT_FACTOR_MISSING,
                        f"term lacks d{i + 1}^{u[i]} after reduction",
                    )
            new_terms = {
                (alpha, tuple(e - u[i] if t == i else e for t, e in enumerate(m))): c
                for (alpha, m), c in new_terms.items()
            }
            divided[i] = u[i]
        element = WeylElement._raw(n, new_terms)

    pairs = []
    for g in sorted(logged, key=lambda bi: (bi.plus, bi.minus)):
        cof = WeylElement._raw(n, {k: -c for k, c in logged[g].items()})
        if not cof.is_zero():
            pairs.append((cof, g))
    op = SymmetryOperator(
        chi=chi,
        element=element,
        b=b,
        shift_plus=u,
        shift_minus=v,
        certificate=Certificate(pairs=tuple(pairs)),
    )
    if not verify_weight(element, A, chi):
        raise InternalError(WITNESS_FAILURE, "weight identity failed")
    if not verify_certificate(op, A):
        raise InternalError(WITNESS_FAILURE, "certificate replay failed")
    return op


def verify_weight(E: WeylElement, A: IntMatrix, chi) -> bool:
    """Exact check of the commutators [s_i, E] = chi_i E for i = 1..d.

    Since [s_i, x^alpha d^m] = (A(alpha - m))_i x^alpha d^m and distinct
    monomials are independent, this holds exactly when every term of E
    has A(alpha - m) = chi; no product is formed.
    """
    chi = tuple(chi)
    if len(chi) != A.d:
        raise ValueError("weight vector does not match the row count")
    if E.n != A.n:
        raise ValueError("mixed variable counts")
    return all(A.apply(vec_sub(alpha, m)) == chi for alpha, m in E.terms)


def verify_certificate(op: SymmetryOperator, A: IntMatrix) -> bool:
    """Replay the reduction log and compare with E d^u - b(theta) d^v.

    A generator d^plus - d^minus contains no x, so cof * (d^plus - d^minus)
    is cof with each term's m shifted by plus, minus the same shifted by
    minus; the shifted terms of all pairs go into one sum.  Each binomial
    must lie in I_A, A plus = A minus, for the replayed identity to prove
    the congruence modulo D I_A.
    """
    n = A.n
    lhs = _shift_partials(op.element, op.shift_plus) - _shift_partials(
        substitute_euler(op.b, A), op.shift_minus
    )
    total = {}
    for cof, g in op.certificate.pairs:
        if cof.n != n:
            raise ValueError("mixed variable counts")
        if len(g.plus) != n or len(g.minus) != n or min(g.plus + g.minus, default=0) < 0:
            raise ValueError("exponent pair does not fit the variable count")
        if A.apply(g.plus) != A.apply(g.minus):
            return False
        gen = g.as_poly().items()
        for (alpha, m), c in cof.terms.items():
            for w, sign in gen:
                key = (alpha, vec_add(m, w))
                s = total.get(key, 0) + sign * c
                if s:
                    total[key] = s
                elif key in total:
                    del total[key]
    return lhs.terms == total
