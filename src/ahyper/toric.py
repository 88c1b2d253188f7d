"""Toric ideal, the shifted monomial ideals, standard pairs, and b-ideals.

Polynomials live in a commutative ring k[x_1..x_n] encoded as dicts from
exponent tuples to Fractions.  The Groebner engine is a plain Buchberger
loop with the coprime-pair criterion; inputs here are homogeneous binomial
ideals at desk scale, so nothing fancier is needed.
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
    kernel_lattice,
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


def poly_scale(c, p):
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def poly_mul_mono(p, m, c=Fraction(1)):
    return {mono_mul(t, m): c * v for t, v in p.items()}


def leading_term(p, key):
    m = max(p, key=key)
    return m, p[m]


def normal_form(p, basis, key):
    """Full reduction of p modulo the list of (poly, lt, lc) triples."""
    out = {}
    work = dict(p)
    while work:
        m, c = leading_term(work, key)
        hit = None
        for g, lt, lc in basis:
            if mono_divides(lt, m):
                hit = (g, lt, lc)
                break
        if hit is None:
            out[m] = c
            del work[m]
            continue
        g, lt, lc = hit
        shift = tuple(a - b for a, b in zip(m, lt))
        work = poly_add(work, poly_mul_mono(g, shift, -c / lc))
    return out


def buchberger(gens, key):
    """Reduced Groebner basis, monic, sorted by leading term.

    Pairs are treated in increasing lcm order; the coprime and chain
    criteria discard most of them, which keeps the saturation loops over
    lattice ideals from drowning in redundant S-polynomials.
    """
    import heapq

    basis = []
    for g in gens:
        if g:
            lt, lc = leading_term(g, key)
            basis.append((dict(g), lt, lc))
    heap = []
    done = set()

    def push_pairs(t):
        ltt = basis[t][1]
        for s in range(t):
            lcm = tuple(max(a, b) for a, b in zip(basis[s][1], ltt))
            heapq.heappush(heap, (key(lcm), s, t, lcm))

    for t in range(len(basis)):
        push_pairs(t)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        gi, lti, lci = basis[i]
        gj, ltj, lcj = basis[j]
        if all(a + b == m for a, b, m in zip(lti, ltj, lcm)):
            continue  # coprime leading terms reduce to zero
        if any(
            k != i
            and k != j
            and mono_divides(basis[k][1], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue  # chain criterion
        s = poly_add(
            poly_mul_mono(gi, vec_sub(lcm, lti), Fraction(1) / lci),
            poly_mul_mono(gj, vec_sub(lcm, ltj), Fraction(-1) / lcj),
        )
        r = normal_form(s, basis, key)
        if r:
            lt, lc = leading_term(r, key)
            basis.append((r, lt, lc))
            push_pairs(len(basis) - 1)
    # minimalize, then inter-reduce
    basis.sort(key=lambda t: key(t[1]))
    kept = []
    for idx, (g, lt, lc) in enumerate(basis):
        if any(mono_divides(lt2, lt) for _, lt2, _ in kept):
            continue
        kept.append((g, lt, lc))
    reduced = []
    for i, (g, lt, lc) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, key) if others else dict(g)
        lt2, lc2 = leading_term(r, key)
        reduced.append({m: c / lc2 for m, c in r.items()})
    reduced.sort(key=lambda p: key(leading_term(p, key)[0]))
    return reduced


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
    """I_A with a cache of reduced Groebner bases per lowest variable."""

    def __init__(self, matrix: IntMatrix, generators):
        self.matrix = matrix
        self.generators = tuple(generators)
        self._cache = {}

    def groebner(self, lowest: int):
        """Reduced basis for grevlex with the given variable lowest."""
        if lowest not in self._cache:
            n = self.matrix.n
            seq = tuple(j for j in range(n) if j != lowest) + (lowest,)
            key = grevlex_key(seq)
            polys = [g.as_poly() for g in self.generators]
            self._cache[lowest] = tuple(
                tuple(sorted(p.items())) for p in buchberger(polys, key)
            )
        return [dict(p) for p in self._cache[lowest]]


def _binomial_from_vector(v):
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return Binomial(plus=plus, minus=minus)


def _divide_variable_content(p, i):
    low = min(m[i] for m in p)
    if low == 0:
        return dict(p)
    return {tuple(x - low if k == i else x for k, x in enumerate(m)): c for m, c in p.items()}


@lru_cache(maxsize=None)
def toric_ideal(A: IntMatrix) -> ToricIdeal:
    """The saturated lattice ideal of the kernel of A.

    Start from a kernel basis and saturate one variable at a time; with a
    homogeneous ideal and grevlex ordered to put the chosen variable lowest,
    the saturation is read off the reduced basis by dividing out that
    variable's content.
    """
    n = A.n
    ker = kernel_lattice(A)
    polys = [
        _binomial_from_vector(v).as_poly() for v in ker.vectors
    ]
    polys = [p for p in polys if p]
    for i in range(n):
        if not polys:
            break
        seq = tuple(j for j in range(n) if j != i) + (i,)
        G = buchberger(polys, grevlex_key(seq))
        polys = [_divide_variable_content(g, i) for g in G]
    # canonical final presentation
    if polys:
        polys = buchberger(polys, grevlex_key(tuple(range(n))))
    gens = []
    for p in polys:
        if len(p) != 2:
            raise InternalError(NOT_MINIMAL, "toric basis element is not binomial")
        (m1, c1), (m2, c2) = sorted(p.items(), key=lambda t: -t[1])
        if c1 != 1 or c2 != -1:
            raise InternalError(NOT_MINIMAL, "toric binomial is not unit-monic")
        if A.apply(m1) != A.apply(m2):
            raise InternalError(NOT_MINIMAL, "binomial degrees disagree")
        if any(a and b for a, b in zip(m1, m2)):
            raise InternalError(NOT_MINIMAL, "binomial supports overlap")
        gens.append(Binomial(plus=m1, minus=m2))
    return ToricIdeal(A, gens)


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

    def conformal_leq(s, f):
        return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(s, f))

    def normal_form(f, pool):
        changed = True
        while changed and any(f):
            changed = False
            for s in pool:
                if conformal_leq(s, f):
                    f = vec_sub(f, s)
                    changed = True
                    break
        return f

    pool: list[tuple[int, ...]] = []
    for g in gens:
        g = normal_form(g, pool)
        if any(g):
            pool.append(g)
    queue = [(pool[i], pool[j]) for i in range(len(pool)) for j in range(i, len(pool))]
    while queue:
        f, g = queue.pop()
        h = normal_form(tuple(a + b for a, b in zip(f, g)), pool)
        if any(h):
            queue.extend((h, p) for p in pool)
            queue.append((h, h))
            pool.append(h)
    out = [g for g in pool if not any(p is not g and conformal_leq(p, g) for p in pool)]
    out.sort()
    return tuple(out)


def _minimal_inhomogeneous_solutions(A: IntMatrix, chi):
    """Minimal (u, v) in N^n x N^n with A(u - v) = chi, by completion.

    Runs the completion procedure on the homogenized system
    [A | -A | -chi] z = 0, seeded at the homogenizing unit vector and never
    incrementing that coordinate.  The stepping lemma (from any y below a
    minimal solution z with By != 0 there is i with y + e_i <= z and
    <By, Be_i> < 0) applies to y in the t = 1 slice, so every minimal
    solution with t = 1 is still reached, and the pure-kernel part of the
    doubled system is never explored.

    Nodes dominating a nonzero homogeneous pair are pruned.  Subtracting
    that pair from any minimal solution above the node would leave a
    smaller solution, so chains leading to minimal solutions never cross
    the prune; conversely an unbounded run of the frontier must revisit a
    value and hence dominate some homogeneous pair, so the walk terminates.

    Since the diagonal pairs (e_j, e_j) are among the prunes, surviving
    nodes have disjoint u and v supports and are stored as signed vectors
    w = u - v; domination by the remaining homogeneous pairs, the Graver
    elements, is then conformal comparison.
    """
    d, n = A.d, A.n
    cols = [A.column(j) for j in range(n)]
    neg_cols = [tuple(-x for x in c) for c in cols]
    prunes = sorted(graver_basis(A), key=lambda g: sum(abs(x) for x in g))

    def dominates(w, s):
        return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(s, w))

    zero = tuple(0 for _ in range(d))
    minimals: list[tuple[int, ...]] = []
    seed = tuple(0 for _ in range(n))
    frontier = {seed: tuple(-int(x) for x in chi)}
    seen = {seed}
    while frontier:
        nxt = {}
        for w, val in frontier.items():
            if val == zero:
                minimals.append(w)
                continue
            for j in range(n):
                s = dot(val, cols[j])
                if s < 0 and w[j] >= 0:
                    step, col = 1, cols[j]
                elif s > 0 and w[j] <= 0:
                    step, col = -1, neg_cols[j]
                else:
                    continue
                w2 = tuple(x + step if k == j else x for k, x in enumerate(w))
                if w2 in seen:
                    continue
                if any(dominates(w2, g) for g in prunes):
                    continue
                if any(dominates(w2, m) for m in minimals):
                    continue
                seen.add(w2)
                nxt[w2] = tuple(v + c for v, c in zip(val, col))
        frontier = nxt

    def pos(w):
        return tuple(x if x > 0 else 0 for x in w)

    def neg(w):
        return tuple(-x if x < 0 else 0 for x in w)

    return [(pos(w), neg(w)) for w in minimals]


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def minimal_solutions(A: IntMatrix, chi: tuple[int, ...]):
    """The minimal (u, v) with A(u - v) = chi, searched once per (A, chi)."""
    return tuple(_minimal_inhomogeneous_solutions(A, chi))


def shift_pair(A: IntMatrix, chi: tuple[int, ...]):
    """The minimal (u, v) of least total degree |u| + |v|, ties broken
    lexicographically; contiguity operators for chi take d^u and d^v as
    their right factors, so a lower degree means less to reduce."""
    return min(minimal_solutions(A, chi), key=lambda p: (sum(p[0]) + sum(p[1]), p))


@lru_cache(maxsize=None)
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

    def subspace_keys(self):
        """Canonical (face, facet-values) key per component subspace."""
        sigma = facets(self.matrix)
        keys = []
        for point, tau in self.components:
            vals = tuple(sigma[i].value(point) for i in tau.incident_facets)
            keys.append((tau.columns, tau.incident_facets, vals))
        return tuple(sorted(set(keys)))


@lru_cache(maxsize=None)
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


def v_b_member(B: BIdeal, beta) -> bool:
    """Whether beta lies on some component subspace point + span(A cap tau)."""
    from .semigroup import _face_sublattice

    beta = tuple(Fraction(x) for x in beta)
    for point, tau in B.components:
        diff = vec_sub(beta, point)
        sub = _face_sublattice(B.matrix, tau)
        if sub.span_solve(diff) is not None:
            return True
    return False


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
