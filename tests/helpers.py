"""Helpers that only the tests call: region labels, resonance flags,
b-ideal variety membership, Weyl-side identities and the one-variable
Weyl elements x_j, d_j and theta_j used as checks, and the Smith form with
its unimodular inverse, kept as the oracle for the Hermite-form integer
layer, and two breadth-first minimal-solution searches, one scanning every
prune and one reading the prunes off an index, kept as the oracles for
the Graver closure."""

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from ahyper.classify import curve_facet_indices, curve_semigroups
from ahyper.cone import facets
from ahyper.errors import PARSE, InputError
from ahyper.lattice import IntMatrix, _rref, dot, vec_sub, xgcd
from ahyper.semigroup import _face_sublattice, in_NA
from ahyper.toric import (
    BIdeal,
    BPoly,
    _conformal_leq,
    _sign_split,
    divide,
    graver_basis,
    grevlex_key,
    leading_term,
    toric_ideal,
)
from ahyper.weyl import WeylElement, weyl_monomial


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


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if t == j else 0 for t in range(n))


def weyl_x(n: int, j: int) -> WeylElement:
    return weyl_monomial(n, _unit(n, j), (0,) * n)


def weyl_d(n: int, j: int) -> WeylElement:
    return weyl_monomial(n, (0,) * n, _unit(n, j))


def weyl_theta(n: int, j: int) -> WeylElement:
    return weyl_monomial(n, _unit(n, j), _unit(n, j))


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
    """Exact inverse of a unimodular integer matrix, read off the reduced
    form of [U | I]."""
    k = len(U)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(U)]
    if _rref(m) != list(range(k)):
        raise ValueError("matrix is not invertible")
    return tuple(tuple(int(x) for x in row[k:]) for row in m)


def conformal_leq(s, f):
    """Whether s lies in f's orthant and below f in every coordinate."""
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(s, f))


def old_minimal_inhomogeneous_solutions(A: IntMatrix, chi):
    """The minimal (u, v) with A(u - v) = chi, by the same breadth-first
    completion as `indexed_minimal_inhomogeneous_solutions`, testing each
    new node against every Graver element and every minimal solution
    found so far."""
    d, n = A.d, A.n
    cols = [A.column(j) for j in range(n)]
    neg_cols = [tuple(-x for x in c) for c in cols]
    prunes = sorted(graver_basis(A), key=lambda g: sum(abs(x) for x in g))

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
                if any(conformal_leq(g, w2) for g in prunes):
                    continue
                if any(conformal_leq(m, w2) for m in minimals):
                    continue
                seen.add(w2)
                nxt[w2] = tuple(v + c for v, c in zip(val, col))
        frontier = nxt

    return [_sign_split(w) for w in minimals]


def indexed_minimal_inhomogeneous_solutions(A: IntMatrix, chi):
    """Minimal (u, v) in N^n x N^n with A(u - v) = chi, by the
    breadth-first completion with a prune index that the Graver closure of
    `toric._minimal_inhomogeneous_solutions` replaced.

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

    Both prunes are read off one index from (j, x), x != 0, to the Graver
    elements and minimal solutions whose j-th entry is x.  The walk goes
    level by level in |w|, and a frontier node w dominates no Graver
    element and no minimal solution of its level or below.  Its child
    w2 = w +- e_j differs from w only in coordinate j, where
    |w2_j| = |w_j| + 1 with the same sign, so a prune below w2 but not
    below w has j-th entry w2_j: only index[(j, w2_j)] is tested.  For the
    minimal solutions this needs each level's solutions in the index
    before the level is expanded (a solution of w's level below w is w
    itself, and solutions are not expanded).  Entering them that early
    prunes nodes of the next level that dominate a solution m of this one,
    and no such node is needed: a solution above m differs from it by a
    nonzero conformal kernel vector, so it dominates a Graver element, and
    every descendant of the node dominates m as well.
    """
    d, n = A.d, A.n
    cols = [A.column(j) for j in range(n)]
    neg_cols = [tuple(-x for x in c) for c in cols]
    index: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def enter(p):
        for j, x in enumerate(p):
            if x:
                index.setdefault((j, x), []).append(p)

    for g in sorted(graver_basis(A), key=lambda g: sum(abs(x) for x in g)):
        enter(g)

    zero = tuple(0 for _ in range(d))
    minimals: list[tuple[int, ...]] = []
    seed = tuple(0 for _ in range(n))
    frontier = {seed: tuple(-int(x) for x in chi)}
    seen = {seed}
    while frontier:
        level = [w for w, val in frontier.items() if val == zero]
        for w in level:
            enter(w)
        minimals.extend(level)
        nxt = {}
        for w, val in frontier.items():
            if val == zero:
                continue
            for j in range(n):
                s = dot(val, cols[j])
                if s < 0 and w[j] >= 0:
                    step, col = 1, cols[j]
                elif s > 0 and w[j] <= 0:
                    step, col = -1, neg_cols[j]
                else:
                    continue
                w2 = w[:j] + (w[j] + step,) + w[j + 1:]
                if w2 in seen:
                    continue
                for p in index.get((j, w2[j]), ()):
                    if _conformal_leq(p, w2):
                        break
                else:
                    seen.add(w2)
                    nxt[w2] = tuple(map(add, val, col))
        frontier = nxt

    return [_sign_split(w) for w in minimals]
