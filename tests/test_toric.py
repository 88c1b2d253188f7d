"""Toric ideal, M_chi, standard pairs, b-ideals.

The oracles here avoid the library's search machinery entirely: fibers are
enumerated by exact total degree (the homogeneity functional makes every
fiber finite), M_chi membership is decided by direct witness enumeration,
Graver minimality by a box scan, and b-ideal varieties by rational linear
solvability of the parameterization with frozen off-face coordinates.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ahyper.cone import face_lattice, facets
from ahyper.errors import InputError
from ahyper.lattice import (
    IntMatrix,
    LatticeBasis,
    dot,
    homogeneity_witness,
    solve_rational,
    vec_add,
    vec_sub,
)
from ahyper.toric import (
    Binomial,
    MonomialIdeal,
    StandardPair,
    b_ideal,
    b_poly_avoiding,
    graver_basis,
    grevlex_key,
    leading_term,
    m_chi,
    minimal_solutions,
    mono_divides,
    normal_form,
    poly_add,
    poly_mul_mono,
    shift_pair,
    standard_pairs,
    toric_ideal,
    v_b_member,
)

A_DEMO = ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0))
A_NORMAL3 = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
A_CURVE = ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9))
A_INDEX2 = ((1, 1), (0, 2))
A_SMALL = ((1, 1, 1, 1), (0, 1, 3, 4))


def fiber(A, gamma):
    """All u >= 0 with Au = gamma, walked at the exact total degree."""
    h = homogeneity_witness(A)
    deg = dot(h, tuple(Fraction(x) for x in gamma))
    if deg.denominator != 1 or deg < 0:
        return []
    deg = int(deg)
    gamma = tuple(int(x) for x in gamma)
    out = []

    def walk(j, left, acc):
        if j == A.n - 1:
            u = acc + (left,)
            if A.apply(u) == gamma:
                out.append(u)
            return
        for x in range(left + 1):
            walk(j + 1, left - x, acc + (x,))

    walk(0, deg, ())
    return out


def member_oracle(A, chi, u, cache):
    """u in M_chi iff some v >= 0 has A(u - v) = chi."""
    gamma = vec_sub(A.apply(u), chi)
    if gamma not in cache:
        cache[gamma] = bool(fiber(A, gamma))
    return cache[gamma]


def degree_box(n, maxdeg):
    out = []

    def walk(j, left, acc):
        if j == n:
            out.append(tuple(acc))
            return
        for x in range(left + 1):
            acc.append(x)
            walk(j + 1, left - x, acc)
            acc.pop()

    walk(0, maxdeg, [])
    return out


def conformal_leq(s, f):
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(s, f))


def random_homogeneous(rng, d, n):
    while True:
        rows = [tuple(1 for _ in range(n))]
        for _ in range(d - 1):
            rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        try:
            return IntMatrix(tuple(rows))
        except Exception:
            continue


def span_basis(A, columns):
    return LatticeBasis.from_generators(A.d, [A.column(j) for j in columns])


def component_inside(A, point, tau, targets):
    """Whether point + span(A cap tau) sits inside one target subspace.

    targets: list of (point, columns) pairs.  An affine subspace lies in a
    finite union of subspaces only by lying in a single one, so the check
    per target is span containment plus one point membership.
    """
    for q, cols in targets:
        sub = span_basis(A, cols)
        if sub.span_solve(vec_sub(point, q)) is None:
            continue
        if all(sub.span_solve(A.column(j)) is not None for j in tau.columns):
            return True
    return False


def distraction_member(A, B, beta):
    """beta in V(B_chi) via the frozen-coordinate parameterization.

    A standard-pair component (Au, tau) contains beta iff the system
    A theta = beta with theta_i pinned off tau is rationally solvable.
    """
    beta = tuple(Fraction(x) for x in beta)
    for point, tau in B.components:
        cols = list(tau.columns)
        rhs = vec_sub(beta, point)
        if not cols:
            if all(x == 0 for x in rhs):
                return True
            continue
        rows = tuple(tuple(A.entries[i][j] for j in cols) for i in range(A.d))
        if solve_rational(rows, rhs) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# term order and Groebner engine


def test_grevlex_order_on_three_variables():
    key = grevlex_key((0, 1, 2))
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    y2 = (0, 2, 0)
    xz = (1, 0, 1)
    yz = (0, 1, 1)
    z2 = (0, 0, 2)
    expected = [x2, xy, y2, xz, yz, z2]
    assert sorted(expected, key=key, reverse=True) == expected
    assert key((1, 0, 0)) < key(x2)


def test_toric_ideal_demo_is_principal():
    I = toric_ideal(IntMatrix(A_DEMO))
    assert len(I.generators) == 1
    g = I.generators[0]
    assert {g.plus, g.minus} == {(1, 0, 2, 0), (0, 2, 0, 1)}


def test_toric_ideal_square_matrix_is_zero():
    I = toric_ideal(IntMatrix(((1, 0), (0, 1))))
    assert I.generators == ()


def test_toric_ideal_curve_generators_substitute_to_zero():
    A = IntMatrix(A_CURVE)
    I = toric_ideal(A)
    assert len(I.generators) == 7
    for g in I.generators:
        assert A.apply(g.plus) == A.apply(g.minus)
        assert not any(a and b for a, b in zip(g.plus, g.minus))
        assert any(g.plus) and any(g.minus)
    degs = sorted(sum(g.plus) + sum(g.minus) for g in I.generators)
    assert degs == [4, 4, 4, 8, 8, 8, 10]


def test_groebner_bases_reduced_and_spairs_vanish():
    for rows in (A_DEMO, A_CURVE):
        A = IntMatrix(rows)
        I = toric_ideal(A)
        for lowest in (0, A.n - 1):
            seq = tuple(j for j in range(A.n) if j != lowest) + (lowest,)
            key = grevlex_key(seq)
            G = I.groebner(lowest)
            assert G == I.groebner(lowest)
            triples = [(g,) + leading_term(g, key) for g in G]
            for i, (g, lt, lc) in enumerate(triples):
                assert lc == 1
                for m in g:
                    divisors = [
                        t for k, (_, t, _) in enumerate(triples) if k != i and mono_divides(t, m)
                    ]
                    if m == lt:
                        assert not divisors
                    else:
                        assert not divisors  # tails are fully reduced too
            for i in range(len(triples)):
                for j in range(i + 1, len(triples)):
                    gi, lti, _ = triples[i]
                    gj, ltj, _ = triples[j]
                    lcm = tuple(max(a, b) for a, b in zip(lti, ltj))
                    s = poly_add(
                        poly_mul_mono(gi, vec_sub(lcm, lti)),
                        poly_mul_mono(gj, vec_sub(lcm, ltj), Fraction(-1)),
                    )
                    assert normal_form(s, triples, key) == {}


# ---------------------------------------------------------------------------
# Graver bases


def test_graver_demo_and_small():
    assert set(graver_basis(IntMatrix(A_DEMO))) == {(1, -2, 2, -1), (-1, 2, -2, 1)}
    assert set(graver_basis(IntMatrix(((1, 1, 1), (0, 1, 3))))) == {(2, -3, 1), (-2, 3, -1)}


def test_graver_curve_pinned():
    g = graver_basis(IntMatrix(A_CURVE))
    assert len(g) == 92
    assert max(sum(abs(x) for x in v) for v in g) == 18
    A = IntMatrix(A_CURVE)
    zero = tuple(0 for _ in range(A.d))
    for v in g:
        assert A.apply(v) == zero
        assert tuple(-x for x in v) in set(g)
        assert not any(w != v and conformal_leq(w, v) for w in g)


def test_graver_matches_box_scan_on_random_matrices():
    rng = random.Random(11)
    for _ in range(6):
        A = random_homogeneous(rng, 2, 4)
        zero = tuple(0 for _ in range(A.d))
        box = 5
        kernel_vecs = [
            w
            for w in product(range(-box, box + 1), repeat=A.n)
            if any(w) and A.apply(w) == zero
        ]
        minimal = {
            w
            for w in kernel_vecs
            if not any(v != w and conformal_leq(v, w) for v in kernel_vecs)
        }
        inside = {g for g in graver_basis(A) if max(abs(x) for x in g) <= box}
        assert inside == minimal


# ---------------------------------------------------------------------------
# M_chi


def test_m_chi_trivial_shifts():
    A = IntMatrix(A_DEMO)
    assert m_chi(A, (0, 0, 0)).is_unit()
    neg_a1 = tuple(-x for x in A.column(0))
    assert m_chi(A, neg_a1).is_unit()
    M = m_chi(A, A.column(0))
    assert (1, 0, 0, 0) in M.gens


def test_m_chi_demo_pinned():
    A = IntMatrix(A_DEMO)
    assert set(m_chi(A, (1, 0, 0)).gens) == {(1, 0, 0, 0), (0, 2, 0, 1)}
    assert set(m_chi(A, (1, 0, 1)).gens) == {(0, 1, 0, 0), (1, 0, 2, 0)}


def test_shift_pair_takes_the_lowest_total_degree():
    A = IntMatrix(A_SMALL)
    sols = minimal_solutions(A, (1, 1))
    assert len(sols) == 6
    assert min(sols) == ((0, 0, 3, 0), (0, 0, 0, 2))
    assert shift_pair(A, (1, 1)) == ((0, 1, 0, 0), (0, 0, 0, 0))
    # degree ties go to the lexicographically least pair
    A = IntMatrix(A_DEMO)
    tied = {((0, 0, 1, 0), (0, 1, 0, 1)), ((0, 1, 0, 0), (1, 0, 1, 0))}
    sols = minimal_solutions(A, (-1, -1, 0))
    assert tied <= set(sols)
    assert min(sum(u) + sum(v) for u, v in sols) == 3
    assert shift_pair(A, (-1, -1, 0)) == ((0, 0, 1, 0), (0, 1, 0, 1))


def test_m_chi_rejects_vector_outside_lattice():
    A = IntMatrix(A_INDEX2)
    with pytest.raises(InputError):
        m_chi(A, (0, 1))
    assert not m_chi(A, (0, 2)).is_unit()


def test_m_chi_agrees_with_witness_enumeration():
    cases = [
        (A_DEMO, [(1, 0, 0), (1, 0, 1), (2, 1, 1), (0, 1, 0), (-1, 0, -1), (0, 0, 0)]),
        (A_NORMAL3, [(1, 0, 0), (1, 1, -1), (2, 1, 0), (0, 0, 1), (-1, -1, 1)]),
        (A_INDEX2, [(1, 0), (1, 2), (0, 2), (2, 2), (-1, -2)]),
        (A_SMALL, [(1, 0), (1, 3), (2, 4), (0, 1), (1, 1)]),
    ]
    for rows, chis in cases:
        A = IntMatrix(rows)
        box = degree_box(A.n, 8)
        for chi in chis:
            M = m_chi(A, chi)
            cache = {}
            for u in box:
                assert M.contains(u) == member_oracle(A, chi, u, cache), (rows, chi, u)
            for g in M.gens:
                assert member_oracle(A, chi, g, cache)
                for j in range(A.n):
                    if g[j]:
                        below = tuple(x - 1 if k == j else x for k, x in enumerate(g))
                        assert not member_oracle(A, chi, below, cache)
            for g in M.gens:
                assert not any(h != g and mono_divides(h, g) for h in M.gens)


# ---------------------------------------------------------------------------
# standard pairs


def test_standard_pairs_principal_ideal():
    A = IntMatrix(((1, 1), (0, 1)))
    M = MonomialIdeal(gens=((1, 0),))
    pairs = standard_pairs(M, face_lattice(A))
    assert len(pairs) == 1
    assert pairs[0].u == (0, 0)
    assert pairs[0].tau.columns == (1,)


def test_standard_pairs_unit_ideal_empty():
    A = IntMatrix(A_DEMO)
    assert standard_pairs(m_chi(A, (0, 0, 0)), face_lattice(A)) == ()


def test_standard_pairs_demo_pinned():
    A = IntMatrix(A_DEMO)
    M = m_chi(A, (1, 0, 1))
    pairs = standard_pairs(M, face_lattice(A))
    seen = {(p.u, p.tau.columns) for p in pairs}
    assert seen == {
        ((0, 0, 0, 0), (0, 3)),
        ((0, 0, 1, 0), (0, 3)),
        ((0, 0, 0, 0), (2, 3)),
    }


def test_standard_pairs_conditions_and_covering():
    cases = [
        (A_DEMO, [(1, 0, 0), (1, 0, 1), (0, 1, 0), (2, 1, 1)]),
        (A_NORMAL3, [(1, 0, 0), (0, 0, 1), (1, 1, -1)]),
        (A_SMALL, [(1, 0), (1, 3), (1, 1)]),
    ]
    for rows, chis in cases:
        A = IntMatrix(rows)
        fl = face_lattice(A)
        box = degree_box(A.n, 6)
        for chi in chis:
            M = m_chi(A, chi)
            pairs = standard_pairs(M, fl)
            for p in pairs:
                assert all(p.u[j] == 0 for j in p.tau.columns)
                assert not M.contains(p.u)
                off = [j for j in range(A.n) if j not in p.tau.columns]
                for j in off:
                    witness = any(
                        g[j] > p.u[j]
                        and all(g[k] <= p.u[k] for k in off if k != j)
                        for g in M.gens
                    )
                    assert witness, (rows, chi, p)
            for u in box:
                covered = any(
                    all(u[j] == p.u[j] for j in range(A.n) if j not in p.tau.columns)
                    for p in pairs
                )
                assert covered == (not M.contains(u)), (rows, chi, u)


# ---------------------------------------------------------------------------
# b-ideals


def test_b_ideal_unit_for_negative_shifts():
    A = IntMatrix(A_DEMO)
    for chi in [(0, 0, 0), (-1, 0, 0), (-2, -1, -1)]:
        B = b_ideal(A, chi)
        assert B.components == ()
        assert not v_b_member(B, (1, 2, 3))
        poly = b_poly_avoiding(B, (1, 2, 3))
        assert poly.degree() == 0
        assert poly.evaluate((5, 5, 5)) == 1


def test_b_ideal_demo_components_pinned():
    A = IntMatrix(A_DEMO)
    B = b_ideal(A, (1, 0, 1))
    seen = {(point, tau.columns) for point, tau in B.components}
    assert seen == {
        ((0, 0, 0), (0, 3)),
        ((1, 1, 1), (0, 3)),
        ((0, 0, 0), (2, 3)),
    }


def test_b_ideal_components_come_from_standard_pairs():
    A = IntMatrix(A_DEMO)
    fl = face_lattice(A)
    for chi in [(1, 0, 0), (1, 0, 1), (2, 1, 1), (0, 1, 0)]:
        B = b_ideal(A, chi)
        pairs = standard_pairs(m_chi(A, chi), fl)
        pair_keys = {(A.apply(p.u), p.tau.columns) for p in pairs}
        comp_keys = {(point, tau.columns) for point, tau in B.components}
        assert comp_keys <= pair_keys
        for point, tau in B.components:
            assert v_b_member(B, point)


def test_v_b_member_matches_distraction_solver():
    A = IntMatrix(A_DEMO)
    rng = random.Random(23)
    grid = [
        tuple(Fraction(rng.randint(-4, 6), rng.choice([1, 1, 2])) for _ in range(3))
        for _ in range(40
        )
    ]
    for chi in [(1, 0, 0), (1, 0, 1), (2, 1, 1)]:
        B = b_ideal(A, chi)
        for beta in grid:
            assert v_b_member(B, beta) == distraction_member(A, B, beta)
        for point, tau in B.components:
            coeffs = {j: Fraction(rng.randint(-3, 3)) for j in tau.columns}
            shifted = vec_add(
                point,
                tuple(
                    sum((coeffs[j] * A.column(j)[i] for j in tau.columns), Fraction(0))
                    for i in range(A.d)
                ),
            )
            assert v_b_member(B, shifted)
            assert distraction_member(A, B, shifted)


def test_b_ideal_shift_law():
    A = IntMatrix(A_DEMO)
    rng = random.Random(5)
    for _ in range(8):
        coeffs1 = [rng.randint(0, 2) for _ in range(A.n)]
        coeffs2 = [rng.randint(0, 2) for _ in range(A.n)]
        chi1 = A.apply(coeffs1)
        chi2 = A.apply(coeffs2)
        total = b_ideal(A, vec_add(chi1, chi2))
        B1 = b_ideal(A, chi1)
        B2 = b_ideal(A, chi2)
        right = [(q, rho.columns) for q, rho in B1.components] + [
            (vec_add(q, chi1), rho.columns) for q, rho in B2.components
        ]
        for point, tau in total.components:
            assert component_inside(A, point, tau, right), (chi1, chi2, point)
        left = [(q, rho.columns) for q, rho in total.components]
        for point, tau in B1.components:
            assert component_inside(A, point, tau, left)
        for point, tau in B2.components:
            assert component_inside(A, vec_add(point, chi1), tau, left)


def test_b_poly_avoiding_properties():
    A = IntMatrix(A_DEMO)
    rng = random.Random(31)
    for chi in [(1, 0, 0), (1, 0, 1), (2, 1, 1)]:
        B = b_ideal(A, chi)
        if not B.components:
            continue
        point0, tau0 = B.components[0]
        assert b_poly_avoiding(B, point0) is None
        for _ in range(6):
            beta = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(A.d))
            poly = b_poly_avoiding(B, beta)
            if v_b_member(B, beta):
                assert poly is None
                continue
            assert poly is not None
            assert poly.evaluate(beta) != 0
            assert poly.degree() == len(B.components)
            for point, tau in B.components:
                for _ in range(10):
                    coeffs = {
                        j: Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
                        for j in tau.columns
                    }
                    sample = vec_add(
                        point,
                        tuple(
                            sum(
                                (coeffs[j] * A.column(j)[i] for j in tau.columns),
                                Fraction(0),
                            )
                            for i in range(A.d)
                        ),
                    )
                    assert poly.evaluate(sample) == 0


# ---------------------------------------------------------------------------
# the monomial curve, exercised once (heavier shift computation)


def test_curve_shift_ideal_and_b_ideal():
    A = IntMatrix(A_CURVE)
    chi = (1, 2)
    M = m_chi(A, chi)
    assert set(M.gens) == {
        (0, 1, 0, 0, 0),
        (0, 0, 1, 1, 0),
        (1, 0, 0, 0, 1),
        (1, 0, 1, 0, 0),
        (0, 0, 4, 0, 0),
        (2, 0, 0, 2, 0),
        (0, 0, 3, 0, 2),
        (1, 0, 0, 4, 0),
        (0, 0, 0, 6, 0),
    }
    cache = {}
    for g in M.gens:
        assert member_oracle(A, chi, g, cache)
        for j in range(A.n):
            if g[j]:
                below = tuple(x - 1 if k == j else x for k, x in enumerate(g))
                assert not member_oracle(A, chi, below, cache)
    B = b_ideal(A, chi)
    assert B.components
    for point, tau in B.components:
        assert tau.dim in (0, 1)  # points and lines in the plane
    rng = random.Random(41)
    grid = [(Fraction(x), Fraction(y)) for x in range(-1, 4) for y in range(-2, 12)]
    for beta in grid:
        assert v_b_member(B, beta) == distraction_member(A, B, beta)
