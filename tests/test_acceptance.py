"""Acceptance gate: worked examples and property batteries, exact and timed.

Each test covers one criterion, enforces its time limit, and prints one
PASS line (visible with pytest -s).  Everything is exact rational
arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import test_semigroup as ts
import test_toric as tt
from helpers import curve_part, v_b_member

from ahyper.classify import (
    classify_curve,
    classify_normal,
    curve_holes,
    curve_semigroups,
    e_profile,
    enumerate_classes,
    iso_witness,
    isomorphic,
    normalized_volume,
)
from ahyper.cli import _generic_parameter, _series_exponent
from ahyper.cone import face_lattice, facets
from ahyper.lattice import (
    IntMatrix,
    affine_residue,
    column_lattice,
    dot,
    homogeneity_witness,
    vec_add,
    vec_sub,
)
from ahyper.semigroup import _face_sublattice, e_tau, in_NA
from ahyper.series import apply_operator, check_solution, phi_v
from ahyper.toric import b_ideal, m_chi
from ahyper.weyl import verify_certificate, verify_weight

A_DEMO = IntMatrix(((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)))
A_NORMAL3 = IntMatrix(((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)))
A_CURVE = IntMatrix(((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)))

NORMAL3_REPS = [
    (0, 0, 0), (-1, 0, 1), (0, -1, 1), (0, 1, -1), (1, 0, -1),
    (-1, -1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-2, -1, 1),
    (-1, -2, 1), (-1, 0, -1), (0, -1, -1), (-1, -1, 0),
]


def table(A, beta):
    return e_profile(A, beta).residue_table()


def test_criterion_1_demo_residue_sets_and_two_classes():
    t0 = time.monotonic()
    A = A_DEMO
    lat = face_lattice(A)
    sigma14 = lat.face_by_columns((0, 3))
    sub = _face_sublattice(A, sigma14)

    def canon(x):
        return affine_residue(sub, tuple(Fraction(c) for c in x))

    two = {canon((0, 0, 0)), canon((1, 1, 0))}
    assert len(two) == 2
    for beta in (A.column(1), A.column(2)):
        assert set(e_tau(A, sigma14, beta).residues) == two
    only_zero = {canon((0, 0, 0))}
    for i, j in product(range(5), range(5)):
        beta = vec_add(
            tuple(i * x for x in A.column(0)), tuple(j * x for x in A.column(3))
        )
        assert set(e_tau(A, sigma14, beta).residues) == only_zero

    box = tuple(product(range(7), range(7), range(7)))
    na_points = [p for p in box if in_NA(A, p) is not None]
    assert len(na_points) > 30
    groups = {}
    for p in na_points:
        groups.setdefault(table(A, p), []).append(p)
    assert len(groups) == 2

    enum = enumerate_classes(A, ((0, 6), (0, 6), (0, 6)))
    na_classes = [c for c in enum.classes if in_NA(A, c.representative) is not None]
    assert len(na_classes) == 2
    assert sorted(p for c in na_classes for p in c.members) == sorted(na_points)

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS criterion 1: demo residue sets and 2 semigroup classes ({elapsed:.1f}s < 10s)")


def test_criterion_2_normal_three_dim_fourteen_classes():
    t0 = time.monotonic()
    A = A_NORMAL3
    enum = enumerate_classes(A, ((-3, 3), (-3, 3), (-3, 3)))
    assert enum.class_count == 14

    sigma = facets(A)
    assert {tuple(s.f) for s in sigma} == {
        (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1),
    }

    def pattern(beta):
        return tuple(s.value(beta) >= 0 for s in sigma)

    classes_hit = set()
    for rep in NORMAL3_REPS:
        cls = enum.class_of(rep)
        classes_hit.add(cls.representative)
        want = pattern(rep)
        assert all(pattern(m) == want for m in cls.members)
    assert len(classes_hit) == 14

    for r1 in NORMAL3_REPS:
        for r2 in NORMAL3_REPS:
            rule = classify_normal(A, r1, r2)
            assert rule == isomorphic(A, r1, r2)
            assert rule == (pattern(r1) == pattern(r2))

    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 2: 14 classes with matching sign conditions ({elapsed:.1f}s < 30s)")


def test_criterion_3_curve_gaps_holes_and_five_parts():
    t0 = time.monotonic()
    A = A_CURVE
    s1, s2 = curve_semigroups(A)
    assert s1.gaps == (1, 3, 5)
    assert s2.gaps == (1, 3)
    assert curve_holes(A).holes == ((2, 10), (2, 12), (3, 19))

    points = [(x, y) for x in range(5) for y in range(26)]
    parts = {p: curve_part(A, p) for p in points}
    tables = {p: table(A, p) for p in points}
    assert set(parts.values()) == {
        "semigroup", "hole", "first_facet_only", "second_facet_only", "neither",
    }
    for p, q in combinations(points, 2):
        same_part = parts[p] == parts[q]
        assert (tables[p] == tables[q]) == same_part, (p, q)
        assert classify_curve(A, p, q) == same_part, (p, q)

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS criterion 3: curve gaps, 3 holes, five-part pairwise agreement ({elapsed:.1f}s < 10s)")


def random_box_matrix(rng):
    """Random homogeneous matrix, d <= 3, n <= 5, entries in [0, 3]."""
    while True:
        d = rng.choice((2, 3))
        n = rng.randint(d + 1, 5)
        rows = [[1] * n] + [
            [rng.randint(0, 3) for _ in range(n)] for _ in range(d - 1)
        ]
        try:
            return IntMatrix.from_rows(rows)
        except Exception:
            continue


def witness_battery(A, beta, beta2, order=8):
    """Full soundness checks for one declared-isomorphic pair."""
    w = iso_witness(A, beta, beta2)
    assert w.scalar != 0
    for op in (w.op_plus, w.op_minus):
        assert verify_weight(op.element, A, op.chi)
        assert verify_certificate(op, A)
    v = _series_exponent(A, beta, order)
    assert v is not None, (A.entries, beta)
    S = phi_v(A, v, order)
    assert not S.is_zero()
    assert check_solution(A, beta, S).ok
    T = apply_operator(w.op_plus.element, S)
    assert check_solution(A, beta2, T).ok
    return T.order >= 0 and not T.is_zero()


def test_criterion_4_witness_soundness_battery():
    t0 = time.monotonic()
    rng = random.Random(20260816)
    checked = 0
    informative = 0

    def pairs_for(A, betas, quota):
        nonlocal checked, informative
        done = 0
        attempts = 0
        while done < quota and attempts < 200:
            attempts += 1
            beta = rng.choice(betas)
            # one or two columns keep the operator spread inside the
            # order-8 window, so the series check stays informative
            js = [rng.randrange(A.n) for _ in range(rng.randint(1, 2))]
            chi = tuple(sum(A.column(j)[i] for j in js) for i in range(A.d))
            beta2 = vec_add(beta, chi)
            if not isomorphic(A, beta, beta2):
                continue
            informative += 1 if witness_battery(A, beta, beta2) else 0
            checked += 1
            done += 1
        assert done == quota, f"only {done}/{quota} pairs found"

    generic3 = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
    demo_betas = [generic3, (0, 1, 1), (1, 1, 2), (0, 0, 0), (2, 1, 1),
                  (Fraction(3, 2), Fraction(1, 3), Fraction(2, 7))]
    pairs_for(A_DEMO, demo_betas, 20)

    n3_betas = [generic3, (0, 0, 0), (1, 1, 0), (2, 1, 1),
                (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))]
    pairs_for(A_NORMAL3, n3_betas, 15)

    informative += 1 if witness_battery(
        A_CURVE, (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(3, 2), Fraction(1, 3))
    ) else 0
    checked += 1

    for _ in range(5):
        A = random_box_matrix(rng)
        beta = _generic_parameter(A)
        assert beta is not None
        betas = [beta, vec_add(beta, A.column(0))]
        pairs_for(A, betas, 4)

    assert checked >= 50, checked
    assert informative >= checked - 5, (informative, checked)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"PASS criterion 4: {checked} witnesses sound, {informative} with visible series action ({elapsed:.1f}s < 300s)")


def test_criterion_5_oracle_equivalences():
    t0 = time.monotonic()

    # e_tau against the exhaustive box-search oracle, 200 triples
    rng = random.Random(515)
    triples = 0
    while triples < 200:
        A = ts.random_homogeneous(rng, rng.randint(2, 3), rng.randint(3, 5))
        fl = face_lattice(A)
        proper = fl.proper_faces()
        if not proper:
            continue
        tau = proper[rng.randrange(len(proper))]
        beta = tuple(rng.randint(-3, 3) for _ in range(A.d))
        E = e_tau(A, tau, beta)
        expect = brute_e_tau(A, tau, beta)
        assert set(E.residues) == expect, (A.entries, tau.columns, beta)
        triples += 1

    # in_NA against plain level-set sumsets, every point of height <= 8
    for A in (A_DEMO, A_NORMAL3, A_CURVE):
        levels = ts.degree_levels(A, 8)
        members = set().union(*levels)
        los = [min(p[i] for p in members) - 1 for i in range(A.d)]
        his = [max(p[i] for p in members) + 1 for i in range(A.d)]
        h = homogeneity_witness(A)
        for gamma in product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
            deg = dot(h, gamma)
            if deg.denominator != 1 or not 0 <= deg <= 8:
                continue
            assert (in_NA(A, gamma) is not None) == (gamma in levels[int(deg)]), gamma

    # m_chi against the stabilized fiber walk, 50 shifts
    rng = random.Random(525)
    cases = [(A_DEMO, 16), (A_NORMAL3, 16),
             (IntMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 12),
             (IntMatrix(((1, 1), (0, 2))), 6)]
    total = 0
    for A, count in cases:
        box = tt.degree_box(A.n, 6)
        for _ in range(count):
            coefs = [rng.randint(-2, 2) for _ in range(A.n)]
            chi = A.apply(coefs)
            M = m_chi(A, chi)
            cache = {}
            for u in box:
                assert M.contains(u) == tt.member_oracle(A, chi, u, cache), (chi, u)
            total += 1
    assert total == 50

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"PASS criterion 5: residue, membership and shift-ideal oracles agree ({elapsed:.1f}s < 300s)")


def brute_e_tau(A, tau, beta):
    """Independent residue-set enumeration, mirroring the frozen oracle."""
    from ahyper.lattice import dot, integer_solve
    from ahyper.semigroup import _saturated_face_lattice, _span_equations
    from ahyper.lattice import quotient_representatives

    sub = _face_sublattice(A, tau)
    big = _saturated_face_lattice(A, tau)
    quo = quotient_representatives(big, sub)
    F = _span_equations(A, tau)
    ZA = column_lattice(A)
    FZ = tuple(tuple(dot(f, z) for z in ZA.vectors) for f in F)
    Fb = tuple(Fraction(dot(f, beta)) for f in F)
    c = integer_solve(FZ, Fb)
    if c is None:
        return set()
    lam0 = vec_sub(
        tuple(Fraction(x) for x in beta),
        tuple(
            sum(ci * z[i] for ci, z in zip(c, ZA.vectors)) for i in range(A.d)
        ),
    )
    out = set()
    for rep in quo.representatives:
        lam = vec_add(lam0, rep)
        if ts.member_mod_face_oracle(A, tau, vec_sub(beta, lam)):
            out.add(affine_residue(sub, lam))
    return out


def sample_on_component(rng, A, point, tau):
    coeffs = {j: Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for j in tau.columns}
    return vec_add(
        point,
        tuple(
            sum((coeffs[j] * A.column(j)[i] for j in tau.columns), Fraction(0))
            for i in range(A.d)
        ),
    )


def test_criterion_6_b_ideal_membership_and_shift_laws():
    t0 = time.monotonic()
    rng = random.Random(606)

    # membership vs the frozen-coordinate distraction solver
    plans = [(A_DEMO, 15), (A_NORMAL3, 14), (A_CURVE, 1)]
    checked = 0
    for A, count in plans:
        for _ in range(count):
            if A is A_CURVE:
                chi = (1, 0)
            else:
                chi = A.apply([rng.randint(0, 2) for _ in range(A.n)])
            B = b_ideal(A, chi)
            for _ in range(10):
                beta = tuple(
                    Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                    for _ in range(A.d)
                )
                assert v_b_member(B, beta) == tt.distraction_member(A, B, beta)
            for point, tau in B.components[:10]:
                beta = sample_on_component(rng, A, point, tau)
                assert v_b_member(B, beta)
                assert tt.distraction_member(A, B, beta)
            checked += 1
    assert checked == 30

    # union law for composed nonnegative shifts
    for A in (A_DEMO, A_NORMAL3):
        for _ in range(4):
            chi1 = A.apply([rng.randint(0, 2) for _ in range(A.n)])
            chi2 = A.apply([rng.randint(0, 2) for _ in range(A.n)])
            total = b_ideal(A, vec_add(chi1, chi2))
            B1, B2 = b_ideal(A, chi1), b_ideal(A, chi2)
            right = [(q, r.columns) for q, r in B1.components] + [
                (vec_add(q, chi1), r.columns) for q, r in B2.components
            ]
            left = [(q, r.columns) for q, r in total.components]
            for point, tau in total.components:
                assert tt.component_inside(A, point, tau, right)
            for point, tau in B1.components:
                assert tt.component_inside(A, point, tau, left)
            for point, tau in B2.components:
                assert tt.component_inside(A, vec_add(point, chi1), tau, left)

    # round-trip law: the two-sided locus is the shifted union
    for A in (A_DEMO, A_NORMAL3):
        for _ in range(4):
            chi = A.apply([rng.randint(0, 2) for _ in range(A.n)])
            Bp, Bm = b_ideal(A, chi), b_ideal(A, tuple(-x for x in chi))

            def roundtrip_member(beta):
                return v_b_member(Bp, vec_add(beta, chi)) or v_b_member(Bm, beta)

            union = [(vec_sub(q, chi), tau) for q, tau in Bp.components]
            union += list(Bm.components)
            for point, tau in union:
                beta = sample_on_component(rng, A, point, tau)
                assert roundtrip_member(beta)
            for _ in range(10):
                beta = tuple(
                    Fraction(rng.randint(-9, 9), 2) for _ in range(A.d)
                )
                assert roundtrip_member(beta) == union_contains(A, union, beta), (
                    chi,
                    beta,
                )

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"PASS criterion 6: b-ideal membership and both shift laws ({elapsed:.1f}s < 120s)")


def union_contains(A, components, beta):
    from ahyper.lattice import solve_rational

    beta = tuple(Fraction(x) for x in beta)
    for q, tau in components:
        rhs = vec_sub(beta, q)
        cols = list(tau.columns)
        if not cols:
            if all(x == 0 for x in rhs):
                return True
            continue
        rows = tuple(tuple(A.entries[i][j] for j in cols) for i in range(A.d))
        if solve_rational(rows, rhs) is not None:
            return True
    return False


def test_criterion_7_nonresonant_coset_law():
    t0 = time.monotonic()
    rng = random.Random(707)
    matrices = [A_DEMO, A_NORMAL3, A_CURVE,
                ts.random_homogeneous(rng, 2, 4), ts.random_homogeneous(rng, 3, 4)]
    count = 0
    for A in matrices:
        sigma = facets(A)
        base = _generic_parameter(A)
        assert base is not None
        for _ in range(4):
            z = A.apply([rng.randint(-2, 2) for _ in range(A.n)])
            beta = vec_add(base, z)
            assert all(s.value(beta).denominator != 1 for s in sigma)
            chi = A.apply([rng.randint(-2, 2) for _ in range(A.n)])
            assert isomorphic(A, beta, vec_add(beta, chi)) is True
            basis = column_lattice(A)
            off = None
            for denom in (2, 3, 5):
                cand = tuple(Fraction(x, denom) for x in A.column(0))
                if basis.member(cand) is None:
                    off = cand
                    break
            assert off is not None
            assert isomorphic(A, beta, vec_add(beta, off)) is False
            count += 1
    assert count == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 7: 20 semi-nonresonant parameters obey the coset law ({elapsed:.1f}s < 60s)")


def test_volume_substitute_for_generic_rank():
    t0 = time.monotonic()
    assert normalized_volume(A_CURVE) == 9
    assert normalized_volume(A_DEMO) == 3
    rng = random.Random(808)
    perm = list(range(A_CURVE.n))
    for _ in range(3):
        rng.shuffle(perm)
        rows = [[A_CURVE.entries[i][j] for j in perm] for i in range(2)]
        assert normalized_volume(IntMatrix.from_rows(rows)) == 9
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS volume substitute: curve volume 9, order-independent ({elapsed:.1f}s < 10s)")
