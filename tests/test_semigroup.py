"""Semigroup membership, E-sets, normality, resonance.

The searches in the library prune through a positive functional and
memoized failures, so the tests here check them against slower independent
oracles: a level-set dynamic program for plain membership, and a box-bounded
exhaustive enumeration for membership relative to a face.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from helpers import resonance

from ahyper import lattice, semigroup
from ahyper.cone import face_lattice, facets
from ahyper.lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    LatticeBasis,
    affine_residue,
    column_lattice,
    dot,
    homogeneity_witness,
    vec_add,
    vec_sub,
)
from ahyper.semigroup import (
    _face_sublattice,
    _saturated_face_lattice,
    e_tau,
    facet_value_semigroup,
    in_NA,
    in_NA_mod_face,
    is_normal,
    numerical_semigroup,
    quotient_representatives,
)

A_DEMO = ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0))
A_NORMAL3 = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
A_CURVE = ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9))


def random_homogeneous(rng, d, n):
    while True:
        rows = [tuple(1 for _ in range(n))]
        for _ in range(d - 1):
            rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        try:
            return IntMatrix(tuple(rows))
        except Exception:
            continue


def degree_levels(A, maxdeg):
    """Oracle: all semigroup elements of degree <= maxdeg, by plain sumsets."""
    levels = [{tuple(0 for _ in range(A.d))}]
    for _ in range(maxdeg):
        nxt = set()
        for v in levels[-1]:
            for j in range(A.n):
                nxt.add(vec_add(v, A.column(j)))
        levels.append(nxt)
    return levels


def member_mod_face_oracle(A, tau, gamma):
    """Oracle: exhaustive box search for gamma in NA + Z(A cap tau).

    Each off-face exponent is bounded through some facet containing tau
    that is positive on its column; no summed functional, no memo.
    """
    sub = LatticeBasis.from_generators(A.d, [A.column(j) for j in tau.columns])
    gamma = tuple(Fraction(x) for x in gamma)
    sigma = facets(A)
    inc = [sigma[i] for i in tau.incident_facets]
    off = [j for j in range(A.n) if j not in tau.columns]
    caps = []
    for j in off:
        cap = None
        for s in inc:
            val = s.value(A.column(j))
            if val > 0:
                c = s.value(gamma) / val
                c = int(c) if c >= 0 else -1
                cap = c if cap is None else min(cap, c)
        if cap is None or cap < 0:
            if cap is None:
                raise AssertionError("face closure should give a positive facet")
            return False
        caps.append(cap)
    for u in product(*(range(c + 1) for c in caps)):
        shifted = gamma
        for uj, j in zip(u, off):
            shifted = vec_sub(shifted, tuple(uj * x for x in A.column(j)))
        if sub.member(shifted) is not None:
            return True
    return False


def test_in_na_matches_levelset_oracle():
    rng = random.Random(211)
    for _ in range(12):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        A = random_homogeneous(rng, d, n)
        maxdeg = 6
        levels = degree_levels(A, maxdeg)
        members = set().union(*levels)
        h = homogeneity_witness(A)
        for gamma in members:
            u = in_NA(A, gamma)
            assert u is not None
            assert A.apply(u) == gamma
            assert all(x >= 0 for x in u)
        # near-misses around each level
        for k in range(maxdeg + 1):
            for v in list(levels[k])[:20]:
                for delta in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                    w = list(v)
                    w[0] += delta[0]
                    w[-1] += delta[-1]
                    w = tuple(w)
                    if dot(h, w) == k and w not in members:
                        assert in_NA(A, w) is None


def test_in_na_curve_members_and_holes():
    C = IntMatrix(A_CURVE)
    assert in_NA(C, (0, 0)) == (0, 0, 0, 0, 0)
    for hole in ((2, 10), (2, 12), (3, 19)):
        assert in_NA(C, hole) is None
    for m, t in ((2, 11), (2, 9), (3, 18), (4, 19), (2, 13)):
        u = in_NA(C, (m, t))
        assert u is not None and C.apply(u) == (m, t)
    # non-integral and negative inputs are clean non-members
    assert in_NA(C, (Fraction(1, 2), Fraction(1))) is None
    assert in_NA(C, (-1, 0)) is None


def test_in_na_mod_face_matches_box_oracle():
    rng = random.Random(223)
    for _ in range(8):
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, d + 2)
        A = random_homogeneous(rng, d, n)
        fl = face_lattice(A)
        for tau in fl.proper_faces():
            for _ in range(12):
                gamma = tuple(rng.randint(-4, 4) for _ in range(d))
                got = in_NA_mod_face(A, tau, gamma)
                want = member_mod_face_oracle(A, tau, gamma)
                assert got == want, (A.entries, tau.columns, gamma)


def test_e_tau_demo_face_has_two_residues():
    A = IntMatrix(A_DEMO)
    fl = face_lattice(A)
    s14 = fl.face_by_columns((0, 3))
    E2 = e_tau(A, s14, A.column(1))
    E3 = e_tau(A, s14, A.column(2))
    assert E2.residues == E3.residues
    assert len(E2.residues) == 2
    sub = _face_sublattice(A, s14)
    # the nontrivial residue is the class of (1,1,0)
    classes = {affine_residue(sub, r) for r in E2.residues}
    assert affine_residue(sub, (Fraction(1), Fraction(1), Fraction(0))) in classes
    assert affine_residue(sub, (Fraction(0), Fraction(0), Fraction(0))) in classes
    # beta = a_1 sees only the trivial residue
    E1 = e_tau(A, s14, A.column(0))
    assert len(E1.residues) == 1


def test_e_tau_against_bruteforce_oracle():
    rng = random.Random(227)
    for _ in range(6):
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, d + 2)
        A = random_homogeneous(rng, d, n)
        fl = face_lattice(A)
        for tau in fl.proper_faces():
            sub = _face_sublattice(A, tau)
            big = _saturated_face_lattice(A, tau)
            quo = quotient_representatives(big, sub)
            for _ in range(6):
                beta = tuple(rng.randint(-3, 3) for _ in range(d))
                E = e_tau(A, tau, beta)
                assert len(E.residues) <= quo.index
                # independent filter of the same candidate cosets
                from ahyper.semigroup import _span_equations
                from ahyper.lattice import integer_solve

                F = _span_equations(A, tau)
                ZA = column_lattice(A)
                FZ = tuple(tuple(dot(f, z) for z in ZA.vectors) for f in F)
                Fb = tuple(Fraction(dot(f, beta)) for f in F)
                c = integer_solve(FZ, Fb)
                if c is None:
                    assert E.residues == ()
                    continue
                lam0 = vec_sub(
                    tuple(Fraction(x) for x in beta),
                    tuple(
                        sum(ci * z[i] for ci, z in zip(c, ZA.vectors))
                        for i in range(d)
                    ),
                )
                expect = set()
                for rep in quo.representatives:
                    lam = vec_add(lam0, rep)
                    if member_mod_face_oracle(A, tau, vec_sub(beta, lam)):
                        expect.add(affine_residue(sub, lam))
                assert set(E.residues) == expect


def test_e_tau_whole_cone_and_origin():
    A = IntMatrix(A_DEMO)
    fl = face_lattice(A)
    whole = fl.face_by_columns(tuple(range(A.n)))
    origin = fl.face_by_columns(())
    rng = random.Random(229)
    for _ in range(20):
        beta = tuple(rng.randint(-5, 5) for _ in range(3))
        assert len(e_tau(A, whole, beta).residues) == 1
        E0 = e_tau(A, origin, beta).residues
        if in_NA(A, beta) is not None:
            assert E0 == ((Fraction(0), Fraction(0), Fraction(0)),)
        else:
            assert E0 == ()


def test_e_tau_monotone_under_face_inclusion():
    rng = random.Random(233)
    for _ in range(6):
        d = rng.randint(2, 3)
        A = random_homogeneous(rng, d, d + 2)
        fl = face_lattice(A)
        for _ in range(8):
            beta = tuple(rng.randint(-3, 3) for _ in range(d))
            for small in fl.faces:
                for big_f in fl.faces:
                    if big_f.is_whole_cone() or not fl.contains(small, big_f):
                        continue
                    Es = e_tau(A, small, beta)
                    Eb = e_tau(A, big_f, beta)
                    sub_b = _face_sublattice(A, big_f)
                    for lam in Es.residues:
                        assert affine_residue(sub_b, lam) in Eb.residues


def test_e_tau_shift_inclusion():
    rng = random.Random(239)
    A = IntMatrix(A_DEMO)
    fl = face_lattice(A)
    for _ in range(15):
        beta = tuple(rng.randint(-3, 3) for _ in range(3))
        u = tuple(rng.randint(0, 2) for _ in range(4))
        chi = A.apply(u)
        for tau in fl.proper_faces():
            E0 = set(e_tau(A, tau, beta).residues)
            E1 = set(e_tau(A, tau, vec_add(beta, chi)).residues)
            assert E0 <= E1


def test_facet_criterion():
    rng = random.Random(241)
    for rows in (A_DEMO, A_CURVE):
        A = IntMatrix(rows)
        fl = face_lattice(A)
        sgs = [facet_value_semigroup(A, i) for i in range(len(fl.facets))]
        for _ in range(60):
            beta = tuple(rng.randint(-6, 12) for _ in range(A.d))
            for i, s in enumerate(fl.facets):
                face = fl.face_by_columns(s.zero_columns)
                nonempty = bool(e_tau(A, face, beta).residues)
                assert nonempty == sgs[i].contains(s.value(beta))


def test_is_normal():
    assert is_normal(IntMatrix(A_NORMAL3)) is True
    assert is_normal(IntMatrix(A_DEMO)) is False
    assert is_normal(IntMatrix(A_CURVE)) is False
    assert is_normal(IntMatrix(((1, 1),))) is True


def test_normal_implies_trivial_quotients_and_full_semigroups():
    A = IntMatrix(A_NORMAL3)
    fl = face_lattice(A)
    for tau in fl.proper_faces():
        big = _saturated_face_lattice(A, tau)
        sub = _face_sublattice(A, tau)
        assert quotient_representatives(big, sub).index == 1
    for i in range(len(fl.facets)):
        assert facet_value_semigroup(A, i).gaps == ()


def test_curve_facet_semigroups():
    C = IntMatrix(A_CURVE)
    S1 = facet_value_semigroup(C, 0)
    S2 = facet_value_semigroup(C, 1)
    assert S1.generators == (2, 4, 7, 9) and S1.gaps == (1, 3, 5)
    assert S2.generators == (2, 5, 7, 9) and S2.gaps == (1, 3)
    assert S1.frobenius == 5 and S2.frobenius == 3
    assert S1.contains(6) and not S1.contains(5)
    assert not S1.contains(Fraction(7, 2)) and not S1.contains(-2)


def test_numerical_semigroup_basics():
    s = numerical_semigroup((2, 3))
    assert s.gaps == (1,) and s.frobenius == 1
    assert numerical_semigroup((1,)).gaps == ()
    assert numerical_semigroup((5, 3)).generators == (3, 5)
    with pytest.raises(ValueError):
        numerical_semigroup((4, 6))


def test_resonance_flags_and_semi_nonresonant_emptiness():
    A = IntMatrix(A_DEMO)
    r = resonance(A, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    assert r.nonresonant and r.semi_nonresonant
    assert not any(r.facet_integral)
    # nonresonant implies semi-nonresonant on randoms
    rng = random.Random(251)
    fl = face_lattice(A)
    checked = 0
    for _ in range(40):
        beta = tuple(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5)))
            for _ in range(3)
        )
        r = resonance(A, beta)
        if r.nonresonant:
            assert r.semi_nonresonant
        if r.semi_nonresonant:
            checked += 1
            for tau in fl.proper_faces():
                assert e_tau(A, tau, beta).residues == ()
    assert checked > 0


def test_face_data_is_built_once_per_face(monkeypatch):
    built = []
    real = semigroup.quotient_representatives
    monkeypatch.setattr(
        semigroup, "quotient_representatives",
        lambda big, small: built.append(small) or real(big, small))
    semigroup._face_data.cache_clear()
    rng = random.Random(257)
    faces = 0
    for rows in (A_DEMO, A_CURVE, A_NORMAL3):
        A = IntMatrix(rows)
        proper = face_lattice(A).proper_faces()
        faces += len(proper)
        for _ in range(8):
            den = rng.choice((1, 2, 3))
            beta = tuple(Fraction(rng.randint(-5, 5), den) for _ in range(A.d))
            for tau in proper:
                e_tau(A, tau, beta)
                in_NA_mod_face(A, tau, tuple(rng.randint(-3, 3) for _ in range(A.d)))
    assert len(built) == faces


def test_affine_residue_eliminates_once_per_basis(monkeypatch):
    bases = [
        LatticeBasis.from_generators(3, [(2, 1, 0), (0, 3, 1)]),
        LatticeBasis.from_generators(3, [(1, 2, 3), (4, 5, 6), (7, 8, 10)]),
    ]
    eliminations = []
    real = lattice._rref
    monkeypatch.setattr(lattice, "_rref", lambda m: eliminations.append(1) or real(m))
    lattice._residue_rows.cache_clear()
    rng = random.Random(263)
    for _ in range(50):
        for basis in bases:
            affine_residue(basis, tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(3)))
    assert len(eliminations) == len(bases)


def test_face_and_residue_caches_are_bounded(monkeypatch):
    for cached in (semigroup._face_data, lattice._residue_rows):
        assert cached.cache_info().maxsize == PARAMETER_CACHE_SIZE
    # with a small bound, evicted rows are rebuilt and give the same residues
    small = lru_cache(maxsize=3)(lattice._residue_rows.__wrapped__)
    rng = random.Random(269)
    bases = [
        LatticeBasis.from_generators(2, [(rng.randint(1, 5), rng.randint(-5, 5)), (0, k)])
        for k in range(1, 9)
    ]
    vectors = [tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(2)) for _ in range(3)]
    want = [[affine_residue(b, v) for v in vectors] for b in bases]
    monkeypatch.setattr(lattice, "_residue_rows", small)
    for _ in range(2):
        assert [[affine_residue(b, v) for v in vectors] for b in bases] == want
    assert small.cache_info().currsize == 3
