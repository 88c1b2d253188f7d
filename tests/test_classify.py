"""End-to-end classification: profiles, witnesses, normal and curve rules.

The closed-form classifiers are cross-validated against the residue
profiles they are supposed to summarize, and every constructed witness is
re-verified both algebraically (weight and certificate) and analytically
(action on truncated series solutions).
"""

import random
from fractions import Fraction

import pytest

from ahyper import toric
from ahyper.classify import (
    _residue_table,
    classify_curve,
    classify_normal,
    curve_facet_indices,
    curve_holes,
    curve_part,
    curve_semigroups,
    e_profile,
    enumerate_classes,
    iso_witness,
    isomorphic,
    laurent_solution_faces,
    normalized_volume,
    profile_difference,
)
from ahyper.cone import face_lattice, facets
from ahyper.errors import (
    NOT_CURVE,
    NOT_ISOMORPHIC,
    NOT_NORMAL,
    PARSE,
    InputError,
)
from ahyper.lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    affine_residue,
    vec_add,
    vec_sub,
)
from ahyper.semigroup import (
    _face_sublattice,
    _in_na_int,
    _in_na_mod_face_int,
    e_tau,
    in_NA,
    resonance,
)
from ahyper.series import apply_operator, check_solution, phi_v
from ahyper.weyl import verify_certificate, verify_weight, weyl_one

A_DEMO = IntMatrix(((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)))
A_NORMAL3 = IntMatrix(((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)))
A_CURVE = IntMatrix(((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)))
A_SMALL = IntMatrix(((1, 1, 1, 1), (0, 1, 3, 4)))

GENERIC = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))


def random_homogeneous(rng, d, n):
    while True:
        rows = [tuple(1 for _ in range(n))]
        for _ in range(d - 1):
            rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        try:
            return IntMatrix(tuple(rows))
        except Exception:
            continue


def in_cone_of_first_and_last(beta):
    # N a_1 + N a_4 for the demo matrix: a_1 = (1,0,0), a_4 = (1,2,0)
    b1, b2, b3 = beta
    return b3 == 0 and b2 >= 0 and b2 % 2 == 0 and b1 - b2 // 2 >= 0


def test_profile_covers_every_face_in_order():
    fl = face_lattice(A_DEMO)
    prof = e_profile(A_DEMO, A_DEMO.column(1))
    assert tuple(s.face for s in prof.sets) == fl.faces
    assert len(prof.residue_table()) == len(fl.faces)
    s14 = fl.face_by_columns((0, 3))
    assert prof.set_for(s14).residues == e_tau(A_DEMO, s14, A_DEMO.column(1)).residues


def test_demo_semigroup_splits_into_two_classes():
    a2 = A_DEMO.column(1)
    a3 = A_DEMO.column(2)
    assert isomorphic(A_DEMO, a2, a3)
    points = []
    for b1 in range(0, 5):
        for b2 in range(0, 7):
            for b3 in range(0, 4):
                if in_NA(A_DEMO, (b1, b2, b3)) is not None:
                    points.append((b1, b2, b3))
    assert len(points) > 30
    tables = {}
    for p in points:
        tables.setdefault(e_profile(A_DEMO, p).residue_table(), []).append(p)
    assert len(tables) == 2
    for p in points:
        assert isomorphic(A_DEMO, p, a2) == (not in_cone_of_first_and_last(p))


def test_profile_difference_names_a_face():
    a2 = A_DEMO.column(1)
    other = vec_add(A_DEMO.column(0), A_DEMO.column(3))
    p = e_profile(A_DEMO, a2)
    q = e_profile(A_DEMO, other)
    face = profile_difference(p, q)
    assert face is not None
    assert p.set_for(face).residues != q.set_for(face).residues
    assert profile_difference(p, e_profile(A_DEMO, a2)) is None


def test_semi_nonresonant_isomorphism_is_a_lattice_condition():
    beta = GENERIC
    assert resonance(A_DEMO, beta).semi_nonresonant
    rng = random.Random(11)
    for _ in range(10):
        shift = tuple(rng.randint(-2, 2) for _ in range(3))
        assert isomorphic(A_DEMO, beta, vec_add(beta, shift))
    off = vec_add(beta, (Fraction(1, 2), 0, 0))
    assert not isomorphic(A_DEMO, beta, off)


def sign_pattern(A, beta):
    out = []
    for s in facets(A):
        v = s.value(beta)
        out.append(v.denominator == 1 and v >= 0)
    return tuple(out)


def test_normal3_fourteen_classes_with_sign_patterns():
    enum = enumerate_classes(A_NORMAL3, ((-3, 3), (-3, 3), (-3, 3)))
    assert enum.class_count == 14
    assert {tuple(s.f) for s in facets(A_NORMAL3)} == {
        (1, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    }
    reference = [
        (0, 0, 0),
        (-1, 0, 1),
        (0, -1, 1),
        (0, 1, -1),
        (1, 0, -1),
        (-1, -1, 1),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
        (-2, -1, 1),
        (-1, -2, 1),
        (-1, 0, -1),
        (0, -1, -1),
        (-1, -1, 0),
    ]
    hit = {enum.class_of(r).representative for r in reference}
    assert len(hit) == 14
    # within the box, the class is exactly the sign pattern
    patterns = {}
    for c in enum.classes:
        for member in c.members:
            patterns.setdefault(sign_pattern(A_NORMAL3, member), set()).add(
                c.representative
            )
    assert all(len(v) == 1 for v in patterns.values())
    assert len(patterns) == 14
    # representatives are lexicographically least and sorted
    reps = [c.representative for c in enum.classes]
    assert reps == sorted(reps)
    assert all(c.representative == min(c.members) for c in enum.classes)


def test_enumerate_rejects_wrong_box_shape():
    with pytest.raises(InputError) as err:
        enumerate_classes(A_NORMAL3, ((-1, 1), (-1, 1)))
    assert err.value.code == PARSE


def test_classify_normal_matches_profiles():
    rng = random.Random(23)
    pool = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(25)]
    pool += [vec_add(p, GENERIC) for p in pool[:5]]
    for _ in range(200):
        b = rng.choice(pool)
        b2 = rng.choice(pool)
        assert classify_normal(A_NORMAL3, b, b2) == isomorphic(A_NORMAL3, b, b2)


def test_classify_normal_requires_a_normal_matrix():
    with pytest.raises(InputError) as err:
        classify_normal(A_CURVE, (0, 0), (0, 0))
    assert err.value.code == NOT_NORMAL


def test_curve_shape_validation():
    for rows in (
        ((1, 1, 1, 1), (0, 0, 1, 2)),  # repeated exponent
        ((1, 1, 2), (0, 1, 3)),  # first row not all ones
        ((1, 1, 1), (0, 3, 2)),  # not increasing
        ((1, 1, 1), (0, 2, 4)),  # exponents not coprime
        ((1, 1), (1, 2)),  # second row must start at 0
    ):
        with pytest.raises(InputError) as err:
            curve_holes(IntMatrix(rows))
        assert err.value.code == NOT_CURVE
    with pytest.raises(InputError):
        curve_holes(A_DEMO)


def test_curve_gaps_and_holes():
    s1, s2 = curve_semigroups(A_CURVE)
    assert s1.gaps == (1, 3, 5)
    assert s2.gaps == (1, 3)
    assert curve_holes(A_CURVE).holes == ((2, 10), (2, 12), (3, 19))
    assert curve_holes(IntMatrix(((1, 1), (0, 1)))).holes == ()
    # both facet semigroups of the small curve are all of N, yet (1,2)
    # needs two positive parts: gap-free facets do not preclude holes
    assert curve_holes(A_SMALL).holes == ((1, 2),)


def test_curve_hole_conditions_and_oracle():
    j1, j2 = curve_facet_indices(A_CURVE)
    sig = facets(A_CURVE)
    s1, s2 = curve_semigroups(A_CURVE)
    holes = curve_holes(A_CURVE).holes
    for h in holes:
        assert s1.contains(sig[j1].value(h))
        assert s2.contains(sig[j2].value(h))
        assert in_NA(A_CURVE, h) is None
    # exhaustive scan over a box that safely contains the hole region
    scan = []
    for b1 in range(0, 8):
        for b2 in range(0, 40):
            p = (b1, b2)
            if (
                s1.contains(sig[j1].value(p))
                and s2.contains(sig[j2].value(p))
                and in_NA(A_CURVE, p) is None
            ):
                scan.append(p)
    assert tuple(scan) == holes


def test_curve_five_parts_partition_and_classification():
    box = [(b1, b2) for b1 in range(0, 5) for b2 in range(0, 26)]
    parts = {}
    for p in box:
        parts.setdefault(curve_part(A_CURVE, p), []).append(p)
    assert set(parts) == {
        "semigroup",
        "hole",
        "first_facet_only",
        "second_facet_only",
        "neither",
    }
    assert sum(len(v) for v in parts.values()) == len(box)
    assert tuple(sorted(parts["hole"])) == curve_holes(A_CURVE).holes
    tables = {p: e_profile(A_CURVE, p).residue_table() for p in box}
    for label, members in parts.items():
        first = members[0]
        for p in members[1:]:
            assert tables[p] == tables[first], (label, p)
    firsts = [members[0] for members in parts.values()]
    for i, p in enumerate(firsts):
        for q in firsts[i + 1 :]:
            assert tables[p] != tables[q]
    with pytest.raises(InputError):
        curve_part(A_CURVE, (Fraction(1, 2), 0))


def test_classify_curve_matches_profiles():
    rng = random.Random(31)
    pool = [(rng.randint(0, 4), rng.randint(0, 25)) for _ in range(15)]
    pool += [(2, 10), (2, 12), (3, 19), (0, 0)]
    pool += [vec_add(p, (Fraction(1, 3), Fraction(1, 2))) for p in pool[:3]]
    for _ in range(200):
        b = rng.choice(pool)
        b2 = rng.choice(pool)
        assert classify_curve(A_CURVE, b, b2) == isomorphic(A_CURVE, b, b2)


def test_holes_form_a_single_class_of_maximal_profile():
    holes = curve_holes(A_CURVE).holes
    fl = face_lattice(A_CURVE)
    origin = fl.face_by_columns(())
    for h in holes:
        prof = e_profile(A_CURVE, h)
        for s in prof.sets:
            if s.face == origin:
                assert s.residues == ()
            else:
                assert s.residues == ((Fraction(0), Fraction(0)),)
    assert isomorphic(A_CURVE, holes[0], holes[1])
    assert isomorphic(A_CURVE, holes[0], holes[2])
    assert not isomorphic(A_CURVE, holes[0], (0, 0))


def test_iso_witness_demo_pair_acts_on_series():
    beta = A_DEMO.column(1)
    beta2 = A_DEMO.column(2)
    w = iso_witness(A_DEMO, beta, beta2)
    assert w.chi == vec_sub(beta2, beta)
    assert w.scalar != 0
    assert w.scalar == w.p_plus.evaluate(beta2) * w.p_minus.evaluate(beta)
    for op, chi in ((w.op_plus, w.chi), (w.op_minus, tuple(-x for x in w.chi))):
        assert verify_weight(op.element, A_DEMO, chi)
        assert verify_certificate(op, A_DEMO)
    # x^(0,1,0,0) solves the system at a_2; push it to a_3 and back
    S = phi_v(A_DEMO, (0, 1, 0, 0), order=10)
    assert check_solution(A_DEMO, beta, S).ok
    T = apply_operator(w.op_plus.element, S)
    assert check_solution(A_DEMO, beta2, T).ok
    R = apply_operator(w.op_minus.element, T)
    assert not R.is_zero()
    for key, coef in R.terms.items():
        assert coef == w.scalar * S.coefficient(key)


def test_iso_witness_identity():
    beta = vec_add((1, 0, 2), GENERIC)
    w = iso_witness(A_DEMO, beta, beta)
    assert w.chi == (0, 0, 0)
    assert w.scalar == 1
    assert w.op_plus.element == weyl_one(A_DEMO.n)
    assert w.op_plus.certificate.pairs == ()


def test_iso_witness_rejects_non_isomorphic_pairs():
    a2 = A_DEMO.column(1)
    other = vec_add(A_DEMO.column(0), A_DEMO.column(3))
    with pytest.raises(InputError) as err:
        iso_witness(A_DEMO, a2, other)
    assert err.value.code == NOT_ISOMORPHIC
    with pytest.raises(InputError) as err:
        iso_witness(A_DEMO, GENERIC, vec_add(GENERIC, (Fraction(1, 2), 0, 0)))
    assert err.value.code == NOT_ISOMORPHIC


def test_iso_witness_seminonresonant_column_shift():
    beta = GENERIC[:2]
    assert resonance(A_SMALL, beta).semi_nonresonant
    beta2 = vec_add(beta, A_SMALL.column(0))
    w = iso_witness(A_SMALL, beta, beta2)
    # going back down is plain differentiation
    assert w.p_minus.degree() == 0
    expected = {((0, 0, 0, 0), (1, 0, 0, 0)): Fraction(1)}
    assert w.op_minus.element.terms == expected
    assert w.scalar == w.p_plus.evaluate(beta2)
    S = phi_v(A_SMALL, (Fraction(1, 5), 0, 0, Fraction(1, 7)), order=8)
    assert check_solution(A_SMALL, A_SMALL.apply((Fraction(1, 5), 0, 0, Fraction(1, 7))), S).ok


def test_iso_witness_searches_each_shift_once(monkeypatch):
    searched = []
    search = toric._minimal_inhomogeneous_solutions

    def counted(A, chi):
        searched.append((A, tuple(chi)))
        return search(A, chi)

    monkeypatch.setattr(toric, "_minimal_inhomogeneous_solutions", counted)
    # a matrix no other test uses, so no cache holds its searches yet
    A = IntMatrix(((1, 1, 1, 1), (0, 1, 2, 5)))
    beta = GENERIC[:2]
    chi = vec_add(A.column(1), A.column(2))
    w = iso_witness(A, beta, vec_add(beta, chi))
    neg = tuple(-x for x in chi)
    assert sorted(searched) == sorted([(A, chi), (A, neg)])
    assert (w.op_plus.shift_plus, w.op_plus.shift_minus) == toric.shift_pair(A, chi)
    iso_witness(A, beta, vec_add(beta, chi))
    assert len(searched) == 2


def test_iso_witness_takes_the_lowest_degree_shift_pair():
    # (u, v) = (e_2, 0) solves A(u - v) = (1, 1) with degree 1; the
    # lexicographically least minimal solution has degree 5
    chi = (1, 1)
    w = iso_witness(A_SMALL, GENERIC[:2], vec_add(GENERIC[:2], chi))
    assert w.op_plus.shift_plus == (0, 1, 0, 0)
    assert w.op_plus.shift_minus == (0, 0, 0, 0)
    assert (w.op_minus.shift_plus, w.op_minus.shift_minus) == ((0,) * 4, (0, 1, 0, 0))
    assert verify_certificate(w.op_plus, A_SMALL)
    assert verify_certificate(w.op_minus, A_SMALL)


def test_parameter_caches_stay_bounded():
    caches = (_residue_table, _in_na_int, _in_na_mod_face_int)
    for cached in caches + (toric.minimal_solutions,):
        assert cached.cache_parameters()["maxsize"] == PARAMETER_CACHE_SIZE
    extra = PARAMETER_CACHE_SIZE + 10
    ray_pair = IntMatrix(((1, 1), (0, 1)))
    tau = face_lattice(A_DEMO).proper_faces()[1]
    for k in range(extra):
        _residue_table(ray_pair, (Fraction(k, extra), Fraction(1, 2)))
        # negative degree: answered at once, but still a distinct entry
        _in_na_int(A_DEMO, (-1 - k, 0, 0))
        _in_na_mod_face_int(A_DEMO, tau, (-1 - k, 0, 0))
    for cached in caches:
        assert cached.cache_info().currsize == PARAMETER_CACHE_SIZE


def test_profile_shift_coherence_random():
    rng = random.Random(41)
    for _ in range(5):
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, d + 2)
        A = random_homogeneous(rng, d, n)
        fl = face_lattice(A)
        for _ in range(4):
            beta = tuple(
                Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                for _ in range(d)
            )
            coefs = [rng.randint(0, 2) for _ in range(n)]
            chi = A.apply(coefs)
            p = e_profile(A, beta)
            q = e_profile(A, vec_add(beta, chi))
            for tau in fl.faces:
                assert set(p.set_for(tau).residues) <= set(q.set_for(tau).residues)


def test_empty_proper_profile_makes_semigroup_shifts_invisible():
    beta = GENERIC
    prof = e_profile(A_DEMO, beta)
    assert all(not s.residues for s in prof.sets if not s.face.is_whole_cone())
    rng = random.Random(43)
    for _ in range(8):
        coefs = [rng.randint(0, 2) for _ in range(A_DEMO.n)]
        chi = A_DEMO.apply(coefs)
        assert isomorphic(A_DEMO, vec_sub(beta, chi), beta)


def test_laurent_solution_faces():
    # any semigroup parameter: only the origin face survives the minimality cut
    for beta in ((0, 0, 0), (2, 2, 1)):
        L = laurent_solution_faces(A_DEMO, beta)
        assert L.count == 1
        assert L.faces[0].columns == ()
    # generic parameter admits no Laurent solutions
    assert laurent_solution_faces(A_DEMO, GENERIC).count == 0
    # at a curve hole both rays carry the witness residue
    L = laurent_solution_faces(A_CURVE, (2, 10))
    assert L.count == 2
    assert tuple(f.columns for f in L.faces) == ((0,), (4,))
    # non-lattice parameters see nothing at all
    assert laurent_solution_faces(A_CURVE, (Fraction(1, 2), 1)).count == 0


def test_normalized_volume_examples():
    assert normalized_volume(A_DEMO) == 3
    assert normalized_volume(A_CURVE) == 9
    assert normalized_volume(A_NORMAL3) == 2
    assert normalized_volume(IntMatrix(((1, 0), (0, 1)))) == 1
    assert normalized_volume(IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 1
    assert normalized_volume(A_SMALL) == 4
    assert normalized_volume(IntMatrix(((1, 1), (0, 1)))) == 1


def test_normalized_volume_is_column_order_invariant():
    rng = random.Random(47)
    for A in (A_DEMO, A_CURVE, A_NORMAL3):
        base = normalized_volume(A)
        cols = list(range(A.n))
        for _ in range(3):
            rng.shuffle(cols)
            B = IntMatrix(
                tuple(tuple(A.entries[i][j] for j in cols) for i in range(A.d))
            )
            assert normalized_volume(B) == base
