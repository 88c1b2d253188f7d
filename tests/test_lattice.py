"""Exact linear algebra invariants: the Hermite form and what reads it
(integer solves, kernels, quotients), and the Smith form kept in the
tests as an oracle."""

import random
from fractions import Fraction

import pytest
from helpers import invert_unimodular, smith_normal_form

from ahyper.errors import INVARIANT_VIOLATED, InputError, InternalError
from ahyper.lattice import (
    IntMatrix,
    LatticeBasis,
    affine_residue,
    clear_denominators,
    column_lattice,
    hermite_normal_form,
    homogeneity_witness,
    integer_solve,
    kernel_lattice,
    mat_vec,
    nullspace_rational,
    quotient_representatives,
    xgcd,
)

A_DEMO = ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0))
A_CURVE = ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9))


def mat_mul(X, Y):
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0])))
        for i in range(len(X))
    )


def random_matrix(rng, d, n, lo=-5, hi=5):
    while True:
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(d))
        try:
            return IntMatrix(rows)
        except InputError:
            continue


def test_xgcd():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hermite_factorization_and_shape():
    rng = random.Random(23)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(d))
        H, U = hermite_normal_form(rows)
        assert mat_mul(rows, U) == H
        # U is unimodular: exact integer inverse exists
        V = invert_unimodular(U)
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        assert mat_mul(U, V) == ident
        # staircase: the topmost nonzero row strictly descends across
        # nonzero columns, pivots are positive, entries left of a pivot in
        # its row lie in [0, pivot)
        prev = -1
        for j in range(n):
            col = [H[i][j] for i in range(d)]
            if not any(col):
                continue
            r = min(i for i in range(d) if col[i])
            assert r > prev
            prev = r
            assert H[r][j] > 0
            for jj in range(j):
                assert 0 <= H[r][jj] < H[r][j]


def test_hermite_canonical_for_column_lattice():
    # generators that differ by column operations give identical bases
    rng = random.Random(37)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(n)]
        L = LatticeBasis.from_generators(d, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        if len(gens) >= 2:
            shuffled.append(tuple(a + b for a, b in zip(gens[0], gens[1])))
        assert LatticeBasis.from_generators(d, shuffled) == L
        for g in gens:
            assert L.member(g) is not None


def test_smith_factorization():
    rng = random.Random(41)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(-8, 8) for _ in range(n)) for _ in range(d))
        D, S, T = smith_normal_form(rows)
        assert mat_mul(mat_mul(S, rows), T) == D
        for i in range(d):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(d, n))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if b:
                assert a and b % a == 0
        # S, T unimodular
        for M in (S, T):
            k = len(M)
            ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
            assert mat_mul(M, invert_unimodular(M)) == ident


def test_smith_negating_pairs_terminate():
    # entries equal to minus the pivot once sent the clearing loop into a
    # two-cycle; keep the regression pinned
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 1, 0))
    D, S, T = smith_normal_form(rows)
    assert mat_mul(mat_mul(S, rows), T) == D
    assert [D[i][i] for i in range(3)] == [1, 1, 1]


def test_kernel_lattice_saturated():
    rng = random.Random(53)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, d + 3)
        A = random_matrix(rng, d, n)
        ker = kernel_lattice(A)
        assert ker.rank == n - d
        for v in ker.vectors:
            assert A.apply(v) == tuple(0 for _ in range(d))
        # saturation: every primitive integer vector of the rational kernel
        # already belongs to the lattice
        for q in nullspace_rational(A.entries):
            w = clear_denominators(q)
            assert ker.member(w) is not None
        # integer combinations round-trip
        if ker.rank:
            coeffs = [rng.randint(-3, 3) for _ in ker.vectors]
            u = tuple(
                sum(c * v[i] for c, v in zip(coeffs, ker.vectors))
                for i in range(n)
            )
            assert ker.member(u) is not None


def test_integer_solve():
    rng = random.Random(67)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        A = random_matrix(rng, d, n)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        rhs = A.apply(x)
        sol = integer_solve(A.entries, rhs)
        assert sol is not None
        assert A.apply(sol) == rhs
    # unsolvable: 2x = 1 over Z
    assert integer_solve(((2,),), (1,)) is None
    # rational target with cancelling fractional part
    assert integer_solve(((1,),), (Fraction(1, 2),)) is None


def test_affine_residue_separates_cosets():
    rng = random.Random(71)
    for _ in range(60):
        amb = rng.randint(1, 4)
        k = rng.randint(0, amb)
        gens = [tuple(rng.randint(-3, 3) for _ in range(amb)) for _ in range(k)]
        L = LatticeBasis.from_generators(amb, gens)
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(amb))
        r = affine_residue(L, v)
        diff = tuple(a - b for a, b in zip(v, r))
        assert L.member(diff) is not None
        # shifting by a lattice vector never changes the residue
        if L.rank:
            shift = L.vectors[rng.randrange(L.rank)]
            v2 = tuple(a + 2 * b for a, b in zip(v, shift))
            assert affine_residue(L, v2) == r
        # shifting off the lattice does
        e0 = tuple(Fraction(1, 7) if i == 0 else Fraction(0) for i in range(amb))
        v3 = tuple(a + b for a, b in zip(v, e0))
        assert affine_residue(L, v3) != r


def test_affine_residue_rejects_a_dependent_basis():
    # built without the Hermite form, so its vectors are not independent
    dependent = LatticeBasis(2, ((1, 0), (2, 0)))
    with pytest.raises(InternalError) as err:
        affine_residue(dependent, (Fraction(1, 2), Fraction(0)))
    assert err.value.code == INVARIANT_VIOLATED


def test_wrong_length_vectors_are_rejected():
    L = LatticeBasis.from_generators(2, ((1, 1), (0, 2)))
    assert L.member((2, 4)) == (2, 1)
    for v in ((2,), (2, 3, 7), ()):
        with pytest.raises(ValueError):
            L.span_solve(v)
        with pytest.raises(ValueError):
            L.member(v)
        with pytest.raises(ValueError):
            affine_residue(L, v)
    # the rank-zero lattice in Z^0 takes only the empty vector
    empty = LatticeBasis.from_generators(0, ())
    assert empty.member(()) == () and affine_residue(empty, ()) == ()
    with pytest.raises(ValueError):
        empty.member((0,))


def test_quotient_representatives_counts():
    Z2 = LatticeBasis.from_generators(2, ((1, 0), (0, 1)))
    sub = LatticeBasis.from_generators(2, ((2, 0), (0, 3)))
    q = quotient_representatives(Z2, sub)
    assert q.index == 6
    assert len(q.representatives) == 6
    # every vector of the big lattice lands on exactly one representative
    rng = random.Random(83)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert affine_residue(sub, v) in q.representatives
    # index-one quotient
    q1 = quotient_representatives(Z2, Z2)
    assert q1.index == 1
    with pytest.raises(InputError):
        quotient_representatives(sub, Z2)  # not a sublattice
    with pytest.raises(InputError):
        quotient_representatives(
            Z2, LatticeBasis.from_generators(2, ((1, 0),))
        )  # infinite index


def test_quotient_on_face_span_of_demo_matrix():
    # saturation of the span of columns 1 and 4 against the lattice they
    # generate has index two; this drives the nontrivial coset below
    A = IntMatrix(A_DEMO)
    a1, a4 = A.column(0), A.column(3)
    small = LatticeBasis.from_generators(3, (a1, a4))
    big = LatticeBasis.from_generators(3, ((1, 0, 0), (0, 1, 0)))
    q = quotient_representatives(big, small)
    assert q.index == 2
    nontrivial = [r for r in q.representatives if any(r)]
    assert len(nontrivial) == 1


def test_homogeneity_witness():
    A = IntMatrix(A_DEMO)
    assert homogeneity_witness(A) == (1, 0, 0)
    C = IntMatrix(A_CURVE)
    assert homogeneity_witness(C) == (1, 0)
    with pytest.raises(InputError) as ei:
        homogeneity_witness(IntMatrix(((1, 2),)))
    assert ei.value.code == "NOT_HOMOGENEOUS"


def test_int_matrix_validation():
    with pytest.raises(InputError) as ei:
        IntMatrix(((1, 2), (2, 4)))
    assert ei.value.code == "NOT_FULL_DIM"
    with pytest.raises(InputError):
        IntMatrix(((1, 2), (3,)))
    A = IntMatrix(A_DEMO)
    assert A.d == 3 and A.n == 4
    assert A.column(2) == (1, 1, 1)
    assert A.apply((1, 0, 0, 0)) == (1, 0, 0)


def test_column_lattice_of_demo_is_standard():
    A = IntMatrix(A_DEMO)
    ZA = column_lattice(A)
    assert ZA.vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ker = kernel_lattice(A)
    assert ker.rank == 1
    v = ker.vectors[0]
    assert mat_vec(A_DEMO, v) == (0, 0, 0)
