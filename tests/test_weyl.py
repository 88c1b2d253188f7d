"""Weyl arithmetic, Euler substitution, contiguity operators, certificates."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from helpers import (
    euler_operator,
    in_left_toric_ideal,
    shift_bpoly,
    weyl_d,
    weyl_theta,
    weyl_x,
)

from ahyper.classify import iso_witness
from ahyper.errors import InputError, InternalError
from ahyper.lattice import IntMatrix, vec_add, vec_sub
from ahyper.toric import Binomial, BPoly, b_ideal, b_poly_avoiding, toric_ideal
from ahyper import weyl
from ahyper.weyl import (
    Certificate,
    SymmetryOperator,
    WeylElement,
    contiguity_operator,
    substitute_euler,
    verify_certificate,
    verify_weight,
    weyl_monomial,
    weyl_mul,
    weyl_one,
)

A_DEMO = IntMatrix(((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)))
A_SMALL = IntMatrix(((1, 1, 1, 1), (0, 1, 3, 4)))
A_WIDE = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 1, 1)))

GENERIC = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))


def column(A, j):
    return tuple(A.entries[i][j] for i in range(A.d))


def random_element(rng, n, max_terms=5, emax=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = tuple(rng.randrange(emax) for _ in range(n))
        m = tuple(rng.randrange(emax) for _ in range(n))
        terms[alpha, m] = terms.get((alpha, m), 0) + Fraction(
            rng.randrange(-5, 6), rng.randrange(1, 4)
        )
    return WeylElement(n, terms)


def test_defining_relations():
    n = 2
    left = weyl_mul(weyl_d(n, 0), weyl_x(n, 0))
    assert left == WeylElement(n, {((1, 0), (1, 0)): 1, ((0, 0), (0, 0)): 1})
    square = weyl_mul(weyl_theta(n, 0), weyl_theta(n, 0))
    assert square == WeylElement(n, {((2, 0), (2, 0)): 1, ((1, 0), (1, 0)): 1})
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            xi, dj = weyl_x(n, i), weyl_d(n, j)
            assert weyl_mul(xi, dj) == weyl_mul(dj, xi)


def test_mul_matches_iterated_single_variables():
    # d^3 x^2 in one variable, expanded by hand from the closed form
    n = 1
    prod = weyl_mul(weyl_monomial(n, (0,), (3,)), weyl_monomial(n, (2,), (0,)))
    by_steps = weyl_monomial(n, (0,), (3,))
    for _ in range(2):
        by_steps = weyl_mul(by_steps, weyl_x(n, 0))
    assert prod == by_steps
    assert prod == WeylElement(n, {((2,), (3,)): 1, ((1,), (2,)): 6, ((0,), (1,)): 6})


def test_weyl_mul_associative_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 4)
        P, Q, R = (random_element(rng, n) for _ in range(3))
        assert weyl_mul(weyl_mul(P, Q), R) == weyl_mul(P, weyl_mul(Q, R))


def test_substitute_euler_scalar_and_linear():
    n = A_DEMO.n
    assert substitute_euler(1, A_DEMO) == weyl_one(n)
    assert substitute_euler(0, A_DEMO).is_zero()
    s1 = BPoly(factors=(((Fraction(1), Fraction(0), Fraction(0)), Fraction(0)),))
    expanded = substitute_euler(s1, A_DEMO)
    expect = WeylElement(n, {})
    for j in range(n):
        expect = expect + weyl_theta(n, j)
    assert expanded == expect  # first row of the matrix is all ones
    assert expanded == euler_operator(A_DEMO, 0)


def test_substitute_euler_square_consistent():
    s1 = BPoly(factors=(((Fraction(1), Fraction(0), Fraction(0)), Fraction(0)),))
    sq = BPoly(factors=s1.factors * 2)
    one_shot = substitute_euler(sq, A_DEMO)
    e = substitute_euler(s1, A_DEMO)
    assert one_shot == weyl_mul(e, e)


def test_verify_weight_single_generators():
    for A in (A_DEMO, A_SMALL):
        n = A.n
        for j in range(n):
            a_j = column(A, j)
            assert verify_weight(weyl_d(n, j), A, tuple(-x for x in a_j))
            assert verify_weight(weyl_x(n, j), A, a_j)
            assert not verify_weight(weyl_d(n, j), A, a_j)


def test_contiguity_negative_column_shifts():
    n = A_DEMO.n
    zero = (0,) * n
    for j in range(n):
        chi = tuple(-x for x in column(A_DEMO, j))
        v = tuple(1 if t == j else 0 for t in range(n))
        op = contiguity_operator(A_DEMO, chi, 1, zero, v)
        assert op.element == weyl_d(n, j)
        assert verify_weight(op.element, A_DEMO, chi)
        assert verify_certificate(op, A_DEMO)


def test_contiguity_identity_shift():
    n = A_DEMO.n
    zero = (0,) * n
    op = contiguity_operator(A_DEMO, (0, 0, 0), 1, zero, zero)
    assert op.element == weyl_one(n)
    assert op.certificate.pairs == ()
    assert verify_certificate(op, A_DEMO)


def test_contiguity_demo_column_one():
    n = A_DEMO.n
    a1 = column(A_DEMO, 0)
    B = b_ideal(A_DEMO, a1)
    b = b_poly_avoiding(B, GENERIC)
    assert b is not None
    u = (1, 0, 0, 0)
    op = contiguity_operator(A_DEMO, a1, b, u, (0,) * n)
    assert not op.element.is_zero()
    assert op.certificate.pairs
    assert verify_weight(op.element, A_DEMO, a1)
    assert verify_certificate(op, A_DEMO)
    # the congruence E d^u = b(theta) d^v holds modulo the left toric ideal
    diff = weyl._shift_partials(op.element, u) - substitute_euler(b, A_DEMO)
    assert in_left_toric_ideal(A_DEMO, diff)


def test_contiguity_mixed_shift():
    # chi with both shifts nonzero exercises the telescoped divisions
    n = A_DEMO.n
    u = (1, 0, 1, 0)
    v = (0, 1, 0, 1)
    chi = vec_sub(A_DEMO.apply(u), A_DEMO.apply(v))
    B = b_ideal(A_DEMO, chi)
    b = b_poly_avoiding(B, GENERIC)
    assert b is not None
    op = contiguity_operator(A_DEMO, chi, b, u, v)
    assert op.shift_plus == u and op.shift_minus == v
    assert verify_weight(op.element, A_DEMO, chi)
    assert verify_certificate(op, A_DEMO)


def test_contiguity_rejects_bad_shift_data():
    n = A_DEMO.n
    with pytest.raises(InputError) as info:
        contiguity_operator(A_DEMO, (1, 0, 0), 1, (0,) * n, (0,) * n)
    assert info.value.code == "PARSE"


def test_contiguity_rejects_b_outside_ideal():
    a1 = column(A_DEMO, 0)
    with pytest.raises(InternalError) as info:
        contiguity_operator(A_DEMO, a1, 1, (1, 0, 0, 0), (0, 0, 0, 0))
    assert info.value.code == "NOT_IN_B_IDEAL"


def test_right_factor_check_fires_when_precheck_is_bypassed(monkeypatch):
    monkeypatch.setattr(weyl, "_b_member", lambda *args: True)
    a1 = column(A_DEMO, 0)
    with pytest.raises(InternalError) as info:
        contiguity_operator(A_DEMO, a1, 1, (1, 0, 0, 0), (0, 0, 0, 0))
    assert info.value.code == "RIGHT_FACTOR_MISSING"


def test_tampered_certificate_fails():
    a1 = column(A_DEMO, 0)
    b = b_poly_avoiding(b_ideal(A_DEMO, a1), GENERIC)
    op = contiguity_operator(A_DEMO, a1, b, (1, 0, 0, 0), (0, 0, 0, 0))
    assert verify_certificate(op, A_DEMO)
    dropped = SymmetryOperator(
        chi=op.chi,
        element=op.element,
        b=op.b,
        shift_plus=op.shift_plus,
        shift_minus=op.shift_minus,
        certificate=Certificate(pairs=op.certificate.pairs[1:]),
    )
    assert not verify_certificate(dropped, A_DEMO)
    cof, gen = op.certificate.pairs[0]
    scaled = SymmetryOperator(
        chi=op.chi,
        element=op.element,
        b=op.b,
        shift_plus=op.shift_plus,
        shift_minus=op.shift_minus,
        certificate=Certificate(pairs=((cof.scale(2), gen),) + op.certificate.pairs[1:]),
    )
    assert not verify_certificate(scaled, A_DEMO)
    # d^plus - d^minus split into d^plus - 1 and 1 - d^minus replays to the
    # same sum, but neither half lies in I_A: A plus = (3, 2, 2), A 0 = 0
    zero = (0,) * A_DEMO.n
    assert A_DEMO.apply(gen.plus) == (3, 2, 2)
    split = replace(op, certificate=Certificate(
        pairs=((cof, Binomial(plus=gen.plus, minus=zero)),
               (cof, Binomial(plus=zero, minus=gen.minus))) + op.certificate.pairs[1:]
    ))
    assert product_certificate_replay(split, A_DEMO)
    assert not verify_certificate(split, A_DEMO)


def test_left_ideal_membership():
    n = A_DEMO.n
    zero = (0,) * n
    gens = toric_ideal(A_DEMO).generators
    assert gens
    for g in gens:
        gen = WeylElement(n, {(zero, g.plus): 1, (zero, g.minus): -1})
        assert in_left_toric_ideal(A_DEMO, gen)
        assert in_left_toric_ideal(A_DEMO, weyl_mul(weyl_monomial(n, (1, 0, 2, 0), (0, 1, 0, 0)), gen))
    assert not in_left_toric_ideal(A_DEMO, weyl_one(n))
    assert not in_left_toric_ideal(A_DEMO, weyl_d(n, 0))


def composition_pair(A, u, v):
    """Operators for chi = Au - Av and for -chi, with their b-polynomials."""
    chi = vec_sub(A.apply(u), A.apply(v))
    neg = tuple(-x for x in chi)
    b_plus = b_poly_avoiding(b_ideal(A, chi), GENERIC[: A.d])
    b_minus = b_poly_avoiding(b_ideal(A, neg), GENERIC[: A.d])
    assert b_plus is not None and b_minus is not None
    op_plus = contiguity_operator(A, chi, b_plus, u, v)
    op_minus = contiguity_operator(A, neg, b_minus, v, u)
    return chi, b_plus, b_minus, op_plus, op_minus


def test_composition_identity_demo():
    # P_{-chi} P_chi agrees with b_chi(s+chi) b_{-chi}(s) modulo D I_A
    A = A_DEMO
    for u, v in (((1, 0, 0, 0), (0, 0, 0, 0)), ((1, 0, 1, 0), (0, 1, 0, 1))):
        chi, b_plus, b_minus, op_plus, op_minus = composition_pair(A, u, v)
        lhs = weyl_mul(op_minus.element, op_plus.element)
        rhs = substitute_euler(
            BPoly(factors=shift_bpoly(b_plus, chi).factors + b_minus.factors), A
        )
        shifted = weyl._shift_partials(lhs - rhs, u)
        assert in_left_toric_ideal(A, shifted)
        assert in_left_toric_ideal(A, lhs - rhs)
        # and the swapped order composes to b_{-chi}(s-chi) b_chi(s)
        swap = weyl_mul(op_plus.element, op_minus.element)
        rhs2 = substitute_euler(
            BPoly(
                factors=shift_bpoly(b_minus, tuple(-x for x in chi)).factors
                + b_plus.factors
            ),
            A,
        )
        assert in_left_toric_ideal(A, swap - rhs2)


def test_composition_identity_small_matrix():
    A = A_SMALL
    u = (0, 1, 0, 0)
    v = (1, 0, 0, 0)
    chi, b_plus, b_minus, op_plus, op_minus = composition_pair(A, u, v)
    lhs = weyl_mul(op_minus.element, op_plus.element)
    rhs = substitute_euler(
        BPoly(factors=shift_bpoly(b_plus, chi).factors + b_minus.factors), A
    )
    assert in_left_toric_ideal(A, weyl._shift_partials(lhs - rhs, u))
    assert in_left_toric_ideal(A, lhs - rhs)


def test_operator_weight_additive_under_product():
    rng = random.Random(19)
    n = A_SMALL.n
    cols = [column(A_SMALL, j) for j in range(n)]
    for _ in range(10):
        j, k = rng.randrange(n), rng.randrange(n)
        P = weyl_mul(weyl_x(n, j), weyl_d(n, k))
        chi = vec_sub(cols[j], cols[k])
        assert verify_weight(P, A_SMALL, chi)


# Reference versions of the two checks, by products: the commutators
# [s_i, E] formed in full, and one product and one sum per certificate pair.


def commutator_weight_check(E, A, chi):
    chi = tuple(chi)
    for i in range(A.d):
        s = euler_operator(A, i)
        if weyl_mul(s, E) - weyl_mul(E, s) != E.scale(chi[i]):
            return False
    return True


def product_certificate_replay(op, A):
    n = A.n
    lhs = weyl._shift_partials(op.element, op.shift_plus) - weyl._shift_partials(
        substitute_euler(op.b, A), op.shift_minus
    )
    total = WeylElement(n, {})
    zero = (0,) * n
    for cof, g in op.certificate.pairs:
        gen = WeylElement(n, {(zero, g.plus): Fraction(1), (zero, g.minus): Fraction(-1)})
        total = total + weyl_mul(cof, gen)
    return lhs == total


def witness_operators():
    """op_plus and op_minus of iso_witness on three matrices, with A."""
    F = Fraction
    cases = [
        (A_DEMO, (F(1, 2), F(1, 3), F(1, 5), F(1, 7)), [(1, 0, 1)]),
        (A_SMALL, (F(1, 5), 0, 0, F(1, 7)), [(1, 1)]),
        (A_WIDE, (F(1, 2), F(1, 3), 0, F(1, 5), 0), [(1, 0, 0), (2, 1, 1)]),
    ]
    for A, v, shifts in cases:
        beta = A.apply(v)
        for chi in shifts:
            w = iso_witness(A, beta, vec_add(beta, chi))
            yield A, w.op_plus
            yield A, w.op_minus


def test_verify_weight_rejects_wrong_chi_length():
    with pytest.raises(ValueError):
        verify_weight(weyl_x(4, 2), A_DEMO, (1, 1, 1, 99))
    with pytest.raises(ValueError):
        verify_weight(weyl_x(4, 2), A_DEMO, (1, 1))
    with pytest.raises(ValueError):
        verify_weight(weyl_x(5, 2), A_DEMO, (1, 1, 1))
    assert verify_weight(weyl_x(4, 2), A_DEMO, (1, 1, 1))


def test_verify_weight_matches_commutators_on_monomial_products():
    rng = random.Random(23)
    agreed = accepted = 0
    for A in (A_DEMO, A_SMALL, A_WIDE):
        n = A.n
        for _ in range(12):
            factors, weight = [], (0,) * A.d
            for _ in range(rng.randrange(1, 4)):
                alpha = tuple(rng.randrange(3) for _ in range(n))
                m = tuple(rng.randrange(3) for _ in range(n))
                c = Fraction(rng.choice((-3, -1, 1, 2)), rng.randrange(1, 4))
                factors.append(weyl_monomial(n, alpha, m, c))
                weight = vec_add(weight, A.apply(vec_sub(alpha, m)))
            P = reduce(weyl_mul, factors)
            j = rng.randrange(n)
            off = P + weyl_mul(P, weyl_x(n, j))  # one part of another weight
            bumped = [tuple(x + (i == k) for i, x in enumerate(weight)) for k in range(A.d)]
            for E in (P, off, P.scale(0)):
                for chi in [weight, vec_add(weight, column(A, j))] + bumped:
                    new = verify_weight(E, A, chi)
                    assert new == commutator_weight_check(E, A, chi)
                    agreed += 1
                    accepted += new
    assert agreed == 504 and 0 < accepted < agreed


def test_checks_match_oracles_on_witness_operators():
    checked = 0
    for A, op in witness_operators():
        n = A.n
        assert verify_weight(op.element, A, op.chi)
        assert commutator_weight_check(op.element, A, op.chi)
        assert verify_certificate(op, A)
        assert product_certificate_replay(op, A)
        assert op.element == WeylElement(n, op.element.terms)
        for cof, _g in op.certificate.pairs:
            assert cof == WeylElement(n, cof.terms)

        # a term of another weight: both weight checks and both replays reject
        (alpha, m), _c = next(iter(op.element.terms.items()))
        j = next(t for t in range(n) if alpha[t] == 0)
        stray = weyl_monomial(n, tuple(int(t == j) for t in range(n)), m, 3)
        bad = replace(op, element=op.element + stray)
        assert not verify_weight(bad.element, A, op.chi)
        assert not commutator_weight_check(bad.element, A, op.chi)
        assert not verify_certificate(bad, A)
        assert not product_certificate_replay(bad, A)

        # one certificate coefficient changed, or a pair added to an empty
        # certificate: both replays reject
        pairs = list(op.certificate.pairs)
        if pairs:
            cof, g = pairs[-1]
            key = max(cof.terms)
            pairs[-1] = (WeylElement(n, {**cof.terms, key: cof.terms[key] + 1}), g)
        else:
            pairs.append((weyl_one(n), toric_ideal(A).generators[0]))
        bad = replace(op, certificate=Certificate(pairs=tuple(pairs)))
        assert not verify_certificate(bad, A)
        assert not product_certificate_replay(bad, A)

        # one operator coefficient changed: the weight holds, the replay fails
        key = min(op.element.terms)
        changed = WeylElement(n, {**op.element.terms, key: op.element.terms[key] * 2})
        assert verify_weight(changed, A, op.chi)
        assert commutator_weight_check(changed, A, op.chi)
        assert not verify_certificate(replace(op, element=changed), A)
        assert not product_certificate_replay(replace(op, element=changed), A)
        checked += 1
    assert checked == 8


def test_replay_reads_a_degenerate_binomial_as_zero():
    # d^p - d^p is zero, as Binomial.as_poly says, so such a pair adds nothing
    A, op = next(witness_operators())
    cof, _g = op.certificate.pairs[0]
    p = (1,) * A.n
    padded = Certificate(pairs=op.certificate.pairs + ((cof, Binomial(plus=p, minus=p)),))
    assert verify_certificate(replace(op, certificate=padded), A)


def test_verify_certificate_rejects_mismatched_shapes():
    A, op = next(witness_operators())
    cof, g = op.certificate.pairs[0]
    wide = WeylElement(A.n + 1, {((0,) * (A.n + 1), (0,) * (A.n + 1)): 1})
    short = Binomial(plus=g.plus[1:], minus=g.minus[1:])
    for pair in ((wide, g), (cof, short)):
        with pytest.raises(ValueError):
            verify_certificate(replace(op, certificate=Certificate(pairs=(pair,))), A)


def test_internal_results_match_the_validating_constructor():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 4)
        P, Q = random_element(rng, n), random_element(rng, n)
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        for R in (P + Q, P - Q, -P, P.scale(c), weyl_mul(P, Q)):
            assert R == WeylElement(n, R.terms)
            assert all(type(v) is Fraction for v in R.terms.values())
        assert P.scale(0).is_zero() and P.scale(0).n == n
        assert (P - P).is_zero()


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        WeylElement(2, {((0, -1), (0, 0)): 1})
    with pytest.raises(ValueError):
        WeylElement(2, {((0, 0, 0), (0, 0)): 1})
    assert WeylElement(2, {((0, 1), (1, 0)): 0}).is_zero()
