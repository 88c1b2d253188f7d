"""Canonical series, negative support, operator action, residual checks."""

import random
from fractions import Fraction

import pytest
from helpers import weyl_d, weyl_theta, weyl_x

from ahyper.classify import iso_witness
from ahyper.errors import InputError
from ahyper.lattice import IntMatrix, vec_add, vec_sub
from ahyper.toric import b_ideal, b_poly_avoiding, toric_ideal
from ahyper.series import (
    FormalSeries,
    apply_operator,
    check_solution,
    falling,
    kernel_ball,
    minimal_negative_support,
    nsupp,
    phi_v,
    relative_degree,
)
from ahyper.weyl import (
    WeylElement,
    contiguity_operator,
    weyl_monomial,
    weyl_one,
)

A_DEMO = IntMatrix(((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)))
A_SMALL = IntMatrix(((1, 1, 1, 1), (0, 1, 3, 4)))
A_CURVE = IntMatrix(((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)))
A_WIDE = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 1, 1)))

F = Fraction


def box_scan_kernel_ball(A, order):
    """Reference: every integer vector with both sign budgets <= order,
    kept when A sends it to zero."""
    n = A.n
    cols = [A.column(j) for j in range(n)]
    zero = (0,) * A.d
    out = []

    def rec(j, pos, neg, prefix, acc):
        if j == n:
            if acc == zero:
                out.append(tuple(prefix))
            return
        for val in range(-neg, pos + 1):
            rec(
                j + 1,
                pos - max(val, 0),
                neg + min(val, 0),
                prefix + [val],
                acc if not val else tuple(a + val * c for a, c in zip(acc, cols[j])),
            )

    rec(0, order, order, [], zero)
    return tuple(sorted(out))


def termwise_apply(E, S):
    """Reference: one falling factorial and one target per pair of a series
    term and an operator term, truncated to the same window."""
    deltas = sorted({vec_sub(alpha, m) for alpha, m in E.terms})
    if not deltas:
        return FormalSeries(start=S.start, order=S.order, terms={})
    spreads = {
        base: max(relative_degree(other, base) for other in deltas) for base in deltas
    }
    base = min(deltas, key=lambda t: (spreads[t], t))
    order = S.order - spreads[base]
    start = vec_add(S.start, base)
    terms = {}
    for w, cw in S.terms.items():
        for (alpha, m), c in E.terms.items():
            coef = cw * c * falling(w, m)
            if not coef:
                continue
            target = tuple(x + a - b for x, a, b in zip(w, alpha, m))
            s = terms.get(target, 0) + coef
            if s:
                terms[target] = s
            elif target in terms:
                del terms[target]
    kept = {w: c for w, c in terms.items() if relative_degree(w, start) <= order}
    return FormalSeries(start=start, order=order, terms=kept)


def test_nsupp_counts_negative_integers_only():
    assert nsupp((1, 2, 0, 0)) == ()
    assert nsupp((-1, 2, F(-1, 2), -3)) == (0, 3)
    assert nsupp((F(-4, 2), 0)) == (0,)  # reduces to an integer


def test_kernel_ball_demo_pinned():
    assert kernel_ball(A_DEMO, 2) == (((0, 0, 0, 0),))
    assert set(kernel_ball(A_DEMO, 4)) == {
        (0, 0, 0, 0),
        (1, -2, 2, -1),
        (-1, 2, -2, 1),
    }


def test_kernel_ball_against_box_scan():
    order = 4
    ball = set(kernel_ball(A_SMALL, order))
    brute = set()
    rng = range(-order, order + 1)
    for u1 in rng:
        for u2 in rng:
            for u3 in rng:
                for u4 in rng:
                    u = (u1, u2, u3, u4)
                    if any(A_SMALL.apply(u)):
                        continue
                    if sum(x for x in u if x > 0) <= order:
                        brute.add(u)
    assert ball == brute
    assert all(tuple(-x for x in u) in ball for u in ball)


def test_kernel_ball_pivot_solve_matches_box_scan():
    ball = kernel_ball(A_WIDE, 8)
    assert len(ball) == 65
    assert ball == box_scan_kernel_ball(A_WIDE, 8)
    for A in (A_DEMO, A_SMALL, A_CURVE):
        assert kernel_ball(A, 5) == box_scan_kernel_ball(A, 5)


def test_minimal_negative_support_examples():
    r = minimal_negative_support(A_DEMO, (1, 2, 0, 0))
    assert r.nsupp == () and r.minimal
    r = minimal_negative_support(A_DEMO, (0, 0, 0, F(-1, 2)))
    assert r.nsupp == () and r.minimal
    # the kernel shift (1,-2,2,-1) trades nsupp {0,3} for the smaller {3}
    r = minimal_negative_support(A_DEMO, (-1, 2, 2, -1))
    assert r.nsupp == (0, 3) and not r.minimal
    # incomparable supports do not disqualify
    r = minimal_negative_support(A_DEMO, (-1, 2, 0, 0))
    assert r.nsupp == (0,) and r.minimal
    assert r.bound > 0


def test_phi_trivial_is_single_monomial():
    v = (1, 2, 0, 0)
    S = phi_v(A_DEMO, v, 8)
    assert S.terms == {tuple(map(F, v)): 1}
    assert check_solution(A_DEMO, A_DEMO.apply(v), S).ok


def test_phi_rejects_nonminimal():
    with pytest.raises(InputError) as info:
        phi_v(A_DEMO, (-1, 2, 2, -1), 6)
    assert info.value.code == "NOT_MINIMAL"


def test_phi_coefficients_match_formula():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    order = 8
    S = phi_v(A_DEMO, v, order)
    # every kernel vector preserves the empty negative support here
    expected = {u for u in kernel_ball(A_DEMO, order)}
    assert len(S.terms) == len(expected) == 5
    for u in expected:
        w = vec_add(v, u)
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        num = F(1)
        for vj, wj in zip(v, minus):
            for t in range(wj):
                num *= vj - t
        den = F(1)
        for vj, wj in zip(w, plus):
            for t in range(wj):
                den *= vj - t
        assert S.coefficient(w) == num / den


def test_phi_telescoping_between_opposite_shifts():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    u = (1, -2, 2, -1)
    w = vec_add(v, u)
    plus = (1, 0, 2, 0)
    minus = (0, 2, 0, 1)
    forward = falling(v, minus) / falling(w, plus)
    backward = falling(w, plus) / falling(v, minus)
    assert forward * backward == 1


def test_phi_curve_solution():
    beta = (F(1, 3), F(1, 2))
    v = (beta[0] - beta[1] / 9, 0, 0, 0, beta[1] / 9)
    S = phi_v(A_CURVE, v, 8)
    assert len(S.terms) > 1
    assert all(A_CURVE.apply(w) == beta for w in S.terms)
    rep = check_solution(A_CURVE, beta, S)
    assert rep.ok and rep.euler_exact


def test_apply_identity_and_theta():
    v = (F(1, 2), F(1, 3), 0, 0)
    S = phi_v(A_DEMO, v, 8)
    n = A_DEMO.n
    assert apply_operator(weyl_one(n), S) == S
    single = FormalSeries(start=v, order=8, terms={v: 1})
    T = apply_operator(weyl_theta(n, 0), single)
    assert T.terms == {tuple(map(F, v)): F(1, 2)}
    assert T.order == 8


def test_apply_partial_matches_derivative():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    S = phi_v(A_DEMO, v, 8)
    n = A_DEMO.n
    for j in range(n):
        T = apply_operator(weyl_d(n, j), S)
        assert T.order == S.order  # single monomial, no spread
        for w, c in S.terms.items():
            target = tuple(x - 1 if t == j else x for t, x in enumerate(w))
            assert T.coefficient(target) == c * w[j]


def test_apply_binomial_shrinks_order_by_spread():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    S = phi_v(A_DEMO, v, 8)
    g = toric_ideal(A_DEMO).generators[0]
    from ahyper.weyl import WeylElement

    gen = WeylElement(A_DEMO.n, {((0,) * 4, g.plus): 1, ((0,) * 4, g.minus): -1})
    R = apply_operator(gen, S)
    spread = min(sum(g.plus), sum(g.minus))
    assert R.order == S.order - spread
    assert R.is_zero()  # a true solution annihilates the generator


def test_check_solution_negative_control():
    v = (1, 0, 0, 0)
    S = FormalSeries(start=v, order=4, terms={v: 1})
    good = check_solution(A_DEMO, A_DEMO.apply(v), S)
    assert good.euler_exact
    bad = check_solution(A_DEMO, (0, 0, 0), S)
    assert not bad.euler_exact and not bad.ok


def test_contiguity_action_shifts_parameter():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    S = phi_v(A_DEMO, v, 10)
    beta = A_DEMO.apply(v)
    a1 = (1, 0, 0)
    b = b_poly_avoiding(b_ideal(A_DEMO, a1), beta)
    assert b is not None and b.evaluate(beta) != 0
    op = contiguity_operator(A_DEMO, a1, b, (1, 0, 0, 0), (0, 0, 0, 0))
    T = apply_operator(op.element, S)
    assert not T.is_zero()
    rep = check_solution(A_DEMO, vec_add(beta, a1), T)
    assert rep.euler_exact and rep.ok


def test_roundtrip_acts_by_the_expected_scalar():
    v = tuple(map(F, ("1/2", "1/3", "1/5", "1/7")))
    S = phi_v(A_DEMO, v, 12)
    beta = A_DEMO.apply(v)
    a1 = (1, 0, 0)
    neg = (-1, 0, 0)
    b_plus = b_poly_avoiding(b_ideal(A_DEMO, a1), beta)
    b_minus = b_poly_avoiding(b_ideal(A_DEMO, neg), vec_add(beta, a1))
    op_plus = contiguity_operator(A_DEMO, a1, b_plus, (1, 0, 0, 0), (0, 0, 0, 0))
    op_minus = contiguity_operator(A_DEMO, neg, b_minus, (0, 0, 0, 0), (1, 0, 0, 0))
    T = apply_operator(op_minus.element, apply_operator(op_plus.element, S))
    scalar = b_plus.evaluate(vec_add(beta, a1)) * b_minus.evaluate(beta)
    assert scalar != 0
    assert not T.is_zero()
    for w, c in T.terms.items():
        assert c == scalar * S.coefficient(w)
    # every original term inside the surviving window is reproduced
    for w, c in S.terms.items():
        if relative_degree(w, T.start) <= T.order:
            assert T.coefficient(w) == scalar * c


def test_action_on_random_small_matrix():
    rng = random.Random(13)
    n = A_SMALL.n
    v = tuple(F(rng.randrange(1, 9), 7) for _ in range(n))
    S = phi_v(A_SMALL, v, 8)
    beta = A_SMALL.apply(v)
    assert check_solution(A_SMALL, beta, S).ok
    j = rng.randrange(n)
    a_j = tuple(A_SMALL.entries[i][j] for i in range(A_SMALL.d))
    chi = tuple(-x for x in a_j)
    op = contiguity_operator(
        A_SMALL, chi, 1, (0,) * n, tuple(1 if t == j else 0 for t in range(n))
    )
    T = apply_operator(op.element, S)
    rep = check_solution(A_SMALL, vec_add(beta, chi), T)
    assert rep.euler_exact and rep.ok


def test_apply_operator_matches_termwise_reference():
    cases = [
        (A_DEMO, (F(1, 2), F(1, 3), F(1, 5), F(1, 7)), [(1, 0, 1)]),
        (A_SMALL, (F(1, 5), 0, 0, F(1, 7)), [(1, 1)]),
        (A_WIDE, (F(1, 2), F(1, 3), 0, F(1, 5), 0), [(1, 0, 0), (2, 1, 1)]),
    ]
    compared = 0
    for A, v, shifts in cases:
        n = A.n
        v = tuple(F(x) for x in v)
        beta = A.apply(v)
        S = phi_v(A, v, 8)
        ops = [weyl_one(n), weyl_monomial(n, (0,) * n, (0,) * n, F(-3, 4))]
        for j in range(n):
            ops += [weyl_x(n, j), weyl_d(n, j), weyl_theta(n, j)]
            e = tuple(2 if t == j else 0 for t in range(n))
            f = tuple(1 if t == (j + 1) % n else 0 for t in range(n))
            ops.append(weyl_monomial(n, f, e, F(5, 3)))
        for chi in shifts:
            w = iso_witness(A, beta, vec_add(beta, chi))
            ops += [w.op_plus.element, w.op_minus.element]
            ops.append(w.op_plus.element + weyl_monomial(n, (0,) * n, (1,) + (0,) * (n - 1)))
        for E in ops:
            for series in (S, apply_operator(ops[-1], S)):
                assert apply_operator(E, series) == termwise_apply(E, series)
                compared += 1
    # a series whose start is not integral relative to its terms, and an
    # operator with nothing in it
    odd = FormalSeries(start=(0, 0, 0, 0), order=4, terms={(F(1, 2), 1, 2, F(-2, 3)): 7})
    for E in (weyl_theta(4, 0), weyl_d(4, 3) + weyl_x(4, 1), WeylElement(4, {})):
        assert apply_operator(E, odd) == termwise_apply(E, odd)
    assert compared > 100
