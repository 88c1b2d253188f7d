"""Truncated canonical series solutions and residual checks.

The series attached to an exponent vector v with minimal negative support
is

    phi_v = sum over u in N_v of  [v]_{u_-} / [v+u]_{u_+}  x^{v+u},

where N_v collects the integer kernel vectors of A preserving the negative
support of v and [v]_w is the componentwise falling factorial.  Truncation
is by the h-degree of the positive part u_+, which for an A-homogeneous
configuration equals its coordinate sum; the formal sums over all of Z^n
become finite scans recorded with their bounds.

The kernel vectors of a truncation ball are found from the rational
kernel basis: each basis vector has one free coordinate equal to 1 and
the other free coordinates 0, so kernel_ball scans only the n - d free
coordinates under both sign budgets and keeps the integral combinations
that stay within budget.

apply_operator groups the monomials x^alpha d^m of an operator by their
shift delta = alpha - m.  For each series exponent w it builds one table
of falling factorials [w_j]_k per coordinate, k up to the largest m_j of
the operator, kept as integers over the common denominator q_j^k; each
(w, delta) then costs one integer sum over the group and one rational
coefficient, and targets outside the truncation window are skipped
before any of that work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .errors import INVARIANT_VIOLATED, NOT_MINIMAL, InputError, InternalError
from .lattice import (
    PARAMETER_CACHE_SIZE,
    IntMatrix,
    kernel_lattice,
    nullspace_rational,
    vec_add,
    vec_sub,
)
from .toric import toric_ideal
from .weyl import WeylElement

DEFAULT_ORDER = 8


def nsupp(v) -> tuple[int, ...]:
    """Indices with a negative integer coordinate."""
    out = []
    for i, x in enumerate(v):
        x = Fraction(x)
        if x.denominator == 1 and x < 0:
            out.append(i)
    return tuple(out)


def falling(v, w) -> Fraction:
    """The product over j of v_j (v_j - 1) ... (v_j - w_j + 1)."""
    out = Fraction(1)
    for vj, wj in zip(v, w):
        x = Fraction(vj)
        for t in range(wj):
            out *= x - t
    return out


@lru_cache(maxsize=None)
def kernel_ball(A: IntMatrix, order: int) -> tuple[tuple[int, ...], ...]:
    """Integer kernel vectors whose positive part has coordinate sum <= order.

    Kernel vectors have equal positive and negative coordinate sums, so both
    parts obey the budget and the coordinate scan terminates.  Only the free
    coordinates of the rational kernel basis are scanned: a kernel vector is
    the combination of the basis vectors weighted by its free coordinates,
    kept over the common denominator den.
    """
    kern = nullspace_rational(A.entries)
    den = lcm(*(x.denominator for v in kern for x in v))
    steps = [tuple(int(x * den) for x in v) for v in kern]
    out = []

    def rec(k, pos, neg, acc):
        if k == len(steps):
            if any(s % den for s in acc):
                return
            u = tuple(s // den for s in acc)
            if sum(x for x in u if x > 0) <= order and -sum(x for x in u if x < 0) <= order:
                out.append(u)
            return
        for val in range(-neg, pos + 1):
            rec(
                k + 1,
                pos - max(val, 0),
                neg + min(val, 0),
                acc if not val else tuple(a + val * c for a, c in zip(acc, steps[k])),
            )

    rec(0, order, order, (0,) * A.n)
    return tuple(sorted(out))


@dataclass(frozen=True)
class NegSupportReport:
    v: tuple[Fraction, ...]
    nsupp: tuple[int, ...]
    minimal: bool
    bound: int


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def minimal_negative_support(A: IntMatrix, v, order: int = DEFAULT_ORDER) -> NegSupportReport:
    """Whether no kernel shift strictly shrinks the negative support of v.

    The scan runs over kernel-basis combinations with coefficients bounded
    by max |v_i| + order + 1; the bound ships with the report since the
    definition quantifies over the whole kernel lattice.
    """
    v = tuple(Fraction(x) for x in v)
    base = nsupp(v)
    bound = int(max((abs(x) for x in v), default=0)) + order + 1
    basis = kernel_lattice(A).vectors
    minimal = True
    if base:
        base_set = set(base)
        for coeffs in product(range(-bound, bound + 1), repeat=len(basis)):
            if not any(coeffs):
                continue
            u = tuple(sum(c * k[j] for c, k in zip(coeffs, basis)) for j in range(A.n))
            shifted = set(nsupp(vec_add(v, u)))
            if shifted < base_set:
                minimal = False
                break
    return NegSupportReport(v=v, nsupp=base, minimal=minimal, bound=bound)


class FormalSeries:
    """Finitely many rational-exponent terms, truncated at a known order.

    The order bounds the coordinate sum of (w - start)_+ over the stored
    exponents w; terms beyond it were never computed rather than found
    to vanish.
    """

    __slots__ = ("start", "order", "terms")

    def __init__(self, start, order, terms=None):
        self.start = tuple(Fraction(x) for x in start)
        self.order = order
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            clean[tuple(Fraction(x) for x in w)] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w) -> Fraction:
        return self.terms.get(tuple(Fraction(x) for x in w), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalSeries)
            and self.start == other.start
            and self.order == other.order
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        bits = [f"{c}*x^{tuple(map(str, w))}" for w, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def relative_degree(w, start) -> Fraction:
    """Coordinate sum of the positive part of w - start."""
    return sum((x for x in vec_sub(w, start) if x > 0), Fraction(0))


def phi_v(A: IntMatrix, v, order: int = DEFAULT_ORDER) -> FormalSeries:
    """The canonical series at v, truncated at the given order."""
    v = tuple(Fraction(x) for x in v)
    report = minimal_negative_support(A, v, order)
    if not report.minimal:
        raise InputError(NOT_MINIMAL, "exponent lacks minimal negative support")
    base = report.nsupp
    terms = {}
    for u in kernel_ball(A, order):
        w = vec_add(v, u)
        if nsupp(w) != base:
            continue
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        denom = falling(w, plus)
        if denom == 0:
            # preserving the negative support keeps every factor nonzero
            raise InternalError(
                INVARIANT_VIOLATED,
                f"phi_v: falling factorial of {w} vanishes for A={A.entries} v={v} "
                f"order={order}",
            )
        terms[w] = falling(v, minus) / denom
    return FormalSeries(start=v, order=order, terms=terms)


def _positive_sum(v):
    return sum(x for x in v if x > 0)


def _falling_table(x: Fraction, top: int):
    """Numerators of [x]_k, k = 0..top, over the common denominator q^top."""
    p, q = x.numerator, x.denominator
    num = [1]
    for t in range(top):
        num.append(num[-1] * (p - t * q))
    return [c * q ** (top - k) for k, c in enumerate(num)], q**top


def apply_operator(E: WeylElement, S: FormalSeries) -> FormalSeries:
    """Act term by term and truncate to the region still known complete.

    Monomials of E shift exponents by delta = alpha - m; with several
    deltas the images of the truncation ball overlap only partially, so
    the order shrinks by the largest positive-part distance between them.
    """
    groups = {}
    for (alpha, m), c in E.terms.items():
        groups.setdefault(vec_sub(alpha, m), []).append((m, c))
    if not groups:
        return FormalSeries(start=S.start, order=S.order, terms={})
    deltas = sorted(groups)
    spreads = {
        base: max(_positive_sum(vec_sub(other, base)) for other in deltas)
        for base in deltas
    }
    base = min(deltas, key=lambda t: (spreads[t], t))
    order = S.order - spreads[base]
    start = vec_add(S.start, base)
    n = len(S.start)
    top = [max(m[j] for _alpha, m in E.terms) for j in range(n)]
    live = [j for j in range(n) if top[j]]
    scale = lcm(*(c.denominator for c in E.terms.values()))
    # per shift: its offset from base, and each monomial's d-exponents on
    # the live coordinates with its coefficient scaled to an integer
    shifts = [
        (
            vec_sub(delta, base),
            [(tuple(m[j] for j in live), int(c * scale)) for m, c in groups[delta]],
        )
        for delta in deltas
    ]
    # targets keyed by their offset from start, integral for canonical series
    acc = {}
    for w, cw in S.terms.items():
        offset = tuple(
            int(x) if x.denominator == 1 else x for x in vec_sub(w, S.start)
        )
        tables, den = [], scale
        for j in live:
            table, q = _falling_table(w[j], top[j])
            tables.append(table)
            den *= q
        for shift, group in shifts:
            key = tuple(a + b for a, b in zip(offset, shift))
            if _positive_sum(key) > order:
                continue
            total = 0
            for ms, c in group:
                for table, k in zip(tables, ms):
                    c *= table[k]
                total += c
            if total:
                acc[key] = acc.get(key, 0) + cw * Fraction(total, den)
    terms = {vec_add(start, key): c for key, c in acc.items()}
    return FormalSeries(start=start, order=order, terms=terms)


@dataclass(frozen=True)
class ResidualReport:
    """How far the hypergeometric residuals of a series vanish.

    Euler residuals are degree checks and must vanish exactly; toric
    residuals are certified only through checked_order, the part of the
    truncation ball where the generator action is complete.
    """

    beta: tuple[Fraction, ...]
    euler_exact: bool
    checked_order: int
    vanish_order: Fraction

    @property
    def ok(self) -> bool:
        return self.euler_exact and self.vanish_order >= self.checked_order


def check_solution(A: IntMatrix, beta, S: FormalSeries) -> ResidualReport:
    """Residuals of S against the toric and Euler generators at beta."""
    beta = tuple(Fraction(x) for x in beta)
    euler_exact = all(A.apply(w) == beta for w in S.terms)
    checked = S.order
    vanish = Fraction(S.order)
    zero = (0,) * A.n
    for g in toric_ideal(A).generators:
        gen = WeylElement(A.n, {(zero, g.plus): 1, (zero, g.minus): -1})
        R = apply_operator(gen, S)
        checked = min(checked, R.order)
        for w in R.terms:
            vanish = min(vanish, relative_degree(w, R.start) - 1)
    return ResidualReport(
        beta=beta,
        euler_exact=euler_exact,
        checked_order=checked,
        vanish_order=min(vanish, Fraction(checked)),
    )
