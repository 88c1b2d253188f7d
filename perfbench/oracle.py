"""Brute-force reference mathematics for the benchmark's output checks.

Nothing here imports the package under test.  Every routine is written
from the definitions in the paper, favouring obviously finite searches
over speed:

* facets of the column cone from (d-1)-subsets of columns, scaled to be
  primitive on the column lattice ZA;
* lattice membership by determinantal divisors: for a rank-r generating
  set G and an integer vector v in its span, v lies in the lattice of G
  exactly when the gcd of the r x r minors of G equals that of [G | v];
* the residue sets E_tau(beta) = {lambda in span(tau) : beta - lambda in
  NA + Z(A cap tau)} modulo Z(A cap tau), by enumerating the off-face
  exponents u with g(A u) = g(beta) for the face's positive functional g;
* the closed-form rules of the normal case and the monomial-curve case;
* truncated canonical series and term-by-term Weyl operator action.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

# ---------------------------------------------------------------------------
# exact linear algebra


def _rank(vectors) -> int:
    m = [[Fraction(x) for x in v] for v in vectors]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _kernel_line(rows, dim):
    """A nonzero rational vector orthogonal to every row, when the rows
    leave a one-dimensional complement; otherwise None."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * dim
    v[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -m[r][free[0]]
    return tuple(v)


def _det(rows) -> int:
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcd(cols, r) -> int:
    d = len(cols[0])
    g = 0
    for rs in combinations(range(d), r):
        for cs in combinations(range(len(cols)), r):
            g = gcd(g, _det([[cols[c][i] for c in cs] for i in rs]))
    return g


class Lattice:
    """The integer span of a list of integer vectors in Z^d."""

    def __init__(self, gens, d):
        self.d = d
        self.gens = [tuple(int(x) for x in g) for g in gens if any(g)]
        self.rank = _rank(self.gens)
        self.divisor = _minor_gcd(self.gens, self.rank) if self.rank else 1

    def contains(self, v) -> bool:
        v = tuple(Fraction(x) for x in v)
        if any(x.denominator != 1 for x in v):
            return False
        v = tuple(int(x) for x in v)
        if not any(v):
            return True
        if not self.gens:
            return False
        ext = self.gens + [v]
        if _rank(ext) != self.rank:
            return False
        return _minor_gcd(ext, self.rank) == self.divisor


# ---------------------------------------------------------------------------
# the cone and its faces


def columns(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def dot(f, v):
    return sum(Fraction(a) * b for a, b in zip(f, v))


class Cone:
    """Facets and faces of the cone over the columns of a homogeneous A."""

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.d = len(rows)
        self.n = len(rows[0])
        self.cols = columns(rows)
        self.lattice = Lattice(self.cols, self.d)
        self.facets = self._facets()
        self.faces = self._faces()
        self._face_lattices = {}
        self._residues = {}

    def _facets(self):
        d, cols = self.d, self.cols
        found = {}
        for sub in combinations(range(self.n), d - 1):
            f = _kernel_line([cols[j] for j in sub], d)
            if f is None:
                continue
            vals = [dot(f, c) for c in cols]
            if all(v <= 0 for v in vals):
                f = tuple(-x for x in f)
                vals = [-v for v in vals]
            elif not all(v >= 0 for v in vals):
                continue
            zero = frozenset(j for j, v in enumerate(vals) if v == 0)
            if zero in found or _rank([cols[j] for j in zero]) != d - 1:
                continue
            # scale so that f(ZA) = Z: divide by the gcd of the column values
            den = 1
            for v in vals:
                den = den * v.denominator // gcd(den, v.denominator)
            g = 0
            for v in vals:
                g = gcd(g, int(v * den))
            found[zero] = tuple(x * den / g for x in f)
        return [(found[z], z) for z in sorted(found, key=sorted)]

    def _faces(self):
        whole = frozenset(range(self.n))
        sets = {whole} | {z for _, z in self.facets}
        grew = True
        while grew:
            grew = False
            for x, y in combinations(list(sets), 2):
                if x & y not in sets:
                    sets.add(x & y)
                    grew = True
        return sorted(sets, key=lambda s: (len(s), sorted(s)))

    def face_lattice(self, face):
        if face not in self._face_lattices:
            self._face_lattices[face] = Lattice([self.cols[j] for j in face], self.d)
        return self._face_lattices[face]

    def facet_values(self, beta):
        return tuple(dot(f, beta) for f, _ in self.facets)

    def residue_set(self, face, beta):
        """Representatives of E_face(beta), one per class mod Z(A cap face)."""
        beta = tuple(Fraction(x) for x in beta)
        key = (face, beta)
        if key not in self._residues:
            self._residues[key] = self._residue_set(face, beta)
        return self._residues[key]

    def _residue_set(self, face, beta):
        around = [f for f, z in self.facets if face <= z]
        if not around:
            return [beta]
        g = tuple(sum(f[i] for f in around) for i in range(self.d))
        target = dot(g, beta)
        if target.denominator != 1 or target < 0:
            return []
        off = [j for j in range(self.n) if j not in face]
        weights = [int(dot(g, self.cols[j])) for j in off]
        span = [self.cols[j] for j in face]
        span_rank = _rank(span)
        lat = self.face_lattice(face)
        found = []

        def walk(k, rest, lam):
            if k == len(off):
                if rest:
                    return
                if span_rank == 0:
                    inside = not any(lam)
                else:
                    inside = _rank(span + [lam]) == span_rank
                if inside and not any(lat.contains(_sub(lam, m)) for m in found):
                    found.append(lam)
                return
            col = self.cols[off[k]]
            for u in range(rest // weights[k] + 1):
                walk(k + 1, rest - u * weights[k],
                     tuple(x - u * c for x, c in zip(lam, col)))

        walk(0, int(target), beta)
        return found

    def residue_tables_equal(self, beta, beta2) -> bool:
        """Whether two parameters carry the same residue set on every face."""
        for face in self.faces:
            s1 = self.residue_set(face, beta)
            s2 = self.residue_set(face, beta2)
            if len(s1) != len(s2):
                return False
            lat = self.face_lattice(face)
            if not all(any(lat.contains(_sub(a, b)) for b in s2) for a in s1):
                return False
        return True

    def is_normal(self) -> bool:
        """Every lattice point in the half-open parallelepiped of every
        simplicial subcone must be a sum of columns: these points, plus
        column multiples, reach every lattice point of the cone."""
        h = _height(self)
        for sub in combinations(range(self.n), self.d):
            basis = [self.cols[j] for j in sub]
            det = _det([[b[i] for b in basis] for i in range(self.d)])
            if det == 0:
                continue
            k = abs(det)
            for ks in product(range(k), repeat=self.d):
                p = tuple(
                    Fraction(sum(kk * b[i] for kk, b in zip(ks, basis)), k)
                    for i in range(self.d)
                )
                if any(x.denominator != 1 for x in p) or not self.lattice.contains(p):
                    continue
                if not self.in_semigroup(tuple(int(x) for x in p), h):
                    return False
        return True

    def in_semigroup(self, gamma, h=None) -> bool:
        """gamma = A u for some u in N^n; homogeneity fixes |u|."""
        h = h or _height(self)
        deg = dot(h, gamma)
        if deg.denominator != 1 or deg < 0:
            return False
        reach = {tuple(0 for _ in range(self.d))}
        for _ in range(int(deg)):
            reach = {tuple(a + b for a, b in zip(r, c)) for r in reach for c in self.cols}
        return tuple(gamma) in reach


def _height(cone):
    """The functional h with h(a_j) = 1 for every column."""
    m = [list(map(Fraction, c)) + [Fraction(1)] for c in cone.cols]
    sol = _solve(m, cone.d)
    if sol is None:
        raise ValueError("matrix is not homogeneous")
    return sol


def _solve(aug, k):
    """Solve rows [a | b] for x with a . x = b, free variables zero."""
    m = [r[:] for r in aug]
    pivots = []
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    if any(m[r][k] for r in range(rank, len(m))):
        return None
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        x[col] = m[r][k]
    return tuple(x)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# closed-form rules


def normal_rule(cone: Cone, beta, beta2) -> bool:
    """Normal case: a lattice shift with the same facets of natural value."""
    if not cone.lattice.contains(_sub(beta2, beta)):
        return False
    def natural(b):
        return tuple(v.denominator == 1 and v >= 0 for v in cone.facet_values(b))
    return natural(beta) == natural(beta2)


class Curve:
    """The monomial curve ((1, ..., 1), (0, i_2, ..., i_n)), gcd(i) = 1."""

    def __init__(self, weights):
        self.w = tuple(weights)
        top = self.w[-1]
        self.s1 = _numerical_semigroup(self.w[1:])
        self.s2 = _numerical_semigroup([top - x for x in self.w[:-1]])
        self._sums = [{0}]

    @staticmethod
    def shape(rows):
        """The weights when rows have the curve shape, else None."""
        if len(rows) != 2 or len(rows[0]) < 2 or any(x != 1 for x in rows[0]):
            return None
        w = tuple(rows[1])
        if w[0] != 0 or any(b <= a for a, b in zip(w, w[1:])):
            return None
        g = 0
        for x in w:
            g = gcd(g, x)
        return w if g == 1 else None

    def in_semigroup(self, c, m) -> bool:
        while len(self._sums) <= c:
            self._sums.append({s + x for s in self._sums[-1] for x in self.w})
        return c >= 0 and m in self._sums[c]

    def facet_values(self, beta):
        c, m = (Fraction(x) for x in beta)
        return m, self.w[-1] * c - m

    def is_hole(self, beta) -> bool:
        c, m = (Fraction(x) for x in beta)
        if c.denominator != 1 or m.denominator != 1:
            return False
        f1, f2 = self.facet_values(beta)
        return (_in_numerical(self.s1, f1) and _in_numerical(self.s2, f2)
                and not self.in_semigroup(int(c), int(m)))

    def part(self, beta):
        """The paper's class label: holes form one class; every other class
        is a lattice coset refined by the two facet memberships."""
        if self.is_hole(beta):
            return ("hole",)
        f1, f2 = self.facet_values(beta)
        frac = tuple(Fraction(x) - (Fraction(x).numerator // Fraction(x).denominator)
                     for x in beta)
        return (frac, _in_numerical(self.s1, f1), _in_numerical(self.s2, f2))


def _numerical_semigroup(gens):
    """Gap set of <gens> (gcd 1): reachable values until a full run."""
    gens = sorted(g for g in gens if g)
    reach = [True]
    run = 1 if gens[0] == 1 else 0
    while run < gens[0]:
        k = len(reach)
        ok = any(g <= k and reach[k - g] for g in gens)
        reach.append(ok)
        run = run + 1 if ok else 0
    return frozenset(k for k, ok in enumerate(reach) if not ok)


def _in_numerical(gaps, value) -> bool:
    value = Fraction(value)
    return value.denominator == 1 and value >= 0 and int(value) not in gaps


# ---------------------------------------------------------------------------
# series and operators


def falling(v, w) -> Fraction:
    out = Fraction(1)
    for vj, wj in zip(v, w):
        for t in range(wj):
            out *= vj - t
    return out


def kernel_ball(rows, order):
    """Integer u with A u = 0 and positive-part sum at most order.

    The coordinates outside an invertible d-subset of columns are
    enumerated; the remaining ones are solved for and kept when integral.
    """
    d, n = len(rows), len(rows[0])
    cols = columns(rows)
    basis = next(
        s for s in combinations(range(n), d)
        if _det([[cols[j][i] for j in s] for i in range(d)]) != 0
    )
    free = [j for j in range(n) if j not in basis]
    out = []
    for vals in product(range(-order, order + 1), repeat=len(free)):
        if sum(v for v in vals if v > 0) > order or -sum(v for v in vals if v < 0) > order:
            continue
        rhs = [-sum(v * cols[j][i] for v, j in zip(vals, free)) for i in range(d)]
        aug = [[Fraction(cols[j][i]) for j in basis] + [Fraction(rhs[i])] for i in range(d)]
        sol = _solve(aug, d)
        if sol is None or any(x.denominator != 1 for x in sol):
            continue
        u = [0] * n
        for j, v in zip(free, vals):
            u[j] = v
        for j, x in zip(basis, sol):
            u[j] = int(x)
        if sum(x for x in u if x > 0) <= order:
            out.append(tuple(u))
    return out


def nsupp(v):
    return tuple(i for i, x in enumerate(v) if x.denominator == 1 and x < 0)


def canonical_series(rows, v, order):
    """phi_v through positive-part degree order, as {exponent: coefficient}.

    Every exponent of the truncation ball is present, with coefficient 0
    where the negative support is not preserved, so a missing key means
    "beyond the order", never "zero".
    """
    v = tuple(Fraction(x) for x in v)
    base = nsupp(v)
    terms = {}
    for u in kernel_ball(rows, order):
        w = tuple(a + b for a, b in zip(v, u))
        if nsupp(w) != base:
            terms[w] = Fraction(0)
            continue
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        terms[w] = falling(v, minus) / falling(w, plus)
    return terms


def relative_degree(w, start):
    return sum((x for x in _sub(w, start) if x > 0), Fraction(0))


def composition_window(series, start, order, op_plus, op_minus):
    """The coefficients of (op_minus op_plus) phi and of phi at every
    exponent w where the first is fully determined by the terms of phi
    through the given order: each source w - delta_minus - delta_plus must
    lie in the truncation ball.

    op_* are lists of ((alpha, m), c); x^alpha d^m sends x^y to
    [y]_m x^(y - m + alpha).  Returns {w: (image_w, phi_w)}.
    """
    d_plus = {tuple(a - b for a, b in zip(al, m)) for (al, m), _ in op_plus}
    d_minus = {tuple(a - b for a, b in zip(al, m)) for (al, m), _ in op_minus}
    shifts = {tuple(a + b for a, b in zip(p, q)) for p in d_plus for q in d_minus}
    memo = {}

    def first(y):
        if y not in memo:
            total = Fraction(0)
            for (al, m), c in op_plus:
                src = tuple(a - x + b for a, x, b in zip(y, al, m))
                cw = series.get(src)
                if cw:
                    total += c * falling(src, m) * cw
            memo[y] = total
        return memo[y]

    out = {}
    for w in series:
        if any(relative_degree(_sub(w, s), start) > order for s in shifts):
            continue
        total = Fraction(0)
        for (al, m), c in op_minus:
            src = tuple(a - x + b for a, x, b in zip(w, al, m))
            t = first(src)
            if t:
                total += c * falling(src, m) * t
        out[w] = (total, series[w])
    return out
