"""The shared elimination and division routines, and the cached residue
data, against the code they replaced.

Each oracle below is the earlier implementation, copied with its
asserts dropped and its calls pointed at the other oracles: three
separate Gauss-Jordan loops for rank, solve and kernel, a fourth for the
determinant, k separate solves for a unimodular inverse, the greedy rank
test for a complement, one solve over [basis | complement] per residue,
E_tau rebuilt from its face data on every call, a kernel ball scanned off
an invertible minor, two copies of the polynomial division loop, a
Buchberger loop that saturated a kernel basis one variable at a time for
the toric ideal and its Groebner bases, a star triangulation over
enumerated supporting hyperplanes for the normalized volume, one solve
per call for the coordinates of a vector in a lattice, the Smith form
(kept in `helpers.py`) behind integer solves, integer kernels and coset
lists, and the breadth-first minimal-solution searches (kept in
`helpers.py`) that tested each new node against every Graver element and
every minimal solution, or against those an index listed under the
stepped coordinate.
The new code must return exactly what they return; where the Hermite form
picks another particular solution or kernel basis, it must give the same
solvability and span the same lattice.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from helpers import (
    conformal_leq,
    indexed_minimal_inhomogeneous_solutions,
    invert_unimodular,
    old_minimal_inhomogeneous_solutions,
    smith_normal_form,
)

from ahyper.classify import normalized_volume
from ahyper.cone import face_lattice, positive_functional
from ahyper.errors import INVARIANT_VIOLATED, AhgError, InternalError
from ahyper.lattice import (
    IntMatrix,
    LatticeBasis,
    kernel_lattice,
    affine_residue,
    clear_denominators,
    column_lattice,
    dot,
    hermite_normal_form,
    homogeneity_witness,
    integer_kernel,
    integer_solve,
    mat_vec,
    nullspace_rational,
    quotient_representatives,
    QuotientResidues,
    rational_rank,
    solve_rational,
    vec_sub,
)
from ahyper.semigroup import (
    _face_sublattice,
    _saturated_face_lattice,
    _span_equations,
    e_tau,
)
from ahyper.series import kernel_ball
from ahyper.toric import (
    _conformal_leq,
    _minimal_inhomogeneous_solutions,
    divide,
    graver_basis,
    grevlex_key,
    leading_term,
    mono_divides,
    poly_add,
    poly_mul_mono,
    toric_ideal,
)

# the benchmark's witness matrices, and the column pairs whose sums it
# shifts by besides the single columns
WITNESS_PAIRS = (
    tuple(combinations(range(4), 2)),
    tuple(combinations(range(4), 2)),
    ((0, 1), (2, 3)),
    (),
    (),
)
WITNESS_MATRICES = (
    ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)),
    ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)),
    ((1, 1, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 1, 1)),
    ((1, 1, 1, 1), (0, 1, 3, 4)),
    ((1, 1, 1, 1), (0, 2, 3, 5)),
)


# ---------------------------------------------------------------------------
# the replaced code


def old_rational_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def old_solve_rational(rows, rhs):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [inv * x for x in aug[rank]]
        for r in range(nrows):
            if r != rank and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, nrows):
        if aug[r][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return tuple(x)


def old_nullspace_rational(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][f]
        basis.append(tuple(v))
    return basis


def old_det(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    k = len(m)
    out = Fraction(1)
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            out = -out
        out *= m[i][i]
        inv = Fraction(1) / m[i][i]
        for r in range(i + 1, k):
            if m[r][i]:
                f = m[r][i] * inv
                for c in range(i, k):
                    m[r][c] -= f * m[i][c]
    return out


def old_invert_unimodular(U):
    k = len(U)
    cols = []
    for j in range(k):
        rhs = tuple(1 if i == j else 0 for i in range(k))
        sol = old_solve_rational(U, rhs)
        cols.append([int(x) for x in sol])
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def old_complement_columns(basis):
    rows = [list(v) for v in basis.vectors]
    chosen = []
    for i in range(basis.ambient):
        e = [0] * basis.ambient
        e[i] = 1
        if old_rational_rank(rows + [e]) > len(rows):
            rows.append(e)
            chosen.append(tuple(e))
    return tuple(chosen)


def old_affine_residue(basis, v):
    comp = old_complement_columns(basis)
    cols = list(basis.vectors) + list(comp)
    if not cols:
        return tuple(Fraction(x) for x in v)
    rows = tuple(tuple(c[i] for c in cols) for i in range(basis.ambient))
    sol = old_solve_rational(rows, v)
    res = [Fraction(0)] * basis.ambient
    k = len(basis.vectors)
    for idx, coef in enumerate(sol):
        c = coef - coef.__floor__() if idx < k else coef
        if c:
            for i in range(basis.ambient):
                res[i] += c * cols[idx][i]
    return tuple(res)


def old_span_solve(basis, v):
    """LatticeBasis.span_solve as it was: one solve per call."""
    if not basis.vectors:
        return () if all(Fraction(x) == 0 for x in v) else None
    rows = tuple(tuple(b[i] for b in basis.vectors) for i in range(basis.ambient))
    return old_solve_rational(rows, v)


def old_member(basis, v):
    c = old_span_solve(basis, v)
    if c is None:
        return None
    out = []
    for x in c:
        if Fraction(x).denominator != 1:
            return None
        out.append(int(x))
    return tuple(out)


def old_reduce_mod(basis, v):
    c = old_span_solve(basis, v)
    if c is None:
        raise ValueError("vector is outside the rational span")
    res = [Fraction(x) for x in v]
    for coef, b in zip(c, basis.vectors):
        k = Fraction(coef).__floor__()
        if k:
            for i in range(basis.ambient):
                res[i] -= k * b[i]
    return tuple(res)


def old_supporting_hyperplanes(pts, dim):
    seen = {}
    for sub in combinations(pts, dim):
        diffs = [vec_sub(p, sub[0]) for p in sub[1:]]
        if diffs:
            kern = old_nullspace_rational(diffs)
        else:
            kern = [(Fraction(1),)]
        if len(kern) != 1:
            continue
        normal = clear_denominators(kern[0])
        offset = dot(normal, sub[0])
        values = [dot(normal, p) for p in pts]
        if any(v > offset for v in values):
            if any(v < offset for v in values):
                continue
            normal = tuple(-x for x in normal)
            offset = -offset
            values = [-v for v in values]
        key = (normal, offset)
        if key not in seen:
            seen[key] = tuple(p for p, v in zip(pts, values) if v == offset)
    return [(n, c, members) for (n, c), members in seen.items()]


def old_triangulate(pts, dim, from_last=False):
    pts = sorted(set(pts))
    if dim == 0:
        return [(pts[0],)]
    apex = pts[-1] if from_last else pts[0]
    cells = []
    for normal, offset, members in old_supporting_hyperplanes(pts, dim):
        if dot(normal, apex) == offset:
            continue
        drop = max(range(dim), key=lambda i: abs(normal[i]))
        flat = {tuple(p[:drop] + p[drop + 1 :]): p for p in members}
        for cell in old_triangulate(sorted(flat), dim - 1):
            cells.append((apex,) + tuple(flat[q] for q in cell))
    return cells


def old_hyperplane_coordinates(A):
    homogeneity_witness(A)
    base = A.column(0)
    gens = [vec_sub(A.column(j), base) for j in range(1, A.n)]
    basis = LatticeBasis.from_generators(A.d, gens)
    pts = []
    for j in range(A.n):
        c = old_member(basis, vec_sub(A.column(j), base))
        if c is None:
            raise InternalError(INVARIANT_VIOLATED, f"column {j} of {A.entries} is off its lattice")
        pts.append(c)
    return pts, basis.rank


def old_in_na_mod_face(A, tau, gamma):
    gamma = tuple(Fraction(x) for x in gamma)
    if any(x.denominator != 1 for x in gamma):
        return False
    gamma = tuple(int(x) for x in gamma)
    if tau.is_whole_cone():
        return column_lattice(A).member(gamma) is not None
    sub = _face_sublattice(A, tau)
    g = positive_functional(A, tau)
    target = Fraction(dot(g, gamma))
    if target < 0 or target.denominator != 1:
        return False
    off = [j for j in range(A.n) if j not in tau.columns]
    weights = [int(dot(g, A.column(j))) for j in off]
    cols = [A.column(j) for j in off]
    failed = set()

    def search(idx, rest):
        t = int(dot(g, rest))
        if t == 0:
            return sub.member(rest) is not None
        if idx == len(off):
            return False
        key = (idx, old_affine_residue(sub, rest))
        if key in failed:
            return False
        for u in range(t // weights[idx], -1, -1):
            nxt = vec_sub(rest, tuple(u * c for c in cols[idx]))
            if search(idx + 1, nxt):
                return True
        failed.add(key)
        return False

    return search(0, gamma)


def old_integer_solve(rows, rhs):
    """integer_solve as it was: the Smith form, applied in Fractions."""
    D, S, T = smith_normal_form(tuple(tuple(r) for r in rows))
    d = len(rows)
    n = len(rows[0]) if d else 0
    y = mat_vec(S, [Fraction(x) for x in rhs])
    r = min(d, n)
    z = [Fraction(0)] * n
    for i in range(d):
        di = D[i][i] if i < r else 0
        if di:
            q = y[i] / di
            if q.denominator != 1:
                return None
            z[i] = q
        else:
            if y[i]:
                return None
    x = mat_vec(T, z)
    return tuple(int(v) for v in x)


def old_integer_kernel(rows, ncols):
    """integer_kernel as it was: the columns of the Smith T past the
    nonzero diagonal."""
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    D, _S, T = smith_normal_form(tuple(tuple(r) for r in rows))
    r = sum(1 for i in range(min(len(rows), ncols)) if D[i][i])
    return [tuple(T[i][j] for i in range(ncols)) for j in range(r, ncols)]


def old_quotient_representatives(big, small):
    """quotient_representatives as it was: the Smith box mapped back
    through the inverse of S."""
    C = [big.member(v) for v in small.vectors]
    k = big.rank
    if k == 0:
        zero = tuple(Fraction(0) for _ in range(big.ambient))
        return QuotientResidues(big, small, 1, (zero,))
    Crows = tuple(tuple(C[j][i] for j in range(k)) for i in range(k))
    D, S, _T = smith_normal_form(Crows)
    diag = [abs(D[i][i]) for i in range(k)]
    Sinv = invert_unimodular(S)
    reps = []
    for y in product(*(range(m) for m in diag)):
        c = mat_vec(Sinv, y)
        vec = [0] * big.ambient
        for coef, b in zip(c, big.vectors):
            for i in range(big.ambient):
                vec[i] += coef * b[i]
        reps.append(affine_residue(small, tuple(vec)))
    return QuotientResidues(big, small, prod(diag), tuple(sorted(set(reps))))


def old_saturated_face_lattice(A, tau):
    """_saturated_face_lattice with the Smith-form kernel."""
    F = _span_equations(A, tau)
    ZA = column_lattice(A)
    FZ = tuple(tuple(dot(f, z) for z in ZA.vectors) for f in F)
    if not any(any(row) for row in FZ):
        return ZA
    gens = [
        tuple(sum(c * z[i] for c, z in zip(coefs, ZA.vectors)) for i in range(A.d))
        for coefs in old_integer_kernel(FZ, len(ZA.vectors))
    ]
    return LatticeBasis.from_generators(A.d, gens)


def old_e_tau(A, tau, beta):
    """The residues of E_tau(beta), every piece of face data rebuilt."""
    beta = tuple(Fraction(x) for x in beta)
    ZA = column_lattice(A)
    if tau.is_whole_cone():
        return (old_affine_residue(ZA, beta),)
    sub = _face_sublattice(A, tau)
    F = _span_equations(A, tau)
    Zcols = ZA.vectors
    FZ = tuple(tuple(dot(f, z) for z in Zcols) for f in F)
    Fbeta = tuple(dot(f, beta) for f in F)
    c = old_integer_solve(FZ, Fbeta)
    if c is None:
        return ()
    lam0 = vec_sub(beta, tuple(
        sum(ci * z[i] for ci, z in zip(c, Zcols)) for i in range(A.d)
    ))
    big = old_saturated_face_lattice(A, tau)
    quo = old_quotient_representatives(big, sub)
    kept = []
    for rep in quo.representatives:
        lam = tuple(a + b for a, b in zip(lam0, rep))
        if old_in_na_mod_face(A, tau, vec_sub(beta, lam)):
            kept.append(old_affine_residue(sub, lam))
    return tuple(sorted(set(kept)))


def old_kernel_ball(A, order):
    d, n = A.d, A.n
    pivots = next(
        cols
        for cols in combinations(range(n), d)
        if old_rational_rank([[A.entries[i][j] for j in cols] for i in range(d)]) == d
    )
    free = [j for j in range(n) if j not in pivots]
    minor = [[A.entries[i][j] for j in pivots] for i in range(d)]
    solved = [old_solve_rational(minor, tuple(-x for x in A.column(j))) for j in free]
    den = lcm(*(x.denominator for col in solved for x in col))
    steps = [tuple(int(x * den) for x in col) for col in solved]
    out = []

    def rec(k, pos, neg, prefix, acc):
        if k == len(free):
            u = [0] * n
            for j, val in zip(free, prefix):
                u[j] = val
            for j, s in zip(pivots, acc):
                if s % den:
                    return
                u[j] = s // den
            if sum(x for x in u if x > 0) <= order and -sum(x for x in u if x < 0) <= order:
                out.append(tuple(u))
            return
        for val in range(-neg, pos + 1):
            rec(
                k + 1,
                pos - max(val, 0),
                neg + min(val, 0),
                prefix + [val],
                acc if not val else tuple(a + val * c for a, c in zip(acc, steps[k])),
            )

    rec(0, order, order, [], (0,) * d)
    return tuple(sorted(out))


def old_normal_form(p, basis, key):
    out = {}
    work = dict(p)
    while work:
        m, c = leading_term(work, key)
        hit = None
        for g, lt, lc in basis:
            if mono_divides(lt, m):
                hit = (g, lt, lc)
                break
        if hit is None:
            out[m] = c
            del work[m]
            continue
        g, lt, lc = hit
        shift = tuple(a - b for a, b in zip(m, lt))
        work = poly_add(work, poly_mul_mono(g, shift, -c / lc))
    return out


def old_reduce_slice(p, triples, key):
    work = dict(p)
    rem = {}
    quots = [{} for _ in triples]
    while work:
        m, c = leading_term(work, key)
        hit = next(
            (t for t, (_, lt, _) in enumerate(triples) if mono_divides(lt, m)), None
        )
        if hit is None:
            rem[m] = c
            del work[m]
            continue
        g, lt, lc = triples[hit]
        shift = tuple(a - b for a, b in zip(m, lt))
        q = c / lc
        quots[hit][shift] = quots[hit].get(shift, Fraction(0)) + q
        work = poly_add(work, poly_mul_mono(g, shift, -q))
    return rem, quots


def old_buchberger(gens, key):
    import heapq

    basis = []
    for g in gens:
        if g:
            lt, lc = leading_term(g, key)
            basis.append((dict(g), lt, lc))
    heap = []
    done = set()

    def push_pairs(t):
        ltt = basis[t][1]
        for s in range(t):
            lcm = tuple(max(a, b) for a, b in zip(basis[s][1], ltt))
            heapq.heappush(heap, (key(lcm), s, t, lcm))

    for t in range(len(basis)):
        push_pairs(t)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        gi, lti, lci = basis[i]
        gj, ltj, lcj = basis[j]
        if all(a + b == m for a, b, m in zip(lti, ltj, lcm)):
            continue
        if any(
            k != i
            and k != j
            and mono_divides(basis[k][1], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        s = poly_add(
            poly_mul_mono(gi, vec_sub(lcm, lti), Fraction(1) / lci),
            poly_mul_mono(gj, vec_sub(lcm, ltj), Fraction(-1) / lcj),
        )
        r, _ = divide(s, basis, key)
        if r:
            lt, lc = leading_term(r, key)
            basis.append((r, lt, lc))
            push_pairs(len(basis) - 1)
    basis.sort(key=lambda t: key(t[1]))
    kept = []
    for g, lt, lc in basis:
        if any(mono_divides(lt2, lt) for _, lt2, _ in kept):
            continue
        kept.append((g, lt, lc))
    reduced = []
    for i, (g, lt, lc) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r, _ = divide(g, others, key)
        lt2, lc2 = leading_term(r, key)
        reduced.append({m: c / lc2 for m, c in r.items()})
    reduced.sort(key=lambda p: key(leading_term(p, key)[0]))
    return reduced


def old_divide_variable_content(p, i):
    low = min(m[i] for m in p)
    if low == 0:
        return dict(p)
    return {tuple(x - low if k == i else x for k, x in enumerate(m)): c for m, c in p.items()}


def old_lowest_key(n, lowest):
    return grevlex_key(tuple(j for j in range(n) if j != lowest) + (lowest,))


def old_toric_generators(A):
    """The saturating toric_ideal's generators, as (plus, minus) pairs."""
    n = A.n
    polys = []
    for v in kernel_lattice(A).vectors:
        plus = tuple(x if x > 0 else 0 for x in v)
        minus = tuple(-x if x < 0 else 0 for x in v)
        if plus != minus:
            polys.append({plus: Fraction(1), minus: Fraction(-1)})
    for i in range(n):
        if not polys:
            break
        G = old_buchberger(polys, old_lowest_key(n, i))
        polys = [old_divide_variable_content(g, i) for g in G]
    if polys:
        polys = old_buchberger(polys, grevlex_key(tuple(range(n))))
    gens = []
    for p in polys:
        (m1, _c1), (m2, _c2) = sorted(p.items(), key=lambda t: -t[1])
        gens.append((m1, m2))
    return gens


def old_groebner(generators, n, lowest):
    """ToricIdeal.groebner as it was: Buchberger on the generators."""
    polys = [{plus: Fraction(1), minus: Fraction(-1)} for plus, minus in generators]
    return [dict(sorted(p.items())) for p in old_buchberger(polys, old_lowest_key(n, lowest))]


# ---------------------------------------------------------------------------
# elimination


def random_rows(rng, nrows, ncols):
    """Small integer rows, often rank-deficient, with zero rows and columns."""
    rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.randrange(4)
    if shape == 1 and nrows >= 2:
        # a row that combines two others
        a, b = rng.sample(range(nrows), 2)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[a] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    elif shape == 2 and nrows:
        rows[rng.randrange(nrows)] = [0] * ncols
    elif shape == 3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    return [tuple(r) for r in rows]


def random_rhs(rng, rows, ncols):
    if rows and rng.random() < 0.5:
        # consistent: the image of a rational vector
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
        return tuple(sum(a * b for a, b in zip(r, x)) for r in rows)
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in rows)


def test_rank_solve_and_kernel_match_the_separate_eliminations():
    rng = random.Random(8101)
    shapes = solved = 0
    for _ in range(1500):
        nrows = rng.randint(0, 4)
        ncols = rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols)
        rhs = random_rhs(rng, rows, ncols)
        assert rational_rank(rows) == old_rational_rank(rows)
        assert nullspace_rational(rows) == old_nullspace_rational(rows)
        new = solve_rational(rows, rhs)
        assert new == old_solve_rational(rows, rhs)
        shapes += old_rational_rank(rows) < nrows
        solved += new is not None
    # the sample covers rank-deficient systems and both solve outcomes
    assert shapes > 300 and 300 < solved < 1400


def test_zero_column_and_empty_systems():
    for rows, rhs in (([], ()), ([()], (0,)), ([()], (1,)), ([(), ()], (0, Fraction(1, 2)))):
        assert solve_rational(rows, rhs) == old_solve_rational(rows, rhs)
        assert rational_rank(rows) == old_rational_rank(rows)
        assert nullspace_rational(rows) == old_nullspace_rational(rows)


def random_unimodular(rng, k):
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i == j:
            U[i] = [-x for x in U[i]]
        else:
            c = rng.randint(-3, 3)
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return tuple(tuple(r) for r in U)


def test_invert_unimodular_matches_columnwise_solves():
    rng = random.Random(8102)
    for _ in range(300):
        k = rng.randint(0, 5)
        U = random_unimodular(rng, k)
        assert invert_unimodular(U) == old_invert_unimodular(U)
    # the Smith transforms, whose inverses the Smith-form oracles take
    for _ in range(200):
        d, n = rng.randint(1, 4), rng.randint(1, 5)
        _D, S, T = smith_normal_form(tuple(random_rows(rng, d, n)))
        for M in (S, T):
            assert invert_unimodular(M) == old_invert_unimodular(M)


def test_hermite_diagonal_product_is_the_absolute_determinant():
    rng = random.Random(8103)
    singular = 0
    for _ in range(600):
        k = rng.randint(1, 5)
        rows = tuple(random_rows(rng, k, k))
        H, _U = hermite_normal_form(rows)
        vol = prod(H[i][i] for i in range(k))
        assert vol == abs(old_det(rows))
        D, _S, _T = smith_normal_form(rows)
        assert vol == prod(D[i][i] for i in range(k))
        singular += vol == 0
    assert singular > 50


def test_integer_solve_matches_the_smith_form():
    """The same solvability as the Smith-form solve, and every solution
    returned solves the system, on non-square and rank-deficient systems
    with integer and rational right-hand sides."""
    rng = random.Random(8108)
    solved = unsolved = deficient = rational = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols)
        kind = rng.randrange(4)
        if kind == 0:
            # the image of an integer vector: always solvable
            rhs = mat_vec(rows, [rng.randint(-5, 5) for _ in range(ncols)])
        elif kind == 1:
            rhs = tuple(rng.randint(-6, 6) for _ in rows)
        else:
            rhs = random_rhs(rng, rows, ncols)
            rational += any(Fraction(x).denominator > 1 for x in rhs)
        new = integer_solve(rows, rhs)
        old = old_integer_solve(rows, rhs)
        assert (new is None) == (old is None), (rows, rhs)
        if new is not None:
            assert all(type(x) is int for x in new)
            assert mat_vec(rows, new) == tuple(rhs), (rows, rhs)
        solved += new is not None
        unsolved += new is None
        deficient += rational_rank(rows) < nrows
    assert solved > 150 and unsolved > 100 and deficient > 100 and rational > 100
    for rows, rhs in ((((),), (0,)), (((),), (1,)), (((0, 0),), (Fraction(1, 2),))):
        assert integer_solve(rows, rhs) == old_integer_solve(rows, rhs)


def integer_kernel_cases():
    rng = random.Random(8109)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        yield random_rows(rng, rng.randint(0, 4), ncols), ncols


def test_integer_kernel_matches_the_smith_form():
    """The Hermite kernel spans the lattice the Smith kernel spans."""
    ranks = set()
    for rows, ncols in integer_kernel_cases():
        new = integer_kernel(rows, ncols)
        for v in new:
            assert mat_vec(rows, v) == (0,) * len(rows)
        lattice = LatticeBasis.from_generators(ncols, new)
        assert lattice == LatticeBasis.from_generators(ncols, old_integer_kernel(rows, ncols))
        ranks.add(lattice.rank)
    assert ranks == {0, 1, 2, 3, 4, 5, 6}


def random_sublattice(rng, big):
    """The lattice of k random combinations of big's basis, k = its rank;
    every other one has the elementary divisors of a random diagonal."""
    k = big.rank
    if rng.random() < 0.5:
        P, Q = random_unimodular(rng, k), random_unimodular(rng, k)
        diag = [rng.randint(1, 3) for _ in range(k)]
        C = [[sum(P[i][t] * diag[t] * Q[t][j] for t in range(k)) for j in range(k)]
             for i in range(k)]
    else:
        while True:
            C = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if rational_rank(C) == k:
                break
    gens = [
        tuple(sum(C[i][j] * b[t] for i, b in enumerate(big.vectors)) for t in range(big.ambient))
        for j in range(k)
    ]
    return LatticeBasis.from_generators(big.ambient, gens)


def test_quotient_representatives_match_the_smith_form():
    """The same index and the same sorted coset list as the Smith box, on
    seeded sublattices, the face quotients of the census matrices, and
    non-cyclic quotients such as 2Z x 2Z in Z^2."""
    rng = random.Random(8110)
    pairs = []
    Z2 = LatticeBasis.from_generators(2, ((1, 0), (0, 1)))
    pairs.append((Z2, LatticeBasis.from_generators(2, ((2, 0), (0, 2)))))
    Z3 = LatticeBasis.from_generators(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    pairs.append((Z3, LatticeBasis.from_generators(3, ((2, 0, 0), (0, 6, 0), (0, 0, 3)))))
    for _ in range(200):
        amb = rng.randint(1, 4)
        big = LatticeBasis.from_generators(amb, random_rows(rng, rng.randint(1, amb + 1), amb))
        pairs.append((big, random_sublattice(rng, big)))
    for rows in CENSUS_MATRICES + (QUOTIENT_Z2_Z2,):
        A = IntMatrix(rows)
        for tau in face_lattice(A).proper_faces():
            pairs.append((_saturated_face_lattice(A, tau), _face_sublattice(A, tau)))
    noncyclic = 0
    for big, small in pairs:
        new = quotient_representatives(big, small)
        assert new == old_quotient_representatives(big, small), (big, small)
        if big.rank:
            D, _S, _T = smith_normal_form(tuple(
                tuple(big.member(v)[i] for v in small.vectors) for i in range(big.rank)))
            noncyclic += sum(abs(D[i][i]) > 1 for i in range(big.rank)) > 1
    assert noncyclic > 20
    assert len(quotient_representatives(*pairs[0]).representatives) == 4


def test_saturated_face_lattices_match_the_smith_kernel():
    rng = random.Random(8112)
    matrices = [IntMatrix(rows) for rows in CENSUS_MATRICES + (QUOTIENT_Z2_Z2,)]
    for A in matrices + random_matrices(rng, 20):
        for tau in face_lattice(A).faces:
            assert _saturated_face_lattice(A, tau) == old_saturated_face_lattice(A, tau)


def old_normalized_volume(A):
    pts, dim = old_hyperplane_coordinates(A)
    if dim == 0:
        return 1
    totals = []
    for from_last in (False, True):
        vol = Fraction(0)
        for cell in old_triangulate(pts, dim, from_last):
            vol += abs(old_det([vec_sub(p, cell[0]) for p in cell[1:]]))
        totals.append(vol)
    if totals[0] != totals[1] or totals[0] <= 0:
        raise InternalError(INVARIANT_VIOLATED, f"star triangulations of {A.entries} disagree")
    return int(totals[0])


def volume_matrices(rng, count):
    """Full-rank matrices with d = 1..4, up to d + 3 columns, entries -2..3;
    most are homogeneous (first row all ones), and some get a repeated
    column or the sum of two columns less a third as an extra column."""
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        n = rng.randint(d, d + 2)
        top = [(1,) * n] if rng.random() < 0.85 else []
        rows = top + [[rng.randint(-2, 3) for _ in range(n)] for _ in range(d - len(top))]
        cols = [tuple(r[j] for r in rows) for j in range(n)]
        extra = rng.randrange(3) if n >= 3 else 0
        if extra == 1:
            cols.insert(rng.randrange(n + 1), rng.choice(cols))
        elif extra == 2:
            a, b, c = rng.sample(cols, 3)
            cols.append(tuple(x + y - z for x, y, z in zip(a, b, c)))
        rows = tuple(tuple(c[i] for c in cols) for i in range(d))
        if rational_rank(rows) == d:
            out.append(IntMatrix(rows))
    return out


def _volume_or_code(volume, A):
    try:
        return volume(A)
    except AhgError as err:
        return err.code


def test_normalized_volume_matches_the_determinant_version():
    fixed = WITNESS_MATRICES + (
        ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)),
        ((1, 1, 1, 1, 1, 1), (0, 1, 2, 0, 1, 0), (0, 0, 0, 1, 1, 2)),
        ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
        ((1, 1), (0, 2)),
        ((1, 1, 1, 1, 1), (0, 2, 3, 3, 2), (3, 2, 1, 1, 2)),
    )
    matrices = [IntMatrix(rows) for rows in fixed] + volume_matrices(random.Random(8106), 300)
    raised = repeated = inner = 0
    for A in matrices:
        got = _volume_or_code(normalized_volume, A)
        assert got == _volume_or_code(old_normalized_volume, A), A.entries
        if isinstance(got, str):
            raised += 1
            continue
        cols = A.columns()
        vertices = {cols[j] for f in face_lattice(A).faces if f.dim == 1 for j in f.columns}
        repeated += len(set(cols)) < len(cols)
        inner += len(vertices) < len(set(cols))
    # the sample covers every shape the triangulation has to handle
    assert raised > 20 and repeated > 80 and inner > 40
    assert {A.d for A in matrices} == {1, 2, 3, 4}


def seeded_lattices():
    """400 bases of ranks 0 to ambient, each with four rational vectors and
    one integer vector, mostly off the span when the rank is short."""
    rng = random.Random(8104)
    for _ in range(400):
        amb = rng.randint(0, 5)
        gens = random_rows(rng, rng.randint(0, amb + 1), amb) if amb else []
        basis = LatticeBasis.from_generators(amb, gens)
        vectors = []
        for _ in range(4):
            den = rng.choice((1, 1, 2, 3, 6))
            vectors.append(tuple(Fraction(rng.randint(-9, 9), den) for _ in range(amb)))
        vectors.append(tuple(rng.randint(-9, 9) for _ in range(amb)))
        yield basis, vectors


def test_affine_residue_matches_the_solve_per_call():
    """Residues read off the cached rows equal one solve over the basis and
    the greedy complement, so the complement choice is unchanged too."""
    for basis, vectors in seeded_lattices():
        for v in vectors:
            got = affine_residue(basis, v)
            assert got == old_affine_residue(basis, v), (basis, v)
            assert all(type(x) is Fraction for x in got)


def test_span_coordinates_match_the_solve_per_call():
    """span_solve, member and the residue of a vector in the span equal
    what one solve per call gave, on and off the span and the lattice."""
    rng = random.Random(8107)
    on_span = off_span = members = 0
    for basis, vectors in seeded_lattices():
        # integer and rational combinations of the basis lie on the span
        for den in (1, 2, 3):
            coefs = [Fraction(rng.randint(-4, 4), den) for _ in basis.vectors]
            vectors.append(tuple(
                sum((c * b[i] for c, b in zip(coefs, basis.vectors)), Fraction(0))
                for i in range(basis.ambient)
            ))
        for v in vectors:
            c = basis.span_solve(v)
            assert c == old_span_solve(basis, v), (basis, v)
            assert basis.member(v) == old_member(basis, v), (basis, v)
            if c is None:
                off_span += 1
                continue
            on_span += 1
            members += basis.member(v) is not None
            assert affine_residue(basis, v) == old_reduce_mod(basis, v), (basis, v)
    assert on_span > 1500 and off_span > 1000 and 1000 < members < on_span


# the census workload's matrices: the paper's three, one cone over a
# lattice polygon and one four-column curve
CENSUS_MATRICES = (
    ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)),
    ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)),
    ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0)),
    ((1, 1, 1, 1, 1), (0, 1, 0, 1, 2), (0, 0, 1, 1, 1)),
    ((1, 1, 1, 1), (0, 1, 3, 7)),
)

# its face (0, 2, 5) has the non-cyclic quotient Z/2 x Z/2
QUOTIENT_Z2_Z2 = ((1, 1, 1, 1, 1, 1), (2, 2, 2, 3, 2, 0), (3, 1, 3, 0, 0, 3), (2, 1, 4, 2, 0, 2))


def random_matrices(rng, count):
    """Homogeneous 3x4 and 3x5 matrices of full rank, entries 0..3."""
    out = []
    while len(out) < count:
        n = rng.choice((4, 5))
        rows = ((1,) * n,) + tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2))
        if rational_rank(rows) == 3:
            out.append(IntMatrix(rows))
    return out


def test_e_tau_matches_the_per_call_rebuild():
    rng = random.Random(8111)
    matrices = [IntMatrix(rows) for rows in CENSUS_MATRICES] + random_matrices(rng, 20)
    for A in matrices + [IntMatrix(QUOTIENT_Z2_Z2)]:
        for tau in face_lattice(A).faces:
            for den in (1, 1, 2, 3):
                beta = tuple(Fraction(rng.randint(-3, 3), den) for _ in range(A.d))
                assert e_tau(A, tau, beta).residues == old_e_tau(A, tau, beta), (
                    A.entries, tau.columns, beta)


def test_kernel_ball_matches_the_minor_scan():
    for rows in WITNESS_MATRICES + (((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)), ((1, 1), (0, 2))):
        A = IntMatrix(rows)
        for order in (0, 3, 8):
            assert kernel_ball(A, order) == old_kernel_ball(A, order)


# ---------------------------------------------------------------------------
# division


def division_cases():
    """S-polynomials of the Groebner bases of the witness matrices, divided
    by those bases, and random polynomials divided by the bases and by the
    generators (not a Groebner basis, so remainders are left)."""
    rng = random.Random(8105)
    for rows in WITNESS_MATRICES:
        A = IntMatrix(rows)
        n = A.n
        ideal = toric_ideal(A)
        gens = [g.as_poly() for g in ideal.generators]
        for lowest in range(n):
            key = grevlex_key(tuple(j for j in range(n) if j != lowest) + (lowest,))
            G = ideal.groebner(lowest)
            triples = [(g,) + leading_term(g, key) for g in G]
            gen_triples = [(g,) + leading_term(g, key) for g in gens]
            for (gi, lti, lci), (gj, ltj, lcj) in combinations(triples, 2):
                lcm_ = tuple(max(a, b) for a, b in zip(lti, ltj))
                s = poly_add(
                    poly_mul_mono(gi, vec_sub(lcm_, lti), Fraction(1) / lci),
                    poly_mul_mono(gj, vec_sub(lcm_, ltj), Fraction(-1) / lcj),
                )
                yield s, triples, key
                yield s, gen_triples, key
            for _ in range(6):
                p = {}
                for _ in range(rng.randint(1, 6)):
                    m = tuple(rng.randint(0, 4) for _ in range(n))
                    p[m] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
                yield p, triples, key
                yield p, gen_triples, key


def test_divide_matches_both_old_division_loops():
    cases = nonzero = 0
    for p, basis, key in division_cases():
        rem, quots = divide(p, basis, key)
        assert rem == old_normal_form(p, basis, key)
        assert (rem, quots) == old_reduce_slice(p, basis, key)
        cases += 1
        nonzero += bool(rem)
    assert cases > 300 and nonzero > 100


# ---------------------------------------------------------------------------
# toric Groebner bases


def random_toric_matrices(rng, count):
    """Homogeneous matrices of shape 2x3 up to 3x5 and full rank, entries
    0..3; repeated columns are allowed."""
    out = []
    while len(out) < count:
        d, n = rng.choice(((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)))
        rows = ((1,) * n,) + tuple(
            tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d - 1)
        )
        if rational_rank(rows) == d:
            out.append(IntMatrix(rows))
    return out


def test_groebner_bases_match_the_saturating_buchberger():
    fixed = WITNESS_MATRICES + (
        ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9)),
        ((1, 1, 1, 1, 1), (0, 2, 3, 3, 2), (3, 2, 1, 1, 2)),
        ((1, 1), (0, 1)),
    )
    matrices = [IntMatrix(rows) for rows in fixed]
    matrices += random_toric_matrices(random.Random(8123), 100)
    empty = 0
    for A in matrices:
        ideal = toric_ideal(A)
        old_gens = old_toric_generators(A)
        assert [(g.plus, g.minus) for g in ideal.generators] == old_gens
        for lowest in range(A.n):
            G = ideal.groebner(lowest)
            old = old_groebner(old_gens, A.n, lowest)
            assert G == old
            assert [list(p) for p in G] == [list(p) for p in old]
        empty += not old_gens
    assert empty >= 1


# ---------------------------------------------------------------------------
# minimal inhomogeneous solutions


def witness_shifts():
    """Every shift the witness workload asks for, and its negative."""
    for rows, pairs in zip(WITNESS_MATRICES, WITNESS_PAIRS):
        A = IntMatrix(rows)
        for js in [(j,) for j in range(A.n)] + list(pairs):
            chi = tuple(sum(A.column(j)[i] for j in js) for i in range(A.d))
            yield A, chi
            yield A, tuple(-x for x in chi)


def random_shifts(rng, count):
    """Full-rank 2x3, 2x4, 2x5 and 3x4 matrices with a first row of ones
    and entries 0..3, each with plus or minus one or two column sums."""
    out = []
    while len(out) < count:
        d, n = rng.choice(((2, 3), (2, 4), (2, 5), (3, 4)))
        rows = ((1,) * n,) + tuple(
            tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d - 1)
        )
        if rational_rank(rows) < d:
            continue
        A = IntMatrix(rows)
        js = rng.sample(range(n), rng.randint(1, 2))
        sign = rng.choice((1, -1))
        out.append((A, tuple(sign * sum(A.column(j)[i] for j in js) for i in range(d))))
    return out


def assert_minimal_solutions(A, chi, sols):
    """Each pair solves A(u - v) = chi with disjoint supports, and no
    returned w = u - v dominates another one or a Graver element."""
    ws = []
    for u, v in sols:
        assert min(u + v) >= 0 and not any(a and b for a, b in zip(u, v))
        assert A.apply(vec_sub(u, v)) == tuple(chi)
        ws.append(vec_sub(u, v))
    assert len(set(ws)) == len(ws)
    for w in ws:
        assert not any(m != w and conformal_leq(m, w) for m in ws), (A.entries, chi, w)
        assert not any(conformal_leq(g, w) for g in graver_basis(A)), (A.entries, chi, w)


def test_conformal_leq_matches_the_product_form():
    for s, f in product(product(range(-2, 3), repeat=2), repeat=2):
        assert _conformal_leq(s, f) == conformal_leq(s, f), (s, f)


def test_minimal_solutions_match_the_full_prune_scan():
    cases = list(witness_shifts()) + random_shifts(random.Random(8131), 150)
    total = 0
    for A, chi in cases:
        sols = _minimal_inhomogeneous_solutions(A, chi)
        assert sorted(sols) == sorted(old_minimal_inhomogeneous_solutions(A, chi)), (A.entries, chi)
        assert sorted(sols) == sorted(indexed_minimal_inhomogeneous_solutions(A, chi)), (A.entries, chi)
        assert_minimal_solutions(A, chi, sols)
        total += len(sols)
    assert len(cases) > 200 and total > 900
