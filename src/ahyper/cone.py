"""Face lattice of the cone spanned by the columns, with support functions.

The cone is pointed because every column has height one under the
homogeneity functional, so faces are in bijection with the column index
sets cut out by the facet support functions.  Faces are stored purely as
index sets; geometry is recovered through the columns when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import InternalError, WHOLE_CONE
from .lattice import (
    IntMatrix,
    column_lattice,
    dot,
    homogeneity_witness,
    nullspace_rational,
    rational_rank,
)


@dataclass(frozen=True)
class SupportFunction:
    """A primitive integral support function of one facet.

    f is a rational covector with f(a_j) >= 0 for every column, vanishing
    exactly on zero_columns, and f(ZA) = Z.
    """

    f: tuple[Fraction, ...]
    zero_columns: tuple[int, ...]

    def value(self, v) -> Fraction:
        return Fraction(dot(self.f, v))


@dataclass(frozen=True)
class Face:
    columns: tuple[int, ...]
    dim: int
    incident_facets: tuple[int, ...]

    def is_whole_cone(self) -> bool:
        return not self.incident_facets


@dataclass(frozen=True)
class FaceLattice:
    facets: tuple[SupportFunction, ...]
    faces: tuple[Face, ...]

    def face_by_columns(self, columns) -> Face:
        key = tuple(sorted(columns))
        for face in self.faces:
            if face.columns == key:
                return face
        raise KeyError(f"no face with columns {key}")

    def contains(self, small: Face, big: Face) -> bool:
        return set(small.columns) <= set(big.columns)

    def proper_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if not f.is_whole_cone())


def _primitive_on_lattice(A: IntMatrix, f):
    """Rescale f so that {f(z) : z in ZA} = Z exactly."""
    ZA = column_lattice(A)
    vals = [Fraction(dot(f, b)) for b in ZA.vectors]
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise InternalError(WHOLE_CONE, "support function vanishes on the whole lattice")
    scale = Fraction(den, g)
    return tuple(Fraction(x) * scale for x in f)


@lru_cache(maxsize=None)
def facets(A: IntMatrix) -> tuple[SupportFunction, ...]:
    """All facets of the cone, one primitive support function each."""
    homogeneity_witness(A)  # rejects non-homogeneous input, ensures pointedness
    d, n = A.d, A.n
    cols = A.columns()
    seen = {}
    for subset in combinations(range(n), d - 1):
        rows = [cols[j] for j in subset]
        kern = nullspace_rational(rows) if rows else [
            tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d))
        ]
        if len(kern) != 1:
            continue
        f = kern[0]
        vals = [dot(f, c) for c in cols]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            f = tuple(-x for x in f)
            vals = [-v for v in vals]
        else:
            continue
        zero = tuple(j for j, v in enumerate(vals) if v == 0)
        zero_rank = rational_rank([cols[j] for j in zero]) if zero else 0
        if zero_rank != d - 1:
            continue
        if zero not in seen:
            seen[zero] = _primitive_on_lattice(A, f)
    out = [SupportFunction(f=seen[z], zero_columns=z) for z in sorted(seen)]
    return tuple(out)


@lru_cache(maxsize=None)
def face_lattice(A: IntMatrix) -> FaceLattice:
    """Every face, realized as an intersection of facet column sets."""
    sigma = facets(A)
    n = A.n
    cols = A.columns()
    whole = frozenset(range(n))
    sets = {whole}
    for s in sigma:
        sets.add(frozenset(s.zero_columns))
    changed = True
    while changed:
        changed = False
        for x, y in combinations(tuple(sets), 2):
            z = x & y
            if z not in sets:
                sets.add(z)
                changed = True
    faces = []
    for J in sets:
        incident = tuple(
            i for i, s in enumerate(sigma) if J <= frozenset(s.zero_columns)
        )
        closure = whole
        for i in incident:
            closure = closure & frozenset(sigma[i].zero_columns)
        if closure != J:
            raise InternalError(WHOLE_CONE, "face set is not incidence-closed")
        dim = rational_rank([cols[j] for j in J]) if J else 0
        faces.append(Face(columns=tuple(sorted(J)), dim=dim, incident_facets=incident))
    faces.sort(key=lambda f: (f.dim, f.columns))
    return FaceLattice(facets=sigma, faces=tuple(faces))


def positive_functional(A: IntMatrix, tau: Face) -> tuple[Fraction, ...]:
    """Sum of the support functions of the facets containing tau.

    Vanishes on the columns of tau and takes positive integer values on
    every other column, which makes it a knapsack weight for membership
    searches relative to the face.
    """
    if tau.is_whole_cone():
        raise InternalError(WHOLE_CONE, "no facet contains the whole cone")
    sigma = facets(A)
    d = A.d
    g = tuple(
        sum((sigma[i].f[k] for i in tau.incident_facets), Fraction(0))
        for k in range(d)
    )
    for j in range(A.n):
        v = dot(g, A.column(j))
        inside = j in tau.columns
        if inside and v != 0 or not inside and not (v > 0 and v.denominator == 1):
            raise InternalError(WHOLE_CONE, "face closure violated by positive functional")
    return g
