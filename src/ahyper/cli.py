"""Command line surface with deterministic JSON output.

Every subcommand prints exactly one JSON document to stdout.  Exit status
0 means success, 2 means the input was rejected, 1 means an internal
contract failed.  Failures print {"error": code, "detail": text} instead
of the usual envelope.

Rational values are serialized as "p/q" strings in lowest terms; integer
values stay JSON numbers while they fit the 2^53 - 1 safe range and become
strings beyond it.  Output is byte identical across runs for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

from .classify import (
    classify_curve,
    classify_normal,
    curve_holes,
    curve_semigroups,
    e_profile,
    enumerate_classes,
    iso_witness,
    isomorphic,
    laurent_solution_faces,
    normalized_volume,
    profile_difference,
)
from .cone import face_lattice
from .errors import (
    NOT_ISOMORPHIC,
    PARSE,
    WITNESS_FAILURE,
    AhgError,
    InputError,
    InternalError,
)
from .lattice import (
    IntMatrix,
    column_lattice,
    homogeneity_witness,
    solve_rational,
    vec_add,
)
from .semigroup import in_NA, is_normal
from .series import apply_operator, check_solution, minimal_negative_support, phi_v
from .toric import BPoly, b_ideal, b_poly_avoiding, shift_pair
from .weyl import contiguity_operator, verify_certificate, verify_weight

SCHEMA_VERSION = "1"
SAFE_INT = 2**53 - 1


# ---------------------------------------------------------------------------
# serialization


def _num(x):
    """Integers as JSON numbers inside the safe range, strings beyond."""
    x = int(x)
    return x if abs(x) <= SAFE_INT else str(x)


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _vec_num(v):
    return [_num(x) for x in v]


def _vec_rat(v):
    return [_rat(x) for x in v]


def _matrix_rows(A: IntMatrix):
    return [_vec_num(row) for row in A.entries]


def _bpoly_json(p: BPoly):
    return {
        "degree": p.degree(),
        "factors": [{"f": _vec_rat(f), "c": _rat(c)} for f, c in p.factors],
    }


def _element_json(E):
    terms = []
    for (x, dd), coef in sorted(E.terms.items()):
        terms.append({"x": _vec_num(x), "d": _vec_num(dd), "c": _rat(coef)})
    return terms


def _operator_json(op):
    pairs = [
        {
            "cofactor": _element_json(cof),
            "generator": {"plus": _vec_num(g.plus), "minus": _vec_num(g.minus)},
        }
        for cof, g in op.certificate.pairs
    ]
    return {
        "chi": _vec_num(op.chi),
        "u": _vec_num(op.shift_plus),
        "v": _vec_num(op.shift_minus),
        "b": _bpoly_json(op.b),
        "element": _element_json(op.element),
        "certificate": pairs,
    }


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _envelope(command, echo, result, diagnostics=()):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_echo": echo,
        "result": result,
        "diagnostics": list(diagnostics),
    }


# ---------------------------------------------------------------------------
# input parsing


def _read_source(arg: str) -> str:
    arg = arg.strip()
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load_matrix(arg: str) -> IntMatrix:
    """Parse -A from a file or inline: JSON {"A": rows} or whitespace rows."""
    text = _read_source(arg).strip()
    if not text:
        raise InputError(PARSE, "empty matrix input")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(PARSE, f"bad matrix JSON: {err}")
        rows = obj.get("A") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not rows:
            raise InputError(PARSE, 'matrix JSON must be an object with key "A"')
        for row in rows:
            if not isinstance(row, list) or not row:
                raise InputError(PARSE, "matrix rows must be nonempty lists")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(PARSE, f"matrix entries must be integers, got {x!r}")
    else:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise InputError(PARSE, f"bad matrix row {line!r}")
        if not rows:
            raise InputError(PARSE, "empty matrix input")
    if len({len(row) for row in rows}) != 1:
        raise InputError(PARSE, "matrix rows have unequal lengths")
    A = IntMatrix.from_rows(rows)
    homogeneity_witness(A)
    return A


def _parse_rational_vector(text: str, d: int, what: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(PARSE, f"bad {what}: {err}")
    if len(vec) != d:
        raise InputError(PARSE, f"{what} needs {d} coordinates, got {len(vec)}")
    return vec


def _parse_int_vector(text: str, d: int, what: str):
    vec = _parse_rational_vector(text, d, what)
    if any(x.denominator != 1 for x in vec):
        raise InputError(PARSE, f"{what} must have integer coordinates")
    return tuple(int(x) for x in vec)


def _parse_box(text: str, d: int):
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise InputError(PARSE, f"box ranges look like lo:hi, got {part!r}")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise InputError(PARSE, f"bad box range {part!r}")
        if lo > hi:
            raise InputError(PARSE, f"empty box range {part!r}")
        pairs.append((lo, hi))
    if len(pairs) != d:
        raise InputError(PARSE, f"box needs {d} ranges, got {len(pairs)}")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_faces(args):
    A = _load_matrix(args.A)
    lat = face_lattice(A)
    result = {
        "facet_count": len(lat.facets),
        "face_count": len(lat.faces),
        "facets": [
            {"f": _vec_rat(s.f), "zero_columns": list(s.zero_columns)}
            for s in lat.facets
        ],
        "faces": [
            {
                "columns": list(f.columns),
                "dim": f.dim,
                "incident_facets": list(f.incident_facets),
            }
            for f in lat.faces
        ],
    }
    return _envelope("faces", {"A": _matrix_rows(A)}, result), 0


def _cmd_esets(args):
    A = _load_matrix(args.A)
    beta = _parse_rational_vector(args.b, A.d, "-b")
    prof = e_profile(A, beta)
    sets = [
        {
            "face_columns": list(s.face.columns),
            "face_dim": s.face.dim,
            "residues": [_vec_rat(r) for r in s.residues],
        }
        for s in prof.sets
    ]
    echo = {"A": _matrix_rows(A), "b": _vec_rat(beta)}
    return _envelope("esets", echo, {"sets": sets}), 0


def _cmd_classify(args):
    A = _load_matrix(args.A)
    beta = _parse_rational_vector(args.b, A.d, "-b")
    beta2 = _parse_rational_vector(args.b2, A.d, "-b2")
    iso = isomorphic(A, beta, beta2)
    differs = None
    if not iso:
        face = profile_difference(e_profile(A, beta), e_profile(A, beta2))
        differs = list(face.columns)
    echo = {"A": _matrix_rows(A), "b": _vec_rat(beta), "b2": _vec_rat(beta2)}
    return _envelope("classify", echo, {"isomorphic": iso, "differs_at": differs}), 0


def _series_exponent(A: IntMatrix, beta, order):
    """A rational exponent v with A v = beta and minimal negative support.

    Solves on an invertible column subset, zero elsewhere.  Exponents with
    no integer coordinate are preferred: falling factorials then never
    vanish, so operator images keep visible terms.  None when no subset
    yields a usable starting exponent.
    """
    from .lattice import kernel_lattice

    best = None
    for cols in combinations(range(A.n), A.d):
        rows = [[Fraction(A.entries[i][j]) for j in cols] for i in range(A.d)]
        sol = solve_rational(rows, beta)
        if sol is None:
            continue
        v = [Fraction(0)] * A.n
        for j, val in zip(cols, sol):
            v[j] = val
        v = tuple(v)
        if not minimal_negative_support(A, v, order).minimal:
            continue
        if all(x.denominator != 1 for x in v):
            return v
        if best is None:
            best = v
    if best is not None:
        trial = best
        for k, p in zip(kernel_lattice(A).vectors, (7, 11, 13, 17, 19, 23)):
            trial = vec_add(trial, tuple(Fraction(x, p) for x in k))
        trial = tuple(Fraction(x) for x in trial)
        if all(x.denominator != 1 for x in trial) and minimal_negative_support(
            A, trial, order
        ).minimal:
            return trial
    return best


def _cmd_witness(args):
    A = _load_matrix(args.A)
    beta = _parse_rational_vector(args.b, A.d, "-b")
    beta2 = _parse_rational_vector(args.b2, A.d, "-b2")
    w = iso_witness(A, beta, beta2)
    diagnostics = []
    series_checked = False
    v = _series_exponent(A, beta, args.order)
    if v is None:
        diagnostics.append(
            "no starting exponent with minimal negative support; "
            "relying on the algebraic certificates"
        )
    else:
        S = phi_v(A, v, args.order)
        T = apply_operator(w.op_plus.element, S)
        if not check_solution(A, beta, S).ok:
            raise InternalError(WITNESS_FAILURE, "starting series fails its own system")
        if T.order < 0:
            # the operator shifts exponents further than the truncation
            # ball is known complete, so the image window is empty
            diagnostics.append(
                "operator spread exceeds --order %d; series check uninformative, "
                "the algebraic certificates remain the proof" % args.order
            )
        elif not check_solution(A, beta2, T).ok:
            raise InternalError(WITNESS_FAILURE, "series action check failed")
        else:
            series_checked = True
            note = "; image vanishes through the window" if T.is_zero() else ""
            diagnostics.append(
                "series action verified through order %d at exponent (%s)%s"
                % (args.order, ", ".join(_rat(x) for x in v), note)
            )
    result = {
        "chi": _vec_num(w.chi),
        "p_plus": _bpoly_json(w.p_plus),
        "p_minus": _bpoly_json(w.p_minus),
        "scalar": _rat(w.scalar),
        "op_plus": _operator_json(w.op_plus),
        "op_minus": _operator_json(w.op_minus),
        "series_checked": series_checked,
    }
    echo = {
        "A": _matrix_rows(A),
        "b": _vec_rat(beta),
        "b2": _vec_rat(beta2),
        "order": args.order,
    }
    return _envelope("witness", echo, result, diagnostics), 0


def _cmd_enumerate(args):
    A = _load_matrix(args.A)
    box = _parse_box(args.box, A.d)
    enum = enumerate_classes(A, box)
    classes = [
        {"representative": _vec_num(c.representative), "size": len(c.members)}
        for c in enum.classes
    ]
    echo = {"A": _matrix_rows(A), "box": [[lo, hi] for lo, hi in box]}
    result = {"class_count": enum.class_count, "classes": classes}
    return _envelope("enumerate", echo, result), 0


def _cmd_holes(args):
    A = _load_matrix(args.A)
    hs = curve_holes(A)
    s1, s2 = curve_semigroups(A)
    result = {
        "holes": [[_num(c), _num(m)] for c, m in hs.holes],
        "first_facet_gaps": _vec_num(s1.gaps),
        "second_facet_gaps": _vec_num(s2.gaps),
    }
    return _envelope("holes", {"A": _matrix_rows(A)}, result), 0


def _cmd_bideal(args):
    A = _load_matrix(args.A)
    chi = _parse_int_vector(args.chi, A.d, "--chi")
    B = b_ideal(A, chi)
    comps = sorted(B.components, key=lambda c: (c[1].columns, c[0]))
    result = {
        "chi": _vec_num(chi),
        "component_count": len(comps),
        "components": [
            {
                "point": _vec_num(point),
                "face_columns": list(tau.columns),
                "incident_facets": list(tau.incident_facets),
            }
            for point, tau in comps
        ],
    }
    echo = {"A": _matrix_rows(A), "chi": _vec_num(chi)}
    return _envelope("bideal", echo, result), 0


def _canonical_member(B) -> BPoly:
    """One factor per component, first incident facet each; a member by
    construction since that factor vanishes on the component's subspace."""
    from .cone import facets as cone_facets

    sigma = cone_facets(B.matrix)
    factors = []
    for point, tau in B.components:
        s = sigma[tau.incident_facets[0]]
        factors.append((s.f, s.value(point)))
    return BPoly(tuple(factors))


def _cmd_contig(args):
    A = _load_matrix(args.A)
    chi = _parse_int_vector(args.chi, A.d, "--chi")
    B = b_ideal(A, chi)
    diagnostics = []
    if args.b is not None:
        beta = _parse_rational_vector(args.b, A.d, "-b")
        poly = b_poly_avoiding(B, vec_add(beta, chi))
        if poly is None:
            raise InputError(
                NOT_ISOMORPHIC,
                "every member of the b-ideal vanishes at b + chi; "
                "the shifted pair is not isomorphic",
            )
        diagnostics.append("polynomial chosen to be nonzero at b + chi")
    else:
        poly = _canonical_member(B)
        diagnostics.append("canonical member used; pass -b to target a parameter")
    u, v = shift_pair(A, chi)
    op = contiguity_operator(A, chi, poly, u, v)
    echo = {"A": _matrix_rows(A), "chi": _vec_num(chi)}
    if args.b is not None:
        echo["b"] = _vec_rat(beta)
    return _envelope("contig", echo, {"operator": _operator_json(op)}, diagnostics), 0


def _cmd_laurent(args):
    A = _load_matrix(args.A)
    beta = _parse_rational_vector(args.b, A.d, "-b")
    lf = laurent_solution_faces(A, beta)
    result = {
        "count": lf.count,
        "faces": [{"columns": list(t.columns), "dim": t.dim} for t in lf.faces],
    }
    echo = {"A": _matrix_rows(A), "b": _vec_rat(beta)}
    diag = ["count follows the residue criterion; not cross-checked against a series basis"]
    return _envelope("laurent", echo, result, diag), 0


def _cmd_volume(args):
    A = _load_matrix(args.A)
    vol = normalized_volume(A)
    return _envelope("volume", {"A": _matrix_rows(A)}, {"normalized_volume": _num(vol)}), 0


# ---------------------------------------------------------------------------
# the check subcommand: a user-runnable slice of the invariant suite


def _random_instance(seed: int) -> IntMatrix:
    rng = random.Random(seed)
    for _ in range(100):
        d = rng.choice((2, 3))
        n = d + rng.choice((1, 2))
        rows = [[1] * n]
        for _ in range(d - 1):
            rows.append([rng.randrange(0, 4) for _ in range(n)])
        try:
            A = IntMatrix.from_rows(rows)
            homogeneity_witness(A)
        except AhgError:
            continue
        return A
    raise InternalError(WITNESS_FAILURE, "could not generate a random instance")


def _generic_parameter(A: IntMatrix):
    """A parameter with every facet value non-integral, or None.

    Combines columns with prime-denominator weights and checks facet values
    directly, so callers get a certainty, not a likelihood.
    """
    from .cone import facets as cone_facets

    sigma = cone_facets(A)
    primes = (101, 103, 107, 109, 113, 127, 131, 137)
    for shift in range(len(primes)):
        coefs = [Fraction(1, primes[(j + shift) % len(primes)]) for j in range(A.n)]
        beta = tuple(
            sum(c * A.column(j)[i] for j, c in enumerate(coefs))
            for i in range(A.d)
        )
        if all(s.value(beta).denominator != 1 for s in sigma):
            return beta
    return None


def _cmd_check(args):
    if args.A is not None:
        A = _load_matrix(args.A)
    else:
        A = _random_instance(args.seed)
    rng = random.Random(args.seed)
    lat = face_lattice(A)
    whole = next(f for f in lat.faces if f.is_whole_cone())
    origin = next(f for f in lat.faces if not f.columns)

    props = []

    def record(name, ok, detail=""):
        props.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failing property, not a CLI fault
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        record(name, ok, detail)

    int_betas = [
        tuple(rng.randrange(-3, 4) for _ in range(A.d)) for _ in range(6)
    ]
    frac_betas = [
        tuple(x + Fraction(1, q) for x in b)
        for b, q in zip(int_betas[:2], (2, 3))
    ]

    def whole_cone_singleton():
        for beta in int_betas + frac_betas:
            prof = e_profile(A, beta)
            if len(prof.set_for(whole).residues) != 1:
                return False, f"beta={beta}"
        return True, f"{len(int_betas) + len(frac_betas)} parameters"

    def origin_membership():
        for beta in int_betas:
            prof = e_profile(A, beta)
            nonempty = bool(prof.set_for(origin).residues)
            member = in_NA(A, beta) is not None
            if nonempty != member:
                return False, f"beta={beta}"
        return True, f"{len(int_betas)} integer parameters"

    def shift_monotonicity():
        for beta in int_betas[:3] + frac_betas:
            coefs = [rng.randrange(0, 3) for _ in range(A.n)]
            chi = tuple(
                sum(c * A.column(j)[i] for j, c in enumerate(coefs))
                for i in range(A.d)
            )
            before = e_profile(A, beta)
            after = e_profile(A, vec_add(beta, chi))
            for s, t in zip(before.sets, after.sets):
                if not set(s.residues) <= set(t.residues):
                    return False, f"beta={beta} chi={chi} face={s.face.columns}"
        return True, "5 parameter/shift pairs"

    def lattice_coset_detection():
        basis = column_lattice(A)
        half = tuple(Fraction(x, 2) for x in A.column(0))
        if basis.member(half) is not None:
            return True, "skipped: half of column 0 lies in the column lattice"
        for beta in int_betas[:3]:
            if isomorphic(A, beta, vec_add(beta, half)):
                return False, f"fractional shift of beta={beta} not separated"
        return True, "half-column shifts leave the lattice and the class"

    def seminonresonant_suite():
        beta = _generic_parameter(A)
        if beta is None:
            return True, "skipped: no generic parameter found in the fixed pool"
        prof = e_profile(A, beta)
        for s in prof.sets:
            if not s.face.is_whole_cone() and s.residues:
                return False, f"proper face {s.face.columns} has residues"
        for j in range(A.n):
            if not isomorphic(A, beta, vec_add(beta, A.column(j))):
                return False, f"column shift {j} broke the class"
        w = iso_witness(A, beta, vec_add(beta, A.column(0)))
        if w.scalar == 0:
            return False, "witness scalar vanished"
        for op in (w.op_plus, w.op_minus):
            if not verify_weight(op.element, A, op.chi):
                return False, "weight check failed"
            if not verify_certificate(op, A):
                return False, "certificate check failed"
        return True, "empty proper profile, column shifts isomorphic, witness verified"

    def volume_invariance():
        base = normalized_volume(A)
        if base < 1:
            return False, f"volume {base}"
        perm = list(range(A.n))
        for _ in range(2):
            rng.shuffle(perm)
            rows = [[A.entries[i][j] for j in perm] for i in range(A.d)]
            if normalized_volume(IntMatrix.from_rows(rows)) != base:
                return False, f"permutation {perm} changed the volume"
        return True, f"volume {base} stable under column permutations"

    run("whole_cone_residue_is_singleton", whole_cone_singleton)
    run("origin_face_tracks_semigroup_membership", origin_membership)
    run("semigroup_shift_grows_residue_sets", shift_monotonicity)
    run("fractional_column_shift_separates_classes", lattice_coset_detection)
    run("seminonresonant_profile_and_witness", seminonresonant_suite)
    run("volume_positive_and_permutation_invariant", volume_invariance)

    if is_normal(A):
        def normal_agreement():
            for _ in range(20):
                b1 = tuple(rng.randrange(-2, 3) for _ in range(A.d))
                b2 = tuple(rng.randrange(-2, 3) for _ in range(A.d))
                if classify_normal(A, b1, b2) != isomorphic(A, b1, b2):
                    return False, f"{b1} vs {b2}"
            return True, "20 integer pairs"

        run("normal_rule_matches_residue_profiles", normal_agreement)

    try:
        curve_holes(A)
        curve_shaped = True
    except AhgError:
        curve_shaped = False
    if curve_shaped:
        def curve_agreement():
            pool = list(curve_holes(A).holes)
            pool += [tuple(rng.randrange(0, 6) for _ in range(2)) for _ in range(6)]
            for b1 in pool:
                for b2 in pool:
                    if classify_curve(A, b1, b2) != isomorphic(A, b1, b2):
                        return False, f"{b1} vs {b2}"
            return True, f"{len(pool)}^2 pairs including every hole"

        run("curve_rule_matches_residue_profiles", curve_agreement)

    all_ok = all(p["ok"] for p in props)
    echo = {"A": _matrix_rows(A), "seed": args.seed}
    result = {"all_ok": all_ok, "properties": props}
    return _envelope("check", echo, result), 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as PARSE errors instead of exiting."""

    def error(self, message):
        raise InputError(PARSE, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ahyper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, *, b=False, b2=False, chi=False, box=False,
            order=False, matrix=True):
        p = sub.add_parser(name, help=help_text)
        if matrix:
            p.add_argument("-A", required=True, help="matrix: file path or inline")
        if b:
            p.add_argument("-b", required=(b == "required"),
                           help="parameter vector, comma separated rationals")
        if b2:
            p.add_argument("-b2", required=True, help="second parameter vector")
        if chi:
            p.add_argument("--chi", required=True,
                           help="integer shift vector, comma separated")
        if box:
            p.add_argument("--box", required=True, help="ranges lo:hi,lo:hi,...")
        if order:
            p.add_argument("--order", type=int, default=8,
                           help="series truncation order (default 8)")
        return p

    add("faces", "facet support functions and the face lattice")
    add("esets", "residue sets E_tau(b) for every face", b="required")
    add("classify", "decide whether two parameters give isomorphic systems",
        b="required", b2=True)
    add("witness", "contiguity operators certifying an isomorphism",
        b="required", b2=True, order=True)
    add("enumerate", "isomorphism classes of integer parameters in a box", box=True)
    add("holes", "semigroup holes of a monomial curve")
    add("bideal", "components of the b-ideal for a shift", chi=True)
    add("contig", "a single contiguity operator for a shift", b=True, chi=True)
    add("laurent", "faces contributing Laurent polynomial solutions", b="required")
    add("volume", "normalized volume of the column configuration")
    p = add("check", "run the invariant suite; nonzero exit if a property fails",
            matrix=False)
    p.add_argument("-A", required=False, help="matrix: file path or inline")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    return parser


_HANDLERS = {
    "faces": _cmd_faces,
    "esets": _cmd_esets,
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "enumerate": _cmd_enumerate,
    "holes": _cmd_holes,
    "bideal": _cmd_bideal,
    "contig": _cmd_contig,
    "laurent": _cmd_laurent,
    "volume": _cmd_volume,
    "check": _cmd_check,
}


_VALUE_FLAGS = {"-A", "-b", "-b2", "--chi", "--box"}


def _shield_negative_values(argv):
    """Keep values like -3:3,-3:3 after a value flag from parsing as options.

    A leading space makes argparse classify the token as an argument; the
    value parsers strip it away.
    """
    out = []
    follows_flag = False
    for tok in argv:
        if follows_flag and tok.startswith("-") and len(tok) > 1:
            tok = " " + tok
        follows_flag = tok in _VALUE_FLAGS
        out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_shield_negative_values(list(argv)))
        envelope, code = _HANDLERS[args.command](args)
    except AhgError as err:
        _print_json({"error": err.code, "detail": err.detail})
        return err.exit_code
    threads = os.environ.get("AHG_THREADS")
    if threads:
        envelope["diagnostics"].append(
            f"AHG_THREADS={threads} acknowledged; this build computes sequentially"
        )
    _print_json(envelope)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
