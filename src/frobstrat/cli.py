"""Command-line front end: polygon enumeration, local-model classification,
slope certificates, the strata table and polygon duality as reproducible
batch commands.

Exit codes: 0 when every check passes, 1 when a self-check reports FAIL or
an internal invariant breaks, 2 on a usage or parameter error, 141 (as for
SIGPIPE) when the reader closes stdout early.  Output is deterministic:
identical inputs produce byte-identical output.
"""

import argparse
import os
import sys
from functools import cache
from itertools import accumulate, compress, islice
from json.encoder import encode_basestring_ascii
from math import gcd, log10
from operator import ne
from types import FunctionType

from .gfield import _plane_indices, _point_text, field_make
from .localmodel import (
    ModelSpec,
    _check_level,
    _coordinate_label,
    _plane_classes,
    _truncation_stable,
    stratum_census,
)
from .polygon import (
    _COLENGTH_LABEL,
    GREATER_OR_EQUAL,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    REGIME,
    CurveParams,
    LatticePolygon,
    bruteforce_destabilized_polygons,
    dominates,
    enumerate_destabilized_polygons,
    name_polygon,
    regime_polygons,
)
from .slopecalc import (
    BundleData,
    canonical_filtration_degrees,
    degree_from_colength,
    embedding_certificate,
    euler_characteristic,
    pushforward_degree,
    stability_certificate,
)
from .strata import (
    dualize_polygon,
    moduli_dimension,
    strata_table,
)

__all__ = ["main"]

# stands in a command's table lines where its --verify verdicts go; without
# it they follow the table
_VERDICTS = object()

# largest localmodel --q: time and the plane's points and output entries grow as q^2
_MAX_Q = REGIME[0] ** 5

# largest localmodel --M: neither the quotient nor the --verify oracle looks past
# the block i < 3, so only --verify's guard grows with M, building the tau^2 t^k at
# M + 1, about 3M tensor elements, and no W; the refusal names that guard. With
# --verify, q = 3 peaked at 14 MB resident both at M = 100 and at M = 300
_MAX_M = 100


def _int_text(n):
    """str(n), or its order of magnitude where n has more digits than str() writes."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{int((n.bit_length() - 1) * log10(2))}"


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


_JSON_SCALARS = {None: "null", True: "true", False: "false"}


def _rows_format(n, width, indent):
    """The %-template of a list of n lists of ``width`` ints written at ``indent``, or of
    n texts (%s) where ``width`` is 0."""
    inner = indent + "  "
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]" if width else "%s"
    return "[" + inner + ("," + inner).join([row] * n) + indent + "]"


@cache
def _entry_format(keys, shape, indent):
    """The %-template of a dict with the sorted ``keys`` written at ``indent``, a value per
    part of ``shape``: "%d", "%s" or a literal as written, n for a polygon of n vertices,
    or (n, 0) for a list of n texts."""
    inner = indent + "  "
    items = []
    for key, part in zip(keys, shape):
        if type(part) is int:
            part = _rows_format(part, 2, inner)
        elif type(part) is tuple:
            part = _rows_format(*part, inner)
        # a % in a key is text, not a conversion
        items.append(f"{encode_basestring_ascii(key).replace('%', '%%')}: {part}")
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


def _entry_texts(entries, indent):
    """The texts of a list's entries at ``indent``, the first a non-empty dict.
    An entry with the first's keys whose values are ints, strs, None, bools or polygons
    fills its shape's template; any other, _json_text."""
    keys = tuple(sorted(entries[0]))
    same = entries[0].keys()
    texts = []
    for entry in entries:
        if type(entry) is dict and entry.keys() == same:
            shape, fill = [], []
            for key in keys:
                v = entry[key]
                kind = type(v)
                if kind is LatticePolygon:
                    shape.append(len(v.vertices))
                    fill += sum(v.vertices, ())
                elif kind is str:
                    shape.append("%s")
                    fill.append(encode_basestring_ascii(v))
                elif kind is int:
                    shape.append("%d")
                    fill.append(v)
                elif v is None or kind is bool:
                    shape.append(_JSON_SCALARS[v])
                else:
                    break
            else:
                text = _entry_format(keys, tuple(shape), indent) % tuple(fill)
                # % sizes its result for the template plus 100 characters and
                # shrinks it in place; a join copies it to its exact size, since
                # the kept tails raised enumerate (3,2,12,1)'s JSON peak by 14 MB
                texts.append("".join((text, "")))
                continue
        texts.append(_json_text(entry, indent))
    return texts


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=2, sort_keys=True, default=...) for what payloads hold:
    str-keyed dicts, lists, tuples, ints, strs, bools, None and polygons, the default
    writing a polygon as its vertex pairs.  A function stands for a list: called with the
    indent of its entries, it returns their texts, which this writer lays out as the
    list's, as localmodel's points.  Anything else, such as a float, a point or a field
    element, raises TypeError, as json.dumps does without a default.  This writer makes
    one call per container, one % per polygon on a template of its shape and depth, and
    one % per entry of a list of dicts that share their keys, such as the entries of
    enumerate, strata and dual, on a template cached per entry shape (_entry_texts)."""
    kind = type(value)
    if kind is int:
        return str(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii is json.dumps's own key quoting; it rejects
        # the non-str keys that json.dumps would convert
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                 for k in sorted(value)]
        # one f-string allocates the text once, where a chain of + would copy it
        # per operand: three 19 MB copies at localmodel --q 243 --format json
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if type(value[0]) is dict and value[0]:
            items = _entry_texts(value, inner)
        else:
            items = [_json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if kind is FunctionType:
        items = value(inner)
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if kind is LatticePolygon:
        # unrun by commands: an entry _entry_texts cannot template writes its polygons here
        verts = value.vertices
        return _rows_format(len(verts), 2, indent) % sum(verts, ())
    if value is None or kind is bool:
        return _JSON_SCALARS[value]
    if kind is str:
        # what json.dumps writes for a str
        return encode_basestring_ascii(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _rational(x):
    return {"num": x.numerator, "den": x.denominator}


class _Texts(dict):
    """The text of each key, made by ``make`` at its first lookup and kept for the
    rest of one answer, whose rows repeat the same vertices and segments."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _vertex_text(vertex):
    return f"({vertex[0]},{vertex[1]})"


def _slope_text(segment):
    """str(Fraction(rise, width)) of a (rise, width) segment, width > 0: rise/g, then
    "/" and width/g unless width/g is 1, with g = gcd(rise, width)."""
    dy, w = segment
    g = gcd(dy, w)
    return str(dy // g) if w == g else f"{dy // g}/{w // g}"


def _fmt_vertices(poly, texts):
    # texts: a _Texts(_vertex_text) shared by one answer's rows
    return " ".join(map(texts.__getitem__, poly.vertices))


def _render(args, passed, payload, lines, checks, note=None):
    """Print a command's result as JSON or as a table with its --verify verdicts,
    emptying ``lines``, then ``note``, if given, on stderr; return 1 if ``passed`` is
    false or one of the named ``checks`` failed, else 0."""
    verdicts = [f"verify: {name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    # stdout is flushed here, so that a reader that has gone is found in main,
    # not in the interpreter's flush at exit
    if args.format == "json":
        print(_json_text(payload), flush=True)
        # verdicts go to stderr so the stdout payload keeps its schema
        for line in verdicts:
            print(line, file=sys.stderr)
    else:
        at = lines.index(_VERDICTS) if _VERDICTS in lines else len(lines)
        lines[at:at + 1] = verdicts
        # one write of the whole table; its lines are freed first, as the write
        # copies the text once more
        text = "\n".join(lines)
        lines.clear()
        print(text, flush=True)
    if note is not None:
        print(note, file=sys.stderr)
    return 0 if passed and all(ok for _, ok in checks) else 1


def cmd_enumerate(args):
    params = CurveParams(args.p, args.g, args.r, args.d)
    polys = enumerate_destabilized_polygons(params)
    in_regime = (args.p, args.g, args.r) == REGIME
    labels = [name_polygon(P, params) if in_regime else None for P in polys]

    agrees, note = True, None
    if args.verify:
        oracle = bruteforce_destabilized_polygons(params)
        agrees = oracle == polys
        # a note on stderr in both formats, so the table and the JSON stay the
        # same with --verify
        note = (f"verify: brute-force box scan {'agrees' if agrees else 'DISAGREES'} "
                f"({len(oracle)} vs {len(polys)} polygons)")

    # only the requested format is built
    if args.format == "json":
        return agrees, [{"label": lab, "vertices": P}
                        for lab, P in zip(labels, polys)], None, [], note
    lines = [
        f"destabilized pull-back polygons  p={args.p} g={args.g} r={args.r} d={args.d}",
        f"found {len(polys)} polygon(s); endpoint (r, p*d) = ({args.r}, {args.p * args.d}); "
        f"slope-gap bound {2 * args.g - 2}",
    ]
    vertex, slope = _Texts(_vertex_text), _Texts(_slope_text)
    for lab, P in zip(labels, polys):
        (x0, y0), *rest = P.vertices
        slopes = []
        for x, y in rest:
            slopes.append(slope[y - y0, x - x0])
            x0, y0 = x, y
        lines.append(f"  {lab or '-':<5} vertices {_fmt_vertices(P, vertex):<30} "
                     f"slopes {', '.join(slopes)}")
    return agrees, None, lines, [], note


def _power_of_three(q):
    m = 0
    while q > 1 and q % REGIME[0] == 0:
        q //= REGIME[0]
        m += 1
    return m if q == 1 and m >= 1 else None


def cmd_localmodel(args):
    m = _power_of_three(args.q)
    if m is None:
        raise ValueError(f"q must be a positive power of {REGIME[0]}, got {args.q}")
    if args.q > _MAX_Q:
        raise ValueError(f"q = {args.q} is above the ceiling {_MAX_Q}: it would classify "
                         f"q^2 + q + 1 = {_int_text(args.q ** 2 + args.q + 1)} plane points "
                         f"with field tables of q^2 = {_int_text(args.q ** 2)} entries")
    # both M bounds are checked here, before any field table is built
    _check_level(args.M)
    if args.M > _MAX_M:
        raise ValueError(f"M = {args.M} is above the ceiling {_MAX_M}: only --verify's "
                         "truncation guard grows with M, building the tau^2 t^k at M + 1")
    field = field_make(REGIME[0], m)
    # the tau^2 table at M + 1, once per request and before the walk, so that a
    # failing guard still leaves every point to the full model at M
    stable = args.verify and _truncation_stable(ModelSpec(field, args.M + 1))

    # one walk of the plane: each point's orbit and each orbit's colength and claims,
    # the full model W (--verify) rechecking every point at M
    codes, known = _plane_classes(field, args.verify)
    q, names = args.q, field.names
    census, bad = {PSI2: 0, PSI3: 0, PSI4: 0}, 0
    # per orbit: its colength label and a table line's text after the point's
    labels, suffix = [None], [None]
    for col, res in known[1:]:
        labels.append(lab := _COLENGTH_LABEL[col])
        census[lab] += (n := codes.count(len(suffix)))
        fails = ",".join(k for k, v in res.items() if not v)
        bad += n if fails else 0
        suffix.append(f" colength {col}  {lab}{fails and '  CLAIM-FAIL ' + fails}")
    # each point's coordinate label must be its orbit's colength label: the first point
    # in walk order that breaks it is named
    for h, k in compress(zip(_plane_indices(q), codes), map(
            ne, map(_coordinate_label, _plane_indices(q)), map(labels.__getitem__, codes))):
        raise RuntimeError(f"point {_point_text(names, h)} has colength {known[k][0]} "
                           f"but stratum label {_coordinate_label(h)}")

    checks = []
    if args.verify:
        checks = [("census matches q^2/q/1 decomposition",
                   census == {PSI2: args.q * args.q, PSI3: args.q, PSI4: 1}),
                  (f"claims and colengths stable at M={args.M + 1}", stable)]
    claims_ok = not bad
    if args.format == "json":
        def points(indent):
            # each element's coefficient list written once, at the depth of a point's
            # coordinates in its orbit's entry template, as the table's lines read
            # field.names; a point fills only its three coordinates
            coords = [_json_text(e.coeffs, indent + "    ") for e in field.elements]
            templates = [None] + [
                _entry_format(("colength", "label", "point"),
                              (str(col), encode_basestring_ascii(lab), (3, 0)), indent)
                for (col, _), lab in zip(known[1:], labels[1:])]
            # the exact-size copy of each text, as in _entry_texts
            return ["".join((templates[k] % (coords[a], coords[b], coords[c]), ""))
                    for (a, b, c), k in zip(_plane_indices(q), codes)]

        return claims_ok, {"q": args.q, "M": args.M, "census": census, "claims_pass": claims_ok,
                           "points": points}, None, checks
    # the lines joined q at a time, so that only q line texts live at once
    texts = (f"  {_point_text(names, h):<24}{suffix[k]}" for h, k in zip(_plane_indices(q), codes))
    return claims_ok, None, [
        f"local pull-back model over GF({args.q}), truncation M={args.M}",
        f"census: {PSI2}={census[PSI2]} {PSI3}={census[PSI3]} {PSI4}={census[PSI4]} "
        f"(total {len(codes)} = q^2+q+1)",
        f"membership claims a-d: {'PASS' if claims_ok else 'FAIL'} "
        f"on {len(codes) - bad}/{len(codes)} points",
        _VERDICTS,
        "per-point classification:",
        *iter(lambda: "\n".join(islice(texts, q)), ""),
    ], checks


def cmd_strata(args):
    p, g, r = REGIME
    table = strata_table(args.d)
    checks = []
    if args.verify:
        # a fiber of dimension n is an affine n-space: over GF(3) the local
        # model's census must put 3^n plane points in its stratum, over the
        # one GF(3) that field_make also hands localmodel --q 3
        census = stratum_census(ModelSpec(field_make(p, 1)))
        ok = all([census[rec.label] == p ** rec.fiber_dim
                  for rec in table.records if rec.label != PSI1])
        # duality transports the first stratum onto the second at degree -d
        dual = dualize_polygon(table.records[0].polygon)
        ok &= name_polygon(dual, CurveParams(*REGIME, -args.d)) == PSI2
        ok &= table.records[0].stratum_dim == table.records[1].stratum_dim
        top = max(r.stratum_dim for r in table.records)
        ok &= table.codimension == moduli_dimension(r, g) - top
        ok &= table.top_components == 2
        # the named polygons are enumerate's, one per label, and Psi4 is above the
        # other three: compared with each of the four it is GREATER_OR_EQUAL three times
        psi = regime_polygons(args.d)
        listed = enumerate_destabilized_polygons(CurveParams(*REGIME, args.d))
        ok &= (psi.keys() == {PSI1, PSI2, PSI3, PSI4}
               and [Q.vertices for Q in psi.values()] == [Q.vertices for Q in listed]
               and [dominates(psi[PSI4], Q) for Q in listed].count(GREATER_OR_EQUAL) == 3)
        # the polygon of each colength c has one rank-1 vertex, at degree_from_colength,
        # when that degree is above d, and none otherwise
        polys = {rec.label: rec.polygon for rec in table.records}
        for c, lab in _COLENGTH_LABEL.items():
            deg = degree_from_colength(args.d, c)
            ok &= [y for x, y in polys[lab].vertices if x == 1] == ([deg] if deg > args.d else [])
        checks.append(("dimension cross-checks", ok))

    vertex = _Texts(_vertex_text)
    lines = [
        f"Frobenius strata dimensions  p={p} g={g} r={r} d={args.d}",
        f"  {'label':<6} {'vertices':<30} {'fiber':>5} {'quot':>5} {'stratum':>8} {'closed':>7}",
    ]
    strata = []
    for rec in table.records:
        fib, quo, dim = rec.fiber_dim, rec.quot_dim, rec.stratum_dim
        strata.append({"label": rec.label, "vertices": rec.polygon, "fiber_dim": fib,
                       "quot_dim": quo, "stratum_dim": dim,
                       "closed_equals_open": dim == rec.closed_stratum_dim})
        lines.append(f"  {rec.label:<6} {_fmt_vertices(rec.polygon, vertex):<30} "
                     f"{'-' if fib is None else fib:>5} {'-' if quo is None else quo:>5} "
                     f"{dim:>8} {rec.closed_stratum_dim:>7}")
    lines.append(f"moduli dimension {moduli_dimension(r, g)}; destabilized locus codimension "
                 f"{table.codimension}; top-dimensional components {table.top_components}")
    return True, {"strata": strata, "codimension": table.codimension,
                  "top_components": table.top_components}, lines, checks


def cmd_certify(args):
    from fractions import Fraction
    t = args.t if args.t is not None else args.d - 1
    emb = embedding_certificate(args.p, args.g, args.r, args.d, t)
    stab = stability_certificate(args.p, args.g, args.r, args.d, t)
    fl_deg = pushforward_degree(BundleData(1, t), args.p, args.g)

    checks = []
    if args.verify:
        # the push-forward's degree must conserve the Euler characteristic, and
        # each bound must equal the collapsed closed form (t + (g-1)(s-1))/p and
        # the sum of the s lowest canonical graded degrees over ps
        ok = (euler_characteristic(args.p, fl_deg, args.g)
              == euler_characteristic(1, t, args.g))
        lowest = list(accumulate(sorted(canonical_filtration_degrees(args.p, args.g, t))))
        for row in emb.bounds + stab.bounds:
            s, bound = row.subrank, row.bound
            closed = Fraction(t + (args.g - 1) * (s - 1), args.p)
            ok &= closed == bound and (closed <= row.threshold) == row.ok
            ok &= lowest[s - 1] * bound.denominator == args.p * s * bound.numerator
        checks.append(("closed-form bound recomputation", ok))

    lines = [
        f"certificates for p={args.p} g={args.g} r={args.r} d={args.d}, "
        f"auxiliary line-bundle degree t={t}",
        f"push-forward: rank {args.p}, degree {fl_deg}, "
        f"slope {BundleData(args.p, fl_deg).slope}",
    ]
    payload = {}
    for rep, title in ((emb, "embedding certificate (adjoint map injective)"),
                       (stab, "stability certificate (subsheaf slopes below d/r)")):
        lines.append(f"{title}: {'PASS' if rep.passed else 'FAIL'}")
        witness = []
        for row in rep.bounds:
            verdict = "pass" if row.ok else "fail"
            witness.append({"subrank": row.subrank, "bound": _rational(row.bound),
                            "threshold": _rational(row.threshold), "verdict": verdict})
            lines.append(f"  subrank {row.subrank}: bound {row.bound} "
                         f"{'<=' if row.ok else '>'} threshold {row.threshold} -> {verdict}")
        payload[rep.kind] = {"kind": rep.kind, "passed": rep.passed, "witness": witness}
    return emb.passed and stab.passed, payload, lines, checks


def cmd_dual(args):
    params = CurveParams(*REGIME, args.d)
    dual_params = CurveParams(*REGIME, -args.d)
    pairs = []
    vertex = _Texts(_vertex_text)
    lines = [f"polygon duality  d={args.d} -> {-args.d}"]
    for P in enumerate_destabilized_polygons(params):
        D = dualize_polygon(P)
        lab, dual_lab = name_polygon(P, params), name_polygon(D, dual_params)
        pairs.append({"label": lab, "vertices": P, "dual_label": dual_lab, "dual_vertices": D})
        lines.append(f"  {lab}({args.d}) -> {dual_lab}({-args.d})   "
                     f"{_fmt_vertices(P, vertex)} -> {_fmt_vertices(D, vertex)}")

    checks = []
    if args.verify:
        swap = {PSI1: PSI2, PSI2: PSI1, PSI3: PSI3, PSI4: PSI4}
        ok = all(dualize_polygon(e["dual_vertices"]) == e["vertices"]
                 and e["dual_label"] == swap[e["label"]] for e in pairs)
        ok &= (sorted(e["dual_vertices"].vertices for e in pairs)
               == sorted(Q.vertices for Q in enumerate_destabilized_polygons(dual_params)))
        checks.append((f"involution and label swap onto degree {-args.d}", ok))
    return True, {"d": args.d, "pairs": pairs}, lines, checks


# the integer options, each named by one letter; p, g and r default to the
# classified regime, and q to its smallest field
_INT_OPTIONS = {
    "p": dict(default=REGIME[0], help=f"characteristic (default {REGIME[0]})"),
    "g": dict(default=REGIME[1], help=f"genus (default {REGIME[1]})"),
    "r": dict(default=REGIME[2], help=f"rank (default {REGIME[2]})"),
    "d": dict(default=0, help="degree (default 0)"),
    "q": dict(default=REGIME[0], help=f"field size, a power of {REGIME[0]} (default {REGIME[0]})"),
    "M": dict(default=3, help="truncation level (default 3)"),
    "t": dict(default=None, help="auxiliary line-bundle degree (default d-1)"),
}

# (name, help, handler, its integer options in --help order)
_COMMANDS = (
    ("enumerate", "enumerate destabilized pull-back polygons", cmd_enumerate, "pgrd"),
    ("localmodel", f"classify the local model over GF(q), q a power of {REGIME[0]}",
     cmd_localmodel, "qM"),
    ("strata", "print the strata dimension table", cmd_strata, "d"),
    ("certify", "run the embedding and stability certificates", cmd_certify, "pgrdt"),
    ("dual", "dualize the enumerated polygons", cmd_dual, "d"),
)

# --format's choices, the first its default
_FORMATS = ("table", "json")


@cache
def build_parser():
    """The frobstrat argument parser, built at the first call of main whose argv is not
    in exact form (_exact_args), such as help, a refusal or an abbreviation, and shared
    by every later one.  It is never mutated after it is built: parse_args makes a
    fresh Namespace per call, and argparse looks up sys.stdout and sys.stderr only
    when it prints.  The command handlers are bound into it when it is built."""
    parser = argparse.ArgumentParser(
        prog="frobstrat",
        description="Frobenius stratification calculator: polygon enumeration, "
                    "local models over finite fields, slope certificates, "
                    "strata dimensions.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for option in options:
            sub.add_argument(f"--{option}", type=int, **_INT_OPTIONS[option])
        sub.add_argument("--format", choices=_FORMATS, default=_FORMATS[0],
                         help="output format (default table)")
        sub.add_argument("--verify", action="store_true",
                         help="re-run the independent cross-check and compare")
        sub.set_defaults(func=handler)
    return parser


def _exact_args(argv):
    """build_parser().parse_args(argv) for a list argv in exact form, read from the option
    tables: a command's name, then only its own options in full, each but --verify with its
    value.  None otherwise, as for help, --, a prefix, --opt=value or a refusal."""
    command = next((c for c in _COMMANDS if argv[:1] == [c[0]]), None)
    if command is None:
        return None
    name, _, handler, options = command
    args = argparse.Namespace(command=name, func=handler, format=_FORMATS[0], verify=False,
                              **{o: _INT_OPTIONS[o]["default"] for o in options})
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--verify":
            args.verify = True
            continue
        key = token[2:] if type(token) is str and token[:2] == "--" else ""
        value = next(tokens, None)
        # argparse takes a value that starts with "-" for an option unless it is a
        # negative number; a "-" and decimal digits is one
        if (not (key == "format" and value in _FORMATS or key in _INT_OPTIONS and key in options)
                or type(value) is not str
                or value[:1] == "-" and not value[1:].isdecimal()):
            return None
        try:
            # an int by the int() that type=int calls, which may refuse it
            setattr(args, key, value if key == "format" else int(value))
        except ValueError:
            return None
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argv in exact form, the bulk of batch traffic, builds no parser
    args = _exact_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        # rendering too can refuse an input, an int past str()'s digit limit
        return _render(args, *args.func(args))
    except ValueError as exc:
        return _fail(exc, 2)
    except RuntimeError as exc:
        # a broken internal invariant, recursion past the limit included: reported,
        # not a traceback; the polygon search refuses a rank too deep for it itself
        return _fail(exc, 1)
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to /dev/null, so
        # the interpreter's flush at exit writes no traceback either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
