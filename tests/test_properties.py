"""Property tests on polygons drawn from small enumerations, on exact row
reduction over GF(3^m), on the CLI's JSON writer, on its exact-form argv
reader and on main's answer or refusal of exact-form argv (needs hypothesis)."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frobstrat.cli import (  # noqa: E402
    _COMMANDS,
    _MAX_M,
    _MAX_Q,
    _exact_args,
    _json_text,
    build_parser,
    main,
)
from frobstrat.gfield import _MAX_P, FieldElement, field_make  # noqa: E402
from frobstrat.localmodel import _rank, _reduce_against, _rref  # noqa: E402
from frobstrat.polygon import (  # noqa: E402
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    REGIME,
    CurveParams,
    LatticePolygon,
    dominates,
    enumerate_destabilized_polygons,
)
from frobstrat.strata import dualize_polygon  # noqa: E402
from oracles import slopes, stdlib_form, to_pairs  # noqa: E402

# every enumeration with p in {2, 3, 5}, g in {2, 3}, r in 2..4, d in -2..2:
# (p, polygons sharing the endpoint (r, p*d)), empty ones left out
POOLS = [(p, polys)
         for p in (2, 3, 5) for g in (2, 3) for r in (2, 3, 4) for d in range(-2, 3)
         if (polys := enumerate_destabilized_polygons(CurveParams(p, g, r, d)))]

MIRROR = {GREATER_OR_EQUAL: LESS_OR_EQUAL, LESS_OR_EQUAL: GREATER_OR_EQUAL,
          EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}

polygons = st.sampled_from(POOLS).flatmap(lambda pool: st.sampled_from(pool[1]))
pairs = st.sampled_from(POOLS).flatmap(
    lambda pool: st.tuples(st.just(pool[0]), st.sampled_from(pool[1]), st.sampled_from(pool[1])))

examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def shear(P, p):
    return LatticePolygon([(x, y + p * x) for x, y in P.vertices])


@examples
@given(polygons)
def test_make_polygon_round_trips(P):
    assert LatticePolygon(to_pairs(P)) == P


@examples
@given(polygons)
def test_dualize_is_an_involution(P):
    assert dualize_polygon(dualize_polygon(P)) == P


@examples
@given(pairs)
def test_dominance_mirrors_and_ties_only_on_equal_polygons(pair):
    _, P, Q = pair
    rel = dominates(P, Q)
    assert dominates(Q, P) == MIRROR[rel]
    assert (rel == EQUAL) == (P == Q)


@examples
@given(pairs)
def test_shear_preserves_dominance(pair):
    p, P, Q = pair
    assert dominates(shear(P, p), shear(Q, p)) == dominates(P, Q)


FIELDS = {m: field_make(3, m) for m in (1, 2, 3, 4)}


@st.composite
def index_matrices(draw):
    """(field, rows): up to 6 element-index rows of one length over GF(3^m),
    m = 1..3, each drawn at random, zero, or a combination of earlier rows."""
    field = FIELDS[draw(st.integers(1, 3))]
    n = draw(st.integers(1, 7))
    entries = st.integers(0, field.q - 1)
    add, mul = field._add, field._mul
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "dependent")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            row = [0] * n
            for prev in rows:
                c = draw(entries)
                row = [add[a][mul[c][b]] for a, b in zip(row, prev)]
            rows.append(row)
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return field, rows


@examples
@given(index_matrices())
def test_rref_is_the_reduced_echelon_form_of_its_rows(case):
    field, rows = case
    before = [list(r) for r in rows]
    out, pivots = _rref(field, rows)
    assert rows == before
    assert len(out) == len(pivots)
    assert pivots == sorted(set(pivots))
    for k, (row, pc) in enumerate(zip(out, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert all(other[pc] == 0 for other in out[:k] + out[k + 1:])
    for row in rows:
        assert not any(_reduce_against(field, out, pivots, row))
    assert _rref(field, out) == (out, pivots)


def _span_size(field, rows):
    """The number of distinct linear combinations of the rows, listed one
    coefficient vector at a time: no elimination of any kind."""
    add, mul = field._add, field._mul
    span = set()
    for coeffs in product(range(field.q), repeat=len(rows)):
        v = [0] * (len(rows[0]) if rows else 0)
        for c, row in zip(coeffs, rows):
            v = [add[a][mul[c][b]] for a, b in zip(v, row)]
        span.add(tuple(v))
    return len(span)


@examples
@given(index_matrices())
def test_rank_counts_the_pivots_of_the_reduced_form(case):
    field, rows = case
    before = [list(r) for r in rows]
    rank = _rank(field, rows)
    assert rows == before
    assert rank == len(_rref(field, rows)[1])
    assert _rank(field, rows[::-1]) == rank
    assert rows == before
    if field.q ** len(rows) <= 10_000:
        assert field.q ** rank == _span_size(field, rows)


# strings that need escaping or are not ASCII, beside arbitrary text
strings = st.text() | st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f", "caf\u00e9",
                                       "\u2028", "\U0001f600", "\ud800"])
# short keys over a few letters, so that dicts often hold keys whose order
# depends on case or on escaping
keys = st.text(alphabet='aAbZ_"\u00e9', max_size=3) | strings
scalars = st.none() | st.booleans() | st.integers() | strings


def convex(segments):
    """The polygon whose segments are the given (rise, width) pairs, one per
    slope, taken in order of falling slope."""
    by_slope = {Fraction(dy, w): (dy, w) for dy, w in segments}
    vertices = [(0, 0)]
    for slope in sorted(by_slope, reverse=True):
        (x, y), (dy, w) = vertices[-1], by_slope[slope]
        vertices.append((x + w, y + dy))
    return LatticePolygon(vertices)


# polygons with plain-int vertices, heights of either sign
drawn_polygons = st.lists(st.tuples(st.integers(), st.integers(1, 4)),
                          min_size=1, max_size=5).map(convex)
# lists and tuples of one field's elements, as localmodel writes a point
drawn_elements = st.sampled_from(list(FIELDS.values())).flatmap(
    lambda field: st.lists(st.sampled_from(field.elements), min_size=1, max_size=4)).flatmap(
        lambda elems: st.sampled_from([elems, tuple(elems)]))
# lists that mix elements of several fields, or elements with ints, which no
# payload holds and no template of one m can write
all_elements = [e for field in FIELDS.values() for e in field.elements]
drawn_mixed = st.lists(st.sampled_from(all_elements) | st.integers(), min_size=2,
                       max_size=4).filter(
    lambda v: len({e.spec.m if isinstance(e, FieldElement) else None for e in v}) > 1)
payloads = st.recursive(
    scalars | drawn_polygons | drawn_elements,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


def as_loaded(x):
    """x as json.loads would give it back: tuples become lists, polygons their
    [rank, degree] pairs, and elements their coefficient lists."""
    if isinstance(x, (LatticePolygon, FieldElement)):
        return stdlib_form(x)
    if isinstance(x, (list, tuple)):
        return [as_loaded(v) for v in x]
    if isinstance(x, dict):
        return {k: as_loaded(v) for k, v in x.items()}
    return x


@examples
@given(payloads)
def test_json_text_is_the_stdlib_dump_and_round_trips(x):
    text = _json_text(x)
    assert text == json.dumps(x, indent=2, sort_keys=True, default=stdlib_form)
    assert json.loads(text) == as_loaded(x)


# keys and strings holding %, which an entry's template must keep as text
percent = st.sampled_from(["%", "%d", "%s", "%%", "100%", "%(x)s", "caf\u00e9 %d"])
entry_values = (st.integers() | st.booleans() | st.none() | strings | percent
                | drawn_polygons | drawn_polygons.map(lambda P: P.vertices)
                | st.sampled_from([FIELDS[1], FIELDS[2]]).flatmap(
                    lambda field: st.lists(st.sampled_from(field.elements),
                                           min_size=1, max_size=3)))


@st.composite
def same_keyed_entries(draw):
    """A list of dicts on one key set, as the enumerate, localmodel and dual
    payloads hold; sometimes one entry lacks a key or has one more."""
    shared = draw(st.lists(keys | percent, min_size=1, max_size=4, unique=True))
    entries = [{k: draw(entry_values) for k in shared}
               for _ in range(draw(st.integers(1, 5)))]
    odd = draw(st.sampled_from(("none", "missing", "extra")))
    entry = draw(st.sampled_from(entries))
    if odd == "missing":
        del entry[draw(st.sampled_from(shared))]
    elif odd == "extra":
        entry[draw((keys | percent).filter(lambda k: k not in shared))] = draw(entry_values)
    return entries


@examples
@given(same_keyed_entries(), st.sampled_from([lambda x: x, lambda x: {"%d": [x]}]))
def test_json_text_writes_same_keyed_entries_as_the_stdlib(entries, nest):
    payload = nest(entries)
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True,
                                             default=stdlib_form)


@examples
@given(drawn_mixed, st.integers(1, 3))
def test_json_text_refuses_lists_that_mix_fields(mixed, n):
    """A list mixing fields, or elements with ints, is refused bare and as the
    value of n same-keyed entries, as json.dumps refuses a value it has no
    default for, and is never written on one m's template."""
    entries = [{"colength": k, "point": mixed} for k in range(n)]
    for payload in (mixed, tuple(mixed), entries, {"points": entries}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text(payload)


def _columns(row, *separators):
    """The text of a table row between each separator and the next."""
    cols = []
    for sep in separators:
        head, row = row.split(sep, 1)
        cols.append(head.rstrip())
    return cols[1:] + [row]


def _pairs(column):
    """The (x, y) pairs of a vertex column, one "(x,y)" per space."""
    return tuple(tuple(map(int, token[1:-1].split(","))) for token in column.split(" "))


small_cases = st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(2, 3), st.integers(1, 5),
                        st.integers(-3, 3))


@examples
@given(small_cases)
def test_enumerate_rows_write_the_vertices_and_the_exact_slopes(case):
    p, g, r, d = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", *[f"--{k}={v}" for k, v in zip("pgrd", case)]]) == 0
    polys = enumerate_destabilized_polygons(CurveParams(p, g, r, d))
    rows = out.getvalue().splitlines()[2:]
    assert len(rows) == len(polys)
    for row, P in zip(rows, polys):
        verts, slopes_text = _columns(row, " vertices ", " slopes ")
        assert _pairs(verts) == P.vertices
        assert slopes_text == ", ".join(str(s) for s in slopes(P))


@examples
@given(st.integers(-8, 8))
def test_dual_rows_write_the_vertices_of_both_polygons(d):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dual", f"--d={d}"]) == 0
    polys = enumerate_destabilized_polygons(CurveParams(*REGIME, d))
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == len(polys)
    for row, P in zip(rows, polys):
        verts, dual_verts = _columns(row, "   ", " -> ")
        assert _pairs(verts) == P.vertices
        assert _pairs(dual_verts) == dualize_polygon(P).vertices


# every exact option of every command, the two others, and tokens argparse reads
# otherwise: an unknown option, prefixes, --opt=value, help and the separator
OPTION_TOKENS = sorted({f"--{o}" for *_, options in _COMMANDS for o in options}) + [
    "--format", "--verify", "--bogus", "--form", "--verif", "--fo", "--d=3", "-h", "--help", "--"]
# ints in every form int() reads, negative numbers, and values argparse refuses or
# takes for an option (int() reads -3_000 and "-3\t", argparse neither); 3 is no str
VALUE_TOKENS = ["3", "-3", "-0", "+3", " 3", "3_000", "-3_000", "\u0663", "-\u0663", "-3\n",
                "-3\t", "1.5", "-.5", "x", "", "-", "table", "json", "9" * 5000, 3]
COMMAND_NAMES = [name for name, *_ in _COMMANDS]


@st.composite
def drawn_argv(draw):
    """A command's name or a stray token, then tokens from the pools.  A part is one of the
    command's own options and a value, so that the reader often answers, any option and
    a value, --verify, or a lone token."""
    head = draw(st.sampled_from(COMMAND_NAMES + ["nosuch", "--d", "3", "-h"]))
    own = [f"--{o}" for name, _, _, options in _COMMANDS if name == head for o in options]
    argv = [head]
    for _ in range(draw(st.integers(0, 4))):
        part = draw(st.integers(0, 4))
        if part < 3:
            options = own + ["--format"] if part < 2 else OPTION_TOKENS
            argv += [draw(st.sampled_from(options)), draw(st.sampled_from(VALUE_TOKENS))]
        elif part == 3:
            argv.append("--verify")
        else:
            argv.append(draw(st.sampled_from(OPTION_TOKENS + VALUE_TOKENS)))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn_argv())
def test_the_exact_reader_answers_only_as_argparse_does(argv):
    args = _exact_args(argv)
    if args is not None:
        # argparse accepts the same argv and gives values equal and of the same types
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the reader answers")
        assert vars(args) == want
        assert {k: type(v) for k, v in vars(args).items()} == {k: type(v) for k, v in want.items()}


def _digits(n):
    """Ints of exactly n digits, of either sign, written as text from a leading digit
    and one repeated digit: str() refuses an int past its digit limit."""
    return st.tuples(st.sampled_from(["", "-"]), st.sampled_from("123456789"),
                     st.sampled_from("0123456789")).map(lambda t: t[0] + t[1] + t[2] * (n - 1))


LIMIT = sys.get_int_max_str_digits()
# ints around and past what int() and str() take
HUGE = st.one_of([_digits(n) for n in (2, 11, 101, LIMIT - 1, LIMIT, LIMIT + 1)])
SMALL = st.integers(-3, 3).map(str)
# primes, which are answered, then non-primes and primes above the --p ceiling
P_VALUES = st.sampled_from(["2", "3", "5", "7", "-3", "0", "1", "4", "9",
                            str(_MAX_P + 1), "10007"])
# the powers of 3 up to 81, then values that are not a power of 3 or pass the ceiling
Q_VALUES = st.sampled_from(["3", "9", "27", "81", "-3", "0", "1", "2", "6", "12",
                            str(_MAX_Q * 3), str(_MAX_Q * 9)])
# levels answered at both ends, then levels outside 3..100
M_VALUES = st.sampled_from(["3", "4", "5", str(_MAX_M), "-1", "0", "2", str(_MAX_M + 1), "1000"])
# each option's values, by command; every option but enumerate's r and g may be huge,
# since the search has no ceiling on either
OPTION_VALUES = {
    "enumerate": {"p": P_VALUES | HUGE, "g": st.integers(0, 3).map(str),
                  "r": st.integers(-1, 5).map(str), "d": SMALL | HUGE},
    "localmodel": {"q": Q_VALUES | HUGE, "M": M_VALUES | HUGE},
    "strata": {"d": SMALL | HUGE},
    "certify": {"p": P_VALUES | HUGE, "g": st.integers(0, 3).map(str) | HUGE,
                "r": st.integers(0, 7).map(str) | HUGE, "d": SMALL | HUGE, "t": SMALL | HUGE},
    "dual": {"d": SMALL | HUGE},
}


@st.composite
def exact_argv(draw):
    """(argv, JSON asked for): a command, some of its own options in exact form, each
    with a value drawn for it, and --format json and --verify each given or not."""
    name, _, _, options = draw(st.sampled_from(_COMMANDS))
    argv = [name]
    for option in draw(st.permutations(options)):
        if draw(st.booleans()):
            argv += [f"--{option}", draw(OPTION_VALUES[name][option])]
    as_json = draw(st.booleans())
    if as_json:
        argv += ["--format", "json"]
    if draw(st.booleans()):
        argv.append("--verify")
    return argv, as_json


def _answer(argv):
    """main's exit code, stdout and stderr for argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# 400 examples run in about 1.3 s (Python 3.11, 2-vCPU x86-64)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(exact_argv())
def test_every_exact_argv_is_answered_or_refused(case):
    argv, as_json = case
    code, out, err = _answer(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        # main's refusal is its one line; argparse's, for a value int() refuses,
        # follows its usage lines
        lines = err.splitlines()
        assert out == "" and [line for line in lines if "error:" in line] == lines[-1:], argv
        assert lines[-1].startswith(("error: ", f"frobstrat {argv[0]}: error: ")), argv
        assert len(lines) == 1 or lines[0].startswith("usage: "), argv
    else:
        assert out, argv
        if as_json:
            json.loads(out)


@st.composite
def argparse_argv(draw):
    """(exact argv, the same request in argparse's other spellings): each int option
    as --opt=value, --format as a unique prefix with its value apart or after "=",
    and --verify as --verif."""
    argv, _ = draw(exact_argv())
    tokens, respelled = iter(argv[1:]), argv[:1]
    for token in tokens:
        if token == "--verify":
            respelled.append("--verif")
        elif token == "--format":
            value = next(tokens)
            respelled += draw(st.sampled_from([["--form", value], [f"--fo={value}"]]))
        else:
            respelled.append(f"{token}={next(tokens)}")
    return argv, respelled


# 200 examples run in about 1 s (Python 3.11, 2-vCPU x86-64)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argparse_argv())
def test_argparse_form_gets_the_exact_forms_answer(case):
    exact, respelled = case
    assert _answer(respelled) == _answer(exact), respelled
