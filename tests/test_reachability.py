"""Every def in ``src/frobstrat`` is entered by some command, or listed here,
and so is every statement inside a def of ``cli.py``.

The trace runs every argv that ``test_goldens.py`` pins (the recorded golden
requests, the refusals and the ``--help`` texts) and README's command-line
examples through ``main`` under one ``sys.settrace`` hook, which collects every
Python function entered and every line of ``cli.py`` run.  Each ``def`` of the
package's modules, found in their source and keyed ``module:Qualname``, that
none of them enters must appear in ``UNREACHED`` with its group and reason.
Each statement inside a def of ``cli.py`` that holds code and that none of
them runs must appear in ``UNRUN``, keyed by its def's qualname and its first
line's text, with its group and the test that drives it.  A def or statement
newly left unrun fails its test until it is wired in, moved to the tests or
listed; a listed one that a command now runs fails it until its entry is
dropped.
"""

import ast
import importlib
import json
import re
import sys
from functools import cache
from pathlib import Path

import frobstrat
from frobstrat import cli
from test_goldens import GOLDENS, HELP, REFUSALS, _record as run_argv

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(frobstrat.__file__).parent.glob("*.py"))
CLI = Path(cli.__file__).resolve()

FROBBENCH = "frobbench LAYERS"
API = "API boundary"
GUARD = "misuse guard"
IMPORT = "import time"

# module:Qualname -> (group, reason) of each def that no command enters
UNREACHED = {
    "localmodel:claim_results": (FROBBENCH, "a traced layer; the CLI calls the quotient"),
    "localmodel:intersection_colength":
        (FROBBENCH, "a traced layer; the plane walk ranks the quotient itself"),
    "localmodel:tau_square_span": (FROBBENCH, "a traced layer; the CLI reads the tau^2 blocks"),
    "localmodel:SubspaceBasis.from_spanning":
        (FROBBENCH, "a traced layer; pullback_span writes its basis directly"),
    "localmodel:_rref": (FROBBENCH, "the reduced form behind the traced from_spanning, and "
                         "the tests' oracle for pullback_span and _rank"),
    "localmodel:classify_stratum":
        (FROBBENCH, "a traced layer; the plane walk labels each index triple itself"),
    "gfield:projective_plane": (FROBBENCH, "a traced layer; the plane walk runs on index triples"),
    "localmodel:SubspaceBasis.contains": (API, "exact membership, the lemma the tests check"),
    "localmodel:pullback_span": (FROBBENCH, "a traced layer, and the dense W whose rows and "
                                 "residues the tests hold the --verify oracle to"),
    "localmodel:_kernel_rows": (FROBBENCH, "W's kernel rows for the traced pullback_span; the "
                                "--verify oracle evaluates only the entries that act"),
    "localmodel:_reduce_against": (API, "membership in a dense W, SubspaceBasis.contains"),
    "localmodel:SubspaceBasis.__init__":
        (API, "a dense basis; the oracle eliminates against W's kernel rows as triples"),
    "localmodel:SubmoduleV.__init__":
        (API, "a submodule of a point; the plane walk and its oracle take index triples"),
    "gfield:ProjectivePoint.__init__":
        (API, "a point from elements; the plane walk and its oracle take index triples"),
    "gfield:ProjectivePoint.spec": (API, "a point's field, read by SubmoduleV and repr"),
    "gfield:FieldSpec.element": (API, "an element from an int or coefficients"),
    "gfield:ProjectivePoint.of": (API, "a point from ints or coefficient lists"),
    "gfield:FieldElement.__mul__":
        (API, "ProjectivePoint's normalization uses it; commands use the index tables"),
    "gfield:FieldElement.inverse":
        (API, "ProjectivePoint's normalization uses it; commands use the index tables"),
    "gfield:FieldSpec.__repr__": (API, "repr; a mixed-field error names its fields"),
    "gfield:FieldElement.__repr__": (API, "repr"),
    "gfield:ProjectivePoint.__repr__":
        (API, "repr; commands write a point's text from its indices"),
    "localmodel:TensorElement.__repr__": (API, "repr"),
    "polygon:LatticePolygon.__repr__": (API, "repr"),
    "_record:Record.__repr__": (API, "repr of the records without their own"),
    "_record:Record.__hash__": (API, "records hash by value; no command hashes one"),
    "_record:Record.__reduce__": (API, "copies and pickles rebuild through __init__"),
    "_record:Record.__setattr__": (GUARD, "refuses assignment to a field"),
    "_record:Record.__delattr__": (GUARD, "refuses deletion of a field"),
    "_record:Record.__init_subclass__":
        (IMPORT, "runs as each record class is defined, before the trace starts"),
}

REFUSAL = "a refusal"
INVARIANT = "a broken invariant"
PARITY = "json.dumps parity"
READER = "a reader that closes stdout"

# (cli def's qualname, stripped first line) -> (group, the test that drives it) of
# each statement that no command runs; statements of one def that read alike share one
UNRUN = {
    ("_int_text", "except ValueError:"):
        (REFUSAL, "test_localmodel_refuses_a_size_past_the_digit_limit_at_its_ceiling"),
    ("_int_text", 'return f"about 10^{int((n.bit_length() - 1) * log10(2))}"'):
        (REFUSAL, "test_localmodel_refuses_a_size_past_the_digit_limit_at_its_ceiling"),
    ("_json_text", 'return "{}"'): (PARITY, "test_json_text_matches_the_stdlib"),
    ("_json_text", 'return "[]"'): (PARITY, "test_json_output_is_the_stdlib_dump_of_its_payload"),
    ("_json_text", "verts = value.vertices"): (PARITY, "test_json_text_matches_the_stdlib"),
    ("_json_text", "return _rows_format(len(verts), 2, indent) % sum(verts, ())"):
        (PARITY, "test_json_text_matches_the_stdlib"),
    ("_json_text", 'raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")'):
        (PARITY, "test_json_text_refuses_what_no_payload_holds"),
    ("cmd_localmodel",
     'raise RuntimeError(f"point {_point_text(field.names, h)} has colength {col} "'):
        (INVARIANT, "test_label_colength_mismatch_exits_1"),
    ("main", "except RuntimeError as exc:"): (INVARIANT, "test_broken_colength_exits_1"),
    ("main", "return _fail(exc, 1)"): (INVARIANT, "test_broken_colength_exits_1"),
    ("main", "except BrokenPipeError:"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
    ("main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
    ("main", "return 141"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
}


def _readme_examples():
    """The argv of each `frobstrat ...  # comment` line in README."""
    text = README.read_text(encoding="utf-8")
    examples = [line.split() for line in re.findall(r"^frobstrat (.+?)\s+#", text, re.M)]
    assert len(examples) == 6
    return examples


def _defs():
    """(file, first line, name) -> module:Qualname of every def in the package;
    the first line of a decorated def is that of its first decorator, as in
    its code object's co_firstlineno."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[path, line, child.name] = f"{Path(path).stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), "")
    return defs


def _statements(path):
    """((def qualname, stripped first line), lines) of each statement inside a def of the
    file at ``path``: a simple statement's lines, or a compound statement's and an except
    clause's up to its body."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner and isinstance(child, (ast.stmt, ast.excepthandler)):
                body = getattr(child, "body", None)
                end = body[0].lineno - 1 if type(body) is list else child.end_lineno
                found.append(((owner, lines[child.lineno - 1].strip()),
                              set(range(child.lineno, end + 1))))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, owner, f"{prefix}{child.name}.")
            else:
                visit(child, owner, prefix)

    visit(ast.parse(text), None, "")
    return found


def _code_lines(code):
    """The lines that hold bytecode of ``code`` or of a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if type(const) is type(code):
            lines |= _code_lines(const)
    return lines


@cache
def _traced():
    """(file, first line, name) of every function entered, and every line of cli.py run,
    while ``main`` runs each pinned argv and README example."""
    with open(GOLDENS, encoding="utf-8") as fh:
        argvs = [key.split(" ") for key in json.load(fh)]
    argvs += [*HELP, *REFUSALS, *_readme_examples()]
    # a cached result would hide its function's body from the trace
    for path in SOURCES:
        if path.stem != "__main__":
            module = importlib.import_module(f"frobstrat.{path.stem}")
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    codes, lines = set(), set()
    cli_file = cli.__file__

    def on_line(frame, event, arg):
        lines.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        codes.add(frame.f_code)
        # only cli.py's frames report their lines, each event a Python call: about
        # 1.1 million over these argv, half of the traced run's time
        return on_line if frame.f_code.co_filename == cli_file else None

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        for argv in argvs:
            run_argv(argv)
    finally:
        sys.settrace(outer)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
               for code in codes}
    return entered, lines


def test_every_unreached_def_is_listed():
    defs = _defs()
    unreached = set(defs.values()) - {defs.get(key) for key in _traced()[0]}
    faults = [f"{name}: no command enters it; wire it in, move it to the tests "
              "or list it in UNREACHED" for name in sorted(unreached - UNREACHED.keys())]
    faults += [f"{name}: listed in UNREACHED, but "
               + ("no such def exists" if name not in defs.values() else "a command enters it")
               for name in sorted(UNREACHED.keys() - unreached)]
    assert not faults, "\n".join(faults)


def test_every_unrun_cli_statement_is_listed():
    executable = _code_lines(compile(CLI.read_text(encoding="utf-8"), str(CLI), "exec"))
    ran = _traced()[1]
    statements = [(key, own & executable) for key, own in _statements(CLI)]
    unrun = {key for key, own in statements if own and not own & ran}
    tests = "".join(path.read_text(encoding="utf-8")
                    for path in Path(__file__).parent.glob("test_*.py"))
    faults = [f"{key}: no command runs it; wire it in or list it in UNRUN"
              for key in sorted(unrun - UNRUN.keys())]
    faults += [f"{key}: listed in UNRUN, but "
               + ("a command runs it" if any(k == key and own for k, own in statements)
                  else "no such statement exists")
               for key in sorted(UNRUN.keys() - unrun)]
    faults += [f"{key}: UNRUN names {test}, which no test file defines"
               for key, (_, test) in sorted(UNRUN.items()) if f"def {test}(" not in tests]
    assert not faults, "\n".join(faults)
