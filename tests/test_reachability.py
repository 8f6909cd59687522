"""Every def in ``src/frobstrat`` is entered by some command, or listed here.

The trace runs every argv that ``test_goldens.py`` pins (the recorded golden
requests, the refusals and the ``--help`` texts) and README's command-line
examples through ``main`` under ``cProfile``, the C form of ``sys.setprofile``,
and collects every Python function entered.  Each ``def`` of the package's
modules, found in their source and keyed ``module:Qualname``, that none of
them enters must appear in ``UNREACHED`` with its group and reason.  A def
newly left unreached fails the test until it is wired in, moved to the tests
or listed; a listed def that a command now enters fails it until its entry
is dropped.
"""

import ast
import cProfile
import importlib
import json
import re
from pathlib import Path

import frobstrat
from test_goldens import GOLDENS, HELP, REFUSALS, _record as run_argv

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(frobstrat.__file__).parent.glob("*.py"))

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


def _entered(argvs):
    """(file, first line, name) of every function entered while ``main`` runs
    each argv."""
    # a cached result would hide its function's body from the trace
    for path in SOURCES:
        if path.stem != "__main__":
            module = importlib.import_module(f"frobstrat.{path.stem}")
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    # cProfile installs its hook as sys.setprofile does, but in C: the trace
    # costs about twice the unprofiled run, where a Python-level hook costs four
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        for argv in argvs:
            run_argv(argv)
    finally:
        profiler.disable()
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
            for code in (entry.code for entry in profiler.getstats())
            if not isinstance(code, str)}


def test_every_unreached_def_is_listed():
    with open(GOLDENS, encoding="utf-8") as fh:
        argvs = [key.split(" ") for key in json.load(fh)]
    argvs += [*HELP, *REFUSALS, *_readme_examples()]
    defs = _defs()
    unreached = set(defs.values()) - {defs.get(key) for key in _entered(argvs)}
    faults = [f"{name}: no command enters it; wire it in, move it to the tests "
              "or list it in UNREACHED" for name in sorted(unreached - UNREACHED.keys())]
    faults += [f"{name}: listed in UNREACHED, but "
               + ("no such def exists" if name not in defs.values() else "a command enters it")
               for name in sorted(UNREACHED.keys() - unreached)]
    assert not faults, "\n".join(faults)
