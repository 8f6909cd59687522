"""Answer checks for the frobstrat benchmark.

Every valid request is compared with a golden (exit code and digests of
stdout and stderr, captured from the program) and, where the answer has a
closed form, with an independent check that does not trust the program:

* a census must be q^2 / q / 1, computed here from q alone, and must agree
  with the per-point labels and colengths it prints;
* every emitted polygon must pass an integer check: it runs from (0, 0) to
  (r, p*d), has at least two segments, strictly falling slopes and slope
  gaps of at most 2g - 2;
* a brute-force cross-check must confirm as many polygons as were emitted.

An invalid request must exit 2 with an error on stderr and nothing on
stdout; that rule holds for every invalid input, so no golden is kept for
them.  One breach is known: ``certify`` with a non-prime ``--p`` exits 1
(ROADMAP item 5).  It counts as a failed request, and any other breach as a
wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

# outcome of one request
OK, FAILED, WRONG = "ok", "failed", "wrong"

_COLENGTH_LABEL = {1: "Psi4", 2: "Psi3", 3: "Psi2"}
_VERTEX = re.compile(r"\((-?\d+),(-?\d+)\)")
_AGREES = re.compile(r"verify: brute-force box scan agrees \((\d+) vs (\d+) polygons\)")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def golden_key(argv):
    return " ".join(argv)


def golden_record(rc, out, err):
    return [rc, digest(out), digest(err)]


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def _opt(argv, flag, default):
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _verify_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("verify:")]


def check_census(argv, out, err):
    """Independent census check; returns (problem or None, points)."""
    q = _opt(argv, "--q", 3)
    expected = {"Psi2": q * q, "Psi3": q, "Psi4": 1}
    n_points = q * q + q + 1
    if "json" in argv:
        payload = json.loads(out)
        census = payload["census"]
        rows = [(pt["colength"], pt["label"]) for pt in payload["points"]]
        if payload["claims_pass"] is not True:
            return "claims a-d did not all pass", 0
    else:
        lines = out.splitlines()
        m = re.match(r"census: Psi2=(\d+) Psi3=(\d+) Psi4=(\d+) ", lines[1])
        if m is None:
            return "no census line", 0
        census = dict(zip(("Psi2", "Psi3", "Psi4"), map(int, m.groups())))
        start = lines.index("per-point classification:") + 1
        rows = []
        for ln in lines[start:]:
            fields = ln.split()
            rows.append((int(fields[fields.index("colength") + 1]), fields[-1]))
    if census != expected:
        return f"census {census} != {expected} for q={q}", 0
    if len(rows) != n_points:
        return f"{len(rows)} points listed, expected {n_points}", 0
    labels = [label for _, label in rows]
    if {k: labels.count(k) for k in expected} != expected:
        return "per-point labels disagree with the census", 0
    if any(_COLENGTH_LABEL.get(col) != label for col, label in rows):
        return "a point's colength disagrees with its label", 0
    if "--verify" in argv:
        verdicts = _verify_lines(err if "json" in argv else out)
        if len(verdicts) != 2 or not all(v.endswith(": PASS") for v in verdicts):
            return f"verification did not pass: {verdicts}", 0
    return None, n_points


def polygon_problem(verts, p, g, r, d):
    """Why ``verts`` is not a destabilized pull-back polygon, or None."""
    if len(verts) < 3:
        return "fewer than two segments"
    if verts[0] != (0, 0) or verts[-1] != (r, p * d):
        return f"endpoints {verts[0]}..{verts[-1]}, expected (0, 0)..({r}, {p * d})"
    steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(verts, verts[1:])]
    if any(w <= 0 for w, _ in steps):
        return "ranks do not strictly increase"
    for (w1, h1), (w2, h2) in zip(steps, steps[1:]):
        # slope h1/w1 against h2/w2, cross-multiplied (w1, w2 > 0)
        drop = h1 * w2 - h2 * w1
        if drop <= 0:
            return "slopes do not strictly fall"
        if drop > (2 * g - 2) * w1 * w2:
            return f"slope gap exceeds {2 * g - 2}"
    return None


def check_polygons(argv, out, err):
    """Integer check of every emitted polygon; returns (problem, polygons, confirmed)."""
    p, g, r, d = (_opt(argv, f, dflt) for f, dflt in
                  (("--p", 3), ("--g", 2), ("--r", 3), ("--d", 0)))
    if "json" in argv:
        polys = [tuple(map(tuple, entry["vertices"])) for entry in json.loads(out)]
    else:
        lines = out.splitlines()
        m = re.match(r"found (\d+) polygon", lines[1])
        polys = [tuple((int(x), int(y)) for x, y in
                       _VERTEX.findall(ln.split(" slopes ")[0]))
                 for ln in lines[2:]]
        if m is None or int(m.group(1)) != len(polys):
            return "polygon count line disagrees with the list", 0, 0
    if len(set(polys)) != len(polys):
        return "a polygon is listed twice", 0, 0
    for verts in polys:
        problem = polygon_problem(verts, p, g, r, d)
        if problem:
            return f"{verts}: {problem}", 0, 0
    confirmed = 0
    if "--verify" in argv:
        m = _AGREES.search(err)
        if m is None or not int(m.group(1)) == int(m.group(2)) == len(polys):
            return "brute-force scan did not confirm the emitted polygons", 0, 0
        confirmed = len(polys)
    return None, len(polys), confirmed


def known_defect(argv):
    """True for ``certify`` with a non-prime ``--p``, which exits 1, not 2."""
    if argv[0] != "certify" or "--p" not in argv:
        return False
    p = _opt(argv, "--p", 3)
    return p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1))


def check(req, rc, out, err, goldens):
    """Judge one answer.

    Returns (outcome, problem, info): outcome is OK, FAILED (the known defect:
    a non-prime certify request not rejected) or WRONG (any other invalid
    input not rejected, or a valid input answered wrongly); info counts the
    points classified, polygons emitted and polygons confirmed by the
    brute-force scan.
    """
    info = {"points": 0, "polygons": 0, "confirmed": 0}
    if not req.valid:
        if rc == 2 and not out and err:
            return OK, None, info
        outcome = FAILED if known_defect(req.argv) else WRONG
        return outcome, f"invalid input not rejected: exit {rc}", info
    want = goldens.get(golden_key(req.argv))
    if want is None:
        return WRONG, "no golden for this argv", info
    if golden_record(rc, out, err) != want:
        return WRONG, f"differs from golden (exit {rc}, golden exit {want[0]})", info
    command = req.argv[0]
    problem = None
    if command == "localmodel":
        problem, info["points"] = check_census(req.argv, out, err)
    elif command == "enumerate":
        problem, info["polygons"], info["confirmed"] = check_polygons(req.argv, out, err)
    return (WRONG if problem else OK), problem, info
