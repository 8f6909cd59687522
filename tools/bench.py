"""Time frobstrat's command-line workloads end to end and write them as JSON.

    python tools/bench.py --out BENCH_<n>.json [--parent DIR]

Each row runs ``python -m frobstrat <argv>`` from this checkout's ``src/`` as a
fresh process with stdout and stderr sent to /dev/null, once in each of RUNS
rounds over all rows, one process at a time: a host whose speed drifts then
slows one run of many rows rather than every run of one.  With ``--parent``,
a git checkout of the parent commit (a ``git worktree`` or a ``git clone``),
each run of a row in this checkout sits beside one in DIR, timed from DIR's
``src/``; which tree goes first alternates from row to row and from round to
round.  DIR's rows go to ``BENCH_<n>_parent.json`` beside ``--out``, with
DIR's own commit in their metadata.  Both trees are compiled alike: each
tree's children keep their ``.pyc`` files under a temporary directory of that
tree's own (``PYTHONPYCACHEPREFIX``), and write them even where the caller's
environment sets ``PYTHONDONTWRITEBYTECODE``, which would leave a fresh
``git clone`` without them and recompile ``src/`` in every one of its runs.
One untimed warm-up run per tree, ``WARM_UP``, fills that directory before
round 0.  A row records each
run's wall time (interpreter start-up included), the peak resident set size
that ``os.wait4`` reports for the child (``ru_maxrss``, in KiB on Linux) and its
exit code, and the median of the times and of the peaks.  The rows are
ROADMAP's Baseline CLI rows, every enumerate size in both formats, and the
local model at q = 81 and 243 in both formats and with --verify, and at
q = 243 with --verify at the M = 100 ceiling.  The file
also records the Python version, the platform, ``os.cpu_count()``, the commit
and the date.  A shared host's speed varies from minute to minute, so compare
only the two files of one ``--parent`` session.

``check`` is the file's layout: its rows, units and metadata, never its times.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 3
UNITS = {"time_s": "s", "peak_rss_mb": "MB"}
META = {"python": str, "platform": str, "cpu_count": int, "commit": str, "dirty": bool,
        "date": str}

# (argv, its exit code).  certify exits 1: at p = r = 9973 and d = 0 both
# certificates FAIL, as the mathematics says.  The Baseline's
# enumerate --g 1000 --r 3 --d 0 is left out: it has no ceiling yet and passes
# 380 MB within 4 s, so a row would only time how long it ran until stopped.
ROWS = (
    ("localmodel --q 81", 0),
    ("localmodel --q 81 --format json", 0),
    ("localmodel --q 81 --verify", 0),
    ("localmodel --q 243", 0),
    ("localmodel --q 243 --format json", 0),
    ("localmodel --q 243 --verify", 0),
    ("localmodel --q 243 --M 100 --verify", 0),
    ("enumerate --p 3 --g 2 --r 10 --d 1", 0),
    ("enumerate --p 3 --g 2 --r 10 --d 1 --format json", 0),
    ("enumerate --p 3 --g 2 --r 12 --d 1", 0),
    ("enumerate --p 3 --g 2 --r 12 --d 1 --format json", 0),
    ("enumerate --p 5 --g 3 --r 8 --d 1", 0),
    ("enumerate --p 5 --g 3 --r 8 --d 1 --format json", 0),
    ("enumerate --r 5 --d 1 --verify", 0),
    ("strata --d 0 --verify", 0),
    ("certify --p 9973 --r 9973 --verify", 1),
)

# the untimed first run in each tree: certify imports every module a row does,
# fractions included, which no other command imports
WARM_UP = ("certify", "--verify")


def _run(argv, root, pycache):
    """{time_s, peak_rss_mb, exit} of one fresh frobstrat process run from the
    ``src/`` of the checkout ``root``, its ``.pyc`` files kept under ``pycache``."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONPYCACHEPREFIX": pycache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "frobstrat", *argv], cwd=root, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"time_s": elapsed, "peak_rss_mb": usage.ru_maxrss / 1024, "exit": child.returncode}


def _git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def _meta(root):
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def check(doc, names=None):
    """Raise ValueError unless ``doc`` is laid out as this script writes it: META's
    keys and types, UNITS, and rows each named by its argv with RUNS runs that all
    exit with the row's expected code; with ``names``, exactly those rows in that
    order.  Times and peaks must be numbers; their values are never judged."""
    def need(ok, what):
        if not ok:
            raise ValueError(f"bench file: {what}")

    def number(x):
        return type(x) in (int, float) and x >= 0

    need(type(doc) is dict and set(doc) == {"meta", "runs", "units", "rows"}, "top-level keys")
    meta = doc["meta"]
    need(type(meta) is dict and set(meta) == set(META), "metadata keys")
    for key, kind in META.items():
        need(type(meta[key]) is kind, f"metadata {key} is not a {kind.__name__}")
    need(doc["units"] == UNITS, f"units are not {UNITS}")
    need(type(doc["runs"]) is int and doc["runs"] >= 1, "runs per row")
    rows = doc["rows"]
    need(type(rows) is list and rows, "no rows")
    for row in rows:
        need(type(row) is dict and set(row) == {"name", "argv", "expect", "runs", *UNITS},
             f"keys of row {row!r}")
        argv, name = row["argv"], row["name"]
        need(type(argv) is list and all(type(a) is str for a in argv) and name == " ".join(argv),
             f"row {name!r} is not named by its argv")
        need(type(row["runs"]) is list and len(row["runs"]) == doc["runs"],
             f"row {name!r} has not {doc['runs']} runs")
        for run in row["runs"]:
            need(type(run) is dict and set(run) == {"exit", *UNITS}, f"keys of a run of {name!r}")
            need(run["exit"] == row["expect"],
                 f"row {name!r} exited {run['exit']}, not {row['expect']}")
            need(all(number(run[unit]) for unit in UNITS), f"a run of {name!r} has no figures")
        need(all(number(row[unit]) for unit in UNITS), f"row {name!r} has no medians")
    listed = [row["name"] for row in rows]
    need(len(set(listed)) == len(listed), "a row is listed twice")
    need(names is None or listed == list(names), "rows are not the script's")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--parent", metavar="DIR", type=Path,
                        help="a git checkout of the parent commit, timed alternately "
                             "with this one into BENCH_<n>_parent.json beside --out")
    args = parser.parse_args(argv)
    out = Path(args.out)
    # output file -> the checkout its rows run from
    trees = {out: ROOT}
    if args.parent:
        trees[out.with_name(f"{out.stem}_parent{out.suffix}")] = args.parent.resolve()
    # read before any run, so that a DIR that is no git checkout fails at once
    metas = {path: _meta(root) for path, root in trees.items()}
    runs = {(path, text): [] for path in trees for text, _ in ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        pycaches = {root: os.path.join(tmp, str(n)) for n, root in enumerate(trees.values())}
        for root, pycache in pycaches.items():
            _run(WARM_UP, root, pycache)
        for k in range(RUNS):
            for i, (text, _) in enumerate(ROWS):
                order = list(trees.items())
                if (k + i) % 2:
                    order.reverse()
                for path, root in order:
                    runs[path, text].append(_run(text.split(), root, pycaches[root]))
    docs = []
    for path in trees:
        rows = []
        for text, expect in ROWS:
            medians = {unit: statistics.median(run[unit] for run in runs[path, text])
                       for unit in UNITS}
            rows.append({"name": text, "argv": text.split(), "expect": expect,
                         "runs": runs[path, text], **medians})
            print(f"{path.name}: {text}: {medians['time_s']:.3f} s, "
                  f"{medians['peak_rss_mb']:.1f} MB", file=sys.stderr)
        doc = {"meta": metas[path], "runs": RUNS, "units": UNITS, "rows": rows}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        docs.append(doc)
    try:
        for doc in docs:
            check(doc, [text for text, _ in ROWS])
    except ValueError as exc:
        sys.exit(str(exc))


if __name__ == "__main__":
    main()
