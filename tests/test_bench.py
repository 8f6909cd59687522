"""Every committed BENCH_*.json has the layout tools/bench.py writes: its rows,
units and metadata.  No time or peak is judged, so a slow host fails nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_a_committed_bench_file_has_the_scripts_layout(path):
    bench.check(_load(path))


def test_each_parent_file_lists_the_rows_of_its_change():
    """BENCH_<n>_parent.json, written at the parent commit, and BENCH_<n>.json
    time the same rows, so that they can be compared row by row."""
    parents = [path for path in FILES if path.stem.endswith("_parent")]
    assert parents
    for parent in parents:
        change = parent.with_name(parent.name.replace("_parent", ""))
        assert [row["name"] for row in _load(parent)["rows"]] == \
            [row["name"] for row in _load(change)["rows"]], parent.name


# one fault each, put into a committed file's layout
FAULTS = {
    "a missing metadata key": lambda doc: doc["meta"].pop("commit"),
    "a cpu count as text": lambda doc: doc["meta"].update(cpu_count="4"),
    "another unit": lambda doc: doc["units"].update(time_s="ms"),
    "no rows": lambda doc: doc["rows"].clear(),
    "a row named apart from its argv": lambda doc: doc["rows"][0].update(name="x"),
    "a run short": lambda doc: doc["rows"][0]["runs"].pop(),
    "an unexpected exit": lambda doc: doc["rows"][0]["runs"][0].update(exit=2),
    "a time as text": lambda doc: doc["rows"][0]["runs"][0].update(time_s="0.1"),
    "a row listed twice": lambda doc: doc["rows"].append(doc["rows"][0]),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_the_check_refuses_a_broken_layout(fault):
    doc = _load(FILES[-1])
    fault(doc)
    with pytest.raises(ValueError):
        bench.check(doc)


def test_the_check_holds_a_file_to_the_rows_it_names():
    doc = _load(FILES[-1])
    names = [row["name"] for row in doc["rows"]]
    bench.check(doc, names)
    with pytest.raises(ValueError):
        bench.check(doc, names[1:])


def test_a_parent_session_alternates_the_trees_run_by_run(tmp_path, monkeypatch):
    """With --parent, each tree first makes one untimed warm-up run, then each run
    of a row in one checkout sits beside one in the other, which goes first
    alternates, each tree keeps its .pyc files in a directory of its own, and
    each file names its own tree."""
    expect = dict(bench.ROWS)
    order, pycaches = [], {}

    def run(argv, root, pycache):
        order.append((root, " ".join(argv)))
        pycaches.setdefault(root, set()).add(pycache)
        return {"time_s": 0.1, "peak_rss_mb": 10.0, "exit": expect.get(" ".join(argv), 0)}

    monkeypatch.setattr(bench, "_run", run)
    monkeypatch.setattr(bench, "_git", lambda root, *args: str(root) if "HEAD" in args else "")
    parent = tmp_path / "parent"
    bench.main(["--out", str(tmp_path / "BENCH_9.json"), "--parent", str(parent)])
    warm_up = " ".join(bench.WARM_UP)
    assert sorted(order[:2]) == sorted([(bench.ROOT, warm_up), (parent, warm_up)])
    assert [len(dirs) for dirs in pycaches.values()] == [1, 1]
    assert len(set.union(*pycaches.values())) == 2
    roots = [root for root, _ in order[2:]]
    pairs = [tuple(roots[k:k + 2]) for k in range(0, len(roots), 2)]
    assert len(pairs) == bench.RUNS * len(bench.ROWS)
    assert all(set(pair) == {bench.ROOT, parent} for pair in pairs)
    # the first tree differs from row to row within a round and from round to
    # round within a row
    firsts = [[pair[0] for pair in pairs[k:k + len(bench.ROWS)]]
              for k in range(0, len(pairs), len(bench.ROWS))]
    assert all(a != b for round_ in firsts for a, b in zip(round_, round_[1:]))
    assert all(a != b for row in zip(*firsts) for a, b in zip(row, row[1:]))
    for name, root in [("BENCH_9.json", bench.ROOT), ("BENCH_9_parent.json", parent)]:
        doc = _load(tmp_path / name)
        bench.check(doc, [text for text, _ in bench.ROWS])
        assert doc["meta"]["commit"] == str(root)
