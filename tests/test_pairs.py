"""``scripts/pairs.py`` on two stub trees, whose ``perfbench/run.py``
prints a fixed result per seed and logs each call."""

import json

import pytest

from helpers import load_script

STUB = '''\
import json, sys
from pathlib import Path

tree = Path(__file__).resolve().parents[1]
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(tree.parent / "calls.log", "a") as fh:
    fh.write(json.dumps([tree.name, Path.cwd().name] + sys.argv[1:]) + "\\n")
out = json.loads((tree / "results.json").read_text())[seed]
print("# a line for people")
print(out["line"])
sys.exit(out.get("exit", 0))
'''
METRICS = ("request_p50_cal", "request_p90_cal", "request_mean_cal",
           "setup_s", "peak_rss_mb")


@pytest.fixture
def pairs():
    return load_script("pairs")


def _result(value):
    # perfbench/run.py's result line: each metric is {"value", "unit"}.
    metrics = {name: {"value": value, "unit": "x"} for name in METRICS}
    return {"line": json.dumps({"correct": True, "attempted": 100,
                                "failed": 0, "metrics": metrics})}


def _trees(tmp_path, before, after):
    """Two stub trees; ``before[seed]`` and ``after[seed]`` are what their
    runs print."""
    for name, results in (("before", before), ("after", after)):
        bench = tmp_path / name / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(STUB)
        (tmp_path / name / "results.json").write_text(json.dumps(results))
    return [str(tmp_path / "before"), str(tmp_path / "after")]


def _record(pairs, tmp_path, before, after, seeds="0-9"):
    out = tmp_path / "record.json"
    assert pairs.main(_trees(tmp_path, before, after)
                      + ["--workload", "io", "--seeds", seeds,
                         "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_runs_alternate_with_the_benchmarks_settings(pairs, tmp_path):
    results = {str(s): _result(1.0) for s in range(3, 7)}
    record = _record(pairs, tmp_path, results, results, "3-6")
    calls = [json.loads(line)
             for line in (tmp_path / "calls.log").read_text().splitlines()]
    seconds = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    assert calls == [
        [side, side, "--workload", "io", "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"]
        for seed, order in ((3, "ab"), (4, "ba"), (5, "ab"), (6, "ba"))
        for side in ("after" if c == "a" else "before" for c in order)]
    assert record["pairs"][0] == {"seed": 3, "first": "after",
                                  "after": dict.fromkeys(METRICS, 1.0),
                                  "before": dict.fromkeys(METRICS, 1.0)}
    assert [p["first"] for p in record["pairs"]] == [
        "after", "before", "after", "before"]
    assert set(record["metrics"]) == set(METRICS)


@pytest.mark.parametrize("wins, claim", [(9, True), (8, False)])
def test_a_claim_needs_nine_of_ten_pairs(pairs, tmp_path, wins, claim):
    # before reads 10.00..10.09 (IQR about 0.05); after reads 9 in `wins`
    # pairs and 11 in the rest, so its median is better by about 1.
    before = {str(s): _result(10.0 + 0.01 * s) for s in range(10)}
    after = {str(s): _result(9.0 if s < wins else 11.0) for s in range(10)}
    v = _record(pairs, tmp_path, before, after)["metrics"]["request_p50_cal"]
    assert (v["after_better"], v["pairs"], v["claim"]) == (wins, 10, claim)
    assert v["after_median"] == 9.0 and v["before_iqr"] < 0.1
    assert v["within_bound"] and not v["unresolved"]


def test_a_wide_before_spread_is_unresolved(pairs, tmp_path):
    # before's IQR is about 40% of its median, beyond every bound; after
    # is worse than its best run, so the metric is unresolved.
    before = {str(s): _result(1.0 + 0.1 * s) for s in range(10)}
    after = {str(s): _result(1.4) for s in range(10)}
    for v in _record(pairs, tmp_path, before, after)["metrics"].values():
        assert v["unresolved"] and v["within_bound"] and not v["claim"]


@pytest.mark.parametrize("fault, problem", [
    ({"exit": 1}, "exit code 1"),
    ({"line": json.dumps({"correct": False, "failed": 0, "metrics": {}})},
     "correct: false"),
    ({"line": json.dumps({"correct": True, "failed": 2, "metrics": {}})},
     "failed: 2"),
    ({"line": "done"}, "not the result JSON"),
    ({"line": json.dumps({"correct": True, "failed": 0, "metrics": {}})},
     "lacks an end-to-end metric"),
], ids=["exit", "incorrect", "failed", "no-json", "no-metric"])
def test_one_bad_run_fails_the_record(pairs, tmp_path, fault, problem):
    good = {str(s): _result(1.0) for s in range(4)}
    bad = dict(good, **{"3": {**_result(1.0), **fault}})
    with pytest.raises(SystemExit, match=f"seed 3, after .*{problem}"):
        _record(pairs, tmp_path, good, bad, "0-3")
    assert not (tmp_path / "record.json").exists()
