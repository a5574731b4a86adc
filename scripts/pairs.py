"""Run alternating benchmark pairs on two trees and judge every metric.

Give both tree roots, the workload, a seed range and the output file::

    python3 scripts/pairs.py OLD NEW --workload io --seeds 3101-3110 \
        --out PAIRS_io.json

``OLD`` and ``NEW`` (the ``before`` and ``after`` sides) are roots of two
checkouts, each holding ``perfbench/`` and ``src/``.  For each seed the
script runs each tree's ``perfbench/run.py --workload W --seed S --seconds
T --trace 0`` from that tree's root, ``T`` being ``run_seconds`` of this
checkout's ``BENCHMARK.json``.  ``before`` runs first on even seeds and
``after`` on odd ones, because set-up time favours the side that runs
second.  A run fails the whole record, with exit 1 and its seed and side
named, when it exits nonzero, when its last line of stdout is not the
result JSON, or when that JSON reads ``correct: false`` or ``failed > 0``.

For each end-to-end metric of ``BENCHMARK.json`` the record gives both
medians, the ``before`` distance between quartiles (IQR), and:

- ``after_better``: the pairs in which ``after`` is better, ties counting
  for neither;
- ``within_bound``: ``after``'s median is worse than ``before``'s by at
  most the metric's bound, a share of ``before``'s median;
- ``unresolved``: ``before``'s IQR exceeds that bound, and not every
  ``after`` run is better than every ``before`` run;
- ``claim``: ``after`` is better in at least nine tenths of ten or more
  pairs, and its median is better by more than ``before``'s IQR.

It prints one line per metric and writes one JSON record, with every
run's end-to-end metric values; nothing under ``perfbench/`` or in
``BENCHMARK.json`` is changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import SCHEMA, _spread

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("before", "after")
RESULT_KEYS = {"correct", "failed", "metrics"}
CLAIM_PAIRS = 10      # the fewest pairs a claim rests on
CLAIM_SHARE = 0.9     # of which the change must win at least this share


def run_side(tree, workload, seed, seconds, names):
    """The values of the metrics ``names`` in one ``perfbench/run.py`` run
    in ``tree``, or the reason it fails the record, as ``(values,
    problem)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return None, f"exit code {proc.returncode}"
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        return None, "the last line of stdout is not the result JSON"
    if result["correct"] is not True:
        return None, f"correct: {json.dumps(result['correct'])}"
    if result["failed"]:
        return None, f"failed: {result['failed']}"
    try:
        return {name: float(result["metrics"][name]["value"])
                for name in names}, None
    except (KeyError, TypeError, ValueError):
        return None, "the result JSON lacks an end-to-end metric's value"


def judge(metric, before, after):
    """The verdicts on one end-to-end ``metric`` from the paired runs'
    values ``before[i]``, ``after[i]``."""
    gain = 1.0 if metric["better"] == "lower" else -1.0
    (b_med, b_iqr), (a_med, _) = _spread(before), _spread(after)
    wins = sum(gain * (b - a) > 0.0 for b, a in zip(before, after))
    every = all(gain * (b - a) > 0.0 for b in before for a in after)
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "pairs": len(before),
            "before_median": b_med, "after_median": a_med,
            "before_iqr": b_iqr, "after_better": wins,
            "within_bound": gain * (a_med - b_med) <= metric["bound"] * b_med,
            "unresolved": b_iqr > metric["bound"] * b_med and not every,
            "claim": (len(before) >= CLAIM_PAIRS
                      and wins >= CLAIM_SHARE * len(before)
                      and gain * (b_med - a_med) > b_iqr)}


def _seeds(text):
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a range of two or more seeds, such as 3101-3110")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path, help="root of the tree before")
    parser.add_argument("after", type=Path, help="root of the tree after")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="first-last, inclusive")
    parser.add_argument("--out", required=True, help="output JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"before": args.before, "after": args.after}
    names = [metric["name"] for metric in bench["end_to_end"]]

    pairs = []
    for seed in args.seeds:
        pair = {"seed": seed, "first": SIDES[seed % 2]}
        for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
            pair[side], problem = run_side(trees[side], args.workload, seed,
                                           seconds, names)
            if problem:
                raise SystemExit(f"error: seed {seed}, {side} "
                                 f"({trees[side]}): {problem}")
        pairs.append(pair)
        print(f"seed {seed}: done, {pair['first']} first", flush=True)

    verdicts = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        v = verdicts[name] = judge(
            metric, *([p[side][name] for p in pairs] for side in SIDES))
        print(f"{name}: {v['before_median']:.4g} -> {v['after_median']:.4g} "
              f"{v['unit']} (before IQR {v['before_iqr']:.3g}), after "
              f"better in {v['after_better']}/{v['pairs']}; within bound "
              f"{v['bound']}: {v['within_bound']}; unresolved: "
              f"{v['unresolved']}; claim: {v['claim']}")
    doc = {"schema": SCHEMA, "kind": "pairs", "workload": args.workload,
           "run_seconds": seconds, "pairs": pairs, "metrics": verdicts}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
