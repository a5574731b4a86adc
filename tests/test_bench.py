"""Smoke tests of ``scripts/bench.py``: the two-tree loader, one record and
the ``codec`` and ``certify`` topics' entries."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import load_script

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def bench():
    yield load_script("bench")
    for key in [key for key in sys.modules
                if key.split(".")[0] in ("before", "after")]:
        del sys.modules[key]


def _tiny(pkg, seed, workdir):
    A = np.random.default_rng(seed).standard_normal((2, 2, 2))
    return [("transpose", "2x2x2", lambda: pkg.tensor3.transpose(A))]


def _fails_after(pkg, seed, workdir):
    return [("ratio", "1", lambda: 1 / (pkg.__name__ != "after"))]


def test_loader_gives_two_distinct_trees(bench):
    ours = {key for key in sys.modules if key.startswith("tubal_spectra")}
    before, after = bench.load(SRC, "before"), bench.load(SRC, "after")
    assert before is not after
    assert before.spectral is not after.spectral
    assert before.spectral.ted is not after.spectral.ted
    tree = SRC / "tubal_spectra"
    for pkg in (before, after):
        for module in (pkg, pkg.spectral, pkg.cli):
            assert Path(module.__file__).resolve().parent == tree
    # Every package name a module holds comes from its own side.
    for pkg, other in ((before, "after"), (after, "before")):
        mixed = [f"{module.__name__}.{key}"
                 for module in map(vars(pkg).get, pkg.__all__)
                 for key, value in vars(module).items()
                 if str(getattr(value, "__module__", "")).split(".")[0]
                 in ("tubal_spectra", other)]
        assert mixed == []
    assert before.cli.ted is before.spectral.ted
    assert {key for key in sys.modules
            if key.startswith("tubal_spectra")} == ours
    assert bench.load(SRC, "before").spectral is not before.spectral


def test_record_has_the_documented_keys(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "PAIRS", 4)
    monkeypatch.setitem(bench.TOPICS, "tiny", (7, _tiny))
    out = tmp_path / "bench.json"
    assert bench.record(["tiny", "--before", str(SRC), "--after", str(SRC),
                         "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pairs"] == 4 and doc["aa_band"] == bench.AA_BAND
    assert doc["seeds"] == {"tiny": 7}
    [row] = doc["results"]
    assert set(row) == {"topic", "name", "shape", "before", "after", "ratio",
                        "ratio_iqr", "after_wins"}
    assert (row["topic"], row["name"], row["shape"]) == ("tiny", "transpose",
                                                         "2x2x2")
    for side in ("before", "after"):
        assert set(row[side]) == {"seconds", "iqr_seconds"}
        assert row[side]["seconds"] > 0
    assert row["ratio"] > 0 and 0 <= row["after_wins"] <= 4


def test_failing_entry_fails_the_run_and_names_the_side(bench, monkeypatch,
                                                        tmp_path):
    monkeypatch.setitem(bench.TOPICS, "fails", (7, _fails_after))
    out = tmp_path / "bench.json"
    with pytest.raises(RuntimeError) as exc:
        bench.record(["fails", "--before", str(SRC), "--after", str(SRC),
                      "--out", str(out)])
    assert str(exc.value) == "fails ratio 1 failed on the after tree"
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    assert not out.exists()


def test_codec_entries_run_once_each(bench, tmp_path):
    pkg = bench.load(SRC, "after")
    seed, measure = bench.TOPICS["codec"]
    entries = measure(pkg, seed, str(tmp_path))
    labels = [(name, shape) for name, shape, _ in entries]
    assert labels[-6:] == [
        ("tensor3_from_text", "6x6x8 Gram"),
        ("tensor3_from_text", "24x24x16 f-diagonal"),
        ("tensor3_from_text", "48x48x16 two spaces"),
        ("tensor3_from_text", "24x24x16 CRLF"),
        ("cli info --format json", "48x48x16"), ("cli tprod -o", "48x48x16")]
    assert len(set(labels)) == len(labels) == 18
    results = {label: fn() for label, (*_, fn) in zip(labels, entries)}
    for edited, plain in (("24x24x16 CRLF", "24x24x16"),
                          ("48x48x16 two spaces", "48x48x16")):
        assert np.array_equal(results["tensor3_from_text", edited],
                              results["tensor3_from_text", plain])
    sparse = results["tensor3_from_text", "24x24x16 f-diagonal"]
    assert np.count_nonzero(sparse) == 384
    assert results["tensor3_from_text", "6x6x8 Gram"].shape == (6, 6, 8)


def test_certify_entries_run_once_each(bench, tmp_path):
    pkg = bench.load(SRC, "after")
    seed, measure = bench.TOPICS["certify"]
    entries = measure(pkg, seed, str(tmp_path))
    labels = [(name, shape) for name, shape, _ in entries]
    assert labels[-3:] == [
        ("gram_consistency", "6x6x8 T-symmetric"),
        ("cli verify", "6x6x8 T-symmetric"),
        ("cli psd --exact", "6x6x8 T-symmetric")]
    assert len(set(labels)) == len(labels) == 11
    for _, _, fn in entries:
        fn()
    # The workload's input is exactly T-symmetric; the Grams B^T * B are not.
    for name, symmetric in (("gramsym", True), ("gram", False)):
        A = pkg.tensor3.read_tensor3(str(tmp_path / f"{name}.t3"))
        assert np.array_equal(pkg.tensor3.transpose(A), A) is symmetric
