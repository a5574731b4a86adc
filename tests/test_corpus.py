"""``scripts/corpus.py``: its in-process runner against ``python -m``, and
the CLI contract over its whole argv table."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import load_script
from tubal_spectra import cli

SRC = Path(__file__).resolve().parents[1] / "src"
corpus = load_script("corpus")


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """The work directory and every run of the table, in process."""
    work = tmp_path_factory.mktemp("corpus")
    return work, corpus.run_table(cli, work)


def test_in_process_runs_match_fresh_processes(table):
    work, runs = table
    verify = ["verify", "gram.t3"]
    rows = [["ted", "tsym_p4.t3"], ["ted", "tsym_p4.t3", "--format", "json"],
            verify + ["-o", corpus._output_name(verify)],
            ["info", "bad_nan.t3"], ["ted", "general.t3"], ["psd", "--help"]]
    records = {tuple(run["argv"]): run for run in runs}
    codes = [records[tuple(argv)]["exit"] for argv in rows]
    assert codes == [0, 0, 0, 1, 2, 0]
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    procs = [subprocess.Popen([sys.executable, "-m", "tubal_spectra", *argv],
                              cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) for argv in rows]
    for argv, proc in zip(rows, procs):
        stdout, stderr = proc.communicate(timeout=120)
        run = records[tuple(argv)]
        outputs = {name: (work / name).read_bytes()
                   for name in run["outputs"]}
        assert {"argv": argv, "exit": proc.returncode, "stdout": stdout,
                "stderr": stderr, "outputs": outputs} == run, argv


def test_every_row_keeps_the_cli_contract(table):
    # An exception escaping cli.main, or a warning, shows up on stderr.
    for run in table[1]:
        argv, code, outputs = run["argv"], run["exit"], run["outputs"]
        out, err = run["stdout"].decode(), run["stderr"].decode()
        assert code in (0, 1, 2, 3), argv
        if code in (1, 2):
            assert out == "" and set(outputs.values()) <= {None}, argv
            if argv:
                assert err.startswith("error: ") and err.count("\n") == 1, \
                    (argv, err)
            else:
                assert err.startswith("usage: tubal-spectra "), err
            continue
        # 0, or 3 (verify failed): the document is written.
        assert err == "", (argv, err)
        if outputs:
            assert out == "" and None not in outputs.values(), argv
        elif "json" in argv:
            assert json.loads(out)["schema"] == cli.SCHEMA, argv


def _fake_main(argv):
    for _ in range(2):  # one call site: shown once unless "always"
        warnings.warn("knob")
    if argv == ["raise"]:
        raise KeyError("knob")
    print("out")
    print("err", file=sys.stderr)
    return 0


@pytest.mark.filterwarnings("default")
def test_run_keeps_warnings_and_exceptions(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    fake = SimpleNamespace(main=_fake_main)
    warned = b"UserWarning: knob\n" * 2
    run = corpus._run(fake, ["ok"])
    assert run == {"argv": ["ok"], "exit": 0, "stdout": b"out\n",
                   "stderr": b"err\n" + warned, "outputs": {}}
    assert corpus._run(fake, ["ok"]) == run
    raised = corpus._run(fake, ["raise"])
    assert raised["exit"] == 1
    assert raised["stderr"] == b"KeyError: 'knob'\n" + warned


def test_run_table_leaves_the_process_as_it_found_it(monkeypatch, tmp_path):
    for var in ("COLUMNS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    environ, cwd = dict(os.environ), os.getcwd()
    load_script("corpus")
    assert dict(os.environ) == environ
    seen = set()
    fake = SimpleNamespace(COMMANDS=cli.COMMANDS, main=lambda argv:
                           seen.add((os.getcwd(), os.environ["COLUMNS"])))
    corpus.run_table(fake, tmp_path / "work")
    assert seen == {(str(tmp_path / "work"), "80")}
    assert dict(os.environ) == environ and os.getcwd() == cwd
