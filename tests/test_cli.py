"""Command-line interface: exit codes, formats, determinism, file I/O."""

import argparse
import json
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

from helpers import load_script, near_tsym, random_tensor, random_tsym
from tubal_spectra import cli, oracle
from tubal_spectra import tsvd as tsvd_module
from tubal_spectra.errors import NotTSymmetric
from tubal_spectra.oracle import oracle_psd_exact
from tubal_spectra.spectral import exact_psd, psd_spectral, symmetrize, ted
from tubal_spectra.tensor3 import (identity, is_f_diagonal, is_t_symmetric,
                                   read_tensor3, tensor3_from_text, transpose,
                                   write_tensor3)
from tubal_spectra.tproduct import tprod

RNG = np.random.default_rng(611)
corpus = load_script("corpus")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tsym_file(tmp_path):
    path = tmp_path / "sym.t3"
    write_tensor3(str(path), random_tsym(RNG, 3, 4))
    return str(path)


# --- JSON emitter -----------------------------------------------------------

def test_json_emitter_is_deterministic_and_parseable():
    doc = {"b": 0.1, "a": [1, 2.5, "x", None, True],
           "nested": {"empty_list": [], "empty_map": {}},
           "rows": [[1.0, 2.0], [3.0, 4.0]]}
    text = cli.dumps_doc(doc)
    assert text == cli.dumps_doc(doc)
    assert json.loads(text) == {
        "b": 0.1, "a": [1, 2.5, "x", None, True],
        "nested": {"empty_list": [], "empty_map": {}},
        "rows": [[1.0, 2.0], [3.0, 4.0]]}
    # insertion order, not alphabetical
    assert text.index('"b"') < text.index('"a"')
    # 17 significant digits round-trip doubles exactly
    assert "0.10000000000000001" in text


def test_json_emitter_rejects_non_finite():
    with pytest.raises(ValueError):
        cli.dumps_doc({"x": float("nan")})
    with pytest.raises(ValueError):
        cli.dumps_doc({"x": float("inf")})


def test_render_rejects_what_json_rejects(capsys, tsym_file):
    # frequency_eigenvalues are not shown in text, yet a non-finite one
    # fails the text rendering exactly as it fails the JSON document.
    code, out, _ = run(capsys, "ted", tsym_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    doc["frequency_eigenvalues"][0][0] = float("nan")
    for emit in (cli.dumps_doc, cli.render):
        with pytest.raises(ValueError, match="non-finite value in output"):
            emit(doc)


# --- argument handling ------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "tubal-spectra" in out


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error" in err


# One representative argv per command, every option of the command given.
ARGV = {
    "info": ["info", "a.t3", "--format", "json"],
    "tprod": ["tprod", "a.t3", "b.t3", "-o", "c.t3", "--format", "text"],
    "transpose": ["transpose", "a.t3", "--format", "json", "--output", "o"],
    "ted": ["ted", "a.t3", "--tol", "1e-9", "-o", "o", "--format", "json"],
    "tsvd": ["tsvd", "a.t3", "--format", "text", "-o", "o"],
    "psd": ["psd", "a.t3", "--exact", "--auto-symmetrize", "--tol", "1e-8",
            "--format", "json", "-o", "o"],
    "quadform": ["quadform", "a.t3", "x.mat", "--format", "json", "-o", "o"],
    "verify": ["verify", "a.t3", "--seed", "7", "-o", "o", "--format",
               "json"],
    "random": ["random", "psd", "3", "3", "4", "--seed", "5", "-o", "o",
               "--format", "json"],
}


def test_argv_table_covers_every_command():
    assert list(ARGV) == list(cli.COMMANDS)


@pytest.mark.parametrize("command", list(ARGV))
def test_argv_row_gives_every_option(command):
    # A knob that no test gives fails here.
    options = [("--format",)] + [
        names for names, _ in cli.COMMANDS[command][2:]
        if names[0].startswith("-")]
    for names in options:
        assert any(name in ARGV[command] for name in names), names


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_corpus_gives_every_option_and_format(command):
    # scripts/corpus.py compares CLI output across checkouts; a knob it
    # never gives would go unchecked there.
    table = [argv for argv in corpus.argv_table(cli.COMMANDS)
             if argv[:1] == [command]]
    pairs = {tuple(argv[i:i + 2]) for argv in table
             for i in range(len(argv) - 1)}
    assert {("--format", "text"), ("--format", "json")} <= pairs
    given = {token for argv in table for token in argv}
    for names, _ in cli.COMMANDS[command][2:]:
        if names[0].startswith("-"):
            assert set(names) <= given, names


def _usage_error(parser, argv):
    with pytest.raises(ValueError) as exc:
        parser.parse_args(argv)
    return str(exc.value)


@pytest.mark.parametrize("command", list(ARGV))
def test_one_command_parser_matches_the_full_table(capsys, command):
    full, one = cli.build_parser(), cli.build_parser(command)
    assert one.parse_args(ARGV[command]) == full.parse_args(ARGV[command])

    helps = []
    for parser in (full, one):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: tubal-spectra {command} ")

    for bad in (ARGV[command] + ["--bogus"], [command]):
        assert _usage_error(one, bad) == _usage_error(full, bad)


def test_main_builds_only_the_invoked_command(capsys, monkeypatch,
                                              tsym_file):
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    for argv in (["info", tsym_file], ["--help"], ["frobnicate"], [],
                 ["-h", "info"]):
        cli.main(argv)
    assert built == ["info", None, None, None, None]


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = out.split("positional arguments:")[1]
    for name, (_, help_text, *_args) in cli.COMMANDS.items():
        assert f"    {name}" in listed and help_text in listed


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "info", str(tmp_path / "absent.t3"))
    assert code == 1
    assert "error" in err


def test_malformed_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "junk.t3"
    path.write_text("not a tensor\n1 2 3\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("command", ["info", "ted", "psd", "tsvd", "verify"])
def test_non_finite_file_is_input_error(capsys, tmp_path, command, token):
    path = tmp_path / "bad.t3"
    path.write_text(f"T3 1\n2 2 1\n1 {token}\n{token} 1\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert f"{path}: non-finite value" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["info", "ted", "tsvd"])
def test_non_finite_result_exits_1_in_both_formats(capsys, tmp_path, command,
                                                   fmt):
    # A finite file whose norm or spectrum overflows: neither format
    # prints inf or nan, and no output file is written.  info's norm and
    # the decompositions are taken scaled, so only a value above the
    # largest double overflows (6 * 1.7e308 for the norm here, and
    # 12 * 1.7e308 for the bin-0 spectrum).
    path = tmp_path / "huge.t3"
    write_tensor3(str(path), np.full((3, 3, 4), 1.7e308))
    out_file = tmp_path / "out.txt"
    argv = [command, str(path), "--format", fmt]
    if command != "info":
        argv += ["-o", str(out_file)]
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert ("non-finite value in output" if command == "info"
            else "frequency spectrum overflows") in err
    assert not out_file.exists()


def test_nonpositive_tol_is_usage_error(capsys, tsym_file):
    code, _, err = run(capsys, "psd", tsym_file, "--tol", "-1")
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("command", ["ted", "psd"])
def test_non_finite_tol_is_usage_error(capsys, monkeypatch, tsym_file,
                                       command, token):
    # Refused before the file is read, so no decomposition runs.
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before --tol was checked")

    monkeypatch.setattr(cli, "read_tensor3", forbidden)
    code, out, err = run(capsys, command, tsym_file, "--tol", token)
    assert (code, out) == (1, "")
    assert "--tol must be finite" in err


@pytest.mark.parametrize("argv", [["verify", "IN"],
                                  ["random", "general", "2", "2", "2"]],
                         ids=["verify", "random"])
def test_negative_seed_is_usage_error(capsys, monkeypatch, tsym_file, argv):
    # Refused before the file is read or a generator is seeded.
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before --seed was checked")

    monkeypatch.setattr(cli, "read_tensor3", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    argv = [tsym_file if a == "IN" else a for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (1, "", "error: --seed must be non-negative\n")


@pytest.mark.parametrize("command", ["ted", "tsvd", "psd", "verify"])
def test_overflowing_spectrum_is_not_called_unsymmetric(capsys, tmp_path,
                                                        command):
    # Exactly T-symmetric, but the transform overflows to inf on bin 0.
    # verify certifies the tensor scaled to max|A| in [0.5, 1), and fails
    # as tsvd does when the spectrum cannot be scaled back.
    path = tmp_path / "huge.t3"
    write_tensor3(str(path), np.full((2, 2, 2), 1.7e308))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert "frequency spectrum overflows" in err
    assert "NotTSymmetric" not in err


@pytest.mark.parametrize("command", ["ted", "tsvd", "psd", "verify"])
def test_lapack_failure_is_numerical_error(capsys, monkeypatch, tsym_file,
                                           command):
    # LinAlgError subclasses ValueError, the input-format branch (exit 1).
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, out, err = run(capsys, command, tsym_file)
    assert (code, out) == (2, "")
    assert err == "error: LinAlgError: Eigenvalues did not converge\n"


def test_array_too_large_for_memory_is_one_error_line(capsys):
    # numpy refuses the 7.11 PiB request before it allocates anything.
    code, out, err = run(capsys, "random", "general", "1000000", "1000000",
                         "1000")
    assert (code, out) == (1, "")
    assert err.startswith("error: MemoryError: Unable to allocate ")
    assert err.count("\n") == 1


def test_verify_has_no_tol_flag(capsys, tsym_file):
    code, out, err = run(capsys, "verify", tsym_file, "--tol", "1e-3")
    assert (code, out) == (1, "")
    assert "--tol" in err
    code, out, _ = run(capsys, "verify", tsym_file, "--format", "json")
    assert code == 0
    assert "tol" not in json.loads(out)


# --- info -------------------------------------------------------------------

def test_info_reports_structure_flags(capsys, tmp_path):
    path = tmp_path / "id.t3"
    write_tensor3(str(path), identity(2, 3))
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert "shape: 2 x 2 x 3" in out
    assert "t_symmetric: true" in out
    assert "f_diagonal: true" in out
    assert "standard_form: true" in out

    code, out, _ = run(capsys, "info", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tubal-spectra/1"
    assert doc["kind"] == "info"
    assert doc["shape"] == {"m": 2, "n": 2, "p": 3}
    assert doc["t_symmetric"] is True
    assert doc["standard_form"] == "true"


def test_info_rectangular_has_no_symmetry_verdict(capsys, tmp_path):
    path = tmp_path / "rect.t3"
    write_tensor3(str(path), random_tensor(RNG, 2, 3, 2))
    code, out, _ = run(capsys, "info", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_symmetric"] is None
    assert doc["standard_form"] is None


# --- tensor-to-tensor commands ----------------------------------------------

def test_tprod_command_round_trips_exactly(capsys, tmp_path):
    A = random_tensor(RNG, 2, 3, 4)
    B = random_tensor(RNG, 3, 2, 4)
    fa, fb, fc = (str(tmp_path / name) for name in ("a.t3", "b.t3", "c.t3"))
    write_tensor3(fa, A)
    write_tensor3(fb, B)
    code, out, _ = run(capsys, "tprod", fa, fb, "-o", fc)
    assert code == 0
    assert out == ""  # -o suppresses stdout
    assert np.array_equal(read_tensor3(fc), tprod(A, B))


def test_overflowing_result_is_not_written(capsys, tmp_path):
    # A finite input whose product overflows: the writer rejects the result
    # before the output file is opened.
    fa, fc = str(tmp_path / "a.t3"), tmp_path / "c.t3"
    write_tensor3(fa, np.full((2, 2, 1), 1e300))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "tprod", fa, fa, "-o", str(fc))
    assert (code, out) == (1, "")
    assert "finite" in err
    assert not fc.exists()


def test_tprod_shape_mismatch_is_input_error(capsys, tmp_path):
    fa, fb = str(tmp_path / "a.t3"), str(tmp_path / "b.t3")
    write_tensor3(fa, random_tensor(RNG, 2, 3, 4))
    write_tensor3(fb, random_tensor(RNG, 2, 2, 4))
    code, _, err = run(capsys, "tprod", fa, fb)
    assert code == 1
    assert "error" in err


def test_transpose_command_matches_library(capsys, tmp_path):
    A = random_tensor(RNG, 3, 2, 5)
    fa = str(tmp_path / "a.t3")
    write_tensor3(fa, A)
    code, out, _ = run(capsys, "transpose", fa)
    assert code == 0
    assert np.array_equal(tensor3_from_text(out), transpose(A))


def test_tensor_json_wrapper_carries_text_payload(capsys, tmp_path):
    A = random_tensor(RNG, 2, 2, 3)
    fa = str(tmp_path / "a.t3")
    write_tensor3(fa, A)
    code, out, _ = run(capsys, "transpose", fa, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "transpose"
    assert np.array_equal(tensor3_from_text(doc["result_t3"]), transpose(A))


# --- decompositions ----------------------------------------------------------

def test_ted_json_document(capsys, tsym_file):
    code, out, _ = run(capsys, "ted", tsym_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ted"
    assert doc["shape"] == {"n": 3, "p": 4}
    assert len(doc["eigentuples"]) == 3
    assert doc["ordering"]["first_components_sorted"] is True
    assert doc["ordering"]["elementwise_chain"] in (
        "true", "false", "incomparable")
    assert doc["residuals"]["reconstruction"] <= 1e-10
    U = tensor3_from_text(doc["factors"]["u_t3"])
    D = tensor3_from_text(doc["factors"]["d_t3"])
    A = read_tensor3(tsym_file)
    recon = tprod(tprod(U, D), transpose(U))
    assert np.linalg.norm(recon - A) <= 1e-9 * np.linalg.norm(A)


def test_ted_rejects_unsymmetric_with_exit_2(capsys, tmp_path):
    path = tmp_path / "gen.t3"
    write_tensor3(str(path), random_tensor(RNG, 3, 3, 2))
    code, _, err = run(capsys, "ted", str(path))
    assert code == 2
    assert "NotTSymmetric" in err


def test_tsvd_json_document(capsys, tmp_path):
    A = random_tensor(RNG, 4, 2, 3)
    path = tmp_path / "a.t3"
    write_tensor3(str(path), A)
    code, out, _ = run(capsys, "tsvd", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == {"m": 4, "n": 2, "p": 3}
    assert len(doc["singular_tuples"]) == 2
    assert doc["residuals"]["reconstruction"] <= 1e-10
    U = tensor3_from_text(doc["factors"]["u_t3"])
    S = tensor3_from_text(doc["factors"]["s_t3"])
    V = tensor3_from_text(doc["factors"]["v_t3"])
    recon = tprod(tprod(U, S), transpose(V))
    assert np.linalg.norm(recon - A) <= 1e-9 * np.linalg.norm(A)


# --- psd --------------------------------------------------------------------

def test_psd_exact_reports_criterion_oracle_gap(capsys, tmp_path):
    # The identity with two frontal slices passes the frequency criterion
    # but its form takes the value (2, -2): the oracle must disagree and
    # produce a witness proportional to (1, -1).
    path = tmp_path / "id.t3"
    write_tensor3(str(path), identity(1, 2))
    code, out, _ = run(capsys, "psd", str(path), "--exact",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spectral"]["class"] == "PSD"
    assert doc["spectral"]["min_frequency_eigenvalue"] >= -1e-12
    assert doc["exact"]["class"] == "NOT_ELEMENTWISE_PSD"
    assert doc["exact"]["component"] == 2
    assert doc["exact"]["min_eigenvalue"] == pytest.approx(-1.0)
    w = np.asarray(doc["exact"]["witness"])
    assert w.shape == (1, 2)
    assert abs(abs(w[0, 0]) - 1 / np.sqrt(2)) <= 1e-12
    assert abs(w[0, 0] + w[0, 1]) <= 1e-12
    assert doc["verdicts_agree"] is False

    code, out, _ = run(capsys, "psd", str(path), "--exact")
    assert code == 0
    assert "note:" in out and "one-sided" in out


def test_psd_gram_tensor_reports_nonnegative_frequency_floor(capsys,
                                                             tmp_path):
    # A Gram tensor always has a nonnegative frequency spectrum; its
    # eigentuple ENTRIES may still be negative, so the spatial class is
    # whatever the entries say and must stay consistent with min_entry.
    B = random_tensor(RNG, 3, 3, 2)
    A = tprod(transpose(B), B)
    path = tmp_path / "gram.t3"
    write_tensor3(str(path), A)
    code, out, _ = run(capsys, "psd", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    spectral = doc["spectral"]
    assert spectral["min_frequency_eigenvalue"] >= -1e-10
    if spectral["class"] in ("PD", "PSD"):
        assert spectral["min_entry"] >= -spectral["tol"]
    else:
        assert spectral["class"] == "NOT_PSD_BY_CRITERION"
        assert spectral["min_entry"] < -spectral["tol"]
    assert doc["exact"] is None and doc["verdicts_agree"] is None


def _near():
    """``identity(2, 8)`` plus 0.9e-10 on tube ``(0, 1)``: max-abs
    asymmetry 0.9e-10, Frobenius ratio 2.5e-10."""
    A = identity(2, 8)
    A[0, 1, :] += 0.9e-10
    return A


def test_psd_exact_classifies_what_the_spectral_route_classified(
        capsys, tmp_path):
    # Frobenius ratio 2.5e-10, outside the one gate: the spectral route
    # symmetrizes, so the exact answer must be that of (A + A^T) / 2 too.
    A = _near()
    assert not is_t_symmetric(A)
    path = tmp_path / "near.t3"
    write_tensor3(str(path), A)
    code, out, _ = run(capsys, "psd", str(path), "--exact",
                       "--auto-symmetrize", "--format", "json")
    assert code == 0
    work = 0.5 * symmetrize(A)
    exact = psd_spectral(A, auto_symmetrize=True).exact
    held = exact_psd(work, ted(work))
    assert np.array_equal(exact.witness, held.witness)
    doc = json.loads(out)
    assert doc["exact"]["min_eigenvalue"] == exact.min_eigenvalue \
        == held.min_eigenvalue
    assert doc["exact"]["witness_value"] == exact.witness_value \
        == held.witness_value
    assert doc["exact"]["class"] == oracle_psd_exact(work).label


@pytest.mark.parametrize("n,p", [(8, 16), (24, 16)])
def test_psd_exact_answers_beyond_the_old_size_cap(capsys, tmp_path, n, p):
    # n*p = 128 and 384: the dense oracle was capped at 64.
    B = random_tensor(np.random.default_rng(n), n, n, p)
    A = tprod(transpose(B), B)
    A = 0.5 * (A + transpose(A))
    path = str(tmp_path / "gram.t3")
    write_tensor3(path, A)
    code, out, _ = run(capsys, "psd", path, "--exact", "--format", "json")
    assert code == 0
    exact, dense = json.loads(out)["exact"], oracle_psd_exact(A)
    assert exact["class"] == dense.label
    scale = max(1.0, float(np.max(np.abs(ted(A).frequency_eigenvalues))))
    assert abs(exact["min_eigenvalue"] - dense.min_eigenvalue) <= \
        1e-12 * scale


def test_psd_exact_runs_no_dense_oracle(capsys, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("psd ran the dense oracle")

    monkeypatch.setattr(oracle, "oracle_psd_exact", forbidden)
    path = str(tmp_path / "id.t3")
    write_tensor3(path, identity(2, 4))
    code, out, _ = run(capsys, "psd", path, "--exact", "--format", "json")
    assert code == 0
    assert json.loads(out)["exact"]["class"] == "NOT_ELEMENTWISE_PSD"


@pytest.mark.parametrize("extra", [[], ["--auto-symmetrize"],
                                   ["--tol", "1e-6"]])
def test_psd_exact_on_constant_huge_tubes(capsys, tmp_path, extra):
    # Every tube is constant, so the form is elementwise PSD; bin 1 of the
    # spectrum is exactly 0, where the dense oracle's roundoff reported a
    # negative minimum and then failed its own witness check.
    path = str(tmp_path / "big.t3")
    write_tensor3(path, np.full((2, 2, 2), 1e200))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "psd", path, "--exact", *extra,
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert ("exact_class: ELEMENTWISE_PSD" in out if fmt == "text"
                else json.loads(out)["exact"]["class"] == "ELEMENTWISE_PSD")


@pytest.mark.parametrize("scale", [-1000, 0, 1000])
def test_info_norm_is_scale_free(capsys, tmp_path, scale):
    A = random_tsym(np.random.default_rng(4), 2, 4)
    path = str(tmp_path / "a.t3")
    write_tensor3(path, np.ldexp(A, scale))
    code, out, _ = run(capsys, "info", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["frobenius_norm"] == np.ldexp(np.linalg.norm(A), scale)
    assert doc["t_symmetric"] is True and doc["f_diagonal"] is False


def test_info_on_huge_and_tiny_files(capsys, tmp_path):
    path = str(tmp_path / "big.t3")
    write_tensor3(path, np.full((2, 2, 2), 1e200))
    code, out, _ = run(capsys, "info", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["frobenius_norm"] == pytest.approx(
        np.sqrt(8) * 1e200, rel=1e-15)
    F = np.zeros((3, 3, 4))
    F[np.arange(3), np.arange(3), :] = random_tensor(RNG, 3, 4, 1)[:, :, 0]
    dense = random_tsym(RNG, 3, 4)
    for X, fdiag in ((F, True), (dense, False)):
        for factor in (1e-300, 1.0, 1e300):
            write_tensor3(path, X * factor)
            code, out, _ = run(capsys, "info", path, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["f_diagonal"] is fdiag
            assert doc["frobenius_norm"] > 0.0


@pytest.mark.parametrize("scale", [-1000, 0, 1000])
def test_info_and_ted_share_one_symmetry_gate(tmp_path, scale):
    # info's t_symmetric is exactly "ted accepts", at every scale.  The
    # info document is taken from its handler: at 2^1000 its frobenius_norm
    # overflows, so the command itself exits 1.
    cases = [(_near(), False)]
    cases += [(near_tsym(RNG, 3, 4, ratio), ratio < 1e-10)
              for ratio in (0.5e-10, 0.9e-10, 1.1e-10, 2e-10)]
    for i, (A, expected) in enumerate(cases):
        path = str(tmp_path / f"a{i}.t3")
        write_tensor3(path, np.ldexp(A, scale))
        with np.errstate(all="ignore"):
            info = cli._cmd_info(argparse.Namespace(input=path))
            try:
                ted(read_tensor3(path))
                accepted = True
            except NotTSymmetric:
                accepted = False
        assert info["t_symmetric"] == accepted == expected


def test_ted_honours_its_tol(capsys, tmp_path):
    path = str(tmp_path / "near.t3")
    write_tensor3(path, _near())
    code, _, err = run(capsys, "ted", path)
    assert code == 2
    assert err == ("error: NotTSymmetric: tensor is not T-symmetric within "
                   "tolerance\n")
    code, out, err = run(capsys, "ted", path, "--tol", "1e-9", "--format",
                         "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["residuals"]["reconstruction"] <= 0.5e-9


def test_psd_requires_symmetry_unless_asked(capsys, tmp_path):
    path = tmp_path / "gen.t3"
    write_tensor3(str(path), random_tensor(RNG, 3, 3, 2))
    code, _, err = run(capsys, "psd", str(path))
    assert code == 2
    assert "NotTSymmetric" in err
    code, out, _ = run(capsys, "psd", str(path), "--auto-symmetrize",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["spectral"]["class"] in (
        "PD", "PSD", "NOT_PSD_BY_CRITERION")


# --- quadform ----------------------------------------------------------------

def test_quadform_emits_tube(capsys, tmp_path):
    fa, fx, fout = (str(tmp_path / n) for n in ("a.t3", "x.mat", "f.tube"))
    write_tensor3(fa, identity(1, 2))
    write_tensor3(fx, np.array([[1.0, -1.0]]))
    code, out, _ = run(capsys, "quadform", fa, fx)
    assert code == 0
    assert out == "TUBE 1\n2\n2 -2\n"
    code, _, _ = run(capsys, "quadform", fa, fx, "-o", fout)
    assert code == 0
    assert np.array_equal(read_tensor3(fout, 1), [2.0, -2.0])
    code, out, _ = run(capsys, "quadform", fa, fx, "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [2.0, -2.0]


# --- verify ------------------------------------------------------------------

def test_verify_passes_on_symmetric_input(capsys, tsym_file):
    code, out, _ = run(capsys, "verify", tsym_file)
    assert code == 0
    assert out.rstrip().endswith("verify: PASS")
    code, out, _ = run(capsys, "verify", tsym_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["check"] for c in doc["checks"]}
    assert {"bcirc_roundtrip", "tprod_cross_path", "tsvd_reconstruction",
            "ted_reconstruction", "quadform_polarization"} <= names
    # informational entries carry no verdict
    info = [c for c in doc["checks"] if c["pass"] is None]
    assert all(c["threshold"] is None for c in info)


def test_verify_check_names_and_order(capsys, tsym_file):
    code, out, _ = run(capsys, "verify", tsym_file, "--format", "json")
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    assert names == [
        "bcirc_roundtrip", "fold_roundtrip", "transpose_involution",
        "tprod_cross_path", "tsvd_reconstruction", "tsvd_orthogonality_u",
        "tsvd_orthogonality_v", "tsvd_pair_residuals",
        "right_gram_eigentuple_match", "right_gram_frequency_psd_floor",
        "right_gram_eigentuple_entry_floor", "left_gram_eigentuple_match",
        "left_gram_frequency_psd_floor", "left_gram_eigentuple_entry_floor",
        "ted_reconstruction", "ted_orthogonality", "ted_d_f_diagonal",
        "ted_d_t_symmetric", "ted_eigenpair_residuals",
        "ted_frequency_ordering", "ted_first_component_ordering",
        "quadform_polarization", "exact_psd_cross_path"]


def test_verify_decomposes_the_input_once(capsys, tsym_file, monkeypatch):
    calls = []
    real = tsvd_module.tsvd

    def counted(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(tsvd_module, "tsvd", counted)
    code, _, _ = run(capsys, "verify", tsym_file)
    assert code == 0
    assert len(calls) == 1


def test_verify_builds_the_polarization_matrices_once(capsys, tsym_file,
                                                      monkeypatch):
    calls = []
    real = tsvd_module.oracle_quadform_matrices

    def counted(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(tsvd_module, "oracle_quadform_matrices", counted)
    code, _, _ = run(capsys, "verify", tsym_file)
    assert code == 0
    assert calls == [(3, 3, 4)]


def test_text_factors_are_serialized_once(capsys, tsym_file, monkeypatch):
    calls = []
    real = cli.tensor3_text

    def counted(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(cli, "tensor3_text", counted)
    for command, factors in (("ted", "ud"), ("tsvd", "usv")):
        calls.clear()
        code, text, _ = run(capsys, command, tsym_file)
        assert code == 0
        assert len(calls) == len(factors)
        code, out, _ = run(capsys, command, tsym_file, "--format", "json")
        doc = json.loads(out)
        for name in factors:
            block = doc["factors"][f"{name}_t3"]
            assert f"factor {name}:\n{block}" in text


@pytest.mark.parametrize("A", [random_tsym(RNG, 3, 4),
                               random_tensor(RNG, 3, 5, 2)],
                         ids=["tsym", "rect"])
def test_verify_checks_are_the_cli_document(capsys, tmp_path, A):
    path = str(tmp_path / "a.t3")
    write_tensor3(path, A)
    code, out, _ = run(capsys, "verify", path, "--seed", "5", "--format",
                       "json")
    assert code == 0
    checks = [c.as_dict() for c in tsvd_module.verify_checks(A, 5)]
    assert json.loads(out)["checks"] == checks


def test_verify_passes_on_rectangular_input(capsys, tmp_path):
    path = tmp_path / "rect.t3"
    write_tensor3(str(path), random_tensor(RNG, 3, 5, 2))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["check"] for c in doc["checks"]}
    assert "ted_reconstruction" not in names  # not square-symmetric


def test_exact_psd_cross_path_passes_just_inside_the_gate(capsys,
                                                          tmp_path):
    # The closed form describes (A + A^T) / 2; compared with the dense
    # spectrum of that tensor, it agrees to roundoff at ratio 0.99e-10.
    # The dense spectrum of A itself is off by more than the bound on some
    # odd-p draws, so the check must not use it.
    rng = np.random.default_rng(1)
    path = str(tmp_path / "near.t3")
    apart = 0
    for n, p in ((1, 1), (3, 2), (4, 4), (2, 5), (3, 7), (7, 8)):
        for _ in range(4):
            A = near_tsym(rng, n, p, 0.99e-10)
            write_tensor3(path, A)
            code, out, _ = run(capsys, "verify", path, "--format", "json")
            assert code == 0
            check, = [c for c in json.loads(out)["checks"]
                      if c["check"] == "exact_psd_cross_path"]
            assert check["pass"] is True and check["threshold"] == 1e-12
            T = ted(A)
            lam = np.linalg.eigvalsh(oracle.oracle_quadform_matrices(A))
            apart += abs(exact_psd(A, T).min_eigenvalue - lam.min()) > \
                1e-12 * max(1.0, np.max(np.abs(T.frequency_eigenvalues)))
    assert apart >= 1


def test_exact_psd_cross_path_catches_a_moved_minimum(capsys, monkeypatch,
                                                      tsym_file):
    real = tsvd_module.exact_psd

    def moved(A, result, tol=1e-10):
        ex = real(A, result, tol)
        return replace(ex, min_eigenvalue=ex.min_eigenvalue + 1e-9)

    monkeypatch.setattr(tsvd_module, "exact_psd", moved)
    code, out, _ = run(capsys, "verify", tsym_file)
    assert code == 3
    assert "FAIL exact_psd_cross_path" in out


def test_verify_skips_ted_checks_when_ted_refuses(capsys, tmp_path):
    # Frobenius ratio 2.5e-10, outside the one gate: verify runs its other
    # checks, as psd does.
    A = _near()
    assert not is_t_symmetric(A)
    path = tmp_path / "near.t3"
    write_tensor3(str(path), A)
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "t_symmetric: false" in out
    code, out, err = run(capsys, "verify", str(path), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [c["check"] for c in doc["checks"]]
    assert "tsvd_reconstruction" in names
    assert not [name for name in names if name.startswith("ted_")]
    assert "quadform_polarization" not in names
    assert "exact_psd_cross_path" not in names


@pytest.mark.parametrize("n, p, dense", [(4, 16, True), (5, 13, False)])
def test_verify_polarization_guard_at_its_boundary(capsys, tmp_path, n, p,
                                                   dense):
    # n*p = 64 is the largest size that gets the dense polarization checks.
    assert (n * p <= tsvd_module.POLARIZATION_MAX_NP) == dense
    path = tmp_path / "sym.t3"
    write_tensor3(str(path), random_tsym(RNG, n, p))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    assert "ted_reconstruction" in names
    for name in ("quadform_polarization", "exact_psd_cross_path"):
        assert (name in names) == dense


def test_verify_has_no_max_size_option(capsys, tsym_file):
    code, out, err = run(capsys, "verify", tsym_file, "--max-size", "16")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --max-size" in err


def test_verify_reports_failure_with_exit_3(capsys, tsym_file, monkeypatch):
    # Simulate a broken fast path: the cross-route check must catch it.
    monkeypatch.setattr(tsvd_module, "tprod",
                        lambda A, B: tprod(A, B) + 1e-3)
    code, out, _ = run(capsys, "verify", tsym_file)
    assert code == 3
    assert "FAIL tprod_cross_path" in out
    assert out.rstrip().endswith("verify: FAIL")


# --- one power-of-two scale ---------------------------------------------------

@pytest.mark.parametrize("kind, shape", [("tsym", (4, 4, 4)),
                                         ("general", (3, 5, 2))])
def test_verdicts_do_not_depend_on_the_scale(capsys, tmp_path, kind, shape):
    # With absolute bounds, verify failed these correct decompositions at
    # 1e6, the Gram tensors of verify and the residuals of ted and tsvd
    # overflowed at 1e200, and at 1e-300 psd said PSD and ted's residuals
    # underflowed to 0.
    base = str(tmp_path / "base.t3")
    assert run(capsys, "random", kind, *map(str, shape), "--seed", "3",
               "-o", base)[0] == 0
    A = read_tensor3(base)
    classes = set()
    for scale in (1e-300, 1e-6, 1.0, 1e6, 1e200):
        path = str(tmp_path / f"x{scale}.t3")
        write_tensor3(path, scale * A)
        code, out, _ = run(capsys, "verify", path)
        assert (code, out.splitlines()[-1]) == (0, "verify: PASS"), scale
        for command in ["tsvd"] + (["ted"] if kind == "tsym" else []):
            code, out, _ = run(capsys, command, path, "--format", "json")
            assert code == 0, (command, scale)
            residuals = json.loads(out)["residuals"].values()
            assert all(0.0 < r < 1e-14 for r in residuals), (command, scale)
        if kind == "tsym":
            code, out, _ = run(capsys, "psd", path, "--exact", "--format",
                               "json")
            doc = json.loads(out)
            classes.add((doc["spectral"]["class"], doc["exact"]["class"]))
    assert len(classes) == (1 if kind == "tsym" else 0)


def test_psd_exact_of_huge_constant_tubes_is_psd(capsys, tmp_path):
    # Every polarization matrix is c J: the roundoff minimum, about -1e285,
    # is within the tolerance relative to 1e300, so no witness is sought
    # (an absolute tolerance made it an internal inconsistency, exit 2).
    path = str(tmp_path / "big.t3")
    write_tensor3(path, np.full((3, 3, 4), 1e300))
    code, out, _ = run(capsys, "psd", path, "--exact")
    assert code == 0
    assert "spectral_class: PSD\n" in out
    assert "exact_class: ELEMENTWISE_PSD\n" in out


def test_near_threshold_near_symmetric_file_gets_a_label(capsys, tmp_path):
    # Inside the symmetry gate, with the closed-form minimum just past -tol:
    # valued on A itself, the witness missed it ("internal inconsistency").
    path = str(tmp_path / "near.t3")
    write_tensor3(path, corpus._near_threshold(1, 3, 3, 9.9e-11))
    for command, *extra in (["psd"], ["verify"], ["psd", "--exact"]):
        code, out, _ = run(capsys, command, path, *extra)
        assert code == 0, (command, extra)
    assert "exact_class: NOT_ELEMENTWISE_PSD\n" in out


def test_auto_symmetrize_near_overflow(capsys, tmp_path):
    # A + A^T overflows; (A + A^T) / 2 fits in float64.
    A = np.zeros((2, 2, 1))
    A[0, 1, 0], A[1, 0, 0] = 1.5e308, 1.35e308
    path = str(tmp_path / "edge.t3")
    write_tensor3(path, A)
    code, out, _ = run(capsys, "psd", path, "--auto-symmetrize", "--exact",
                       "--format", "json")
    assert code == 0
    exact = json.loads(out)["exact"]
    assert exact["class"] == "NOT_ELEMENTWISE_PSD"
    assert exact["min_eigenvalue"] == -1.425e308
    assert exact["witness_value"] < -1e308


# --- text is a rendering of the JSON document -------------------------------

@pytest.fixture
def doc_files(tmp_path):
    B = random_tensor(RNG, 3, 3, 2)
    arrays = {"sym": random_tsym(RNG, 3, 4),
              "rect": random_tensor(RNG, 2, 3, 2),
              "tall": random_tensor(RNG, 4, 2, 3),
              "gen": random_tensor(RNG, 3, 3, 2),
              "gram": tprod(transpose(B), B), "id": identity(1, 2),
              "id3": identity(2, 3), "x": np.array([[1.0, -1.0]]),
              "xs": RNG.standard_normal((3, 4))}
    paths = {}
    for name, X in arrays.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        write_tensor3(paths[name], X)
    return paths


def _text_and_json(capsys, monkeypatch, files, argv):
    """Run ``argv`` in both formats; the text must render the JSON doc."""
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, _ = run(capsys, *argv, "--format", "json")

    def no_json(doc):
        raise AssertionError("text output went through dumps_doc")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "dumps_doc", no_json)
        text_code, text, _ = run(capsys, *argv)
    assert text_code == code
    assert cli.render(json.loads(out)) == text
    return code, json.loads(out), text


FACT_RUNS = [
    ("info", "@sym"), ("info", "@rect"), ("info", "@id3"),
    ("tprod", "@rect", "@gen"), ("transpose", "@rect"),
    ("random", "general", "2", "3", "2"), ("random", "psd", "3", "3", "2"),
    ("ted", "@sym"), ("ted", "@id3"), ("tsvd", "@tall"), ("tsvd", "@rect"),
    ("psd", "@sym"), ("psd", "@sym", "--exact"), ("psd", "@gram", "--exact"),
    ("psd", "@gen", "--auto-symmetrize", "--exact"),
    ("quadform", "@id", "@x"), ("quadform", "@sym", "@xs"),
    ("verify", "@sym"), ("verify", "@rect"),
]


@pytest.mark.parametrize(
    "argv", FACT_RUNS, ids=lambda argv: "_".join(a.lstrip("-@") for a in argv))
def test_text_is_the_rendered_json_document(capsys, monkeypatch, doc_files,
                                            argv):
    code, _, _ = _text_and_json(capsys, monkeypatch, doc_files, argv)
    assert code == 0


def test_disagreeing_psd_verdicts_render_the_note(capsys, monkeypatch,
                                                  doc_files):
    _, doc, text = _text_and_json(capsys, monkeypatch, doc_files,
                                  ("psd", "@id", "--exact"))
    assert doc["verdicts_agree"] is False
    assert doc["exact"]["witness"] is not None
    assert "\nwitness:\n" in text
    assert text.endswith("partial order\n")


def test_failing_verify_renders_the_json_document(capsys, monkeypatch,
                                                  doc_files):
    monkeypatch.setattr(tsvd_module, "tprod",
                        lambda A, B: tprod(A, B) + 1e-3)
    for argv in (("verify", "@sym"), ("verify", "@rect")):
        code, doc, text = _text_and_json(capsys, monkeypatch, doc_files, argv)
        assert (code, doc["passed"]) == (3, False)
        assert text.endswith("verify: FAIL\n")


# --- random ----------------------------------------------------------------

def test_random_kinds_have_claimed_structure(capsys):
    code, out, _ = run(capsys, "random", "general", "2", "3", "4")
    assert code == 0
    assert tensor3_from_text(out).shape == (2, 3, 4)

    code, out, _ = run(capsys, "random", "tsym", "3", "3", "2")
    assert code == 0
    assert is_t_symmetric(tensor3_from_text(out))

    code, out, _ = run(capsys, "random", "fdiag", "4", "3", "2")
    assert code == 0
    assert is_f_diagonal(tensor3_from_text(out))

    code, out, _ = run(capsys, "random", "psd", "3", "3", "2")
    assert code == 0
    A = tensor3_from_text(out)
    assert is_t_symmetric(A)
    assert psd_spectral(A).min_frequency_eigenvalue >= -1e-10


def test_random_rejects_bad_requests(capsys):
    code, _, err = run(capsys, "random", "tsym", "2", "3", "4")
    assert code == 1
    assert "m == n" in err
    code, _, err = run(capsys, "random", "general", "0", "3", "4")
    assert code == 1
    assert "positive" in err


def test_random_is_seed_deterministic(capsys):
    first = run(capsys, "random", "general", "3", "2", "4", "--seed", "7")
    second = run(capsys, "random", "general", "3", "2", "4", "--seed", "7")
    third = run(capsys, "random", "general", "3", "2", "4", "--seed", "8")
    assert first == second
    assert first[1] != third[1]


# --- determinism and process-level entry -------------------------------------

def test_repeated_runs_are_byte_identical(capsys, tsym_file):
    first = run(capsys, "ted", tsym_file, "--format", "json")
    second = run(capsys, "ted", tsym_file, "--format", "json")
    assert first == second


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "a.t3"
    write_tensor3(str(path), identity(2, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "tubal_spectra", "info", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "shape: 2 x 2 x 2" in proc.stdout


def test_overflow_reports_one_error_line_without_warnings(tmp_path):
    # numpy's RuntimeWarnings stay silent; the finite gates report overflow.
    path = str(tmp_path / "big.t3")
    write_tensor3(path, np.full((2, 2, 2), 1e200))
    huge = str(tmp_path / "huge.t3")
    write_tensor3(huge, np.full((2, 2, 2), 1.7e308))
    for argv in (("tprod", path, path), ("psd", huge)):
        proc = subprocess.run(
            [sys.executable, "-m", "tubal_spectra", *argv],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            proc.stderr
