"""Run the CLI over a fixed file set and compare what two checkouts write.

Record a manifest for one source tree, then compare two manifests::

    python3 scripts/corpus.py OUT --src OLD/src
    python3 scripts/corpus.py OUT2 --src src
    python3 scripts/corpus.py --diff OUT/manifest.json OUT2/manifest.json

A run writes the file set into ``OUT/work`` and runs every argv of the
table there, with relative paths, as one call of the ``--src`` tree's
``cli.main`` (loaded by ``bench.load``) in this process, with one BLAS
thread.  What a fresh process per run gave is kept explicitly: warnings
are shown every time and added to their run's stderr as ``Category:
message``, an escaping exception is recorded as exit 1 with stderr ``Type:
message``, and ``COLUMNS`` is 80, the width argparse wraps help to.
``OUT/manifest.json`` records, per run, the argv, the exit code and the
sha256 of stdout, stderr and each ``-o`` file (null when not written).
``--diff`` lists the runs whose record differs, grouped by command, and
exits 1 when any does.

The file set (:func:`_files`) is drawn from a fixed seed and written by
this script's own ``%.17g`` writer, so it is the same bytes for every
checkout: random inputs of each kind, edge cases of symmetry, scale,
overflow and the PSD threshold, malformed files, the number writer's edge
values (:data:`EDGES`), and the reader's edge files (:data:`READER_EDGES`:
a CRLF copy, which ``open`` turns into ``\\n`` line ends, read by the
long double parse; 30-digit decimals on double midpoints, which that parse
gives whole to the exact reader, vertical tab and form feed line breaks,
an indented header, an empty body, ``1_0.5``, a hex token, and rows that
a tab and a double space give the wrong widths, all read by the exact
reader); the last two sets run only through :data:`EDGE_RUNS`.

The argv table (:func:`argv_table`) is built from ``cli.COMMANDS``.  It
opens with no arguments, ``--help``, an unknown command and ``<command>
--help`` for each command.  Every command runs on each of its positional
assignments in text and in ``--format json`` to stdout, and in text to
``-o`` if it takes that option.  Each option then runs alone on the
well-formed inputs, once per value of :data:`OPTION_VALUES` (JSON), and
once with every option given together (``--format text`` and
``--output``).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

import numpy as np

from bench import load

SCHEMA = "tubal-spectra-corpus/1"
SEED = 20261019

#: Values given to each valued option, one run per value.
OPTION_VALUES = {"--tol": ["1e-6", "0", "nan"], "--seed": ["7"]}


# --- the file set -----------------------------------------------------------

def _text(X):
    """The codec's text form of a T3 (3-d) or MAT (2-d) array."""
    slices = X.transpose(2, 0, 1) if X.ndim == 3 else [X]
    body = "\n\n".join("\n".join(" ".join("%.17g" % v for v in row)
                                  for row in M.tolist()) for M in slices)
    return (f"{'T3' if X.ndim == 3 else 'MAT'} 1\n"
            + " ".join(map(str, X.shape)) + "\n" * (X.ndim - 1) + body + "\n")


def _transpose(A):
    p = A.shape[2]
    return A.transpose(1, 0, 2)[:, :, -np.arange(p) % p]


def _tprod(A, B):
    C = np.einsum("ijk,jlk->ilk", np.fft.fft(A, axis=2),
                  np.fft.fft(B, axis=2))
    return np.fft.ifft(C, axis=2).real


def _near_threshold(seed, n, p, ratio):
    """A positive-definite constant-tube tensor, plus a zero-mean
    T-symmetric part putting the closed-form PSD minimum at
    ``-1e-10 * 2^e * (1 + 1e-6)``, plus an antisymmetric part at asymmetry
    ``ratio``: inside the symmetry gate, with a witness just past ``-tol``.
    """
    rng = np.random.default_rng([seed, n, p])
    B = rng.standard_normal((n, n))
    P = np.repeat((B @ B.T + n * np.eye(n))[:, :, None], p, axis=2)
    G = rng.standard_normal((n, n, p))
    Z = 0.5 * (G + _transpose(G))
    Z -= Z.mean(axis=2, keepdims=True)
    F = np.fft.fft(Z, axis=2).transpose(2, 0, 1)
    lam = np.linalg.eigvalsh(0.5 * (F + F.conj().swapaxes(1, 2)))
    m = np.outer(np.arange(p), np.arange(p)) % p
    cos = np.cos(2 * np.pi * np.minimum(m, p - m) / p)
    target = -1e-10 * 2.0 ** math.frexp(np.max(np.abs(P)))[1] * (1 + 1e-6)
    S = P + target / np.min(cos[:, :, None] * lam[None]) * Z
    H = rng.standard_normal((n, n, p))
    K = H - _transpose(H)
    return S + K * (ratio * np.linalg.norm(S) / (2 * np.linalg.norm(K)))


def _files():
    """``{name: text}`` of the whole file set."""
    rng = np.random.default_rng(SEED)

    def tsym(n, p):
        G = rng.standard_normal((n, n, p))
        return 0.5 * (G + _transpose(G))

    def gram(m, n, p):
        B = rng.standard_normal((m, n, p))
        return _tprod(_transpose(B), B)

    T = {f"tsym_p{p}.t3": tsym(3, p) for p in range(1, 9)}
    T["gram.t3"] = gram(3, 3, 4)
    T["gram_deficient.t3"] = gram(2, 3, 4)
    T["general.t3"] = rng.standard_normal((3, 3, 3))
    T["tall.t3"] = rng.standard_normal((4, 2, 3))
    T["wide.t3"] = rng.standard_normal((2, 5, 3))
    for n, p in ((3, 4), (2, 1)):
        T[f"identity_{n}x{n}x{p}.t3"] = np.zeros((n, n, p))
        T[f"identity_{n}x{n}x{p}.t3"][:, :, 0] = np.eye(n)
    T["zero.t3"] = np.zeros((2, 2, 3))
    near = np.zeros((2, 2, 8))
    near[:, :, 0] = np.eye(2)
    near[0, 1] += 0.9e-10
    T["near_identity.t3"] = near
    # ||A - A^T||_F / ||A||_F equal to the ratio in the name.
    G = rng.standard_normal((3, 3, 4))
    E = G - _transpose(G)
    S = T["tsym_p4.t3"]
    for ratio in ("5e-11", "9.9e-11", "2e-10", "1e-09", "1e-08"):
        c = float(ratio) * np.linalg.norm(S) / np.linalg.norm(2 * E)
        T[f"near_r{ratio}.t3"] = S + c * E
    T["fdiag.t3"] = np.zeros((3, 4, 3))
    T["fdiag.t3"][np.arange(3), np.arange(3)] = rng.standard_normal((3, 3))
    T["polar_np64.t3"], T["polar_np65.t3"] = tsym(4, 16), tsym(5, 13)
    general = rng.standard_normal((3, 5, 2))
    for scale in ("1e6", "1e-6", "1e200", "1e-200", "1e-300"):
        T[f"tsym_x{scale}.t3"] = T["tsym_p4.t3"] * float(scale)
        T[f"general_x{scale}.t3"] = general * float(scale)
    T["huge.t3"] = np.full((2, 2, 2), 1.7e308)
    # Own seeds, so the draws above keep their bytes.
    T["near_threshold.t3"] = _near_threshold(1, 3, 3, 9.9e-11)
    T["near_overflow.t3"] = np.zeros((2, 2, 1))
    T["near_overflow.t3"][[0, 1], [1, 0], 0] = 1.5e308, 1.35e308
    # The writer's edge values, each with both signs: ties that %.17g
    # rounds half to even, subnormals, zeros, powers of ten and the
    # neighbours on both sides of each switch of notation.  Up to 1e308,
    # so that the norm that info prints stays finite.
    ties = [1000000000000000.25, 1000000000000000.75, 123456789012345.125,
            2.0 ** -25]
    tiny = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
    tens = [1e-300, 1e-5, 1e-4, 1e16, 1e17, 1e22, 1e23, 1e100, 1e308]
    switches = [1e-5, 1e-4, 1e16, 1e17, 1e-99, 1e-100, 1e99, 1e100]
    edges = ties + tiny + [0.0] + tens + [
        np.nextafter(v, to) for v in switches for to in (0.0, np.inf)]
    T[EDGES] = np.array(edges + [-v for v in edges]).reshape(-1, 2, 1)
    files = {name: _text(A) for name, A in T.items()}
    files.update({"x3_4.mat": _text(rng.standard_normal((3, 4))),
                  "x2_8.mat": _text(rng.standard_normal((2, 8))),
                  "x1_2.mat": _text(np.array([[1.0, -1.0]]))})

    # Malformed files, after tests/test_tensor3.py.
    good = files["tsym_p2.t3"]
    files.update({
        "bad_rows.t3": "T3 1\n2 2 1\n1.0 2.0\n",
        "bad_header.t3": "T3 2\n1 1 1\n1.0\n",
        "bad_width.t3": "T3 1\n1 2 1\n1.0 2.0 3.0\n",
        "bad_kind.t3": files["x3_4.mat"],
        "bad_tab.mat": "MAT 1\n2 3\n1  2\n3 4\t5 6\n",
        "bad_token.mat": "MAT 1\n1 2\n1 x\n",
        "bad_nanpayload.mat": "MAT 1\n1 2\nnan(123) 1\n"})
    for token in ("nan", "inf", "-inf", "1e400"):
        files[f"bad_{token}.t3"] = good[:good.rindex(" ")] + f" {token}\n"

    # The reader's edge files: all but the CRLF copy, which open() reads
    # with \n line ends, go to its exact reader.
    rows = good.split("\n")
    files.update({
        "read_crlf.t3": good.replace("\n", "\r\n"),
        "read_vt.t3": "\n".join(rows[:4]) + "\x0b" + "\n".join(rows[4:]),
        "read_ff.t3": "\n".join(rows[:4]) + "\x0c" + "\n".join(rows[4:]),
        "read_indented.t3": "  " + good,
        "read_empty_body.t3": "T3 1\n1 1 1\n",
        "read_underscore.t3": "T3 1\n1 2 1\n\n1_0.5 -2_5e-1\n",
        "read_tab_rows.t3": "T3 1\n2 3 1\n\n1 2\t3 4\n5  6\n",
        "read_hex.t3": "T3 1\n1 2 1\n\n1 0x10\n",
        "read_halfway.t3": "T3 1\n2 2 2\n\n" + _midpoints()})
    return files


def _midpoints():
    """Data rows of a 2x2x2 tensor: 30-digit decimals of the midpoints
    between doubles above 1 and 0.1, below powers of two (2, ``2^-1020``),
    where the spacing halves, between zero and the two smallest
    subnormals, near -1e300, and below 1e16, an exact tie."""
    pairs = [(1.0, np.nextafter(1.0, 2.0)), (np.nextafter(2.0, 0.0), 2.0),
             (0.1, np.nextafter(0.1, 1.0)), (0.0, 5e-324),
             (5e-324, 1e-323), (-1e300, np.nextafter(-1e300, 0.0)),
             (np.nextafter(2.0 ** -1020, 0.0), 2.0 ** -1020),
             (np.nextafter(1e16, 0.0), 1e16)]
    with localcontext() as ctx:
        ctx.prec = 800  # every double and midpoint is exact
        tokens = [format((Decimal(float(lo)) + Decimal(float(hi))) / 2, ".29e")
                  for lo, hi in pairs]
    return "\n\n".join(" ".join(tokens[k:k + 4:2]) + "\n"
                         + " ".join(tokens[k + 1:k + 4:2])
                         for k in (0, 4)) + "\n"


#: The writer's edge file, run only through the commands in :data:`EDGE_RUNS`.
EDGES = "edges.t3"
FILES = _files()
#: The reader's edge files, run only through the commands in
#: :data:`EDGE_RUNS`.
READER_EDGES = sorted(name for name in FILES if name.startswith("read_"))
WELL_FORMED = sorted(name for name in FILES if name.endswith(".t3")
                     and not name.startswith(("bad_", "read_"))
                     and name != EDGES)
MALFORMED = sorted(name for name in FILES
                   if name.endswith(".t3") and name.startswith("bad_"))

#: Extra positional assignments per command: the edge files are read by
#: ``info`` and written back by ``transpose``, and the writer's edge file
#: also by ``tprod`` with an identity, which leaves its one frontal slice
#: exact.
EDGE_RUNS = {"info": [[EDGES]] + [[f] for f in READER_EDGES],
             "transpose": [[EDGES]] + [[f] for f in READER_EDGES],
             "tprod": [[EDGES, "identity_2x2x1.t3"]]}

#: Positional assignments per positional-argument signature, as
#: ``(well-formed, malformed)``; option runs use only the well-formed ones.
POSITIONALS = {
    ("input",): ([[f] for f in WELL_FORMED],
                 [[f] for f in MALFORMED + ["missing.t3"]]),
    ("a", "b"): ([["general.t3", "general.t3"], ["tall.t3", "wide.t3"],
                  ["wide.t3", "tall.t3"], ["tsym_p4.t3", "gram.t3"],
                  ["general_x1e200.t3", "wide.t3"], ["huge.t3", "huge.t3"],
                  ["tsym_x1e-300.t3", "tsym_x1e-300.t3"]],
                 [["tall.t3", "tall.t3"], ["tsym_p4.t3", "tsym_p3.t3"],
                  ["general.t3", "bad_nan.t3"], ["missing.t3", "tall.t3"]]),
    ("a", "x"): ([["tsym_p4.t3", "x3_4.mat"], ["gram.t3", "x3_4.mat"],
                  ["identity_3x3x4.t3", "x3_4.mat"], ["general.t3", "x3_4.mat"],
                  ["tsym_x1e200.t3", "x3_4.mat"],
                  ["near_identity.t3", "x2_8.mat"]],
                 [["tsym_p4.t3", "x2_8.mat"], ["tall.t3", "x1_2.mat"],
                  ["tsym_p4.t3", "bad_tab.mat"],
                  ["tsym_p4.t3", "bad_token.mat"],
                  ["tsym_p4.t3", "bad_nanpayload.mat"],
                  ["tsym_p4.t3", "tsym_p4.t3"]]),
    ("kind", "m", "n", "p"): ([["general", "2", "3", "4"],
                               ["tsym", "3", "3", "4"],
                               ["fdiag", "3", "2", "5"],
                               ["psd", "3", "3", "2"]],
                              [["tsym", "2", "3", "4"],
                               ["general", "0", "3", "4"]]),
}


def _output_name(argv):
    """A ``-o`` file name fixed by the rest of the argv."""
    return "o-" + hashlib.sha256("\0".join(argv).encode()).hexdigest()[:12]


def argv_table(commands):
    """Every argv of the corpus, from a ``cli.COMMANDS``-shaped table."""
    table = [[], ["--help"], ["nonesuch"], *([c, "--help"] for c in commands)]
    for command, (_, _, *args) in commands.items():
        positional = tuple(names[0] for names, _ in args
                           if not names[0].startswith("-"))
        well, bad = POSITIONALS[positional]
        well = well + EDGE_RUNS.get(command, [])
        output = any("--output" in names for names, _ in args)
        options = []     # (names, values); values None for a flag
        for names, kwargs in args:
            if names[0].startswith("-") and "--output" not in names:
                flag = kwargs.get("action") == "store_true"
                options.append((names, None if flag
                                else OPTION_VALUES[names[-1]]))
        for pos in well + bad:
            base = [command, *pos]
            table += [base, base + ["--format", "json"]]
            if output:
                table.append(base + ["-o", _output_name(base)])
        for pos in well:
            for names, values in options:
                for value in values or [None]:
                    opt = [names[0]] + ([] if value is None else [value])
                    table.append([command, *pos, *opt, "--format", "json"])
            every = [command, *pos, "--format", "text"]
            for names, values in options:
                every += [names[-1]] + ([] if values is None
                                        else [values[0]])
            table.append(every + (["--output", _output_name(every)]
                                  if output else []))
    return table


# --- running ----------------------------------------------------------------

def _run(cli, argv):
    """The record of ``cli.main(argv)``, with stdout, stderr and each ``-o``
    file as bytes (None when not written); each ``-o`` file is removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # a fresh process would exit 1 here
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    outputs = {name: None for flag, name in zip(argv, argv[1:])
               if flag in ("-o", "--output")}
    for name in outputs:
        if os.path.exists(name):
            outputs[name] = Path(name).read_bytes()
            os.remove(name)
    return {"argv": argv, "exit": code, "stdout": out.getvalue().encode(),
            "stderr": err.getvalue().encode(), "outputs": outputs}


def run_table(cli, work):
    """Write the file set into ``work`` and :func:`_run` the table there."""
    os.makedirs(work, exist_ok=True)
    for name, text in FILES.items():
        Path(work, name).write_text(text, encoding="ascii")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            return [_run(cli, argv) for argv in argv_table(cli.COMMANDS)]
    finally:
        os.chdir(cwd)


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def record(out, src):
    """Run the table on the tree ``src`` in ``out/work`` and write the
    manifest ``out/manifest.json``; returns the manifest."""
    cli = load(src, "corpus_tree").cli
    runs = [dict(run, stdout=_sha(run["stdout"]), stderr=_sha(run["stderr"]),
                 outputs={k: _sha(v) for k, v in run["outputs"].items()})
            for run in run_table(cli, os.path.join(out, "work"))]
    manifest = {"schema": SCHEMA, "seed": SEED,
                "files": {name: _sha(text.encode())
                          for name, text in sorted(FILES.items())},
                "runs": runs}
    Path(out, "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def diff(old, new):
    """The runs whose record differs between two manifests, as
    ``{command: [(argv, [differing fields])]}``."""
    if old["files"] != new["files"]:
        raise SystemExit("the two manifests ran on different file sets")
    before = {tuple(r["argv"]): r for r in old["runs"]}
    after = {tuple(r["argv"]): r for r in new["runs"]}
    grouped = {}
    for argv in {**before, **after}:
        if argv not in before or argv not in after:
            fields = ["missing in " + ("new" if argv in before else "old")]
        else:
            fields = [key for key in ("exit", "stdout", "stderr", "outputs")
                      if before[argv][key] != after[argv][key]]
        if fields:
            grouped.setdefault(argv[0] if argv else "(no arguments)",
                               []).append((list(argv), fields))
    return grouped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?",
                        help="directory for the file set and manifest")
    parser.add_argument("--src", help="source directory of tubal_spectra")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two manifest files")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(path).read_text(encoding="utf-8"))
                    for path in args.diff)
        grouped = diff(old, new)
        total = len({tuple(r["argv"]) for r in old["runs"] + new["runs"]})
        for command, rows in grouped.items():
            print(f"{command}: {len(rows)} differing runs")
            for row, fields in rows:
                print(f"  {' '.join(row)}: {', '.join(fields)}")
        count = sum(len(rows) for rows in grouped.values())
        print(f"{count} of {total} runs differ")
        return 1 if count else 0
    if not (args.out and args.src):
        parser.error("a run needs OUT and --src")
    manifest = record(args.out, args.src)
    codes = Counter(run["exit"] for run in manifest["runs"])
    print(f"{len(manifest['runs'])} runs, exit codes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
