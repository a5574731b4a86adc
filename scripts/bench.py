"""Time topics on two source trees in one process and record the comparison.

Give the topics, both trees and the output file::

    python3 scripts/bench.py decompose certify --before OLD/src --after src \
        --out BENCH_scale.json

Both trees load into this one process, as the packages ``before`` and
``after`` (:func:`load`; every import inside the package is relative).
Each entry gets one warm-up call per side, then :data:`PAIRS` pairs of
single calls, alternating which side goes first, so drift of a shared host
falls on both calls of a pair alike.  Each entry's warm-up call absorbs
one-time set-up, such as building the CLI's parser, so a CLI entry times a
warm call; the cost a one-command process pays for that set-up is measured
in fresh processes instead.  The process is pinned to one CPU,
the last one it may use, and BLAS to one thread before numpy is imported.
Inputs are Gaussian draws from a fixed seed per topic and shape; CLI
entries call each tree's ``cli.main`` with ``-o`` into that side's
temporary directory.  An entry that raises stops the run with its
traceback, chained to an error naming the side.  The topics are:

``certify`` (seed 2011)
    The dense certification path on Gram tensors ``G = B^T * B``: the
    polarization matrices, ``bcirc``, ``gram_consistency`` (timed with
    the ``tsvd`` it checks, ``gram_consistency(G, tsvd(G))``: one TSVD and
    two Gram ``ted`` calls), the dense check of a ``ted`` result
    (``oracle_ted_check``, its ``ted`` computed outside the timed call),
    and ``verify`` and ``psd --exact`` end to end, the latter also at
    ``n*p = 128``.  A computed ``B^T * B`` is not exactly T-symmetric, so
    these entries never share a Gram decomposition.  ``gram_consistency``,
    ``verify`` and ``psd --exact`` run again at 6x6x8 on ``(G + G^T) / 2``,
    the ``certify`` workload's input, which is exactly T-symmetric.
``decompose`` (seed 2403)
    ``ted`` on T-symmetric tensors ``(G + G^T) / 2`` and ``tsvd`` on
    Gaussian tensors, and both end to end on the shapes of the
    ``decompose`` benchmark workload, with text output written to a file,
    and ``ted`` once more with ``--format json``.
``codec`` (seed 2404)
    The text codec: ``tensor3_text`` and ``tensor3_from_text`` on one
    tensor in memory at the shapes of the ``io`` (48x48x16) and
    ``decompose`` (24x24x16, 32x16x15) workloads, ``tensor3_text`` on an
    f-diagonal 24x24x16 tensor (384 nonzero values of 9,216, as the ``d``
    that ``ted`` writes in ``decompose``) and on the 48x48x16 tensor with
    one value set to zero, ``transpose`` at 6x6x8, 24x24x16 and 48x48x16
    (the shapes of the ``certify``, ``decompose`` and ``io`` workloads),
    ``tensor3_text`` on 8, 48, 288, 384 and 1,024 values (a tube, a 6x8
    matrix, a 6x6x8 tensor, a 24x16 and a 64x16 matrix: both sides of the
    writer's ``_SMALL`` cutoff, at the sizes of ``psd``'s and ``ted``'s
    document arrays),
    ``tensor3_from_text`` on a 6x6x8 Gram tensor ``B^T * B`` (the shape
    of the ``certify`` workload's file), on the f-diagonal 24x24x16 text
    (mostly ``0`` tokens), on the 48x48x16 text with two spaces between
    values, and on the 24x24x16 text with CRLF line ends, which the exact
    reader reads, and the ``io`` workload's two commands end to end:
    ``info --format json`` and ``tprod`` with its result written to a
    file.

Each entry records, per side, the median single-call time in ``seconds``
and the distance between its quartiles in ``iqr_seconds``; ``ratio`` is
the median of the per-pair ``after / before`` time ratios, ``ratio_iqr``
their quartile distance, and ``after_wins`` counts the pairs in which
``after`` was faster.  Every record carries :data:`AA_BAND`: with the same
tree as both sides, on a shared 2-CPU x86_64 host, every entry's ratio
read within 0.84% of 1 over three runs of all topics (the last is
``BENCH_aa.json``), so a ratio inside that band shows nothing.  Short
entries resolve less: single-call times of ``ted`` at 16x16x16 and
24x24x16 (1-4 ms) switch between two modes within a run on this host
(for example 1.9 and 2.9 ms), and over eight runs a 0.1 ms busy-wait at
the top of ``ted`` read from 0.6 points below to 2.2 points above its
share of the ``before`` median there, against within 1.2 points at
32x32x32 and 64x64x32 (5-45 ms).  So below about 2 ms a ratio shows a
change only beyond about 2.2% from 1.  Older
``BENCH_*.json`` files, timed in a fresh process per side and round, keep
their schema (``rounds``, ``speedup``) and are not rewritten.  This tool
times layers; ``perfbench/run.py`` stays the end-to-end judge.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "tubal-spectra/1"
PAIRS = 200        # pairs of single calls per entry, after one warm-up each

AA_BAND = {"max_abs_ratio_minus_1": 0.0084,  # same tree on both sides
           "host": "shared 2-CPU x86_64 VM, one pinned CPU, one BLAS thread"}


def load(src, name):
    """``<src>/tubal_spectra`` imported as the package ``name``, with every
    submodule in its ``__all__`` loaded."""
    tree = Path(src).resolve() / "tubal_spectra"
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]  # a submodule left from another tree
    spec = importlib.util.spec_from_file_location(
        name, tree / "__init__.py", submodule_search_locations=[str(tree)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in pkg.__all__:
        importlib.import_module(f"{name}.{module}")
    return pkg


def _draw(key, shape):
    import numpy as np
    return np.random.default_rng(key).standard_normal(shape)


def _cli(pkg, *argv):
    """A call of ``pkg.cli.main(argv)`` that raises unless it exits 0."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")
    return run


def measure_certify(pkg, seed, workdir):
    t3, oracle, tsvd = pkg.tensor3, pkg.oracle, pkg.tsvd

    def gram(n, p):
        B = _draw([seed, n, p], (n, n, p))
        return pkg.tproduct.tprod(t3.transpose(B), B)

    G = {(n, p): gram(n, p) for n, p in ((6, 8), (8, 8), (8, 16))}
    S = 0.5 * (G[6, 8] + t3.transpose(G[6, 8]))  # the workload's own input
    path, big, sym = (os.path.join(workdir, f"{name}.t3")
                      for name in ("gram", "gram128", "gramsym"))
    for file, A in ((path, G[6, 8]), (big, G[8, 16]), (sym, S)):
        t3.write_tensor3(file, A)
    out = os.path.join(workdir, "out.txt")
    T = pkg.spectral.ted(G[6, 8])
    return [
        ("oracle_quadform_matrices", "6x6x8",
         lambda: oracle.oracle_quadform_matrices(G[6, 8])),
        ("oracle_quadform_matrices", "8x8x8",
         lambda: oracle.oracle_quadform_matrices(G[8, 8])),
        ("bcirc", "6x6x8", lambda: t3.bcirc(G[6, 8])),
        ("gram_consistency", "6x6x8",
         lambda: tsvd.gram_consistency(G[6, 8], tsvd.tsvd(G[6, 8]))),
        ("oracle_ted_check", "6x6x8",
         lambda: oracle.oracle_ted_check(G[6, 8], T)),
        ("cli verify", "6x6x8", _cli(pkg, "verify", path, "-o", out)),
        ("cli psd --exact", "6x6x8",
         _cli(pkg, "psd", path, "--exact", "--format", "json", "-o", out)),
        ("cli psd --exact", "8x8x16 (n*p=128)",
         _cli(pkg, "psd", big, "--exact", "--format", "json", "-o", out)),
        ("gram_consistency", "6x6x8 T-symmetric",
         lambda: tsvd.gram_consistency(S, tsvd.tsvd(S))),
        ("cli verify", "6x6x8 T-symmetric", _cli(pkg, "verify", sym, "-o",
                                                 out)),
        ("cli psd --exact", "6x6x8 T-symmetric",
         _cli(pkg, "psd", sym, "--exact", "--format", "json", "-o", out)),
    ]


def measure_decompose(pkg, seed, workdir):
    t3, ted, tsvd = pkg.tensor3, pkg.spectral.ted, pkg.tsvd.tsvd

    def draw(shape):
        return _draw([seed, *shape], shape)

    def tsym(n, p):
        G = draw((n, n, p))
        return 0.5 * (G + t3.transpose(G))

    def run_cli(command, A, *options):
        path = os.path.join(workdir, f"{command}.t3")
        t3.write_tensor3(path, A)
        return _cli(pkg, command, path, *options, "-o",
                    os.path.join(workdir, f"{command}{''.join(options)}.txt"))

    entries = [("ted", f"{n}x{n}x{p}", lambda A=tsym(n, p): ted(A))
               for n, p in ((16, 16), (24, 16), (32, 32), (64, 32))]
    entries += [("tsvd", "x".join(map(str, shape)),
                 lambda A=draw(shape): tsvd(A))
                for shape in ((32, 16, 15), (64, 32, 32))]
    return entries + [("cli ted", "24x24x16", run_cli("ted", tsym(24, 16))),
                      ("cli tsvd", "32x16x15",
                       run_cli("tsvd", draw((32, 16, 15)))),
                      ("cli ted --format json", "24x24x16",
                       run_cli("ted", tsym(24, 16), "--format", "json"))]


def measure_codec(pkg, seed, workdir):
    import numpy as np
    t3 = pkg.tensor3
    shapes = ((48, 48, 16), (24, 24, 16), (32, 16, 15))
    entries = []
    for shape in shapes:
        A = _draw([seed, 0, *shape], shape)
        label = "x".join(map(str, shape))
        entries += [("tensor3_text", label, lambda A=A: t3.tensor3_text(A)),
                    ("tensor3_from_text", label,
                     lambda text=t3.tensor3_text(A):
                     t3.tensor3_from_text(text))]

    S = _draw([seed, 2, 24, 24, 16], (24, 24, 16))
    S[~np.eye(24, dtype=bool)] = 0.0  # 384 nonzero of 9,216, as ted's d
    entries.append(("tensor3_text", "24x24x16 f-diagonal",
                    lambda: t3.tensor3_text(S)))
    Z = _draw([seed, 0, *shapes[0]], shapes[0])
    Z[1, 2, 3] = 0.0  # one zero takes the writer's sparse branch
    entries.append(("tensor3_text", "48x48x16 one zero",
                    lambda: t3.tensor3_text(Z)))
    for shape in ((6, 6, 8), (24, 24, 16), (48, 48, 16)):
        entries.append(("transpose", "x".join(map(str, shape)),
                        lambda A=_draw([seed, 5, *shape], shape):
                        t3.transpose(A)))
    for shape in ((8,), (6, 8), (6, 6, 8), (24, 16), (64, 16)):
        X = _draw([seed, 4, *shape], shape)
        entries.append(("tensor3_text", f"{X.size} values",
                        lambda X=X: t3.tensor3_text(X)))
    B = _draw([seed, 3, 6, 6, 8], (6, 6, 8))
    gram = t3.tensor3_text(pkg.tproduct.tprod(t3.transpose(B), B))
    crlf = t3.tensor3_text(_draw([seed, 0, *shapes[1]], shapes[1]))
    crlf = crlf.replace("\n", "\r\n")
    spaced = t3.tensor3_text(_draw([seed, 0, *shapes[0]], shapes[0]))
    head = spaced.index("\n\n")
    spaced = spaced[:head] + spaced[head:].replace(" ", "  ")
    sparse = t3.tensor3_text(S)
    entries += [("tensor3_from_text", "6x6x8 Gram",
                 lambda: t3.tensor3_from_text(gram)),
                ("tensor3_from_text", "24x24x16 f-diagonal",
                 lambda: t3.tensor3_from_text(sparse)),
                ("tensor3_from_text", "48x48x16 two spaces",
                 lambda: t3.tensor3_from_text(spaced)),
                ("tensor3_from_text", "24x24x16 CRLF",
                 lambda: t3.tensor3_from_text(crlf))]

    a, b, c = (os.path.join(workdir, f"{name}.t3") for name in "abc")
    t3.write_tensor3(a, _draw([seed, 0, *shapes[0]], shapes[0]))
    t3.write_tensor3(b, _draw([seed, 1, *shapes[0]], shapes[0]))
    return entries + [
        ("cli info --format json", "48x48x16",
         _cli(pkg, "info", a, "--format", "json")),
        ("cli tprod -o", "48x48x16", _cli(pkg, "tprod", a, b, "-o", c))]


TOPICS = {"certify": (2011, measure_certify),
          "decompose": (2403, measure_decompose),
          "codec": (2404, measure_codec)}


def _call(fn, side, entry):
    """The wall time of one call of ``fn``; an error names the side."""
    start = time.perf_counter()
    try:
        fn()
    except Exception as exc:
        raise RuntimeError(f"{entry} failed on the {side} tree") from exc
    return time.perf_counter() - start


def _pairs(entry, calls):
    """Per side, the times of :data:`PAIRS` alternating single calls of
    ``calls[side]``, after one warm-up call each."""
    for side, fn in calls.items():
        _call(fn, side, entry)
    times = {side: [] for side in calls}
    for i in range(PAIRS):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            times[side].append(_call(calls[side], side, entry))
    return times["before"], times["after"]


def _spread(values):
    """The median of ``values`` and the distance between their quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def record(argv=None):
    """Time the topics on both trees in alternating pairs and write the
    comparison; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("topics", nargs="+", choices=TOPICS)
    parser.add_argument("--before", required=True,
                        help="source directory of the tree before the change")
    parser.add_argument("--after", required=True,
                        help="source directory of the tree after the change")
    parser.add_argument("--out", required=True,
                        help="output file, for example BENCH_<topic>.json")
    args = parser.parse_args(argv)
    sides = {"before": load(args.before, "before"),
             "after": load(args.after, "after")}
    import numpy as np

    results = []
    for topic in args.topics:
        seed, measure = TOPICS[topic]
        with tempfile.TemporaryDirectory() as bdir, \
                tempfile.TemporaryDirectory() as adir:
            entries = zip(measure(sides["before"], seed, bdir),
                          measure(sides["after"], seed, adir), strict=True)
            for (name, shape, before), (_, _, after) in entries:
                bt, at = _pairs(f"{topic} {name} {shape}",
                                {"before": before, "after": after})
                (bs, biqr), (as_, aiqr), (ratio, riqr) = map(
                    _spread, (bt, at, [a / b for a, b in zip(at, bt)]))
                row = {"topic": topic, "name": name, "shape": shape,
                       "before": {"seconds": bs, "iqr_seconds": biqr},
                       "after": {"seconds": as_, "iqr_seconds": aiqr},
                       "ratio": ratio, "ratio_iqr": riqr,
                       "after_wins": sum(a < b for a, b in zip(at, bt))}
                results.append(row)
                print(f"{topic} {name} {shape}: {bs:.3e} -> {as_:.3e} s, "
                      f"ratio {ratio:.4f} (IQR {riqr:.4f}), after faster in "
                      f"{row['after_wins']}/{PAIRS}")
    doc = {"schema": SCHEMA, "kind": "bench",
           "seeds": {t: TOPICS[t][0] for t in args.topics},
           "env": {"python": platform.python_version(),
                   "numpy": np.__version__, "machine": platform.machine(),
                   "cpus": os.cpu_count(),
                   "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
           "pairs": PAIRS, "aa_band": AA_BAND, "results": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"  # before numpy is imported
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(record())
