"""Time one topic and record it in ``BENCH_<topic>.json``.

Run once against the source tree before a change and once after it::

    python3 scripts/bench.py TOPIC --src OLD/src --side before
    python3 scripts/bench.py TOPIC --src src --side after

Each run fills its side of every entry in the output file (default
``BENCH_<topic>.json``) and keeps the other side, so the two runs may use
different checkouts.  BLAS and FFT are pinned to one thread before numpy
is imported.  Inputs are Gaussian draws from a fixed seed per topic and
shape.  The topics are:

``certify`` (seed 2011)
    The dense certification path on Gram tensors ``B^T * B``: the
    polarization matrices, ``bcirc``, ``gram_consistency`` (timed with
    the ``tsvd`` it checks, ``gram_consistency(G, tsvd(G))``: one TSVD and
    two Gram ``ted`` calls), the dense exact PSD oracle (the tests'
    reference), the dense check of a ``ted`` result (``oracle_ted_check``,
    its ``ted`` computed outside the timed call), and ``verify`` and
    ``psd --exact`` end to end, the latter also at ``n*p = 128``.
``decompose`` (seed 2403)
    ``ted`` on T-symmetric tensors ``(G + G^T) / 2`` and ``tsvd`` on
    Gaussian tensors, and both end to end on the shapes of the
    ``decompose`` benchmark workload, with text output written to a file.
``codec`` (seed 2404)
    The text codec: ``tensor3_text`` and ``tensor3_from_text`` on one
    tensor in memory at the shapes of the ``io`` (48x48x16) and
    ``decompose`` (24x24x16, 32x16x15) workloads, and the ``io``
    workload's two commands end to end: ``info --format json`` and
    ``tprod`` with its result written to a file.

Each entry records the median wall time of one call in ``seconds``, the
distance between the quartiles of the timed calls in ``iqr_seconds`` and
the number of timed calls in ``reps`` (at least 3).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

for _var in ("TUBAL_SPECTRA_THREADS", "OMP_NUM_THREADS",
             "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

SCHEMA = "tubal-spectra/1"
TARGET_S = 1.0     # time budget per entry after the warm-up call
MIN_REPS = 3       # even a slow entry gets a median with a spread
MAX_REPS = 200


def _time(fn):
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = int(max(MIN_REPS, min(MAX_REPS, TARGET_S // max(first, 1e-9))))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"seconds": statistics.median(times), "iqr_seconds": q3 - q1,
            "reps": reps}


def _draw(key, shape):
    import numpy as np
    return np.random.default_rng(key).standard_normal(shape)


def _cli(*argv):
    """A call of ``cli.main(argv)`` that raises unless it exits 0."""
    from tubal_spectra import cli

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")
    return run


def measure_certify(seed, workdir):
    from tubal_spectra.oracle import (oracle_psd_exact,
                                      oracle_quadform_matrices,
                                      oracle_ted_check)
    from tubal_spectra.spectral import ted
    from tubal_spectra.tensor3 import bcirc, transpose, write_tensor3
    from tubal_spectra.tproduct import tprod
    from tubal_spectra.tsvd import gram_consistency, tsvd

    def gram(n, p):
        B = _draw([seed, n, p], (n, n, p))
        return tprod(transpose(B), B)

    G = {(n, p): gram(n, p) for n, p in ((6, 8), (8, 8), (8, 16))}
    path = os.path.join(workdir, "gram.t3")
    write_tensor3(path, G[6, 8])
    big = os.path.join(workdir, "gram128.t3")
    write_tensor3(big, G[8, 16])
    out = os.path.join(workdir, "out.txt")
    return [
        ("oracle_quadform_matrices", "6x6x8",
         lambda: oracle_quadform_matrices(G[6, 8])),
        ("oracle_quadform_matrices", "8x8x8",
         lambda: oracle_quadform_matrices(G[8, 8])),
        ("bcirc", "6x6x8", lambda: bcirc(G[6, 8])),
        ("gram_consistency", "6x6x8",
         lambda: gram_consistency(G[6, 8], tsvd(G[6, 8]))),
        ("oracle_ted_check", "6x6x8",
         lambda T=ted(G[6, 8]): oracle_ted_check(G[6, 8], T)),
        ("cli verify", "6x6x8", _cli("verify", path, "-o", out)),
        ("cli psd --exact", "6x6x8",
         _cli("psd", path, "--exact", "--format", "json", "-o", out)),
        ("cli psd --exact", "8x8x16 (n*p=128)",
         _cli("psd", big, "--exact", "--format", "json", "-o", out)),
        ("oracle_psd_exact", "8x8x8 (n*p=64)",
         lambda: oracle_psd_exact(G[8, 8])),
        ("oracle_psd_exact", "8x8x16 (n*p=128)",
         lambda: oracle_psd_exact(G[8, 16])),
    ]


def measure_decompose(seed, workdir):
    from tubal_spectra.spectral import ted
    from tubal_spectra.tensor3 import transpose, write_tensor3
    from tubal_spectra.tsvd import tsvd

    def draw(shape):
        return _draw([seed, *shape], shape)

    def tsym(n, p):
        G = draw((n, n, p))
        return 0.5 * (G + transpose(G))

    def run_cli(command, A):
        path = os.path.join(workdir, f"{command}.t3")
        write_tensor3(path, A)
        return _cli(command, path, "-o",
                    os.path.join(workdir, f"{command}.txt"))

    entries = [("ted", f"{n}x{n}x{p}", lambda A=tsym(n, p): ted(A))
               for n, p in ((16, 16), (32, 32), (64, 32))]
    entries += [("tsvd", "x".join(map(str, shape)),
                 lambda A=draw(shape): tsvd(A))
                for shape in ((32, 16, 15), (64, 32, 32))]
    return entries + [("cli ted", "24x24x16", run_cli("ted", tsym(24, 16))),
                      ("cli tsvd", "32x16x15",
                       run_cli("tsvd", draw((32, 16, 15))))]


def measure_codec(seed, workdir):
    from tubal_spectra.tensor3 import (tensor3_from_text, tensor3_text,
                                       write_tensor3)

    shapes = ((48, 48, 16), (24, 24, 16), (32, 16, 15))
    entries = []
    for shape in shapes:
        A = _draw([seed, 0, *shape], shape)
        label = "x".join(map(str, shape))
        entries += [("tensor3_text", label, lambda A=A: tensor3_text(A)),
                    ("tensor3_from_text", label,
                     lambda text=tensor3_text(A): tensor3_from_text(text))]

    a, b, c = (os.path.join(workdir, f"{name}.t3") for name in "abc")
    write_tensor3(a, _draw([seed, 0, *shapes[0]], shapes[0]))
    write_tensor3(b, _draw([seed, 1, *shapes[0]], shapes[0]))
    return entries + [
        ("cli info --format json", "48x48x16",
         _cli("info", a, "--format", "json")),
        ("cli tprod -o", "48x48x16", _cli("tprod", a, b, "-o", c))]


TOPICS = {"certify": (2011, measure_certify),
          "decompose": (2403, measure_decompose),
          "codec": (2404, measure_codec)}


def record(argv=None):
    """Time one topic on one side and merge it into the output file.

    Parses the topic, ``--src``, ``--side`` and ``--out`` from ``argv``,
    imports ``tubal_spectra`` from ``--src`` and fills that side of every
    entry in the output file, keeping the other side.
    """
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("topic", choices=TOPICS)
    parser.add_argument("--src", required=True,
                        help="source directory that holds tubal_spectra")
    parser.add_argument("--side", required=True, choices=("before", "after"))
    parser.add_argument("--out", default=None,
                        help="output file (default BENCH_<topic>.json)")
    args = parser.parse_args(argv)
    out = args.out or f"BENCH_{args.topic}.json"
    seed, measure = TOPICS[args.topic]
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"schema": SCHEMA, "kind": f"bench_{args.topic}", "seed": seed,
               "env": {}, "results": []}
    doc["env"][args.side] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "threads": os.environ["TUBAL_SPECTRA_THREADS"]}
    rows = {(r["name"], r["shape"]): r for r in doc["results"]}
    with tempfile.TemporaryDirectory() as workdir:
        for name, shape, fn in measure(seed, workdir):
            timing = _time(fn)
            row = rows.setdefault((name, shape),
                                  {"name": name, "shape": shape})
            row[args.side] = timing
            print(f"{args.side} {name} {shape}: {timing['seconds']:.3e} s "
                  f"x {timing['reps']}")
    for row in rows.values():
        if "before" in row and "after" in row:
            row["speedup"] = row["before"]["seconds"] / row["after"]["seconds"]
    doc["results"] = list(rows.values())
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(record())
