"""Time the dense certification path and record it in ``BENCH_certify.json``.

Run once against the source tree before a change and once after it::

    python3 scripts/bench_certify.py --src OLD/src --side before
    python3 scripts/bench_certify.py --src src --side after

Each run fills its side of every entry in the output file (default
``BENCH_certify.json``) and keeps the other side, so the two runs may use
different checkouts.  BLAS and FFT are pinned to one thread before numpy
is imported.  Inputs are Gram tensors ``B^T * B`` with ``B`` drawn from a
fixed seed per shape.  Each entry records the median wall time of one call
in ``seconds``, the distance between the quartiles of the timed calls in
``iqr_seconds`` and the number of timed calls in ``reps`` (at least 3).
"""

from __future__ import annotations

import argparse
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
SEED = 2011
TARGET_S = 1.0     # time budget per entry after the warm-up call
MIN_REPS = 3       # even a slow entry gets a median with a spread
MAX_REPS = 200


def _gram(tprod, transpose, n, p):
    import numpy as np
    B = np.random.default_rng([SEED, n, p]).standard_normal((n, n, p))
    return tprod(transpose(B), B)


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


def measure(workdir):
    """``[(name, shape, timing)]`` for every entry."""
    from tubal_spectra import cli
    from tubal_spectra.oracle import (oracle_psd_exact,
                                      oracle_quadform_matrices)
    from tubal_spectra.tensor3 import bcirc, transpose, write_tensor3
    from tubal_spectra.tproduct import tprod
    from tubal_spectra.tsvd import gram_consistency

    G = {(n, p): _gram(tprod, transpose, n, p)
         for n, p in ((6, 8), (8, 8), (8, 16))}
    path = os.path.join(workdir, "gram.t3")
    write_tensor3(path, G[6, 8])
    out = os.path.join(workdir, "out.txt")

    def run_cli(*argv):
        code = cli.main([*argv, "-o", out])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")

    entries = [
        ("oracle_quadform_matrices", "6x6x8",
         lambda: oracle_quadform_matrices(G[6, 8])),
        ("oracle_quadform_matrices", "8x8x8",
         lambda: oracle_quadform_matrices(G[8, 8])),
        ("bcirc", "6x6x8", lambda: bcirc(G[6, 8])),
        ("gram_consistency", "6x6x8", lambda: gram_consistency(G[6, 8])),
        ("cli verify", "6x6x8", lambda: run_cli("verify", path)),
        ("cli psd --exact", "6x6x8",
         lambda: run_cli("psd", path, "--exact", "--format", "json")),
        ("oracle_psd_exact", "8x8x8 (n*p=64)",
         lambda: oracle_psd_exact(G[8, 8], max_np=64)),
        ("oracle_psd_exact", "8x8x16 (n*p=128)",
         lambda: oracle_psd_exact(G[8, 16], max_np=128)),
    ]
    return [(name, shape, _time(fn)) for name, shape, fn in entries]


def record(argv, kind, seed, measure, default_out, description):
    """Run ``measure(workdir)`` on one side and merge it into the output.

    Parses ``--src``, ``--side`` and ``--out`` from ``argv``, imports
    ``tubal_spectra`` from ``--src`` and fills that side of every entry in
    the output file, keeping the other side.  ``measure`` returns
    ``[(name, shape, timing)]`` with ``timing`` from :func:`_time`.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--src", required=True,
                        help="source directory that holds tubal_spectra")
    parser.add_argument("--side", required=True, choices=("before", "after"))
    parser.add_argument("--out", default=default_out)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"schema": SCHEMA, "kind": kind, "seed": seed,
               "env": {}, "results": []}
    doc["env"][args.side] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "threads": os.environ["TUBAL_SPECTRA_THREADS"]}
    rows = {(r["name"], r["shape"]): r for r in doc["results"]}
    with tempfile.TemporaryDirectory() as workdir:
        for name, shape, timing in measure(workdir):
            row = rows.setdefault((name, shape),
                                  {"name": name, "shape": shape})
            row[args.side] = timing
            print(f"{args.side} {name} {shape}: {timing['seconds']:.3e} s "
                  f"x {timing['reps']}")
    for row in rows.values():
        if "before" in row and "after" in row:
            row["speedup"] = row["before"]["seconds"] / row["after"]["seconds"]
    doc["results"] = list(rows.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv=None):
    return record(argv, "bench_certify", SEED, measure, "BENCH_certify.json",
                  __doc__.split("\n")[0])


if __name__ == "__main__":
    sys.exit(main())
