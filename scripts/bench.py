"""Time topics on two source trees in one run and record the comparison.

Give the topics, both trees and the output file::

    python3 scripts/bench.py decompose certify --before OLD/src --after src \
        --out BENCH_scale.json

Each of :data:`ROUNDS` rounds runs both trees, each in a fresh
subprocess, and alternates which one goes first, so drift of a shared
host falls on both sides alike instead of reading as a speed-up.  Every
subprocess is pinned to the same CPU, the last one this process may use,
so the scheduler does not move a side between CPUs mid-round.  In a
round, every entry gets one warm-up call and then is timed for about
:data:`ROUND_S` seconds; the median of those calls is the round's sample.
BLAS is pinned to one thread before numpy is imported.  Inputs are
Gaussian draws from a fixed seed per topic and shape.  The topics are:

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

Each entry records, per side, the median of its round samples in
``seconds``, the distance between their quartiles in ``iqr_seconds`` and
the number of rounds in ``rounds``; ``after_wins`` counts the rounds in
which ``after`` was faster, and ``speedup`` is the ratio of the medians.
With the same tree as both sides, ``codec`` on a shared 2-CPU x86_64
host read ``after`` faster in 2 to 8 of 10 rounds per entry, with medians
up to 28% apart, so a win count or speedup inside that band shows nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

SCHEMA = "tubal-spectra/1"
ROUNDS = 10        # rounds of both sides, alternating which goes first
ROUND_S = 0.2      # time budget per entry and round after the warm-up call
MIN_REPS = 3       # even a slow entry gets a median in every round
MAX_REPS = 200


def _time(fn):
    """The median wall time of one call of ``fn``, after a warm-up call."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = int(max(MIN_REPS, min(MAX_REPS, ROUND_S // max(first, 1e-9))))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


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


def _side(src, topics):
    """One round of one tree: ``{"topic|name|shape": seconds}``, timed in
    this process with ``tubal_spectra`` imported from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    samples = {}
    for topic in topics:
        seed, measure = TOPICS[topic]
        with tempfile.TemporaryDirectory() as workdir:
            for name, shape, fn in measure(seed, workdir):
                samples[f"{topic}|{name}|{shape}"] = _time(fn)
    return samples


def _run_side(src, topics):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, *topics],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _summary(samples):
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"seconds": statistics.median(samples), "iqr_seconds": q3 - q1,
            "rounds": len(samples)}


def record(argv=None):
    """Time the topics on both trees, alternating per round, and write the
    comparison; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:  # one side of one round, in a fresh process
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        print(json.dumps(_side(argv[1], argv[2:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("topics", nargs="+", choices=TOPICS)
    parser.add_argument("--before", required=True,
                        help="source directory of the tree before the change")
    parser.add_argument("--after", required=True,
                        help="source directory of the tree after the change")
    parser.add_argument("--out", required=True,
                        help="output file, for example BENCH_<topic>.json")
    args = parser.parse_args(argv)
    sides = {"before": args.before, "after": args.after}
    samples = {"before": [], "after": []}
    for r in range(ROUNDS):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            samples[side].append(_run_side(sides[side], args.topics))
        print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
    import numpy as np

    results = []
    for key in samples["before"][0]:
        topic, name, shape = key.split("|")
        before = [s[key] for s in samples["before"]]
        after = [s[key] for s in samples["after"]]
        row = {"topic": topic, "name": name, "shape": shape,
               "before": _summary(before), "after": _summary(after),
               "after_wins": sum(a < b for a, b in zip(after, before))}
        row["speedup"] = row["before"]["seconds"] / row["after"]["seconds"]
        results.append(row)
        print(f"{topic} {name} {shape}: {row['before']['seconds']:.3e} -> "
              f"{row['after']['seconds']:.3e} s, after faster in "
              f"{row['after_wins']}/{ROUNDS}")
    doc = {"schema": SCHEMA, "kind": "bench",
           "seeds": {t: TOPICS[t][0] for t in args.topics},
           "env": {"python": platform.python_version(),
                   "numpy": np.__version__, "machine": platform.machine(),
                   "cpus": os.cpu_count(),
                   "threads": os.environ["OPENBLAS_NUM_THREADS"]},
           "rounds": ROUNDS, "results": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(record())
