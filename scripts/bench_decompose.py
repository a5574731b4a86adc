"""Time ``ted`` and ``tsvd`` and record them in ``BENCH_decompose.json``.

Run once against the source tree before a change and once after it::

    python3 scripts/bench_decompose.py --src OLD/src --side before
    python3 scripts/bench_decompose.py --src src --side after

Each run fills its side of every entry in the output file (default
``BENCH_decompose.json``) and keeps the other side.  BLAS and FFT are
pinned to one thread before numpy is imported.  ``ted`` inputs are
T-symmetric tensors ``(G + G^T) / 2`` and ``tsvd`` inputs are Gaussian
tensors, each drawn from a fixed seed per shape.  The CLI entries run
``ted``/``tsvd`` end to end on the shapes of the ``decompose`` benchmark
workload, with text output written to a file.  Each entry records the
timing of :func:`bench_certify._time`.
"""

from __future__ import annotations

import os
import sys

from bench_certify import _time, record

SEED = 2403


def _draw(shape):
    import numpy as np
    return np.random.default_rng([SEED, *shape]).standard_normal(shape)


def measure(workdir):
    """``[(name, shape, timing)]`` for every entry."""
    from tubal_spectra import cli
    from tubal_spectra.spectral import ted
    from tubal_spectra.tensor3 import transpose, write_tensor3
    from tubal_spectra.tsvd import tsvd

    def tsym(n, p):
        G = _draw((n, n, p))
        return 0.5 * (G + transpose(G))

    def run_cli(command, A):
        path = os.path.join(workdir, f"{command}.t3")
        write_tensor3(path, A)
        out = os.path.join(workdir, f"{command}.txt")

        def run():
            if cli.main([command, path, "-o", out]) != 0:
                raise RuntimeError(f"{command} failed")
        return run

    entries = [("ted", f"{n}x{n}x{p}", lambda A=tsym(n, p): ted(A))
               for n, p in ((16, 16), (32, 32), (64, 32))]
    entries += [("tsvd", "x".join(map(str, shape)),
                 lambda A=_draw(shape): tsvd(A))
                for shape in ((32, 16, 15), (64, 32, 32))]
    entries += [("cli ted", "24x24x16", run_cli("ted", tsym(24, 16))),
                ("cli tsvd", "32x16x15",
                 run_cli("tsvd", _draw((32, 16, 15))))]
    return [(name, shape, _time(fn)) for name, shape, fn in entries]


def main(argv=None):
    return record(argv, "bench_decompose", SEED, measure,
                  "BENCH_decompose.json", __doc__.split("\n")[0])


if __name__ == "__main__":
    sys.exit(main())
