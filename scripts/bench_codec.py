"""Time the text codec and record it in ``BENCH_codec.json``.

Run once against the source tree before a change and once after it::

    python3 scripts/bench_codec.py --src OLD/src --side before
    python3 scripts/bench_codec.py --src src --side after

Each run fills its side of every entry in the output file (default
``BENCH_codec.json``) and keeps the other side.  BLAS and FFT are pinned
to one thread before numpy is imported.  Inputs are Gaussian tensors drawn
from a fixed seed per shape, at the shapes of the ``io`` (48x48x16) and
``decompose`` (24x24x16, 32x16x15) benchmark workloads.  The codec entries
write (``tensor3_text``) and parse (``tensor3_from_text``) one tensor in
memory; the CLI entries run the ``io`` workload's two commands end to end:
``info --format json`` and ``tprod`` with its result written to a file.
Each entry records the median wall time of one call in ``seconds``, the
distance between the quartiles of the timed calls in ``iqr_seconds`` and
the number of timed calls in ``reps``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from bench_certify import _time, record

SEED = 2404
SHAPES = ((48, 48, 16), (24, 24, 16), (32, 16, 15))


def _draw(shape, stream=0):
    import numpy as np
    rng = np.random.default_rng([SEED, stream, *shape])
    return rng.standard_normal(shape)


def measure(workdir):
    """``[(name, shape, timing)]`` for every entry."""
    from tubal_spectra import cli
    from tubal_spectra.tensor3 import (tensor3_from_text, tensor3_text,
                                       write_tensor3)

    entries = []
    for shape in SHAPES:
        A = _draw(shape)
        label = "x".join(map(str, shape))
        entries += [("tensor3_text", label, lambda A=A: tensor3_text(A)),
                    ("tensor3_from_text", label,
                     lambda text=tensor3_text(A): tensor3_from_text(text))]

    a, b, c = (os.path.join(workdir, f"{name}.t3") for name in "abc")
    write_tensor3(a, _draw(SHAPES[0]))
    write_tensor3(b, _draw(SHAPES[0], stream=1))

    def run_cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")

    entries += [("cli info --format json", "48x48x16",
                 lambda: run_cli("info", a, "--format", "json")),
                ("cli tprod -o", "48x48x16",
                 lambda: run_cli("tprod", a, b, "-o", c))]
    return [(name, shape, _time(fn)) for name, shape, fn in entries]


def main(argv=None):
    return record(argv, "bench_codec", SEED, measure, "BENCH_codec.json",
                  __doc__.split("\n")[0])


if __name__ == "__main__":
    sys.exit(main())
