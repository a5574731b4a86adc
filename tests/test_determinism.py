"""Thread-count determinism of the CLI at benchmark sizes.

The batched frequency core hands whole stacks of slices to LAPACK and
BLAS, whose threaded paths could reorder floating-point work.  ``ted`` on a
24x24x16 T-symmetric tensor and ``tsvd`` on a tall 32x16x15 tensor must
print byte-identical JSON with 1, 4 and again 1 threads, set through the
standard ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``.  So must the
canonical witness of ``psd --exact`` on a 6x6x8 Gram tensor.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import random_tensor, random_tsym
from tubal_spectra.tensor3 import transpose, write_tensor3
from tubal_spectra.tproduct import tprod


@pytest.mark.parametrize("command,make", [
    ("ted", lambda rng: random_tsym(rng, 24, 16)),
    ("tsvd", lambda rng: random_tensor(rng, 32, 16, 15)),
])
def test_json_is_identical_across_thread_counts(tmp_path, command, make):
    path = tmp_path / "input.t3"
    write_tensor3(str(path), make(np.random.default_rng(2403)))
    outputs = []
    for threads in ("1", "4", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tubal_spectra", command, str(path),
             "--format", "json"],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_psd_witness_is_identical_across_thread_counts(tmp_path):
    B = random_tensor(np.random.default_rng(2011), 6, 6, 8)
    path = tmp_path / "gram.t3"
    write_tensor3(str(path), tprod(transpose(B), B))
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tubal_spectra", "psd", str(path),
             "--exact", "--format", "json"],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert b'"class": "NOT_ELEMENTWISE_PSD"' in outputs[0]
    assert outputs[0] == outputs[1]
