"""Fixed calibration kernel; every request latency is reported in its units.

The kernel mixes the program's primitives: ``%.17g`` float formatting,
small ``rfft``/``irfft`` calls and a small ``eigh``.  Timing it next to each
request and dividing tracks the speed the shared host offers at that moment.
A single pass lasts about 2 ms, much less than a request, so a request's
calibration is the median of passes run just before and just after it:
that follows the host's speed over the request rather than at one instant.
It imports nothing from ``tubal_spectra``, and binds the numpy functions at
import so that a tracer that wraps ``numpy.fft``/``numpy.linalg`` later does
not reach it.
"""

from __future__ import annotations

import time

import numpy as np

_rfft, _irfft, _eigh = np.fft.rfft, np.fft.irfft, np.linalg.eigh

_rng = np.random.default_rng(20210125)
_FLOATS = _rng.standard_normal(1200).tolist()
_TUBES = _rng.standard_normal((16, 16))
_SYM = _rng.standard_normal((12, 12))
_SYM = _SYM + _SYM.T
_ROW = " ".join(["%.17g"] * 24)


def kernel():
    """One pass of the fixed mix; returns a value so nothing is skipped."""
    text = "\n".join(_ROW % tuple(_FLOATS[i:i + 24])
                     for i in range(0, len(_FLOATS), 24))
    acc = float(len(text))
    for _ in range(40):
        acc += float(_irfft(_rfft(_TUBES, axis=1), n=16, axis=1)[0, 0])
    for _ in range(20):
        acc += float(_eigh(_SYM)[0][0])
    return acc


def times(repeats):
    """Wall times of ``repeats`` kernel passes, in seconds."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
