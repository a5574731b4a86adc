"""Tubal tensor algebra: the tubal-scalar ring, T-product calculus,
T-eigendecomposition, PSD certification, TSVD, and brute-force oracles.

The package root stays import-light on purpose: importing it loads neither
numpy nor a submodule, so a caller can still set the standard BLAS thread
variables (``OPENBLAS_NUM_THREADS`` and the like) before numpy loads.
Import the submodules directly::

    from tubal_spectra import tubal, tensor3, transform, tproduct
    from tubal_spectra import spectral, tsvd, oracle
"""

__version__ = "0.1.0"

__all__ = ["tubal", "tensor3", "transform", "tproduct", "spectral", "tsvd",
           "oracle", "cli", "errors"]
