"""Layer trace installed from outside the package.

Each traced function is replaced, at every module attribute that binds it,
by a wrapper; modules import each other's functions by name, so wrapping
only the defining module would miss calls such as ``spectral.tprod``.  The
``kernel`` layer wraps the numpy entry points the package calls through
module attributes.  ``numpy.matmul`` is wrapped, but the ``@`` operator does
not go through it and stays inside its caller's self time.

Two wrapper sets exist.  The timing set records spans (name, start, end,
parent, request) in flat arrays kept in memory and saved when the run ends.
The counting set, used in a separate untimed pass, hashes inputs, sizes
kernel arrays and keeps serialized tensors, so that this work never lands
in a timed span.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "cli": ["main", "dumps_doc"],
    "tensor3": ["read_tensor3", "tensor3_text", "bcirc", "bcirc_inv",
                "transpose", "shift_columns", "is_t_symmetric"],
    "transform": ["to_freq", "from_freq", "freq_from_half",
                  "hermitize_check"],
    "tproduct": ["tprod", "tprod_mat"],
    "spectral": ["ted", "verify_eigenpair", "psd_spectral", "quadform"],
    "tsvd": ["tsvd", "gram_consistency"],
    "oracle": ["oracle_tprod", "oracle_quadform_matrices",
               "oracle_psd_exact", "oracle_ted_check"],
    "tubal": ["tube_action", "tube_transpose", "tube_le", "tube_mul"],
}
KERNEL = {"rfft": ("numpy.fft", "rfft"), "irfft": ("numpy.fft", "irfft"),
          "eigh": ("numpy.linalg", "eigh"), "svd": ("numpy.linalg", "svd"),
          "matmul": ("numpy", "matmul")}
LAYER_NAMES = list(LAYERS) + ["kernel"]
FUNCTIONS = ([f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
             + [f"kernel.{op}" for op in KERNEL])
# Functions whose distinct inputs are counted, and the serializer whose
# results are looked for in the output files.
HASHED = ("spectral.ted", "tsvd.tsvd", "kernel.rfft")
SERIALIZER = "tensor3.tensor3_text"


def _bindings():
    """``[(function name, original, [(namespace, attribute), ...])]``."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("tubal_spectra.") and m is not None]
    found = []
    for name in FUNCTIONS:
        layer, attr = name.split(".")
        if layer == "kernel":
            owner = importlib.import_module(KERNEL[attr][0])
            attr = KERNEL[attr][1]
        else:
            owner = importlib.import_module(f"tubal_spectra.{layer}")
        orig = getattr(owner, attr)
        sites = [(owner, attr)]
        for mod in modules:
            for key, value in vars(mod).items():
                if value is orig and (mod, key) != (owner, attr):
                    sites.append((mod, key))
        found.append((name, orig, sites))
    return found


def _key(array_like):
    """Content hash of an input array (shape, dtype and bytes)."""
    a = np.ascontiguousarray(array_like)
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    return h.digest()


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """Installs and removes the wrappers and holds what they record."""

    def __init__(self):
        self._bound = _bindings()
        n = len(FUNCTIONS)
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.requests = []          # (request id, first span, end span)
        self.errors = [0] * n
        self._stack = [-1]
        self._timing = [self._timed(i, orig)
                        for i, (_, orig, _) in enumerate(self._bound)]

    # -- installation ---------------------------------------------------------

    def _install(self, wrappers):
        for (_, _, sites), wrapper in zip(self._bound, wrappers):
            for owner, attr in sites:
                setattr(owner, attr, wrapper)

    def uninstall(self):
        self._install([orig for _, orig, _ in self._bound])

    # -- timed spans ----------------------------------------------------------

    def _timed(self, fid, fn):
        fids, parents, starts, ends = (self.fid, self.parent, self.start,
                                       self.end)
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return traced

    def begin(self, request_id):
        self._install(self._timing)
        self._first = len(self.fid)
        self._request_id = request_id

    def finish(self):
        self.uninstall()
        self.requests.append((self._request_id, self._first, len(self.fid)))

    def save(self, path):
        """Write every span to ``path`` (npz); ``parent`` indexes the rows."""
        request = np.full(len(self.fid), -1, dtype=np.int64)
        for rid, lo, hi in self.requests:
            request[lo:hi] = rid
        np.savez_compressed(
            path, name=np.array(FUNCTIONS)[np.array(self.fid, np.int64)],
            parent=np.array(self.parent, np.int64), start=np.array(self.start),
            end=np.array(self.end), request=request)

    def summary(self):
        """Per-request calls and self time of every traced function."""
        nf, nr = len(FUNCTIONS), len(self.requests)
        fid = np.array(self.fid, np.int64)
        parent = np.array(self.parent, np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        row = np.empty(len(dur), dtype=np.int64)
        for r, (_, lo, hi) in enumerate(self.requests):
            row[lo:hi] = r
        cell = row * nf + fid
        calls = np.bincount(cell, minlength=nr * nf).reshape(nr, nf)
        self_s = np.bincount(cell, weights=self_t,
                             minlength=nr * nf).reshape(nr, nf)
        return {"requests": nr,
                "calls": np.median(calls, axis=0).tolist(),
                "calls_exact": bool(np.all(calls == calls[0])),
                "self_ms": (np.median(self_s, axis=0) * 1e3).tolist(),
                "self_total_s": self_s.sum(axis=0).tolist(),
                "errors": list(self.errors)}

    # -- counting pass --------------------------------------------------------

    def counting(self):
        """Install counting wrappers; returns the record they fill."""
        record = {"calls": [0] * len(FUNCTIONS), "keys": {},
                  "bytes": {}, "texts": []}
        wrappers = []
        for fid, (name, orig, _) in enumerate(self._bound):
            wrappers.append(self._counted(fid, name, orig, record))
        self._install(wrappers)
        return record

    @staticmethod
    def _counted(fid, name, fn, record):
        hashed = name in HASHED
        kernel = name.startswith("kernel.")
        serializer = name == SERIALIZER

        def counted(*args, **kwargs):
            record["calls"][fid] += 1
            if hashed:
                record["keys"].setdefault(name, set()).add(_key(args[0]))
            out = fn(*args, **kwargs)
            if kernel:
                record["bytes"][name] = (record["bytes"].get(name, 0)
                                         + _nbytes(args) + _nbytes(out))
            if serializer:
                record["texts"].append(out)
            return out
        return counted


def counting_report(record, outputs):
    """Ratios and computed traffic from one counted request.

    ``outputs`` is the text of every file the request wrote.  A serialized
    tensor is useful when its text appears in some output file, verbatim or
    as a JSON string.
    """
    calls = dict(zip(FUNCTIONS, record["calls"]))
    distinct = {name: (len(record["keys"].get(name, ())) / calls[name]
                       if calls[name] else 1.0) for name in HASHED}
    texts = set(record["texts"])
    useful = sum(1 for t in texts
                 if any(t.rstrip("\n") in out or json.dumps(t)[1:-1] in out
                        for out in outputs))
    n = calls[SERIALIZER]
    return {"calls": calls, "distinct_ratio": distinct,
            "useful_ratio": useful / n if n else 1.0,
            "mbytes": {name: record["bytes"].get(name, 0) / 1e6
                       for name in FUNCTIONS if name.startswith("kernel.")}}


# Function groups named in the benchmark's layer-to-workload map; their
# shares are printed so a reader can see which one dominates a workload.
GROUPS = {
    "tproduct+kernel.fft": ["tproduct.", "kernel.rfft", "kernel.irfft"],
    "tensor3.bcirc+oracle+kernel.eigh": ["tensor3.bcirc", "oracle.",
                                         "kernel.eigh"],
    "tensor3 codec": ["tensor3.read_tensor3", "tensor3.tensor3_text"],
}
# Self times reported in the result line: the functions every workload
# calls, so that no reported time is a constant zero.
SELF_MS_REPORTED = ["cli.main", "tensor3.read_tensor3", "tensor3.transpose",
                    "tensor3.is_t_symmetric", "tproduct.tprod", "kernel.rfft",
                    "kernel.irfft", "kernel.matmul"]


def _members(prefixes):
    return [f for f in FUNCTIONS
            if any(f == p or (p.endswith(".") and f.startswith(p))
                   for p in prefixes)]


def layer_metrics(summary, report, overhead):
    """Per-layer metrics ``{name: {"value", "unit"}}`` and report lines."""
    calls = dict(zip(FUNCTIONS, summary["calls"]))
    self_ms = dict(zip(FUNCTIONS, summary["self_ms"]))
    total = dict(zip(FUNCTIONS, summary["self_total_s"]))
    errors = dict(zip(FUNCTIONS, summary["errors"]))
    grand = sum(total.values()) or 1.0
    share = {f: total[f] / grand for f in FUNCTIONS}

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    lines = [f"{'function':36} {'calls':>7} {'self_ms':>10} {'share':>7}"]
    for f in FUNCTIONS:
        lines.append(f"{f:36} {calls[f]:7g} {self_ms[f]:10.4f} "
                     f"{share[f]:7.2%}")
        put(f"{f}.calls", calls[f], "count")
    for f in SELF_MS_REPORTED:
        put(f"{f}.self_ms", self_ms[f], "ms")
    for layer in LAYER_NAMES:
        members = _members([layer + "."])
        put(f"{layer}.self_share", sum(share[f] for f in members), "1")
        put(f"{layer}.errors", sum(errors[f] for f in members), "count")
        lines.append(f"layer {layer:10} self_share "
                     f"{metrics[layer + '.self_share']['value']:7.2%} "
                     f"errors {metrics[layer + '.errors']['value']}")
    for f, mb in report["mbytes"].items():
        put(f"{f}.mbytes", mb, "MB")
        lines.append(f"{f}.mbytes {mb:.6g} MB (computed from array sizes)")
    for f, ratio in report["distinct_ratio"].items():
        put(f"{f}.distinct_ratio", ratio, "1")
        lines.append(f"{f}.distinct_ratio {ratio:.4g} "
                     f"({report['calls'][f]} calls)")
    put(f"{SERIALIZER}.useful_ratio", report["useful_ratio"], "1")
    lines.append(f"{SERIALIZER}.useful_ratio {report['useful_ratio']:.4g} "
                 f"({report['calls'][SERIALIZER]} calls)")
    put("trace.overhead_ratio", overhead, "1")
    lines.append(f"trace.overhead_ratio {overhead:.4g}")
    groups = {g: sum(share[f] for f in _members(p)) for g, p in GROUPS.items()}
    lines.append("largest self share: " + ", ".join(
        f"{g} {s:.1%}" for g, s in sorted(groups.items(),
                                          key=lambda kv: -kv[1])))
    mismatched = [f for f in FUNCTIONS if report["calls"][f] != calls[f]]
    if mismatched:
        lines.append("counting pass call counts differ for "
                     + ", ".join(mismatched))
    return metrics, lines
