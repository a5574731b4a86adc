"""Command-line interface.

Subcommands: ``info``, ``tprod``, ``transpose``, ``ted``, ``tsvd``,
``psd``, ``quadform``, ``verify``, ``random``, ``bench``.  Tensors, matrix
slices and tubes travel in the one text codec of :mod:`tubal_spectra.tensor3`,
which rejects malformed and non-finite input and non-finite results (exit 1);
structured results are emitted either as deterministic plain text or as JSON
documents tagged with the schema ``tubal-spectra/1``.  All floating-point
values are written with 17 significant digits, so identical inputs (and seed)
produce byte-identical output.

Exit codes: 0 success, 1 usage or input-format error, 2 numerical error
(for example a non-T-symmetric input to ``ted``), 3 verification failure.

The ``TUBAL_SPECTRA_THREADS`` environment variable caps BLAS/FFT
parallelism.  It must take effect before numpy is first imported, which is
why this module sets the standard threading variables at import time and
why the package root imports nothing heavy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace

_threads = os.environ.get("TUBAL_SPECTRA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np

from .errors import ShapeError, TubalError
from .oracle import (CheckResult, oracle_psd_exact, oracle_quadform_matrices,
                     oracle_ted_check, oracle_tprod)
from .spectral import psd_spectral, quadform, symmetrize, ted
from .tensor3 import (_fmt, bcirc, bcirc_inv, fold, is_f_diagonal,
                      is_standard_form, is_t_symmetric, read_tensor3,
                      tensor3_text, transpose, unfold, unfold_mat)
from .tproduct import tprod
from .tsvd import gram_consistency, tsvd

SCHEMA = "tubal-spectra/1"


# --- deterministic JSON ----------------------------------------------------

def _json_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite value in JSON document: {value}")
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value):
    return value is None or isinstance(
        value, (bool, np.bool_, int, np.integer, float, np.floating, str))


def _emit(value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(_json_scalar(v) for v in items) + "]"
        rows = [f"{inner}{_emit(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _json_scalar(value)


def dumps_doc(doc):
    """Serialize a document deterministically (insertion order, 17 digits)."""
    return _emit(doc, 0) + "\n"


# --- plumbing ---------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, paths, and common options."""

    command: str
    inputs: tuple
    output: str | None
    tol: float | None
    seed: int
    fmt: str
    exact: bool
    auto_symmetrize: bool
    max_size: int


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _CliError(message)


def _tube_values(a):
    return [float(v) for v in a]


def _matrix_values(X):
    return [[float(v) for v in row] for row in np.asarray(X)]


def _three_valued(value):
    return str(value).lower()


def _checks_doc(checks):
    return [c.as_dict() for c in checks]


def _checks_text(checks):
    lines = []
    for c in checks:
        if c.passed is None:
            status = "INFO"
            bound = "n/a"
        else:
            status = "PASS" if c.passed else "FAIL"
            bound = _fmt(c.threshold)
        line = (f"{status} {c.check}: residual={_fmt(c.residual)} "
                f"threshold={bound}")
        if c.note:
            line += f" ({c.note})"
        lines.append(line)
    return lines


def _deliver(cfg, content):
    if cfg.output:
        with open(cfg.output, "w", encoding="ascii") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _deliver_doc(cfg, doc, text_lines):
    if cfg.fmt == "json":
        _deliver(cfg, dumps_doc(doc))
    else:
        _deliver(cfg, "\n".join(text_lines) + "\n")


def _deliver_tensor(cfg, kind, A):
    body = tensor3_text(A)
    if cfg.fmt == "json":
        m, n, p = A.shape
        doc = {"schema": SCHEMA, "kind": kind,
               "shape": {"m": m, "n": n, "p": p}, "result_t3": body}
        _deliver(cfg, dumps_doc(doc))
    else:
        _deliver(cfg, body)


# --- command handlers -------------------------------------------------------

def _cmd_info(cfg):
    A = read_tensor3(cfg.inputs[0])
    m, n, p = A.shape
    square = m == n
    tsym = bool(is_t_symmetric(A)) if square else None
    fdiag = bool(is_f_diagonal(A))
    std = _three_valued(is_standard_form(A)) if fdiag else None
    doc = {"schema": SCHEMA, "kind": "info", "input": cfg.inputs[0],
           "shape": {"m": m, "n": n, "p": p},
           "frobenius_norm": float(np.linalg.norm(A)),
           "max_abs": float(np.max(np.abs(A))),
           "t_symmetric": tsym, "f_diagonal": fdiag, "standard_form": std}
    text = [f"shape: {m} x {n} x {p}",
            f"frobenius_norm: {_fmt(doc['frobenius_norm'])}",
            f"max_abs: {_fmt(doc['max_abs'])}",
            f"t_symmetric: {'n/a' if tsym is None else str(tsym).lower()}",
            f"f_diagonal: {str(fdiag).lower()}",
            f"standard_form: {'n/a' if std is None else std}"]
    _deliver_doc(cfg, doc, text)
    return 0


def _cmd_tprod(cfg):
    A = read_tensor3(cfg.inputs[0])
    B = read_tensor3(cfg.inputs[1])
    _deliver_tensor(cfg, "tprod", tprod(A, B))
    return 0


def _cmd_transpose(cfg):
    _deliver_tensor(cfg, "transpose", transpose(read_tensor3(cfg.inputs[0])))
    return 0


def _ted_doc(cfg, result, n, p):
    res = result.residuals
    return {
        "schema": SCHEMA, "kind": "ted", "input": cfg.inputs[0],
        "shape": {"n": n, "p": p},
        "eigentuples": _matrix_values(result.eigentuples),
        "frequency_eigenvalues": _matrix_values(result.frequency_eigenvalues),
        "ordering": {
            "first_components_sorted": bool(result.first_components_sorted),
            "elementwise_chain": _three_valued(result.elementwise_chain)},
        "residuals": {"reconstruction": res.reconstruction,
                      "orthogonality": res.orthogonality,
                      "eigenpair_max": res.eigenpair_max},
        "factors": {"u_t3": tensor3_text(result.u),
                    "d_t3": tensor3_text(result.d)}}


def _cmd_ted(cfg):
    A = read_tensor3(cfg.inputs[0])
    result = ted(A, cfg.tol)
    n, _, p = A.shape
    doc = _ted_doc(cfg, result, n, p)
    text = [f"ted: n={n} p={p}"]
    text += [f"eigentuple {j + 1}: " + " ".join(_fmt(v) for v in row)
             for j, row in enumerate(result.eigentuples)]
    ordering = doc["ordering"]
    text.append(f"first_components_sorted: "
                f"{str(ordering['first_components_sorted']).lower()}")
    text.append(f"elementwise_chain: {ordering['elementwise_chain']}")
    res = result.residuals
    text.append(f"residuals: reconstruction={_fmt(res.reconstruction)} "
                f"orthogonality={_fmt(res.orthogonality)} "
                f"eigenpair_max={_fmt(res.eigenpair_max)}")
    for name in ("u", "d"):
        text.append(f"factor {name}:")
        text.append(doc["factors"][f"{name}_t3"].rstrip("\n"))
    _deliver_doc(cfg, doc, text)
    return 0


def _cmd_tsvd(cfg):
    A = read_tensor3(cfg.inputs[0])
    result = tsvd(A)
    m, n, p = A.shape
    res = result.residuals
    doc = {
        "schema": SCHEMA, "kind": "tsvd", "input": cfg.inputs[0],
        "shape": {"m": m, "n": n, "p": p},
        "singular_tuples": _matrix_values(result.singular_tuples),
        "frequency_singular_values":
            _matrix_values(result.frequency_singular_values),
        "residuals": {"reconstruction": res.reconstruction,
                      "orthogonality_u": res.orthogonality_u,
                      "orthogonality_v": res.orthogonality_v,
                      "pair_max": res.pair_max},
        "factors": {"u_t3": tensor3_text(result.u),
                    "s_t3": tensor3_text(result.s),
                    "v_t3": tensor3_text(result.v)}}
    text = [f"tsvd: m={m} n={n} p={p}"]
    text += [f"singular_tuple {j + 1}: " + " ".join(_fmt(v) for v in row)
             for j, row in enumerate(result.singular_tuples)]
    text.append(f"residuals: reconstruction={_fmt(res.reconstruction)} "
                f"orthogonality_u={_fmt(res.orthogonality_u)} "
                f"orthogonality_v={_fmt(res.orthogonality_v)} "
                f"pair_max={_fmt(res.pair_max)}")
    for name in ("u", "s", "v"):
        text.append(f"factor {name}:")
        text.append(doc["factors"][f"{name}_t3"].rstrip("\n"))
    _deliver_doc(cfg, doc, text)
    return 0


def _cmd_psd(cfg):
    A = read_tensor3(cfg.inputs[0])
    verdict = psd_spectral(A, tol=cfg.tol,
                           auto_symmetrize=cfg.auto_symmetrize)
    doc = {
        "schema": SCHEMA, "kind": "psd", "input": cfg.inputs[0],
        "spectral": {
            "class": verdict.spectral_class,
            "smallest_eigentuple": _tube_values(verdict.smallest_eigentuple),
            "min_entry": verdict.min_entry,
            "min_frequency_eigenvalue": verdict.min_frequency_eigenvalue,
            "tol": verdict.tol},
        "exact": None, "verdicts_agree": None}
    text = [f"spectral_class: {verdict.spectral_class}",
            "smallest_eigentuple: "
            + " ".join(_fmt(v) for v in verdict.smallest_eigentuple),
            f"min_entry: {_fmt(verdict.min_entry)}",
            f"min_frequency_eigenvalue: "
            f"{_fmt(verdict.min_frequency_eigenvalue)}"]
    if cfg.exact:
        work = A
        if cfg.auto_symmetrize and not is_t_symmetric(A):
            work = 0.5 * symmetrize(A)
        exact = oracle_psd_exact(work, tol=cfg.tol, max_np=cfg.max_size)
        agree = ((verdict.spectral_class in ("PD", "PSD"))
                 == (exact.label == "ELEMENTWISE_PSD"))
        doc["exact"] = {
            "class": exact.label,
            "min_eigenvalue": exact.min_eigenvalue,
            "component": exact.component,
            "witness": None if exact.witness is None
            else _matrix_values(exact.witness),
            "witness_value": exact.witness_value}
        doc["verdicts_agree"] = bool(agree)
        text.append(f"exact_class: {exact.label}")
        text.append(f"exact_min_eigenvalue: {_fmt(exact.min_eigenvalue)}")
        text.append(f"exact_component: {exact.component}")
        if exact.witness is not None:
            text.append("witness:")
            text += [" ".join(_fmt(v) for v in row) for row in exact.witness]
        text.append(f"verdicts_agree: {str(bool(agree)).lower()}")
        if not agree:
            text.append(
                "note: the spectral criterion and the elementwise oracle "
                "disagree; the criterion is one-sided on the tube partial "
                "order")
    _deliver_doc(cfg, doc, text)
    return 0


def _cmd_quadform(cfg):
    A = read_tensor3(cfg.inputs[0])
    X = read_tensor3(cfg.inputs[1], 2)
    values = quadform(A, X)
    doc = {"schema": SCHEMA, "kind": "quadform", "input_a": cfg.inputs[0],
           "input_x": cfg.inputs[1], "values": _tube_values(values)}
    _deliver(cfg, dumps_doc(doc) if cfg.fmt == "json"
             else tensor3_text(values))
    return 0


def _cmd_verify(cfg):
    A = read_tensor3(cfg.inputs[0])
    m, n, p = A.shape
    rng = np.random.default_rng(cfg.seed)
    checks = []

    r = float(np.max(np.abs(bcirc_inv(bcirc(A), p) - A)))
    checks.append(CheckResult("bcirc_roundtrip", r, 0.0, r <= 0.0))
    r = float(np.max(np.abs(fold(unfold(A), p) - A)))
    checks.append(CheckResult("fold_roundtrip", r, 0.0, r <= 0.0))
    r = float(np.max(np.abs(transpose(transpose(A)) - A)))
    checks.append(CheckResult("transpose_involution", r, 0.0, r <= 0.0))

    B = rng.standard_normal((n, m, p))
    fast, dense = tprod(A, B), oracle_tprod(A, B)
    scale = max(1.0, float(np.linalg.norm(dense)))
    r = float(np.linalg.norm(fast - dense)) / scale
    checks.append(CheckResult("tprod_cross_path", r, 1e-12, r <= 1e-12))

    gram = gram_consistency(A)
    res = gram.tsvd.residuals
    for name, value, bound in (
            ("tsvd_reconstruction", res.reconstruction, 1e-10),
            ("tsvd_orthogonality_u", res.orthogonality_u, 1e-10),
            ("tsvd_orthogonality_v", res.orthogonality_v, 1e-10),
            ("tsvd_pair_residuals", res.pair_max, 1e-9)):
        checks.append(CheckResult(name, value, bound, value <= bound))

    checks.extend(gram.checks)

    if m == n and is_t_symmetric(A):
        checks.extend(replace(c, check=f"ted_{c.check}")
                      for c in oracle_ted_check(A, ted(A)))
        if n * p <= cfg.max_size:
            M = oracle_quadform_matrices(A)
            X = rng.standard_normal((n, p))
            x = unfold_mat(X)
            direct = quadform(A, X)
            poly = np.array([float(x @ M[k] @ x) for k in range(p)])
            r = float(np.max(np.abs(direct - poly)))
            checks.append(CheckResult("quadform_polarization", r, 1e-10,
                                      r <= 1e-10))

    passed = all(c.passed for c in checks if c.passed is not None)
    doc = {"schema": SCHEMA, "kind": "verify", "input": cfg.inputs[0],
           "seed": cfg.seed, "checks": _checks_doc(checks),
           "passed": bool(passed)}
    text = _checks_text(checks) + [f"verify: {'PASS' if passed else 'FAIL'}"]
    _deliver_doc(cfg, doc, text)
    return 0 if passed else 3


def _cmd_random(cfg, kind, m, n, p):
    if min(m, n, p) <= 0:
        raise _CliError("sizes must be positive")
    rng = np.random.default_rng(cfg.seed)
    if kind in ("tsym", "psd") and m != n:
        raise _CliError(f"kind {kind!r} requires m == n")
    if kind == "general":
        A = rng.standard_normal((m, n, p))
    elif kind == "tsym":
        G = rng.standard_normal((n, n, p))
        A = 0.5 * (G + transpose(G))
    elif kind == "fdiag":
        A = np.zeros((m, n, p))
        for j in range(min(m, n)):
            A[j, j, :] = rng.standard_normal(p)
    else:  # psd
        B = rng.standard_normal((n, n, p))
        A = tprod(transpose(B), B)
    _deliver_tensor(cfg, "random", A)
    return 0


def _cmd_bench(cfg, sizes):
    rows = []
    text = []
    for token in sizes:
        try:
            m, n, p = (int(t) for t in token.lower().split("x"))
        except ValueError as exc:
            raise _CliError(f"bad size {token!r}, expected MxNxP") from exc
        rng = np.random.default_rng(cfg.seed)
        A = rng.standard_normal((m, n, p))
        B = rng.standard_normal((n, m, p))
        fast_t = min(_timed(tprod, A, B) for _ in range(3))
        dense_t = _timed(oracle_tprod, A, B)
        fast = tprod(A, B)
        dense = oracle_tprod(A, B)
        diff = float(np.linalg.norm(fast - dense)) / max(
            1.0, float(np.linalg.norm(dense)))
        rows.append({"shape": f"{m}x{n}x{p}", "fast_seconds": fast_t,
                     "oracle_seconds": dense_t,
                     "speedup": dense_t / fast_t if fast_t > 0 else 0.0,
                     "max_rel_diff": diff})
        text.append(f"{m}x{n}x{p}: fast={fast_t:.3e}s dense={dense_t:.3e}s "
                    f"rel_diff={diff:.3e}")
    doc = {"schema": SCHEMA, "kind": "bench", "seed": cfg.seed,
           "results": rows}
    _deliver_doc(cfg, doc, text)
    return 0


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# --- parser -----------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="tubal-spectra",
                     description="Tubal tensor algebra toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, *, inputs=(), fmt=True, output=False, tol=None,
            seed=False, extra=None):
        sp = sub.add_parser(name, help=help_text)
        for arg in inputs:
            sp.add_argument(arg)
        if fmt:
            sp.add_argument("--format", choices=("text", "json"),
                            default="text", help="output format")
        if output:
            sp.add_argument("-o", "--output", default=None,
                            help="write the result to this file")
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol[0],
                            help=tol[1])
        if seed:
            sp.add_argument("--seed", type=int, default=42,
                            help="random seed (default 42)")
        if extra:
            extra(sp)
        return sp

    add("info", "summarize a tensor file", inputs=("input",))
    add("tprod", "T-product of two tensors", inputs=("a", "b"), output=True)
    add("transpose", "tensor transpose", inputs=("input",), output=True)
    add("ted", "T-eigendecomposition of a T-symmetric tensor",
        inputs=("input",), output=True,
        tol=(None, "symmetry tolerance (default: relative to max|A|)"))
    add("tsvd", "tensor singular value decomposition", inputs=("input",),
        output=True)

    def psd_extra(sp):
        sp.add_argument("--exact", action="store_true",
                        help="also run the elementwise oracle")
        sp.add_argument("--auto-symmetrize", action="store_true",
                        help="classify (A + A^T) / 2 when A is not "
                             "T-symmetric")
        sp.add_argument("--max-size", type=int, default=64,
                        help="n*p bound for the exact oracle (default 64)")

    add("psd", "classify the T-quadratic form", inputs=("input",),
        output=True, tol=(1e-10, "classification tolerance"),
        extra=psd_extra)
    add("quadform", "evaluate the T-quadratic form at a matrix slice",
        inputs=("a", "x"), output=True)

    def verify_extra(sp):
        sp.add_argument("--max-size", type=int, default=64,
                        help="n*p bound for polarization checks (default 64)")

    add("verify", "run the oracle checks on a tensor", inputs=("input",),
        output=True, seed=True, extra=verify_extra)

    def random_extra(sp):
        sp.add_argument("kind", choices=("general", "tsym", "fdiag", "psd"))
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        sp.add_argument("p", type=int)

    add("random", "generate a random tensor", output=True, seed=True,
        extra=random_extra)

    def bench_extra(sp):
        sp.add_argument("--sizes", nargs="+", default=["8x8x4"],
                        metavar="MxNxP")

    add("bench", "compare the fast and dense product routes", seed=True,
        extra=bench_extra)
    return parser


def _config_from(args):
    inputs = tuple(getattr(args, name) for name in ("input", "a", "b", "x")
                   if getattr(args, name, None) is not None)
    tol = getattr(args, "tol", None)
    if tol is not None and tol <= 0:
        raise _CliError("--tol must be positive")
    max_size = getattr(args, "max_size", 64)
    if max_size <= 0:
        raise _CliError("--max-size must be positive")
    return RunConfig(
        command=args.command, inputs=inputs,
        output=getattr(args, "output", None), tol=tol,
        seed=getattr(args, "seed", 42),
        fmt=getattr(args, "format", "text"),
        exact=getattr(args, "exact", False),
        auto_symmetrize=getattr(args, "auto_symmetrize", False),
        max_size=max_size)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _config_from(args)
        if args.command == "random":
            return _cmd_random(cfg, args.kind, args.m, args.n, args.p)
        if args.command == "bench":
            return _cmd_bench(cfg, args.sizes)
        handler = {
            "info": _cmd_info, "tprod": _cmd_tprod,
            "transpose": _cmd_transpose, "ted": _cmd_ted,
            "tsvd": _cmd_tsvd, "psd": _cmd_psd,
            "quadform": _cmd_quadform, "verify": _cmd_verify,
        }[args.command]
        return handler(cfg)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
