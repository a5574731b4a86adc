"""Command-line interface.

Subcommands: ``info``, ``tprod``, ``transpose``, ``ted``, ``tsvd``, ``psd``,
``quadform``, ``verify``, ``random``.  Each builds one result document
tagged with the schema ``tubal-spectra/1`` (``verify`` lists
:func:`tubal_spectra.tsvd.verify_checks`): ``--format json`` writes it as
deterministic JSON, the text format is its line rendering (:func:`render`).
Both write every number with 17 significant digits, an array's rows through
:func:`tubal_spectra.tensor3.text_rows` and a lone scalar through
:func:`_scalar`, so identical inputs (and seed) give byte-identical output.
Malformed or non-finite input (in the one text codec of
:mod:`tubal_spectra.tensor3`) and a non-finite number anywhere in a
document are errors in both formats (exit 1).

Exit codes: 0 success, 1 usage or input-format error (or an array too
large for memory), 2 numerical error (non-T-symmetric input to ``ted``,
LAPACK failure), 3 verification failure.

Every command is one entry of :data:`COMMANDS`, and one parser, built
on first use, parses every call's whole ``argv`` (:func:`build_parser`).
:func:`main` is the one entry: ``python -m tubal_spectra``
(:mod:`tubal_spectra.__main__`) and the ``tubal-spectra`` console script
call it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import ShapeError, TubalError
from .spectral import (ELEMENTWISE_PSD, SPECTRAL_PD, SPECTRAL_PSD,
                       _symmetric_part, psd_spectral, quadform, ted)
from .tensor3 import (_fmt, is_f_diagonal, is_standard_form, is_t_symmetric,
                      read_tensor3, tensor3_text, text_rows, transpose,
                      unit_scaled)
from .tproduct import tprod
from .tsvd import tsvd, verify_checks

SCHEMA = "tubal-spectra/1"


# --- numbers: arrays by their text rows, scalars one at a time -------------

def _scalar(value):
    """A scalar as JSON: ``null``, a quoted string, a lower-case bool, an
    integer or a float with 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check_finite(value):
    """Reject a non-finite number anywhere in ``value``, as JSON does: one
    ``np.isfinite`` per array, ``math.isfinite`` per lone scalar."""
    if isinstance(value, np.ndarray):
        value = value[~np.isfinite(value)][:1]  # its first non-finite value
    if isinstance(value, (dict, list, tuple, np.ndarray)):
        for item in value.values() if isinstance(value, dict) else value:
            _check_finite(item)
    elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"non-finite value in output: {float(value)}")


# --- deterministic JSON ----------------------------------------------------

def _emit(value, indent):
    brackets = "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        rows = [f"{json.dumps(str(k))}: {_emit(v, indent + 1)}"
                for k, v in value.items()]
    elif isinstance(value, np.ndarray):  # a formatted number has no space
        rows = [f"[{row.replace(' ', ', ')}]" for row in text_rows(value)]
        if value.ndim == 1:
            return rows[0]
    elif isinstance(value, (list, tuple)):
        if not any(isinstance(v, (dict, list, tuple, np.ndarray))
                   for v in value):
            return "[" + ", ".join(map(_scalar, value)) + "]"
        rows = [_emit(v, indent + 1) for v in value]
    else:
        return _scalar(value)
    if not rows:
        return brackets
    pad = "\n" + "  " * indent
    return (brackets[0] + pad + "  " + ("," + pad + "  ").join(rows) + pad
            + brackets[1])


def dumps_doc(doc):
    """Serialize a document deterministically (insertion order, 17 digits).

    Negative zero is written ``-0``, which is valid JSON; Python's
    ``json.loads`` reads it as the integer ``0`` unless it is given
    ``parse_int=float``.  With that, :func:`render` of the parsed document
    is the text output, and ``dumps_doc`` of it is this output again.
    """
    _check_finite(doc)
    return _emit(doc, 0) + "\n"


# --- text rendering ---------------------------------------------------------

def _text(value):
    """A document value as text: ``n/a`` for None, an array (or a list read
    back from JSON) as its values space-separated, a mapping as
    ``key=value`` pairs and a number by :func:`_scalar`."""
    if value is None:
        return "n/a"
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return " ".join(f"{k}={_text(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(text_rows(value))
    return _scalar(value)


def _fields(doc, *keys, prefix=""):
    return [f"{prefix}{key}: {_text(doc[key])}" for key in keys]


def _info_lines(doc):
    shape = " x ".join(_text(v) for v in doc["shape"].values())
    return [f"shape: {shape}"] + _fields(
        doc, "frobenius_norm", "max_abs", "t_symmetric", "f_diagonal",
        "standard_form")


def _decomposition_lines(doc):
    tuples = "eigentuples" if doc["kind"] == "ted" else "singular_tuples"
    lines = [f"{doc['kind']}: {_text(doc['shape'])}"]
    lines += [f"{tuples[:-1]} {j}: {row}"
              for j, row in enumerate(text_rows(doc[tuples]), 1)]
    ordering = doc.get("ordering", {})
    lines += _fields(ordering, *ordering)
    lines.append(f"residuals: {_text(doc['residuals'])}")
    for key, body in doc["factors"].items():
        lines += [f"factor {key.removesuffix('_t3')}:", body.rstrip("\n")]
    return lines


def _psd_lines(doc):
    spectral, exact = doc["spectral"], doc["exact"]
    lines = [f"spectral_class: {spectral['class']}"] + _fields(
        spectral, "smallest_eigentuple", "min_entry",
        "min_frequency_eigenvalue")
    if exact is not None:
        lines += _fields(exact, "class", "min_eigenvalue", "component",
                         prefix="exact_")
        if exact["witness"] is not None:
            lines += ["witness:"] + text_rows(exact["witness"])
        lines += _fields(doc, "verdicts_agree")
        if not doc["verdicts_agree"]:
            lines.append(
                "note: the spectral criterion and the elementwise oracle "
                "disagree; the criterion is one-sided on the tube partial "
                "order")
    return lines


def _verify_lines(doc):
    lines = []
    for c in doc["checks"]:
        status = ("INFO" if c["pass"] is None
                  else "PASS" if c["pass"] else "FAIL")
        note = f" ({c['note']})" if c["note"] else ""
        lines.append(f"{status} {c['check']}: residual={_text(c['residual'])}"
                     f" threshold={_text(c['threshold'])}{note}")
    return lines + [f"verify: {'PASS' if doc['passed'] else 'FAIL'}"]


_LAYOUT = {"info": _info_lines, "ted": _decomposition_lines,
           "tsvd": _decomposition_lines, "psd": _psd_lines,
           "verify": _verify_lines}


def render(doc):
    """The text form of a document.

    A tensor result renders as its ``result_t3`` body and a quadform result
    as its TUBE body; every other kind as the lines of its layout.  Like
    :func:`dumps_doc`, it rejects a non-finite number anywhere in ``doc``.
    """
    _check_finite(doc)
    if "result_t3" in doc:
        return doc["result_t3"]
    if doc["kind"] == "quadform":
        return tensor3_text(np.asarray(doc["values"], dtype=np.float64))
    return "\n".join(_LAYOUT[doc["kind"]](doc)) + "\n"


# --- plumbing ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ValueError(message)


def _shape(A):
    return dict(zip("mnp", A.shape))


def _tensor_doc(A):
    return {"shape": _shape(A), "result_t3": tensor3_text(A)}


def _deliver(args, doc):
    content = dumps_doc(doc) if args.format == "json" else render(doc)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


# --- command handlers: each builds its document -----------------------------

def _cmd_info(args):
    A = read_tensor3(args.input)
    m, n, _ = A.shape
    S, e = unit_scaled(A)  # the norm neither overflows nor underflows
    fdiag = bool(is_f_diagonal(A))
    return {"input": args.input, "shape": _shape(A),
            "frobenius_norm": float(np.ldexp(np.linalg.norm(S), e)),
            "max_abs": float(np.max(np.abs(A))),
            "t_symmetric": bool(is_t_symmetric(A)) if m == n else None,
            "f_diagonal": fdiag,
            "standard_form":
                str(is_standard_form(A)).lower() if fdiag else None}


def _cmd_tprod(args):
    return _tensor_doc(tprod(read_tensor3(args.a), read_tensor3(args.b)))


def _cmd_transpose(args):
    return _tensor_doc(transpose(read_tensor3(args.input)))


def _cmd_ted(args):
    A = read_tensor3(args.input)
    result = ted(A, args.tol)
    n, _, p = A.shape
    return {
        "input": args.input, "shape": {"n": n, "p": p},
        "eigentuples": result.eigentuples,
        "frequency_eigenvalues": result.frequency_eigenvalues,
        "ordering": {
            # First components are means of descending bins: sorted always.
            "first_components_sorted": True,
            "elementwise_chain": str(result.elementwise_chain).lower()},
        "residuals": {"reconstruction": result.reconstruction,
                      "orthogonality": result.orthogonality,
                      "eigenpair_max": result.eigenpair_max},
        "factors": {"u_t3": tensor3_text(result.u),
                    "d_t3": tensor3_text(result.d)}}


def _cmd_tsvd(args):
    A = read_tensor3(args.input)
    result = tsvd(A)
    return {
        "input": args.input, "shape": _shape(A),
        "singular_tuples": result.singular_tuples,
        "frequency_singular_values": result.frequency_singular_values,
        "residuals": {"reconstruction": result.reconstruction,
                      "orthogonality_u": result.orthogonality_u,
                      "orthogonality_v": result.orthogonality_v,
                      "pair_max": result.pair_max},
        "factors": {"u_t3": tensor3_text(result.u),
                    "s_t3": tensor3_text(result.s),
                    "v_t3": tensor3_text(result.v)}}


def _cmd_psd(args):
    A = read_tensor3(args.input)
    verdict = psd_spectral(A, tol=args.tol,
                           auto_symmetrize=args.auto_symmetrize)
    exact = verdict.exact if args.exact else None
    agree = verdict.spectral_class in (SPECTRAL_PD, SPECTRAL_PSD)
    return {
        "input": args.input,
        "spectral": {
            "class": verdict.spectral_class,
            "smallest_eigentuple": verdict.smallest_eigentuple,
            "min_entry": verdict.min_entry,
            "min_frequency_eigenvalue": verdict.min_frequency_eigenvalue,
            "tol": verdict.tol},
        "exact": None if exact is None else {
            "class": exact.label,
            "min_eigenvalue": exact.min_eigenvalue,
            "component": exact.component,
            "witness": exact.witness,
            "witness_value": exact.witness_value},
        "verdicts_agree": None if exact is None
        else agree == (exact.label == ELEMENTWISE_PSD)}


def _cmd_quadform(args):
    values = quadform(read_tensor3(args.a), read_tensor3(args.x, 2))
    return {"input_a": args.a, "input_x": args.x, "values": values}


def _cmd_verify(args):
    checks = verify_checks(read_tensor3(args.input), args.seed)
    return {"input": args.input, "seed": args.seed,
            "checks": [c.as_dict() for c in checks],
            "passed": all(c.passed is not False for c in checks)}


def _cmd_random(args):
    kind, m, n, p = args.kind, args.m, args.n, args.p
    if min(m, n, p) <= 0:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(args.seed)
    if kind in ("tsym", "psd") and m != n:
        raise ValueError(f"kind {kind!r} requires m == n")
    if kind == "general":
        A = rng.standard_normal((m, n, p))
    elif kind == "tsym":
        A = _symmetric_part(rng.standard_normal((n, n, p)))
    elif kind == "fdiag":
        A = np.zeros((m, n, p))
        for j in range(min(m, n)):
            A[j, j, :] = rng.standard_normal(p)
    else:  # psd
        B = rng.standard_normal((n, n, p))
        A = tprod(transpose(B), B)
    return _tensor_doc(A)


# --- the command table ------------------------------------------------------

def _opt(*names, **kwargs):
    return names, kwargs


_INPUT = _opt("input")
_OUTPUT = _opt("-o", "--output", default=None,
               help="write the result to this file")
_SEED = _opt("--seed", type=int, default=42, help="random seed (default 42)")

#: name: (handler, help line, *arguments); every command also takes --format.
COMMANDS = {
    "info": (_cmd_info, "summarize a tensor file", _INPUT),
    "tprod": (_cmd_tprod, "T-product of two tensors", _opt("a"), _opt("b"),
              _OUTPUT),
    "transpose": (_cmd_transpose, "tensor transpose", _INPUT, _OUTPUT),
    "ted": (_cmd_ted, "T-eigendecomposition of a T-symmetric tensor", _INPUT,
            _OUTPUT, _opt("--tol", type=float, default=1e-10, help=(
                "relative symmetry tolerance, ||A - A^T||_F <= tol ||A||_F "
                "(default 1e-10)"))),
    "tsvd": (_cmd_tsvd, "tensor singular value decomposition", _INPUT,
             _OUTPUT),
    "psd": (_cmd_psd, "classify the T-quadratic form", _INPUT, _OUTPUT,
            _opt("--tol", type=float, default=1e-10, help=(
                "classification tolerance, relative to max|A| rounded up to "
                "a power of two (default 1e-10)")),
            _opt("--exact", action="store_true",
                 help="also report the exact elementwise answer"),
            _opt("--auto-symmetrize", action="store_true",
                 help="classify (A + A^T) / 2 when A is not T-symmetric")),
    "quadform": (_cmd_quadform,
                 "evaluate the T-quadratic form at a matrix slice",
                 _opt("a"), _opt("x"), _OUTPUT),
    "verify": (_cmd_verify, "run the oracle checks on a tensor", _INPUT,
               _OUTPUT, _SEED),
    "random": (_cmd_random, "generate a random tensor", _OUTPUT, _SEED,
               _opt("kind", choices=("general", "tsym", "fdiag", "psd")),
               *(_opt(size, type=int) for size in "mnp")),
}


@functools.cache
def build_parser():
    """The parser of every call: a top-level parser with one subparser per
    entry of :data:`COMMANDS`, each taking ``--format`` first and then the
    entry's arguments.  It is built on first use and shared by every later
    call, so :data:`COMMANDS` is read once per process; a parse leaves it
    as it was, and nothing may mutate it."""
    parser = _Parser(prog="tubal-spectra",
                     description="Tubal tensor algebra toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, *arguments) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        subparser.add_argument("--format", choices=("text", "json"),
                               default="text", help="output format")
        for names, kwargs in arguments:
            subparser.add_argument(*names, **kwargs)
    return parser


def main(argv=None):
    parser = build_parser()
    try:  # a usage error is a ValueError
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        tol = getattr(args, "tol", None)
        if tol is not None and not np.isfinite(tol):
            raise ValueError("--tol must be finite")
        if tol is not None and tol <= 0:
            raise ValueError("--tol must be positive")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be non-negative")
        with np.errstate(all="ignore"):  # finite gates report overflow
            doc = {"schema": SCHEMA, "kind": args.command,
                   **COMMANDS[args.command][0](args)}
            _deliver(args, doc)
        return 0 if doc.get("passed", True) else 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except np.linalg.LinAlgError as exc:  # a ValueError, but numerical
        print(f"error: LinAlgError: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
