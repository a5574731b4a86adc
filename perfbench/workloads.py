"""Benchmark workloads: input generation, CLI command lines, output checks.

One request is a fixed sequence of CLI commands run on inputs generated for
that request alone from ``(seed, stream, index)``.  Every check below uses
numpy and :mod:`dense` only, never ``tubal_spectra``.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

import dense

RECON_TOL = 1e-10   # relative reconstruction bound, as in the program's gate
ORTH_TOL = 1e-10    # ||bcirc(U)^T bcirc(U) - I||_F bound
PRODUCT_TOL = 1e-12  # fast product against the dense one, relative
EXACT_TOL = 1e-12   # values that must agree up to printing round-trip


class Workload:
    """A named request shape.

    ``files`` maps input file names to generators ``rng -> array``;
    ``commands`` lists ``(argv, stdout_name)`` pairs; an argument ``@name``
    is the file ``name`` in the request directory, and ``stdout_name`` (or
    ``None``) receives what the command prints.  ``corrupt`` names the
    output file and the markers between which fault injection flips a value.
    """

    def __init__(self, name, files, commands, check, corrupt):
        self.name = name
        self.files = files
        self.commands = commands
        self.check = check
        self.corrupt = corrupt

    def generate(self, seed, stream, index, directory):
        """Write the inputs of request ``index`` and return them as arrays."""
        rng = np.random.default_rng([seed, stream, index])
        os.makedirs(directory, exist_ok=True)
        arrays = {}
        for fname, make in self.files.items():
            arrays[fname] = make(rng)
            with open(os.path.join(directory, fname), "w",
                      encoding="ascii") as fh:
                fh.write(dense.t3_text(arrays[fname]))
        return arrays

    def argv_list(self, directory, out_dir=None):
        """The request's commands, reading inputs from ``directory`` and
        writing outputs to ``out_dir`` (default: the same directory)."""
        out_dir = out_dir or directory

        def path(name):
            return os.path.join(
                directory if name in self.files else out_dir, name)

        return [{"argv": [path(a[1:]) if a[0] == "@" else a for a in argv],
                 "stdout": None if stdout_name is None else path(stdout_name)}
                for argv, stdout_name in self.commands]

    def output_names(self):
        """Names of every file the request writes."""
        names = [a[1:] for argv, _ in self.commands for a in argv
                 if a[0] == "@" and a[1:] not in self.files]
        return names + [s for _, s in self.commands if s is not None]


def _read(directory, name):
    with open(os.path.join(directory, name), encoding="ascii") as fh:
        return fh.read()


def _numbers(line):
    return np.array(line.split(":", 1)[1].split(), dtype=np.float64)


def _factor_blocks(text, names):
    """Split ``factor <name>:`` sections of a ted/tsvd text report."""
    parts = re.split(r"^factor (\w+):\n", text, flags=re.M)
    head, found = parts[0], dict(zip(parts[1::2], parts[2::2]))
    if sorted(found) != sorted(names):
        raise ValueError(f"expected factors {names}, found {sorted(found)}")
    return head, {k: dense.read_t3(v) for k, v in found.items()}


def _diag_tubes(S, r):
    """Rows ``j`` = index reversal of diagonal tube ``S[j, j, :]``."""
    return np.vstack([dense.transpose(S[j:j + 1, j:j + 1, :])[0, 0]
                      for j in range(r)])


def _check_factorization(problems, label, A, left, core, right):
    """``A == left * core * right^T`` with orthogonal ``left``/``right``."""
    bcA = dense.bcirc(A)
    bcL, bcC, bcR = dense.bcirc(left), dense.bcirc(core), dense.bcirc(right)
    recon = (float(np.linalg.norm(bcA - bcL @ bcC @ bcR.T))
             / float(np.linalg.norm(bcA)))
    if not recon <= RECON_TOL:
        problems.append(f"{label}: reconstruction {recon:.3e}")
    for side, bc in (("left", bcL), ("right", bcR)):
        orth = float(np.linalg.norm(bc.T @ bc - np.eye(bc.shape[1])))
        if not orth <= ORTH_TOL:
            problems.append(f"{label}: {side} orthogonality {orth:.3e}")
    m, n, _ = core.shape
    off = float(np.max(np.abs(core[~np.eye(m, n, dtype=bool), :]),
                       initial=0.0))
    if off != 0.0:
        problems.append(f"{label}: core is not f-diagonal ({off:.3e})")


def _check_tuples(problems, label, rows, core):
    expected = _diag_tubes(core, rows.shape[0])
    if rows.shape != expected.shape or dense.relative(
            rows - expected, expected) > EXACT_TOL:
        problems.append(f"{label}: printed tuples differ from the core "
                        f"tensor's diagonal")


# --- decompose ---------------------------------------------------------------

def _tsym(rng):
    G = rng.standard_normal((24, 24, 16))
    return 0.5 * (G + dense.transpose(G))


def _check_decompose(directory, inputs):
    problems = []
    head, f = _factor_blocks(_read(directory, "ted.txt"), ["u", "d"])
    A = inputs["tsym.t3"]
    rows = [ln for ln in head.splitlines() if ln.startswith("eigentuple ")]
    if len(rows) != A.shape[0]:
        problems.append(f"ted: {len(rows)} eigentuples, expected "
                        f"{A.shape[0]}")
    else:
        _check_tuples(problems, "ted", np.vstack([_numbers(r) for r in rows]),
                      f["d"])
    _check_factorization(problems, "ted", A, f["u"], f["d"], f["u"])

    head, f = _factor_blocks(_read(directory, "tsvd.txt"), ["u", "s", "v"])
    A = inputs["tall.t3"]
    rows = [ln for ln in head.splitlines()
            if ln.startswith("singular_tuple ")]
    if len(rows) != min(A.shape[:2]):
        problems.append(f"tsvd: {len(rows)} singular tuples")
    else:
        _check_tuples(problems, "tsvd",
                      np.vstack([_numbers(r) for r in rows]), f["s"])
    _check_factorization(problems, "tsvd", A, f["u"], f["s"], f["v"])
    return problems


# --- certify -----------------------------------------------------------------

def _gram(rng):
    B = rng.standard_normal((6, 6, 8))
    G = dense.tprod(dense.transpose(B), B)
    return 0.5 * (G + dense.transpose(G))


def _check_certify(directory, inputs):
    problems = []
    lines = _read(directory, "verify.txt").splitlines()
    if not lines or lines[-1] != "verify: PASS":
        problems.append("verify: last line is not 'verify: PASS'")
    doc = json.loads(_read(directory, "psd.json"))
    A = inputs["gram.t3"]
    exact = doc["exact"]
    if exact["class"] not in ("ELEMENTWISE_PSD", "NOT_ELEMENTWISE_PSD"):
        problems.append(f"psd: unknown exact class {exact['class']!r}")
    if exact["witness"] is not None:
        W = np.array(exact["witness"], dtype=np.float64)
        value = dense.quadform(A, W)[exact["component"] - 1]
        claimed = exact["witness_value"]
        if not (value < 0.0 and abs(value - claimed)
                <= 1e-9 * max(1.0, abs(value))):
            problems.append(f"psd: witness evaluates to {value!r}, "
                            f"claimed {claimed!r}")
    lam = dense.min_frequency_eigenvalue(A)
    got = doc["spectral"]["min_frequency_eigenvalue"]
    if abs(lam - got) > 1e-9 * max(1.0, abs(lam)):
        problems.append(f"psd: min frequency eigenvalue {got!r}, "
                        f"expected {lam!r}")
    return problems


# --- io ----------------------------------------------------------------------

def _general(rng):
    return rng.standard_normal((48, 48, 16))


def _check_io(directory, inputs):
    problems = []
    A, B = inputs["a.t3"], inputs["b.t3"]
    doc = json.loads(_read(directory, "info.json"))
    m, n, p = A.shape
    tsym = float(np.max(np.abs(A - dense.transpose(A)))) <= (
        1e-10 * float(np.max(np.abs(A))))
    fdiag = float(np.max(np.abs(A[~np.eye(m, n, dtype=bool), :]))) <= 1e-10
    expected = {"kind": "info", "shape": {"m": m, "n": n, "p": p},
                "max_abs": float(np.max(np.abs(A))), "t_symmetric": tsym,
                "f_diagonal": fdiag}
    if not fdiag:
        expected["standard_form"] = None
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"info: {key} is {doc.get(key)!r}, expected "
                            f"{value!r}")
    norm = float(np.linalg.norm(A))
    if abs(doc["frobenius_norm"] - norm) > EXACT_TOL * norm:
        problems.append(f"info: frobenius_norm {doc['frobenius_norm']!r}, "
                        f"expected {norm!r}")
    C = dense.read_t3(_read(directory, "c.t3"))
    ref = dense.tprod(A, B)
    if C.shape != ref.shape or dense.relative(C - ref, ref) > PRODUCT_TOL:
        problems.append("tprod: result differs from the dense product")
    return problems


WORKLOADS = {
    "decompose": Workload(
        "decompose",
        {"tsym.t3": _tsym,
         "tall.t3": lambda rng: rng.standard_normal((32, 16, 15))},
        [(["ted", "@tsym.t3", "-o", "@ted.txt"], None),
         (["tsvd", "@tall.t3", "-o", "@tsvd.txt"], None)],
        _check_decompose, ("ted.txt", "factor u:", "factor d:")),
    "certify": Workload(
        "certify", {"gram.t3": _gram},
        [(["verify", "@gram.t3", "-o", "@verify.txt"], None),
         (["psd", "@gram.t3", "--exact", "--format", "json", "-o",
           "@psd.json"], None)],
        _check_certify,
        ("psd.json", '"min_frequency_eigenvalue":', '"tol"')),
    "io": Workload(
        "io", {"a.t3": _general, "b.t3": _general},
        [(["info", "@a.t3", "--format", "json"], "info.json"),
         (["tprod", "@a.t3", "@b.t3", "-o", "@c.t3"], None)],
        _check_io, ("c.t3", "T3 1", None)),
}


def check_request(workload, directory, inputs, outcome):
    """All problems found with one request's exit codes and outputs."""
    problems = []
    for cmd in outcome["commands"]:
        if cmd["error"] is not None:
            problems.append(f"{cmd['argv'][0]}: raised {cmd['error']}")
        elif cmd["rc"] != 0:
            problems.append(f"{cmd['argv'][0]}: exit code {cmd['rc']}: "
                            f"{cmd['stderr'].strip()}")
    if problems:
        return problems
    try:
        return workload.check(directory, inputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def corrupt_output(workload, directory):
    """Negate the largest-magnitude value between the corruption markers."""
    fname, start, end = workload.corrupt
    path = os.path.join(directory, fname)
    text = _read(directory, fname)
    lo = text.index(start) + len(start)
    hi = text.index(end, lo) if end is not None else len(text)
    best = max(_NUMBER.finditer(text, lo, hi),
               key=lambda mt: abs(float(mt.group())))
    flipped = "%.17g" % -float(best.group())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text[:best.start()] + flipped + text[best.end():])
