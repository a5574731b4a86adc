"""Single-token mutation sweep: can every check of the numeric core fail?

Run tier-1 on each mutant and print the unexpected survivors::

    python3 scripts/mutants.py

A mutant swaps one token of one module of :data:`MODULES`: ``<=``/``<``,
``>=``/``>``, ``==``/``!=``, ``min``/``max`` or ``any``/``all`` (names and
attributes alike; strings and comments are never touched).  Each mutant is
written into a temporary copy of the tree, never into the checkout, and
``pytest -x`` runs the tier-1 suite there, but for :data:`SELF_TEST`, with
one BLAS thread and one copy per CPU this process may use.  The unmutated
copy must pass first.  A mutant that passes survives.  Survivors listed in
:data:`ACCEPTED`, each with the reason it is equivalent in practice, are
expected; the others are printed, and the script exits 1 when there is
one.
"""

import io
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "tubal_spectra")
MODULES = ("spectral", "tsvd", "oracle", "transform", "tproduct", "tubal",
           "tensor3")
#: This script's own tests read the package's source, so a mutant fails
#: them by its text alone; they are left out of the mutants' runs.
SELF_TEST = Path("tests", "test_mutants.py")
SWAPS = {"<=": "<", "<": "<=", ">=": ">", ">": ">=", "==": "!=", "!=": "==",
         "min": "max", "max": "min", "any": "all", "all": "any"}

#: Survivors equivalent in practice, with the reason, keyed as :func:`mutants`
#: keys them.
ACCEPTED = {
    "spectral: `if value >= -tol:` >= -> >":
        "the witness value is its eigenvalue to roundoff, already below -tol",
    "oracle: `if vec[np.argmax(np.abs(vec))] < 0.0:` < -> <=":
        "the largest entry of a unit eigenvector is nonzero",
    "oracle: `if value >= -1e-10:` >= -> >":
        "the witness value is its eigenvalue to roundoff, below -1e-10",
    "tubal: `if (B.real[[0, -1] if p % 2 == 0 else [0]] < -tol).any():`"
    " < -> <=":
        "differs only at a self-conjugate bin of exactly -1e-10 * 2^e",
    "tubal: `B[np.abs(B) <= tol] = 0.0` <= -> <":
        "differs only at a bin of magnitude exactly 1e-10 * 2^e",
    "tubal: `if np.max(np.abs(tube_mul(a, a) - b)) > tol:` > -> >=":
        "differs only at a square residual of exactly 1e-10 * 2^e",
    "tubal: `roots.append(SqrtRoot(a, bool(np.all(a >= floor))))` >= -> >":
        "differs only for a root with an entry of exactly -1e-10 * 2^e",
    "tensor3: `if s >= 0:  # R = round(10^s * 2^(105 - b)), 2^b <= 10^s"
    " < 2^(b + 1)` >= -> >":
        "at s = 0 the other branch stores 10^0 as 2 * 2^-1, and scaling by "
        "it is exact either way",
    "tensor3: `R = N << (105 - b) if b <= 105 else (N >> (b - 106)) + 1 >> 1`"
    " <= -> <":
        "no power of ten lies in [2^105, 2^106), so no row has b = 105",
    "tensor3: `low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))` < -> <= #2":
        "q = 1e16 exactly rescales to 1e17, which the carry turns back into "
        "the same digits and exponent",
    "tensor3: `high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))` > -> >=":
        "a first-pass q within ulp(1e17) / 2 below 1e17 needs a double within "
        "8e-17 below a power of ten whose log10 floors below it; none has",
    "tensor3: `high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))` >= -> >":
        "q = 1e17 exactly gives D = 10^17, which the carry writes as the "
        "rescaled row would",
    "tensor3: `tie = np.abs(lo - r) > 0.5 - 1e-6` > -> >=":
        "a value marked as a tie is written by %.17g, the reference, so one "
        "more mark changes no byte",
    "tensor3: `src[:, _SIGN] = (x < 0) * np.uint8(ord(\"-\"))` < -> <=":
        "_number_rows never sees a zero: _text_rows writes zeros itself",
    "tensor3: `src[sci, _EXP] = np.where(e[sci] < 0, ord(\"-\"), ord(\"+\"))`"
    " < -> <=":
        "sci holds only exponents outside -4..16, never 0",
    "tensor3: `if blocks.size < _SMALL:` < -> <=":
        "at exactly _SMALL values both formatters write the same bytes",
    "tensor3: `near = np.flatnonzero(np.abs(twice.astype(np.float64)) > a *"
    " 2.0 ** -54)` > -> >=":
        "the filter only preselects: 2 |ld - d| = |d| * 2^-54 fails both "
        "exact tests after it",
}


def mutants(source, module):
    """Every single-token mutant of ``source``: ``(key, mutated source)``.

    The key names the module, the stripped source line, the swap, and the
    token's occurrence on that line when the same token recurs there."""
    lines = source.splitlines(keepends=True)
    seen, out = {}, []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.OP, tokenize.NAME) \
                or tok.string not in SWAPS:
            continue
        (row, col), (_, end) = tok.start, tok.end
        line = lines[row - 1]
        new = SWAPS[tok.string]
        key = f"{module}: `{line.strip()}` {tok.string} -> {new}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        mutated = lines[:row - 1] + [line[:col] + new + line[end:]]
        out.append((key, "".join(mutated + lines[row:])))
    return out


def all_mutants():
    """``(module, key, mutated source)`` for every module of MODULES."""
    return [(name, key, text) for name in MODULES
            for key, text in mutants(
                (ROOT / PACKAGE / f"{name}.py").read_text(), name)]


def _survives(tree, name, text):
    """Run tier-1 in ``tree`` with module ``name`` replaced by ``text``."""
    path = tree / PACKAGE / f"{name}.py"
    original = path.read_text()
    path.write_text(text)
    # No bytecode: a swap that keeps the file's size, written within one
    # mtime tick, would otherwise run the previous mutant's cached code.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", f"--ignore={SELF_TEST}"], cwd=tree,
            env=env, timeout=900,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ).returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        path.write_text(original)
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)


def sweep(jobs):
    """Run every mutant; return the keys of the survivors, in order."""
    found = all_mutants()
    with tempfile.TemporaryDirectory() as tmp:
        trees = queue.Queue()
        for i in range(jobs):
            tree = Path(tmp, str(i))
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
                ".git", ".perfbench", "__pycache__", ".hypothesis",
                ".pytest_cache"))
            trees.put(tree)
        # Otherwise every mutant would read as killed.
        name = MODULES[0]
        if not _survives(tree, name, (tree / PACKAGE / f"{name}.py")
                         .read_text()):
            raise SystemExit("tier-1 fails on the unmutated tree")

        def run(mutant):
            tree = trees.get()
            try:
                alive = _survives(tree, mutant[0], mutant[2])
            finally:
                trees.put(tree)
            print(f"{'SURVIVED' if alive else 'killed  '} {mutant[1]}",
                  flush=True)
            return alive

        with ThreadPoolExecutor(jobs) as pool:
            alive = list(pool.map(run, found))
    return len(found), [m[1] for m, a in zip(found, alive) if a]


def main():
    total, survivors = sweep(len(os.sched_getaffinity(0)))
    unexpected = [key for key in survivors if key not in ACCEPTED]
    stale = sorted(set(ACCEPTED) - set(survivors))
    print(f"{total} mutants: {total - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - len(unexpected)} "
          f"accepted, {len(unexpected)} unexpected)")
    for key in unexpected:
        print(f"unexpected survivor: {key}")
    for key in stale:
        print(f"accepted but killed or gone: {key}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
