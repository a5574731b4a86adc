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
MODULES = ("spectral", "tsvd", "oracle", "transform", "tproduct", "tubal")
#: This script's own tests read the package's source, so a mutant fails
#: them by its text alone; they are left out of the mutants' runs.
SELF_TEST = Path("tests", "test_mutants.py")
SWAPS = {"<=": "<", "<": "<=", ">=": ">", ">": ">=", "==": "!=", "!=": "==",
         "min": "max", "max": "min", "any": "all", "all": "any"}

#: Survivors equivalent in practice, with the reason, keyed as :func:`mutants`
#: keys them.
ACCEPTED = {
    "spectral: `slack = 1e-12 * max(1.0, float(np.max(np.abs(eigentuples))))`"
    " max -> min":
        "first components are sorted to roundoff, far inside either slack",
    "spectral: `slack = 1e-12 * max(1.0, float(np.max(np.abs(eigentuples))))`"
    " max -> min #2":
        "first components are sorted to roundoff, far inside either slack",
    "spectral: `sorted_ok = bool(np.all(firsts[1:] <= firsts[:-1] + slack))`"
    " <= -> <":
        "differs only when two first components differ by exactly the slack",
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
