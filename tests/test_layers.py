"""Module boundaries the package keeps.

The traced benchmark binds every name in ``perfbench/tracer.py``'s
``LAYERS`` with ``getattr`` at run time, so each must exist in its module.
The 17-digit number format is spelled once, in ``tensor3``, the
half-spectrum bin layout once, in ``transform``, and the T-symmetric part
``(A + A^T) / 2`` once, in ``spectral``.  The CLI keeps no array formatter
of its own: it takes an array's rows from ``tensor3.text_rows``, calls no
``.tolist()``, and formats with ``_fmt`` only the lone scalars of
``_scalar``.  No module reads or writes the process environment: the BLAS
library reads its own thread variables.
Every import inside the package is relative, so ``scripts/bench.py`` can
load two trees into one process under different package names, and none
is of ``fractions`` or ``decimal``, which cost every command's start-up.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "tubal_spectra"


def _layers():
    """``LAYERS`` read from the tracer's source, without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


def _names(node):
    """The names and attributes an AST node spells, imports included."""
    names = {getattr(node, "id", None), getattr(node, "attr", None)}
    if isinstance(node, ast.ImportFrom):
        names |= {alias.name for alias in node.names}
    return names


def test_every_traced_name_is_a_package_function():
    layers = _layers()
    assert "tubal" in layers and "transform" in layers
    missing = [f"{layer}.{name}" for layer, names in layers.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"tubal_spectra.{layer}"), name,
                   None))]
    assert missing == []


def test_number_format_is_spelled_only_in_tensor3():
    spelled = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "tensor3.py"
        and any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "17g" in node.value
                for node in ast.walk(ast.parse(path.read_text("utf-8")))))
    assert spelled == []


def test_cli_formats_no_array_itself():
    tree = ast.parse((PACKAGE / "cli.py").read_text("utf-8"))
    scalar = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_scalar"
              for node in ast.walk(fn)}
    uses = [node for node in ast.walk(tree)
            if not isinstance(node, ast.ImportFrom)
            and _names(node) & {"_fmt", "tolist"}]
    assert uses and all(id(node) in scalar for node in uses), [
        (node.lineno, ast.unparse(node)) for node in uses]
    assert not [node for node in uses if "tolist" in _names(node)]


def test_bin_layout_is_spelled_only_in_transform():
    # tubal has the ring's own scalar DFT and sits below transform in the
    # import order; every other module reads bins through transform.
    layout = {"_real_bins", "_mirrored_bins"}
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("transform.py", "tubal.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (_names(node) & layout or isinstance(node, ast.BinOp)
                    and ast.unparse(node) == "p // 2 + 1"):
                spelled.append((path.name, ast.unparse(node)))
    assert spelled == []


def test_package_reads_no_environment():
    banned = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if _names(node) & banned:
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []


def _absolute_imports(packages):
    """Each package file's absolute imports from any of ``packages``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in packages for m in modules):
                found.append((path.name, node.lineno, ast.unparse(node)))
    return found


def test_package_imports_itself_only_relatively():
    # An absolute import would load a third tree into the bench's process,
    # or mix its two trees, without an error.
    assert _absolute_imports({"tubal_spectra"}) == []


def test_package_imports_neither_fractions_nor_decimal():
    # The writer's table of powers of ten is built with integer arithmetic;
    # either module would add to the start-up of every command.
    assert _absolute_imports({"fractions", "decimal"}) == []


def test_symmetric_part_is_spelled_only_in_spectral():
    # A sum with tensor3.transpose forms (A + A^T) / 2 or A + A^T; only
    # spectral's _symmetric_part and symmetrize may, so that every verdict
    # read off ted's factors is of the one tensor it factors.  (oracle's
    # R.transpose is a matrix transpose, not this one.)
    owners = {"_symmetric_part", "symmetrize"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in owners
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and id(node) not in allowed
                    and any(getattr(sub, "id", None) == "transpose"
                            for side in (node.left, node.right)
                            for sub in ast.walk(side))):
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []
