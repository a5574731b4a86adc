"""The mutant generator of ``scripts/mutants.py``, on a small module.  The
sweep itself runs the whole suite once per mutant and is not run here."""

import ast

from helpers import load_script

SOURCE = '''"""a <= b, max and all in a docstring."""


def f(a, b):
    # a < b or min(a) in a comment
    if a <= b and a != b or a >= b:
        return max(a, b), np.min([a, b]), all([a]) == any([b])
    return a > b and b < a and max(a, max(b, a))
'''


def test_each_swap_changes_exactly_one_code_token():
    mutants = load_script("mutants").mutants(SOURCE, "m")
    swaps = sorted(key.split("` ")[1] for key, _ in mutants)
    assert swaps == sorted([
        "<= -> <", "!= -> ==", ">= -> >", "max -> min", "min -> max",
        "all -> any", "== -> !=", "any -> all", "> -> >=", "< -> <=",
        "max -> min", "max -> min #2"])
    lines = SOURCE.splitlines()
    for key, text in mutants:
        ast.parse(text)
        changed = [(old, new) for old, new in zip(lines, text.splitlines())
                   if old != new]
        assert len(text.splitlines()) == len(lines)
        assert len(changed) == 1, key
        old, new = changed[0]
        assert f"`{old.strip()}`" in key
        # Docstring and comment keep their tokens.
        assert not old.lstrip().startswith(('"""', "#"))
        assert abs(len(new) - len(old)) <= 1


def test_keys_are_unique_and_name_the_module():
    mutants = load_script("mutants").mutants(SOURCE, "m")
    keys = [key for key, _ in mutants]
    assert len(set(keys)) == len(keys) == 12
    assert all(key.startswith("m: `") for key in keys)
    last = "return a > b and b < a and max(a, max(b, a))"
    assert f"m: `{last}` max -> min #2" in keys


def test_package_mutants_cover_every_module():
    script = load_script("mutants")
    found = script.all_mutants()
    assert {name for name, _, _ in found} == set(script.MODULES)
    assert set(script.ACCEPTED) <= {key for _, key, _ in found}
    assert all(reason for reason in script.ACCEPTED.values())
