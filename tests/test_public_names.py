"""Every public name of the package has a caller outside the test suite."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ropebound").glob("*.py"))

# Test-only references: the suite measures the package against these, or
# builds its inputs from them, so nothing else calls them.
TEST_ONLY = {
    # all-pairs scans that the certified distance search must equal bit for bit
    "min_distance_brute",
    "min_self_distance_brute",
    # sampled strands on a cylinder, on which the suite checks that
    # max_helices packs helices at least 2 apart
    "sample_cylindrical_helix",
}


def _all_names(tree) -> list:
    return [name for node in tree.body if _is_all(node)
            for name in ast.literal_eval(node.value)]


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


@pytest.fixture(scope="module")
def references() -> set:
    """Names that the package, the demos and the benchmark (not its own
    tests) load, import or reach as a dotted string (the benchmark's tracer
    wraps attributes by path): definitions, assignments and `__all__`
    entries do not count."""
    seen = set()
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_")]
    for path in [*MODULES, *(ROOT / "demos").glob("*.py"), *bench]:
        tree = ast.parse(path.read_text())
        skip = {id(n) for node in tree.body if _is_all(node)
                for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = re.fullmatch(r"[\w.]*?(\w+)", node.value)
                if match:
                    seen.add(match.group(1))
    return seen


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller_outside_the_tests(module, references):
    names = _all_names(ast.parse(module.read_text()))
    unused = set(names) - references - TEST_ONLY
    assert not unused, f"{module.name}: only tests reach {sorted(unused)}"


def test_the_test_only_names_are_public_and_unused(references):
    # an entry that gained a caller or left the package goes from the list
    public = {n for m in MODULES for n in _all_names(ast.parse(m.read_text()))}
    assert TEST_ONLY <= public
    assert not TEST_ONLY & references
