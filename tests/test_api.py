"""Guard on the public API: ``unravel.__all__`` holds what the README
documents or a demo imports, and the errors a caller catches.  Every other
name is imported from its own module, and the list may shrink but not
grow.  The package's modules import each other at module level only."""

import ast
import re
from pathlib import Path

import unravel

ROOT = Path(__file__).resolve().parents[1]


def used_names(source: str) -> set[str]:
    """Names a module reads, looks up as attributes or imports.  A name's
    own definition (``def``, ``class`` or an assignment) is not a use."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def readme_names() -> set[str]:
    """Names the README's python blocks use, and identifiers in its inline
    code spans."""
    text = (ROOT / "README.md").read_text()
    names = set()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        names |= used_names(block)
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_every_public_name_is_used_outside_the_tests():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    documented = readme_names().union(*(used_names(p.read_text()) for p in demos))
    errors = {
        name for name in unravel.__all__
        if isinstance(getattr(unravel, name), type)
        and issubclass(getattr(unravel, name), Exception)
    }
    extra = sorted(set(unravel.__all__) - documented - errors)
    assert extra == [], f"exported but neither in the README nor in a demo: {extra}"


def test_public_api_does_not_grow():
    assert len(unravel.__all__) <= 34
    assert len(set(unravel.__all__)) == len(unravel.__all__)


def test_every_import_in_the_package_is_at_module_level():
    # an import inside a function hides a cycle between the modules; at
    # module level any cycle fails on the first import of the package
    nested = []
    for path in sorted((ROOT / "src" / "unravel").glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == [], f"imports below module level: {nested}"
