"""Guard on the public API: every exported name is used by the package or
a demo, so code that only the tests call stays out of ``unravel.__all__``,
and the list of names may shrink but not grow."""

import ast
from pathlib import Path

import unravel

ROOT = Path(__file__).resolve().parents[1]


def used_names(path: Path) -> set[str]:
    """Names a module reads, looks up as attributes or imports.  A name's
    own definition (``def``, ``class`` or an assignment) is not a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_outside_the_tests():
    package = [p for p in (ROOT / "src" / "unravel").glob("*.py") if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert package and demos
    used = set().union(*(used_names(p) for p in package + demos))
    unused = sorted(set(unravel.__all__) - used)
    assert unused == [], f"exported but used only by the tests: {unused}"


def test_public_api_does_not_grow():
    assert len(unravel.__all__) <= 65
