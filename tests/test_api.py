"""Guard on the public API: ``unravel.__all__`` holds what the README
documents or a demo imports, and the errors a caller catches.  Every other
name is imported from its own module, and the list may shrink but not
grow.  The package's modules import each other at module level only, read
every name they import, and hold no name and no parameter that only the
tests use."""

import ast
import inspect
import re
from pathlib import Path

import unravel
from unravel import verify

ROOT = Path(__file__).resolve().parents[1]


def used_names(source) -> set[str]:
    """Names that source code, or a node of its syntax tree, reads, looks up
    as attributes or imports.  A name's own definition (``def``, ``class``
    or an assignment) is not a use."""
    names = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
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


def documented_names() -> set[str]:
    """Names the README or a demo uses."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    return readme_names().union(*(used_names(p.read_text()) for p in demos))


def defined_names(statement) -> list[str]:
    """Names a module-level statement defines: a function, a class or an
    assigned name."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_is_used_outside_the_tests():
    documented = documented_names()
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


def test_every_import_in_the_package_is_read():
    # a module-level import that its module never reads is dead; __init__'s
    # imports are the re-exports, and __future__ imports set compiler flags
    unread = []
    for path in sorted((ROOT / "src" / "unravel").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.name}:{name}"
            for statement in tree.body
            if isinstance(statement, ast.Import)
            or isinstance(statement, ast.ImportFrom) and statement.module != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in statement.names)
            if name not in reads
        ]
    assert unread == [], f"imported but never read: {unread}"


def test_every_runtime_name_is_read_outside_the_tests():
    # a module-level function, class or name that no other statement of the
    # package reads, and that the README and demos do not name, serves only
    # the tests, which keep their own copy
    modules = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "unravel").glob("*.py")}
    reads = [(s, used_names(s)) for tree in modules.values() for s in tree.body]
    documented = documented_names()
    unread = sorted(
        f"{module}.{name}"
        for module, tree in modules.items() if module != "__init__"
        for statement in tree.body
        for name in defined_names(statement)
        if name not in documented
        and not any(name in names for other, names in reads if other is not statement)
    )
    assert unread == [], f"read by no other statement of the package: {unread}"


def test_no_parameter_that_only_the_tests_set():
    # UNRAVEL_THREADS is the one worker-count control, and each self-check
    # fixes its own sizes and thresholds
    assert "workers" not in inspect.signature(unravel.run_ensemble).parameters
    calls = [
        node.func.id for node in ast.walk(ast.parse(inspect.getsource(verify.run_all)))
        if isinstance(node, ast.Call)
    ]
    assert len(calls) == 5
    for name in calls:
        assert list(inspect.signature(getattr(verify, name)).parameters) == ["seed"], name
