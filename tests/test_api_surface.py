"""Every name the package exports is used by the program, not only by the
tests: a name that only tests call is a second copy of a computation or a
hook that production never runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spotlighter"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _used_names(paths):
    """Names read as variables or attributes in the given files; definitions
    and import lines are not reads."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_beyond_the_tests():
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = _used_names(program)
    unused = [name for name in _exported_names() if name not in used]
    assert not unused, f"exported but used only by tests (or nowhere): {unused}"
