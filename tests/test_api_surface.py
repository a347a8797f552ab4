"""Every name the package exports, every public module-level function and
every public method of a package class is used by the program, not only by
the tests: a name that only tests call is a second copy of a computation or
a hook that production never runs. Likewise every `RunConfig` field is read
by the program beyond its own validation: a knob that nothing reads is an
option that changes nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spotlighter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAM = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _public_definitions():
    """(qualified name, name) of each public module-level function and each
    public method of a class defined in the package's modules."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


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


def _config_fields():
    tree = ast.parse((PACKAGE / "config.py").read_text())
    run_config = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    return [item.target.id for item in run_config.body if isinstance(item, ast.AnnAssign)]


def _attribute_reads_outside_validation(paths):
    """Attribute names loaded in the given files, except inside
    `RunConfig.validate`."""
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        validation = {id(node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef) and cls.name == "RunConfig"
                      for item in cls.body
                      if isinstance(item, ast.FunctionDef) and item.name == "validate"
                      for node in ast.walk(item)}
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                     and id(node) not in validation)
    return reads


def test_every_config_field_is_read_beyond_validation():
    reads = _attribute_reads_outside_validation(PROGRAM)
    unread = [name for name in _config_fields() if name not in reads]
    assert not unread, f"config fields that only validation reads (or nothing): {unread}"


def test_every_export_is_used_beyond_the_tests():
    used = _used_names(PROGRAM)
    unused = [name for name in _exported_names() if name not in used]
    assert not unused, f"exported but used only by tests (or nowhere): {unused}"


def test_every_public_function_and_method_is_used_beyond_the_tests():
    used = _used_names(PROGRAM)
    unused = [qualified for qualified, name in _public_definitions() if name not in used]
    assert not unused, f"defined but used only by tests (or nowhere): {unused}"
