"""Checks on the package source as a whole."""

import ast
from pathlib import Path

import freelat

PKG = Path(freelat.__file__).parent

# kept with no caller in the package: the README's fixed-point contrast
# uses fixed_point_search and tarski_lfp, acceptance check c10 uses
# tarski_lfp and find_isomorphism
KEEP = {"fixed_point_search", "tarski_lfp", "find_isomorphism"}


def test_every_public_function_and_class_has_a_caller_in_the_package():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue   # re-exports are not callers
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50
    unused = sorted(f"{mod}:{name}" for name, mod in defined.items()
                    if name not in used and name not in KEEP)
    assert not unused, f"no caller in the package: {unused}"
    assert KEEP <= defined.keys()


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue   # re-exports are not uses
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
            elif isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"imported but unused: {sorted(unused)}"
