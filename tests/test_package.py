"""Checks on the package source as a whole."""

import ast
import sys
from pathlib import Path

import freelat

PKG = Path(freelat.__file__).parent

# kept with no caller in the package: acceptance check c10 uses
# tarski_lfp, find_isomorphism and extended_catalog (builtin_lattice
# builds only the lattice it names, so it no longer walks the catalog)
KEEP = {"tarski_lfp", "find_isomorphism", "extended_catalog"}


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


def test_every_absolute_import_is_from_the_standard_library():
    outside = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}:{n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"imports outside the standard library: {outside}"


# Every store in the package that lasts as long as the process, with what
# bounds it.  A new cache is declared here on purpose, or belongs to an
# object its caller owns.
STORES = {
    "terms._INTERN": "every term ever made; never shrinks (_JOINS, _MEETS are two of its tables)",
    "terms._GEN_BITS": "one bit per generator name ever seen",
    "whitman._LEQ": "one entry per pair leq decided; never shrinks",
    "whitman._CANON": "one entry per term canonicalised; never shrinks",
    "bhom._KERNELS": "weak: a kernel lives while some live map holds it",
    "builders._BUILTINS": "constant: the builtin lattices' makers by name",
    "builders.build_fd3": "one entry: it takes no arguments",
    "builders._default_a": "one entry: it takes no arguments",
    "cli._build_parser": "one entry: it takes no arguments",
}

CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
              "count", "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}


def _called_name(node):
    f = node.func if isinstance(node, ast.Call) else node
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_every_process_lifetime_store_is_declared():
    found = set()
    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                v = node.value
                if (isinstance(v, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                   ast.ListComp, ast.SetComp))
                        or isinstance(v, ast.Call) and _called_name(v) in CONTAINERS):
                    found |= {f"{mod}.{t.id}" for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.FunctionDef):
                if any(_called_name(d) in ("cache", "lru_cache") for d in node.decorator_list):
                    found.add(f"{mod}.{node.name}")
    assert found == STORES.keys(), (f"undeclared: {sorted(found - STORES.keys())}, "
                                    f"gone: {sorted(STORES.keys() - found)}")
    assert all(note.strip() for note in STORES.values())
