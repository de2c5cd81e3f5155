"""Every name a package module imports is used in that module.

No lint tool is a dependency, so this walks the syntax tree with the
standard library: a name bound by an import statement must be read somewhere
in the module (or listed in its ``__all__``).
"""

import ast
from pathlib import Path

import fracpme

MODULES = sorted(Path(fracpme.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_a_dead_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def test_package_modules_use_every_import():
    assert len(MODULES) > 5
    dead = {path.name: found for path in MODULES
            if (found := unused_imports(path.read_text()))}
    assert dead == {}
