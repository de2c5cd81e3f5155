"""Every name a package module imports is used in that module, and every
module-level function or class, public method and property is used by the
package.

No lint tool is a dependency, so this walks the syntax tree with the
standard library: a name bound by an import statement must be read somewhere
in the module (or listed in its ``__all__``), a module-level def or class
must be referenced from some package module other than at its definition,
and a public method or property of a package class must be read as an
attribute by some package module, so that no helper and no public name
survives for the tests alone.  A public name may instead be listed in an
``__all__``; `oracles.py` holds the reference implementations the tests
compare against, so its public names are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fracpme

MODULES = sorted(Path(fracpme.__file__).parent.glob("*.py"))
PUBLIC_EXEMPT = {"oracles.py"}


def all_names(tree: ast.Module) -> set:
    """The names listed in the module's ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


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
    used |= all_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_defs(sources: dict, private: bool) -> list:
    """(module, line, name) of each module-level def or class, private
    (``_name``) or public by `private`, that no module in `sources` (name ->
    source text) refers to.  Public names in an ``__all__`` count as
    referenced, and public names of PUBLIC_EXEMPT modules are not checked."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not node.name.endswith("__")
                    and (private or module not in PUBLIC_EXEMPT)):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
        used |= all_names(tree)
    return sorted(d for d in defined if d[2] not in used)


def unreferenced_members(sources: dict) -> list:
    """(module, line, "Class.name") of each public method or property of a
    module-level class that no module in `sources` reads as an attribute.
    Dataclass fields are not defs and dunders are not public, so neither is
    checked; nor are the classes of PUBLIC_EXEMPT modules."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and module not in PUBLIC_EXEMPT:
                defined.extend((module, node.lineno, f"{cls.name}.{node.name}")
                               for node in cls.body
                               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not node.name.startswith("_"))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(d for d in defined if d[2].split(".", 1)[1] not in read)


def test_guard_sees_a_dead_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def test_package_modules_use_every_import():
    assert len(MODULES) > 5
    dead = {path.name: found for path in MODULES
            if (found := unused_imports(path.read_text()))}
    assert dead == {}


def test_guard_sees_an_unreferenced_private_def():
    sources = {"a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                       "class _Gone:\n    pass\n",
               "b.py": "from a import _used\n"}
    assert unreferenced_defs(sources, private=True) == [("a.py", 4, "_dead"),
                                                        ("a.py", 7, "_Gone")]


def test_package_uses_every_private_def():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_defs(sources, private=True) == []


def test_guard_sees_an_unreferenced_public_def():
    sources = {"a.py": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
                       "class Listed:\n    pass\n\n__all__ = ['Listed']\n",
               "b.py": "from a import used\n\nclass Gone:\n    pass\n",
               "oracles.py": "def reference():\n    pass\n"}
    assert unreferenced_defs(sources, private=False) == [("a.py", 4, "dead"),
                                                         ("b.py", 3, "Gone")]


def test_package_uses_every_public_def():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_defs(sources, private=False) == []


def test_guard_sees_an_unreferenced_member():
    sources = {"a.py": "class A:\n    x: int\n\n    def used(self):\n        pass\n\n"
                       "    @property\n    def dead(self):\n        pass\n\n"
                       "    def __len__(self):\n        return 0\n",
               "b.py": "from a import A\n\nA().used()\nA().dead = 1\n",
               "oracles.py": "class R:\n    def reference(self):\n        pass\n"}
    assert unreferenced_members(sources) == [("a.py", 8, "A.dead")]


def test_package_reads_every_public_member():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_members(sources) == []


def test_cli_import_loads_no_process_machinery():
    # verify imports the process pool; the command line must not pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(fracpme.__file__).parents[1]))
    probe = ("import sys, fracpme.cli; print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
