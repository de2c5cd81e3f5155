"""Every name a package module imports is used in that module, every
module-level function, class and constant, public method and property is
used by the package, every parameter default is both used and overridden by
the package, every package-internal import names the module that defines the
name, and no package module imports scipy.sparse.

No lint tool is a dependency, so this walks the syntax tree with the
standard library: a name bound by an import statement must be read somewhere
in the module (or listed in its ``__all__``), a module-level def or class
must be referenced from some package module other than at its definition,
a public module-level UPPERCASE constant must be read by some package
module, and a public method or property of a package class must be read as
an attribute by some package module, so that no helper and no public name
survives for the tests alone.  A defaulted parameter must be set by some
package call and left at its default by another, so that no default serves
only the tests and none is dead.  A public name may instead be listed in an
``__all__``; `oracles.py` holds the reference implementations the tests
compare against, so its public names and defaults are exempt.
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


def unread_constants(sources: dict) -> list:
    """(module, line, name) of each public module-level UPPERCASE constant
    that no module in `sources` reads, by name or as an attribute.  Being
    assigned is not being read; a constant in an ``__all__`` counts as read,
    and the constants of PUBLIC_EXEMPT modules are not checked."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body if module not in PUBLIC_EXEMPT else []:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.extend((module, node.lineno, target.id) for target in targets
                           if isinstance(target, ast.Name) and target.id.isupper()
                           and not target.id.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read |= all_names(tree)
    return sorted(d for d in defined if d[2] not in read)


def defaulted_parameters(tree: ast.Module) -> list:
    """(line, callee name, positional index or None, parameter) of each
    defaulted parameter of a def in `tree`, methods and nested defs included.
    A method's positional index skips self, and an ``__init__`` is named by
    its class, as it is called."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = int(cls is not None)  # self
                name = cls if child.name == "__init__" and cls is not None else child.name
                first = len(positional) - len(args.defaults)
                found.extend((child.lineno, name, k - skip, positional[k].arg)
                             for k in range(first, len(positional)))
                found.extend((child.lineno, name, None, arg.arg)
                             for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None)
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def idle_defaults(sources: dict) -> list:
    """(module, line, "callee(parameter)") of each defaulted parameter of a
    package def that no call in `sources` (name -> source text) sets, or that
    every such call sets.  Calls are matched by the callee's bare name (an
    ``__init__`` by its class name); a parameter is set by a call that names
    it or reaches its position, and a ``*`` or ``**`` splat sets every one.
    Dataclass fields are not parameters of a def, so their defaults are out
    of scope; the defs of PUBLIC_EXEMPT modules are not checked."""
    params, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        if module not in PUBLIC_EXEMPT:
            params.extend((module, *p) for p in defaulted_parameters(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    idle = []
    for module, line, name, index, param in params:
        set_by = [any(isinstance(a, ast.Starred) for a in call.args)
                  or any(k.arg in (None, param) for k in call.keywords)
                  or (index is not None and index < len(call.args))
                  for call in calls.get(name, [])]
        if not (any(set_by) and not all(set_by)):
            idle.append((module, line, f"{name}({param})"))
    return sorted(idle)


# defaults kept although the package never both sets and omits them
IDLE_DEFAULTS_KEPT = {
    ("cli.py", "main(argv)"): "the console script calls main() with no arguments",
    ("fracops.py", "FracOperator(mode)"):
        "perfbench's set-up passes FREESPACE; both go with the next benchmark change",
}


def test_guard_sees_an_idle_default():
    sources = {"a.py": "def f(x, y=1, *, z=2):\n    pass\n\n"
                       "def g(x=1):\n    pass\n\n"
                       "def h(w=1):\n    pass\n\n"
                       "class C:\n    def __init__(self, u=0):\n        pass\n\n"
                       "    def m(self, v=0):\n        pass\n",
               "b.py": "from a import C, f, g, h\n\nf(1)\nf(1, 2, z=3)\ng(1)\ng(x=2)\n"
                       "h()\nC()\nC(1)\nC().m()\nC().m(*[1])\n",
               "oracles.py": "def reference(k=1):\n    pass\n"}
    assert idle_defaults(sources) == [("a.py", 4, "g(x)"), ("a.py", 7, "h(w)")]


def test_every_package_default_is_used_and_overridden():
    sources = {path.name: path.read_text() for path in MODULES}
    idle = {(module, what) for module, _, what in idle_defaults(sources)}
    assert idle == set(IDLE_DEFAULTS_KEPT)


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


def test_guard_sees_an_unread_constant():
    sources = {"a.py": "USED = 1\nDEAD = 2\nLISTED = 3\n_PRIVATE = 4\n"
                       "__all__ = ['LISTED']\n",
               "b.py": "import a\n\nGONE: int = a.USED\na.DEAD = 5\n",
               "oracles.py": "REFERENCE = 1\n"}
    assert unread_constants(sources) == [("a.py", 2, "DEAD"), ("b.py", 3, "GONE")]


def test_package_reads_every_public_constant():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unread_constants(sources) == []


def reexported_imports(sources: dict) -> list:
    """(module, line, "name from .m") of each ``from .m import name``, at any
    depth of a module in `sources` (file name -> source text), whose module m
    does not itself define `name` by a module-level def, class or assignment:
    such an import reaches the name through a re-export."""
    defined = {}
    for module, source in sources.items():
        names = defined.setdefault(module.removesuffix(".py"), set())
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.extend((module, node.lineno, f"{alias.name} from .{node.module}")
                             for alias in node.names
                             if alias.name not in defined.get(node.module, set()))
    return sorted(found)


def test_guard_sees_a_reexport():
    sources = {"a.py": "from .b import g\n\nX = 1\nY: int = 2\n\ndef f():\n    pass\n\n"
                       "class C:\n    pass\n",
               "b.py": "from .a import C, X, Y, f\n\ndef g():\n    from .a import g\n",
               "c.py": "from . import a\nfrom .b import X, g\n"}
    assert reexported_imports(sources) == [("b.py", 4, "g from .a"),
                                           ("c.py", 2, "X from .b")]


def test_package_imports_each_name_from_its_definer():
    sources = {path.name: path.read_text() for path in MODULES}
    assert reexported_imports(sources) == []


def sparse_imports(source: str) -> list:
    """(line, module) of each import of ``scipy.sparse`` or a submodule of it,
    ``from scipy import sparse`` included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.lineno, node.module))
            if node.module == "scipy":
                found.extend((node.lineno, f"scipy.{alias.name}") for alias in node.names)
    return sorted((line, name) for line, name in found
                  if name == "scipy.sparse" or name.startswith("scipy.sparse."))


def test_guard_sees_a_sparse_import():
    source = ("import scipy.sparse\nfrom scipy.sparse.linalg import cg\n"
              "from scipy import sparse, special\nimport scipy.sparse.linalg as sla\n"
              "from scipy.special import gamma\nimport scipy.sparsity\n")
    assert sparse_imports(source) == [(1, "scipy.sparse"), (2, "scipy.sparse.linalg"),
                                      (3, "scipy.sparse"), (4, "scipy.sparse.linalg")]


def test_package_imports_no_sparse_solver():
    # the obstacle CG is the package's own; scipy.sparse stays out of the source
    found = {path.name: hits for path in MODULES if (hits := sparse_imports(path.read_text()))}
    assert found == {}


def test_cli_import_loads_no_process_machinery():
    # fanout imports the process pool; the command line must not pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(fracpme.__file__).parents[1]))
    probe = ("import sys, fracpme.cli; print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process', 'concurrent.futures.thread') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
