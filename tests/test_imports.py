"""Every name a package module imports is used in that module, every
module-level function, class and constant, public method and property is
used by the package, every parameter default is both used and overridden by
the package, every parameter is read by its def, every package-internal
import names the module that defines the name, no package module imports
scipy.sparse, no package module reads the environment, no package module
writes behind a frozen dataclass or hooks pickling, and only the CLI's
`main` prints a FRACPME-FAIL line.

No lint tool is a dependency, so this walks the syntax tree with the
standard library: a name bound by an import statement must be read somewhere
in the module (or listed in its ``__all__``), a module-level def or class
must be referenced from some package module other than at its definition,
a public module-level UPPERCASE constant must be read by some package
module, and a public method or property of a package class must be read as
an attribute by some package module, so that no helper and no public name
survives for the tests alone.  A defaulted parameter must be set by some
package call and left at its default by another, so that no default serves
only the tests and none is dead; and a def must read each of its
parameters, so that no caller passes a value for nothing.  A public name
may instead be listed in an ``__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fracpme

MODULES = sorted(Path(fracpme.__file__).parent.glob("*.py"))


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
    referenced."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not node.name.endswith("__")):
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
    checked."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
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
    assigned is not being read, and a constant in an ``__all__`` counts as
    read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
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
    of scope."""
    params, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
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
                       "h()\nC()\nC(1)\nC().m()\nC().m(*[1])\n"}
    assert idle_defaults(sources) == [("a.py", 4, "g(x)"), ("a.py", 7, "h(w)")]


def test_every_package_default_is_used_and_overridden():
    sources = {path.name: path.read_text() for path in MODULES}
    idle = {(module, what) for module, _, what in idle_defaults(sources)}
    assert idle == set(IDLE_DEFAULTS_KEPT)


def unread_parameters(sources: dict) -> list:
    """(module, line, "callee(parameter)") of each parameter of a named def
    in `sources` (name -> source text), methods and nested defs included,
    that the def's body never reads by name; a read inside a nested def or
    lambda counts.  A method is named "Class.method".  Lambdas are not named
    defs, so their parameters are not checked."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                name = f"{cls}.{child.name}" if cls else child.name
                found.extend((module, child.lineno, f"{name}({p.arg})")
                             for p in params if p.arg not in read)
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for module, source in sources.items():
        visit(ast.parse(source), None)
    return sorted(found)


# parameters kept although their def never reads them
UNREAD_PARAMETERS_KEPT = {
    ("verify.py", f"_discard({param})"):
        "an on_record stub: run passes every record as (k, t, state)"
    for param in ("k", "t", "state")
}


def test_guard_sees_an_unread_parameter():
    sources = {"a.py": "def f(x, y, *args, z, **kw):\n    return x + z\n\n"
                       "def g(u):\n    def inner(v):\n        return u\n    return inner\n\n"
                       "class C:\n    def m(self, w):\n        return lambda q: self\n",
               "b.py": "def h(p):\n    \"\"\"A stub.\"\"\"\n"}
    assert unread_parameters(sources) == [
        ("a.py", 1, "f(args)"), ("a.py", 1, "f(kw)"), ("a.py", 1, "f(y)"),
        ("a.py", 5, "inner(v)"), ("a.py", 10, "C.m(w)"), ("b.py", 1, "h(p)")]


def test_every_package_parameter_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    unread = {(module, what) for module, _, what in unread_parameters(sources)}
    assert unread == set(UNREAD_PARAMETERS_KEPT)


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
               "b.py": "from a import used\n\nclass Gone:\n    pass\n"}
    assert unreferenced_defs(sources, private=False) == [("a.py", 4, "dead"),
                                                         ("b.py", 3, "Gone")]


def test_package_uses_every_public_def():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_defs(sources, private=False) == []


def test_guard_sees_an_unreferenced_member():
    sources = {"a.py": "class A:\n    x: int\n\n    def used(self):\n        pass\n\n"
                       "    @property\n    def dead(self):\n        pass\n\n"
                       "    def __len__(self):\n        return 0\n",
               "b.py": "from a import A\n\nA().used()\nA().dead = 1\n"}
    assert unreferenced_members(sources) == [("a.py", 8, "A.dead")]


def test_package_reads_every_public_member():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_members(sources) == []


def test_guard_sees_an_unread_constant():
    sources = {"a.py": "USED = 1\nDEAD = 2\nLISTED = 3\n_PRIVATE = 4\n"
                       "__all__ = ['LISTED']\n",
               "b.py": "import a\n\nGONE: int = a.USED\na.DEAD = 5\n"}
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


def under(name: str, root: str) -> bool:
    return name == root or name.startswith(root + ".")


def fft_imports(source: str) -> list:
    """(line, dotted name) of each import of ``numpy.fft``, ``scipy.fft`` or a
    name below either (``from numpy import fft`` and ``from numpy.fft import
    _pocketfft_umath`` included), and of each attribute read that reaches one
    through an imported name (``np.fft.rfftn`` after ``import numpy as np``)."""
    tree = ast.parse(source)
    found, bound, inner = [], {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
                root = alias.name.split(".")[0]  # what `import a.b` binds
                bound[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((node.lineno, ".".join([bound[base.id], *reversed(parts)])))
    return sorted((line, name) for line, name in found
                  if under(name, "numpy.fft") or under(name, "scipy.fft"))


def test_guard_sees_an_fft_import():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft, linalg\n"
              "from numpy.fft import _pocketfft_umath as pfu\nimport scipy.fft as sf\n"
              "from scipy.fft._pocketfft.pypocketfft import c2r\nfrom scipy import special\n"
              "x = np.fft.rfftn(np.zeros(2)).real\ny = np.linalg.norm\nimport numpy.fftw\n"
              "z = sf.next_fast_len(3)\n")
    assert fft_imports(source) == [
        (2, "numpy.fft"), (3, "numpy.fft"), (4, "numpy.fft._pocketfft_umath"),
        (5, "scipy.fft"), (6, "scipy.fft._pocketfft.pypocketfft.c2r"),
        (8, "numpy.fft.rfftn"), (11, "scipy.fft.next_fast_len")]


def test_package_transforms_only_in_fracops():
    # fracops owns the transforms (the convolution and the kernel symbol), and
    # no module calls numpy's private pocketfft gufuncs
    found = {path.name: hits for path in MODULES if (hits := fft_imports(path.read_text()))}
    assert "fracops.py" in found
    assert set(found) == {"fracops.py"}
    private = [(module, hit) for module, hits in found.items() for hit in hits
               if under(hit[1], "numpy.fft._pocketfft_umath")]
    assert private == []


def environment_reads(source: str) -> list:
    """(line, what) of each read of the process environment: ``os.environ``
    or ``os.getenv`` (through any name bound to ``os``) and ``from os import
    environ`` or ``getenv``."""
    tree = ast.parse(source)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, f"from os import {alias.name}")
                         for alias in node.names if alias.name in ("environ", "getenv"))
    return sorted(found)


def test_guard_sees_an_environment_read():
    source = ("import os\nimport os as system\nfrom os import environ, path\n"
              "from os import getenv as ge\nos.path.join('a')\n"
              "x = os.environ.get('A')\ny = system.getenv('B')\nenviron = {}\n")
    assert environment_reads(source) == [(3, "from os import environ"),
                                         (4, "from os import getenv"),
                                         (6, "os.environ"), (7, "system.getenv")]


def test_package_reads_no_environment():
    # every setting comes from the command line
    found = {path.name: hits for path in MODULES if (hits := environment_reads(path.read_text()))}
    assert found == {}


def hidden_state(source: str) -> list:
    """(line, what) of each ``object.__setattr__`` in `source` and of each def
    of ``__getstate__`` or ``__setstate__``, at any depth: the ways a frozen
    value grows state that its fields do not show, or hides some from pickle."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found.append((node.lineno, "object.__setattr__"))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in ("__getstate__", "__setstate__")):
            found.append((node.lineno, f"def {node.name}"))
    return sorted(found)


def test_guard_sees_hidden_state():
    source = ("class G:\n    def cached(self):\n"
              "        object.__setattr__(self, '_c', 1)\n\n"
              "    def __getstate__(self):\n        return {}\n\n"
              "    def __setstate__(self, state):\n        pass\n\n"
              "    def __setattr__(self, name, value):\n        super().__setattr__(name, value)\n"
              "\nsetter = object.__setattr__\n")
    assert hidden_state(source) == [(3, "object.__setattr__"), (5, "def __getstate__"),
                                    (8, "def __setstate__"), (14, "object.__setattr__")]


def test_package_values_hold_only_their_fields():
    # Grid, FracParams and ObstacleProblem are pickled to verify's workers as
    # plain frozen values: no cache written behind the frozen flag, no pickle hook
    found = {path.name: hits for path in MODULES if (hits := hidden_state(path.read_text()))}
    assert found == {}


def fault_line_reads(sources: dict) -> list:
    """(module, line, owner) of each read of ``_machine_line``, by name or as
    an attribute, in `sources` (file name -> source text); owner is the
    outermost def around the read, or None at module level.  Only the reads
    in cli's ``main`` are allowed: main is the one map from a fault to its
    FRACPME-FAIL line, and a command that prints its own has grown a second."""
    found = []

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name == "_machine_line" and isinstance(child.ctx, ast.Load):
                found.append((module, child.lineno, owner))
            outermost = owner is None and isinstance(child, (ast.FunctionDef,
                                                             ast.AsyncFunctionDef))
            visit(module, child, child.name if outermost else owner)

    for module, source in sources.items():
        visit(module, ast.parse(source), None)
    return sorted(found, key=lambda f: f[:2])


def test_guard_sees_a_fault_line_outside_main():
    sources = {"cli.py": "def _machine_line(kind, detail):\n    print(kind, detail)\n\n"
                         "def cmd(cfg):\n    try:\n        pass\n"
                         "    except ValueError as exc:\n        _machine_line('config', exc)\n\n"
                         "def main():\n    def report(v):\n        _machine_line('config', v)\n"
                         "    _machine_line('numerical', 'x')\n    return report\n\n"
                         "alias = _machine_line\n",
               "verify.py": "from . import cli\n\ndef run_suite():\n"
                            "    cli._machine_line('numerical', 'x')\n"}
    assert fault_line_reads(sources) == [
        ("cli.py", 8, "cmd"), ("cli.py", 12, "main"), ("cli.py", 13, "main"),
        ("cli.py", 16, None), ("verify.py", 4, "run_suite")]


def test_only_main_prints_a_fault_line():
    sources = {path.name: path.read_text() for path in MODULES}
    found = fault_line_reads(sources)
    assert found and {(module, owner) for module, _, owner in found} == {("cli.py", "main")}


CLI_IMPORT_PROBE = """
import sys
from fracpme.cli import main

print(sorted(m for m in ("multiprocessing", "concurrent.futures.process",
                         "concurrent.futures.thread") if m in sys.modules))
codes = [main(["evolve", "--N", "32", "--L", "4", "--end-time", "0.01", "--out", "evolve"]),
         main(["obstacle", "--N", "32", "--L", "4", "--C", "1", "--out", "obstacle"])]
print(codes, "scipy.interpolate" in sys.modules)
import fracpme.verify
print("scipy.interpolate" in sys.modules)
"""


def test_cli_import_loads_no_process_machinery(tmp_path):
    # fanout imports the process pool; neither the command line nor an evolve
    # or obstacle run may pay for it, and no package module (verify included)
    # imports scipy.interpolate
    env = dict(os.environ, PYTHONPATH=str(Path(fracpme.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", CLI_IMPORT_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == ["[0, 0] False", "False"]
