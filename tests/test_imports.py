"""Every name a module of the package or of its tests imports is used in
that module, every public module-level function or class, every private
module-level function and every public method of a package class is
used somewhere in the package, and no module of the package holds an
``assert`` statement, which ``python -O`` strips.  Importing the CLI
loads neither ``dataclasses`` nor what it brings in, and no module of
the package calls ``object.__setattr__``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "schubres"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read as a name in the module."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of every public module-level function or class,
    and of every private one-underscore module-level function, of the
    package's ``modules`` that none of them uses.

    A name is used when its own module loads it outside its definition,
    another module imports it by name (``from schubres.mod import name``),
    or another module reads it as ``mod.name`` after ``from schubres
    import mod``.  A same-named variable in another module does not count.
    """
    defined, used = set(), set()
    for mod, tree in modules.items():
        package_modules = {}
        for stmt in tree.body:
            is_func = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            is_def = is_func or isinstance(stmt, ast.ClassDef)
            if is_def:
                name = stmt.name
                dunder = name.startswith("__") and name.endswith("__")
                if not name.startswith("_") or is_func and not dunder:
                    defined.add((mod, name))
            loads = {
                node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            used |= {(mod, name) for name in loads - ({stmt.name} if is_def else set())}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "schubres":
                package_modules |= {alias.asname or alias.name: alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schubres."):
                used |= {(node.module.split(".", 1)[1], alias.name) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in package_modules:
                    used.add((package_modules[node.value.id], node.attr))
    return sorted(f"{mod}.{name}" for mod, name in defined - used)


def unused_methods(modules: dict[str, ast.Module]) -> list[str]:
    """``module.Class.name`` of every public method or property of a class
    of the package's ``modules`` that none of them reads as an attribute.

    Any ``x.name`` anywhere counts, whatever x is: the scan cannot tell
    receivers apart, so a method is caught only when its name is read
    nowhere.  A read inside the method itself does not count.
    """
    defined = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined += [
                    (f"{mod}.{cls.name}.{node.name}", node)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                ]
    out = []
    for name, method in defined:
        inside = {id(node) for node in ast.walk(method)}
        read = any(
            isinstance(node, ast.Attribute) and node.attr == method.name
            for tree in modules.values()
            for node in ast.walk(tree)
            if id(node) not in inside
        )
        if not read:
            out.append(name)
    return sorted(out)


def test_scanner_finds_unused_names():
    tree = ast.parse("import os.path\nimport sys\nfrom a import b, c as d\nb(sys.argv)\n")
    assert unused_imports(tree) == ["d", "os"]


def test_scanner_finds_unused_definitions():
    a = (
        "def unused(): pass\n"
        "def recursive(): recursive()\n"
        "def _private(): pass\n"
        "def __getattr__(name): pass\n"
        "class Loaded: pass\n"
        "x = Loaded\n"
        "def imported(): pass\n"
        "def read(): pass\n"
        "def shadowed(): pass\n"
    )
    b = "from schubres.a import imported\nfrom schubres import a\na.read()\nshadowed = 1\nshadowed\n"
    modules = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unused_definitions(modules) == ["a._private", "a.recursive", "a.shadowed", "a.unused"]


# the package's modules and the test modules; no file name is in both
@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_scanner_finds_unused_methods():
    a = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def recursive(self): self.recursive()\n"
        "    def _private(self): pass\n"
        "    @property\n"
        "    def prop(self): pass\n"
        "    @staticmethod\n"
        "    def static(): pass\n"
        "def f(x): return x.used(), A.static()\n"
    )
    b = "from schubres.a import A\nA().prop\n"
    modules = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unused_methods(modules) == ["a.A.recursive", "a.A.unused"]


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def test_no_unused_definitions():
    assert unused_definitions(package_modules()) == []


def test_no_unused_methods():
    assert unused_methods(package_modules()) == []


def assert_lines(tree: ast.Module) -> list[int]:
    """Line numbers of the ``assert`` statements in the module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_scanner_finds_asserts():
    tree = ast.parse("assert x\ndef f():\n    if y:\n        assert z, 'msg'\nx = 'assert'\n")
    assert assert_lines(tree) == [1, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_asserts(path):
    assert assert_lines(ast.parse(path.read_text(), str(path))) == []


def test_cli_import_leaves_out_dataclasses_inspect_and_ast():
    # a fresh interpreter, without site or environment, that imports only the CLI
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import schubres.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def guarded_writes(modules: dict[str, ast.Module]) -> list[str]:
    """``module:line`` of every ``object.__setattr__`` in the package's
    ``modules``: the per-field write of a frozen class's constructor,
    which the value types avoid by being NamedTuples or slotted classes
    that set their fields directly."""
    out = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and getattr(node.value, "id", None) == "object"
            ):
                out.append(f"{mod}:{node.lineno}")
    return sorted(out)


def test_scanner_finds_guarded_writes():
    exactlin = (
        "class Subspace:\n"
        "    def __new__(cls, s):\n"
        "        object.__setattr__(s, 'n', 1)\n"
    )
    other = (
        "s.basis += ()\n"
        "object.__setattr__(s, 'n', 1)\n"
        "setattr(s, 'n', 1)\n"
        "f = object.__setattr__\n"
    )
    modules = {"exactlin": ast.parse(exactlin), "other": ast.parse(other)}
    assert guarded_writes(modules) == ["exactlin:3", "other:2", "other:4"]


def test_no_guarded_writes():
    assert guarded_writes(package_modules()) == []
