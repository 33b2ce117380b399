"""Every name a module of src or tests imports is used in that module, and
every name the package re-exports is used by the program.

No linter ships with the project, so this walks each file's AST: a name
bound by an import must occur as a name somewhere in the file.
src/loglegendre/__init__.py is left out there, since its imports are the
package's re-exports; each of those must occur as a name or an attribute in
another module of src or in bench.  So must every public function and class
defined at the top level of a module of src, and every public method of
those classes, so that code only the tests call stays out of the package.
Every private function defined at the top level of a module of src must
occur as a name or an attribute in src or in bench, so that a helper whose
last caller went is deleted with it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loglegendre"
SRC = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the imports of source bind and the rest never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_guard_sees_an_unused_import():
    source = "import os.path\nimport sys\nfrom math import comb as c, gcd\nsys.exit(gcd(2, 4))\n"
    assert unused_imports(source) == ["c", "os"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(source: str) -> set[str]:
    """The names that source reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_guard_sees_names_and_attributes():
    assert referenced_names("import os\nos.path.join(a, b=c)\n") == {"os", "path", "join", "a", "c"}


def program_names() -> set[str]:
    """The names that the modules of src, past __init__.py, and bench read."""
    return set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in SRC + sorted((ROOT / "bench").glob("*.py"))))


def test_every_reexport_is_used():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(exported - program_names()) == []


def public_definitions(source: str) -> set[str]:
    """The public functions and classes that source defines at its top level,
    and the public methods of those classes (dunders are not public)."""
    top = ast.parse(source).body
    methods = [node for cls in top if isinstance(cls, ast.ClassDef) for node in cls.body]
    return {node.name for node in top + methods
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def private_functions(source: str) -> set[str]:
    """The private functions that source defines at its top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}


def test_guard_sees_public_definitions():
    source = ("def f():\n    def g(): pass\nclass C:\n    def m(self): pass\n"
              "    def __len__(self): pass\n    def _n(self):\n        def k(): pass\n"
              "def _h(): pass\nclass _D:\n    def _e(self): pass\n"
              "def _i():\n    def _j(): pass\n")
    assert public_definitions(source) == {"f", "C", "m"}
    assert private_functions(source) == {"_h", "_i"}


def test_every_public_definition_is_used():
    defined = set().union(*(public_definitions(p.read_text(encoding="utf-8")) for p in SRC))
    assert sorted(defined - program_names()) == []


def test_every_private_function_is_used():
    defined = set().union(*(private_functions(p.read_text(encoding="utf-8")) for p in SRC))
    assert sorted(defined - program_names()) == []
