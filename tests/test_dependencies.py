"""flatmin depends on numpy alone: every module imports only the standard
library, numpy and flatmin itself. scipy may be installed alongside, so an
import of it would run here and fail only for a user without it.

Inside flatmin the modules form layers: each imports only the modules below
it, so the command line and the benchmark protocol never end up under the
estimators they call. No module imports a name it never uses, apart from the
package root, whose imports are its exports, and no private module-level name
goes unread, so a helper folded into its caller does not linger.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import flatmin

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "flatmin"}
MODULES = sorted(Path(flatmin.__file__).parent.glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    """Dotted name of every imported module; a relative import names one of flatmin's."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(f"flatmin.{node.module}")
        elif isinstance(node, ast.ImportFrom):  # from . import x
            names.update(f"flatmin.{alias.name}" for alias in node.names)
    return names


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every import."""
    return {name.split(".")[0] for name in imported_modules(tree)}


# the flatmin modules each module may import; the package root counts as
# "__init__", which imports the estimators and optimizers
LAYERS = {
    "errors": set(),
    "objectives": {"errors"},
    "optimizers": {"errors", "objectives"},
    "flatness": {"errors", "objectives"},
    "shiftbench": {"errors", "objectives", "optimizers", "flatness"},
}


def flatmin_imports(tree: ast.AST) -> set[str]:
    """The flatmin modules an import names, the package root as ``__init__``."""
    return {
        name.partition(".")[2] or "__init__"
        for name in imported_modules(tree)
        if name.split(".")[0] == "flatmin"
    }


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"__init__", "cli", "flatness", "objectives"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_imports_only_stdlib_numpy_and_flatmin(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import errors\n")
    assert imported_roots(tree) - ALLOWED == {"scipy"}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_the_layers_below_it(module):
    path = Path(flatmin.__file__).parent / f"{module}.py"
    imports = flatmin_imports(ast.parse(path.read_text(), filename=str(path)))
    assert imports <= LAYERS[module], f"{module} imports {sorted(imports - LAYERS[module])}"


def test_the_layer_check_sees_every_form_of_import():
    tree = ast.parse(
        "from .cli import main\nfrom . import shiftbench\nimport flatmin.flatness\nimport flatmin\n"
    )
    assert flatmin_imports(tree) == {"cli", "shiftbench", "flatness", "__init__"}


def unused_imports(tree: ast.AST) -> set[str]:
    """Each name an import binds that no expression of the module reads; ``import
    a.b`` binds ``a``, and a ``__future__`` import binds nothing."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_unused_import_check_sees_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "import numpy as np\nfrom json import dumps, loads\n"
        "x: np.ndarray = os.path.join(dumps(1))\n"
    )
    assert unused_imports(tree) == {"math", "loads"}


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each ``_``-prefixed function, class or constant a module defines at its
    top level, with the statement that defines it; dunder names such as
    ``__all__`` are not private."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            names.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return {n: node for n, node in names.items() if n.startswith("_") and not n.startswith("__")}


def reads(tree: ast.AST, name: str, module: str | None = None) -> bool:
    """Whether ``tree`` reads ``name``: as a bare name, or, given the ``module``
    that defines it, as an import from that module or an attribute of it."""
    for node in ast.walk(tree):
        if module is None:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
                return True
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            if any(alias.name == name for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            if isinstance(node.value, ast.Name) and node.value.id == module:
                return True
    return False


def unread_private_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` for each private module-level name that nothing outside
    its own definition reads, in its module or in any other of ``sources``
    (module name to source)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unread = set()
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            rest = [node for node in tree.body if node is not definition]
            if not any(reads(node, name) for node in rest) and not any(
                reads(other, name, module) for m, other in trees.items() if m != module
            ):
                unread.add(f"{module}.{name}")
    return unread


def test_every_private_name_is_read():
    unread = unread_private_names({path.stem: path.read_text() for path in MODULES})
    assert not unread, f"private names that nothing in flatmin reads: {sorted(unread)}"


def test_the_private_name_check_sees_an_unread_helper():
    sources = {
        # _unread calls itself, which is no read from outside its definition
        "a": "_LIMIT: int = 3\ndef _used():\n    return 1\ndef _unread():\n    return _unread()\n"
        "class _Kept: ...\n__all__ = []\nx = _used()\n",
        "b": "from .a import _LIMIT\nfrom . import a\ny = _LIMIT + a._Kept.z\n",
    }
    assert unread_private_names(sources) == {"a._unread"}
