"""flatmin depends on numpy alone: every module imports only the standard
library, numpy and flatmin itself. scipy may be installed alongside, so an
import of it would run here and fail only for a user without it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import flatmin

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "flatmin"}
MODULES = sorted(Path(flatmin.__file__).parent.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import; relative imports stay in flatmin."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"__init__", "cli", "flatness", "objectives"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_imports_only_stdlib_numpy_and_flatmin(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import errors\n")
    assert imported_roots(tree) - ALLOWED == {"scipy"}
