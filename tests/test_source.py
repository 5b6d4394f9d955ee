"""Source hygiene of the package's modules, checked with the standard library.

Every name a module imports is used in it, unless the line that imports it
carries `# noqa: F401` (a name kept for a caller that looks it up on the
module), and no line is longer than 100 characters.  `__init__.py` is left
out: it imports names only to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tropiprune"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MAX_LINE = 100


def unused_imports(source: str) -> list[str]:
    """Each imported name never used in the source and not marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [(alias.asname or alias.name.partition(".")[0], alias.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name, line in imported
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def long_lines(source: str) -> list[int]:
    """The numbers of the lines longer than `MAX_LINE` characters."""
    return [n for n, line in enumerate(source.splitlines(), 1) if len(line) > MAX_LINE]


def test_the_checks_see_what_they_look_for():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import (chain,\n"
              "                       islice)\n"
              "from .adapter import forward  # noqa: F401\n"
              "import numpy as np\n"
              "x = chain(np.zeros(1))\n"
              + "#" * (MAX_LINE + 1) + "\n")
    assert unused_imports(source) == ["os", "islice"]
    assert long_lines(source) == [8]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_lines_fit_in_100_characters(path):
    assert long_lines(path.read_text()) == []
