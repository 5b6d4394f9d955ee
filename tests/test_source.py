"""Source hygiene of the package's modules, checked with the standard library.

Every name a module imports is used in it, unless the line that imports it
carries `# noqa: F401` (a name kept for a caller that looks it up on the
module), and no line is longer than 100 characters.  The only such caller is
the benchmark's tracer: a marked import must be a name that `_SPANS` in
`bench/tracing.py` looks up on that module.  `__init__.py` is left out: it
imports names only to export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tropiprune"
TRACING = ROOT / "bench" / "tracing.py"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MAX_LINE = 100


def imports(source: str) -> list[tuple[str, bool]]:
    """(name, marked `# noqa: F401`) for each name the source imports."""
    lines = source.splitlines()
    return [(alias.asname or alias.name.partition(".")[0],
             "# noqa: F401" in lines[alias.lineno - 1])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def unused_imports(source: str) -> list[str]:
    """Each imported name never used in the source and not marked `# noqa: F401`."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name, marked in imports(source) if name not in used and not marked]


def traced_names(source: str) -> set[tuple[str, str]]:
    """The (module, name) pairs of the `_SPANS` table in the tracer's source."""
    spans = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_SPANS"])
    return {(span.elts[0].id, span.elts[1].value) for span in spans.elts}


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
    assert [name for name, marked in imports(source) if marked] == ["forward"]
    assert long_lines(source) == [8]
    assert traced_names("_SPANS = ((cli, 'main', 'cli', None),\n"
                        "          (harness, 'forward', 'adapter.forward', f))\n"
                        "_BEFORE = {}\n") == {("cli", "main"), ("harness", "forward")}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_marked_imports_are_names_the_tracer_looks_up():
    traced = traced_names(TRACING.read_text())
    marked = {(path.stem, name) for path in MODULES
              for name, is_marked in imports(path.read_text()) if is_marked}
    assert marked - traced == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_lines_fit_in_100_characters(path):
    assert long_lines(path.read_text()) == []
