"""Layer order, checked on the source: lower layers never import higher ones.

Every module under ``src/repro/`` is parsed with :mod:`ast`, so imports
inside functions count as much as module-level ones:

* only ``repro/cli.py`` imports ``repro.cli`` (the service and the
  library never reach up into the command line);
* nothing under ``repro/queries/`` imports ``repro.engine``,
  ``repro.service`` or ``repro.cli`` (the query front-end sits below every
  surface that answers queries).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE_ROOT = SRC / "repro"


def _imports(source: str, package: List[str]) -> Iterator[Tuple[int, str]]:
    """``(line, dotted name)`` for every module and name ``source`` imports.

    ``from repro import cli`` yields both ``repro`` and ``repro.cli``;
    relative imports resolve against ``package``, the importing module's
    package as a list of names.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _violations(paths, forbidden) -> list:
    found = []
    for path in paths:
        package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
        for line, name in _imports(path.read_text(), package):
            if any(name == top or name.startswith(top + ".") for top in forbidden):
                found.append(f"{path.relative_to(SRC)}:{line} imports {name}")
    return found


def test_only_the_cli_imports_the_cli():
    modules = [
        path for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if path != PACKAGE_ROOT / "cli.py"
    ]
    assert len(modules) > 50
    assert _violations(modules, ["repro.cli"]) == []


def test_the_query_front_end_imports_no_surface():
    modules = sorted((PACKAGE_ROOT / "queries").rglob("*.py"))
    assert PACKAGE_ROOT / "queries" / "frontend.py" in modules
    forbidden = ["repro.engine", "repro.service", "repro.cli"]
    assert _violations(modules, forbidden) == []


def test_the_scan_sees_function_level_and_relative_imports():
    source = (
        "def handler():\n"
        "    from repro.cli import parse_ranges\n"
        "from .. import cli\n"
        "from .store import EpochStore\n"
    )
    names = {name for _, name in _imports(source, ["repro", "engine"])}
    assert {"repro.cli.parse_ranges", "repro.cli", "repro.engine.store"} <= names
