"""The runtime stays stdlib-only: the package imports nothing but the standard
library and itself. ``domain``, which every layer reads, imports nothing from
the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "estateqa"


def _imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each import in a source file; a module imported
    relatively from the package is named as ``estateqa.<module>``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            found.extend((node.lineno, f"{PACKAGE.name}.{module}") for module in modules)
    return found


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for lineno, module in _imports(path):
            top = module.split(".")[0]
            if top != PACKAGE.name and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {module}")
    assert foreign == []


def test_domain_imports_no_other_package_module():
    own = [module for _, module in _imports(PACKAGE / "domain.py")
           if module.split(".")[0] == PACKAGE.name]
    assert own == []
