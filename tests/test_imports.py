"""The runtime stays stdlib-only: the package imports nothing but the standard
library and itself. ``domain``, which every layer reads, imports nothing from
the package. Only an HTTP backend's first request loads the HTTP client stack."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
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


# Run in a fresh interpreter: which of the HTTP client modules (and ``ssl``,
# the heaviest they pull in) a command and a built HttpBackend newly load,
# then whether its first request fails as a BackendError with all of them
# loaded. Comparing against the start-up set keeps a site hook that preloads
# ``ssl`` from failing the check.
_PROBE = textwrap.dedent("""
    import json, sys
    at_start = set(sys.modules)
    stack = {"http.client", "urllib.request", "ssl"}
    from estateqa import cli
    from estateqa.backends import BackendError, HttpBackend
    assert cli.main(["fixture", "--out", sys.argv[1], "--cities", "Suzhou",
                     "--communities", "5", "--pois", "5", "--seed", "1"]) == 0
    backend = HttpBackend("http://127.0.0.1:9/nothing", model="m")
    loaded = sorted(stack & (set(sys.modules) - at_start))
    try:
        backend.complete("s", [])
        failed = False
    except BackendError:
        failed = True
    print(json.dumps([loaded, failed, stack <= set(sys.modules)]))
""")


def test_only_an_http_request_loads_the_http_client_stack(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "fx")],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    loaded, failed, stack_loaded = json.loads(out.splitlines()[-1])
    assert loaded == []
    assert failed and stack_loaded
