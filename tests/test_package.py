"""The runtime stays stdlib-only: every import in the package is of the
standard library or of the package itself, and it declares no dependency."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "f5gb"


def _imported_modules(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {module}"
        for path in files
        for line, module in _imported_modules(path)
        if module != "f5gb" and module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
