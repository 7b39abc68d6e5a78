"""The package imports nothing outside the standard library and itself, and
neither ``typing`` nor ``re``: a cold process would import ``typing``, and
compile a pattern, only for the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellbundle"


def imports(path: Path):
    """(line, relative level, module) for every import statement in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.level, node.module or ""


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    outside = [
        f"{path.name}:{line}: {'.' * level}{module}"
        for path in sources
        for line, level, module in imports(path)
        # The package is flat, so a relative import stays inside it at level 1.
        if (level == 0 and module.split(".")[0] not in sys.stdlib_module_names) or level > 1
    ]
    assert outside == []


def test_package_imports_neither_typing_nor_re():
    found = [
        f"{path.name}:{line}: {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, level, module in imports(path)
        if level == 0 and module.split(".")[0] in {"typing", "re"}
    ]
    assert found == []
