"""numpy stays the only runtime dependency: the package imports nothing else
from outside the standard library."""

import ast
import sys
from pathlib import Path

import mammocad

PACKAGE = Path(mammocad.__file__).parent


def test_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {module}")
    assert outside == []
