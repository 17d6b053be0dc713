"""numpy stays the only runtime dependency: the package imports nothing else
from outside the standard library. And every module uses what it imports, and
the package every private helper it defines."""

import ast
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import mammocad

PACKAGE = Path(mammocad.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def bench_hooked_pipeline_names() -> set[str]:
    """The names ``bench/tracing.py`` hooks on ``mammocad.pipeline`` by ``getattr``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hooks = module.TIMED + module.COUNTED
    return {name for mod, name, *_ in hooks if mod.__name__ == "mammocad.pipeline"}


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


def test_import_leaves_numpy_random_unloaded():
    """``import mammocad`` does not load ``numpy.random`` (~10 ms a process);
    only a phantom's first draw does."""
    probe = "import sys, mammocad; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_no_unused_imports():
    """Each module-level import is used in its module, but for the bench's hooks.

    The benchmark's tracer wraps names on ``mammocad.pipeline``, so the
    pipeline may import one it no longer calls; no other module may.
    """
    hooked = bench_hooked_pipeline_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # the package's re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]  # the name it binds
                if name not in used and not (path.name == "pipeline.py" and name in hooked):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def names_read(node: ast.AST) -> set[str]:
    """The names ``node`` reads: names loaded, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_no_orphaned_private_helpers():
    """Each module-level ``_name`` (function, class or constant) is read in the
    package outside the statement that defines it: a helper left without a
    caller is dead code."""
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [names_read(node) for _, node in statements]
    orphans = []
    for i, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in defined:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in read for j, read in enumerate(reads) if j != i):
                orphans.append(f"{module}:{name}")
    assert orphans == []


def attributes_read(tree: ast.AST, owner: str) -> set[str]:
    """The ``owner.<name>`` attributes read anywhere in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    }


def function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_every_config_field_and_rule_is_read():
    """No dead knobs: a field that is only validated steers nothing.

    Every ``PipelineConfig`` field is read as ``cfg.<field>`` in
    ``pipeline.py`` outside ``validate``, and every ``RuleSet`` field in
    ``classify.classify``.
    """
    from mammocad.classify import RuleSet
    from mammocad.pipeline import PipelineConfig

    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    function(tree, "validate").body = []  # its reads do not count
    unread = {f.name for f in fields(PipelineConfig)} - attributes_read(tree, "cfg")
    tree = function(ast.parse((PACKAGE / "classify.py").read_text(encoding="utf-8")), "classify")
    unread |= {f.name for f in fields(RuleSet)} - attributes_read(tree, "rules")
    assert unread == set()
