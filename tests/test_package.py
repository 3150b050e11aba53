import ast
import inspect
from pathlib import Path

import tracelab


def test_every_imported_public_name_is_exported():
    tree = ast.parse(inspect.getsource(tracelab))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(tracelab.__all__) == set()
    assert all(hasattr(tracelab, name) for name in tracelab.__all__)


def test_engine_is_set_on_exactly_the_trace_entry_points():
    takes_engine = {
        name
        for name in tracelab.__all__
        if inspect.isfunction(getattr(tracelab, name))
        and "engine" in inspect.signature(getattr(tracelab, name)).parameters
    }
    assert takes_engine == {
        "trace_poly",
        "classify_rational",
        "classify_global",
        "cached_trace_poly",
    }


def _unread_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_imported_name_is_read():
    root = Path(__file__).resolve().parent.parent
    modules = [
        path
        for directory in (root / "src" / "tracelab", root / "tests", root / "scripts")
        for path in sorted(directory.glob("*.py"))
    ]
    unread = {
        f"{path.relative_to(root)}: {name}"
        for path in modules
        if path.name != "__init__.py"
        for name in _unread_imports(path)
    }
    assert unread == set()
