import ast
import inspect
import re
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


def _docstrings(tree) -> set:
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }


def _mentions(path: Path) -> set:
    """Every name the module reads, imports or writes in a string, docstrings aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_defined_name_is_used():
    # a function, method or class of the package that nothing in the package,
    # its scripts or its benchmark names is dead code; dunders are called by
    # the language itself
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "tracelab").glob("*.py"))
    defined = {
        (path.name, node.name)
        for path in package
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = set()
    for directory in ("src", "scripts", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            named |= _mentions(path)
    assert {f"{module}: {name}" for module, name in defined if name not in named} == set()


def _defined_names(path: Path) -> set:
    """Every name a module binds: functions, classes, assignments and attributes it sets."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_every_cited_private_name_is_defined():
    # a private name in single or double backticks in the package, the tests or
    # the README must still be a module or a name bound in the package or the
    # tests, so no deleted helper is cited
    root = Path(__file__).resolve().parent.parent
    modules = [path for directory in ("src/tracelab", "tests") for path in sorted((root / directory).glob("*.py"))]
    cited = {
        (path.name, name)
        for path in [*modules, root / "README.md"]
        for name in re.findall(r"(?<!`)``?(_\w+)``?(?!`)", path.read_text())
    }
    defined = {path.stem for path in modules}.union(*map(_defined_names, modules))
    assert {f"{source}: {name}" for source, name in cited if name not in defined} == set()
