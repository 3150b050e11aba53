import ast
import inspect

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
