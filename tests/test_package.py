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
