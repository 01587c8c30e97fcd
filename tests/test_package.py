"""The package's public surface."""

import ast
from pathlib import Path

import intham


def test_every_exported_name_resolves():
    missing = [name for name in intham.__all__ if not hasattr(intham, name)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports to re-export; every other module imports to use.
    unused = []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_json_decoders_read_integers_through_one_rule():
    # ``int()`` truncates 3.9 and reads "44" as 44; ``operator.index`` and
    # ``isinstance(v, int)`` admit true and false.  Every ``*_from_json``
    # decoder leaves integers to ``hamiltonians.integers`` and ``read_key``.
    found = []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")):
                continue
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                name = ast.unparse(call.func)
                admits_int = name == "isinstance" and len(call.args) == 2 and any(
                    isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(call.args[1])
                )
                if name in ("int", "operator.index") or admits_int:
                    found.append(f"{path.name}:{call.lineno} {fn.name} calls {ast.unparse(call)}")
    assert found == []
