import ast
import importlib
import pkgutil
from pathlib import Path

import ntbounds


def test_every_exported_name_exists_once():
    for info in pkgutil.iter_modules(ntbounds.__path__):
        module = importlib.import_module(f"ntbounds.{info.name}")
        exported = module.__all__
        assert len(exported) == len(set(exported)), f"{info.name} lists a name twice"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"ntbounds.{info.name}.__all__ names missing {missing}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in __all__ is
    re-exported, and so used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(Path(ntbounds.__file__).parent.glob("*.py")):
        unused = _unused_imports(path.read_text())
        assert not unused, f"{path.name} imports but never uses {unused}"


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("from x import a, b\nimport c.d\nprint(a)\n") == \
        ["b (line 1)", "c (line 2)"]
    assert _unused_imports("from x import a\n__all__ = ['a']\n") == []
