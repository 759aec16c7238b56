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


def _mpmath_imports(source: str) -> list[str]:
    """Imports that reach mpmath past its raw `libmp` layer: `import mpmath`,
    or a name such as `mp` or `iv` whose global context a module could read
    or change."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[0] == "mpmath"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name != "mpmath.libmp" and not name.startswith("mpmath.libmp."):
                    found.append(f"{name} (line {node.lineno})")
    return found


def test_no_module_imports_mpmath_outside_libmp():
    for path in sorted(Path(ntbounds.__file__).parent.glob("*.py")):
        found = _mpmath_imports(path.read_text())
        assert not found, f"{path.name} imports {found}"


def test_mpmath_import_check_sees_the_global_contexts():
    assert _mpmath_imports("import mpmath\nimport mpmath.libmp\n"
                           "from mpmath import mp, libmp\nfrom mpmath.ctx_iv import iv\n"
                           "from mpmath.libmp import mpf_add\n") == [
        "mpmath (line 1)", "mpmath.libmp (line 2)",
        "mpmath.mp (line 3)", "mpmath.ctx_iv.iv (line 4)"]
