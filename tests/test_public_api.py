import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh_import(modules: str, probes: list[str]) -> list[bool]:
    """Whether each probed module is in sys.modules after a fresh process
    imports `modules` (a comma-separated list)."""
    src = str(Path(ntbounds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, {modules}; print(*[m in sys.modules for m in {probes!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return [word == "True" for word in out.split()]


def test_cli_import_loads_libmp_without_mpmath():
    # mpmath/__init__ builds every mpmath context; only its libmp layer is used
    assert _fresh_import("ntbounds.cli", ["mpmath", "ntbounds.libmp"]) == [False, True]


def test_subgroup_core_loads_no_interval_arithmetic():
    # these modules raise refusals from ntbounds.errors and do exact integer work
    assert _fresh_import(
        "ntbounds.subgroups, ntbounds.rings, ntbounds.bruteforce, ntbounds.chow_hurwitz",
        ["ntbounds.errors", "ntbounds.rounding", "ntbounds.libmp"]) == [True, False, False]


def test_reporting_import_loads_no_report_producer():
    assert _fresh_import("ntbounds.reporting", [
        "ntbounds.bounds", "ntbounds.search", "ntbounds.subgroups"]) == [False, False, False]


def test_errors_module_imports_nothing():
    tree = ast.parse((Path(ntbounds.__file__).parent / "errors.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_libmp_loader_agrees_with_mpmath_libmp():
    from mpmath import libmp as reference

    from ntbounds import libmp
    assert libmp.mpi_log.__module__ == f"{libmp._PACKAGE}.libmpi"  # a copy of its own
    x = reference.from_int(7 ** 100, 200, reference.round_floor)
    assert libmp.from_int(7 ** 100, 200, libmp.round_floor) == x
    two = (reference.from_int(2), reference.from_int(2))
    assert libmp.mpi_log(two, 300) == reference.mpi_log(two, 300)


def test_libmp_loader_fails_with_import_error_without_mpmath(monkeypatch):
    from ntbounds import libmp
    monkeypatch.setattr(libmp.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError):
        libmp._load()


_PACKAGE_DIR = Path(ntbounds.__file__).parent
_REPO = _PACKAGE_DIR.parent.parent
# eval_interval is the tests' only view of an unrounded enclosure: the
# library rounds every enclosure it hands out through eval_const.
_SURFACE_EXCEPTIONS = {"rounding.eval_interval"}


def _surface_references(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(enclosing top-level def or class, name) for every Name, Attribute and
    ImportFrom alias of a module, leaving out its __all__ list."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            continue
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.append((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((owner, node.attr))
            elif isinstance(node, ast.ImportFrom):
                found += [(owner, alias.name) for alias in node.names]
    return found


def _exported(tree: ast.Module) -> list[str]:
    return next((ast.literal_eval(stmt.value) for stmt in tree.body
                 if isinstance(stmt, ast.Assign) and any(
                     isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)), [])


def _outside_text(repo: Path) -> str:
    """The benchmark, the scripts and the acceptance criteria, as one text."""
    return " ".join(path.read_text() for path in [
        *sorted((repo / "perfbench").glob("*.py")),
        *sorted((repo / "scripts").glob("*.py")),
        repo / "tests" / "test_acceptance.py"])


def _unreferenced_surface(package_dir: Path, repo: Path) -> list[str]:
    """module.name for each name in a module's __all__ that no other code
    reaches: no reference in the package outside the name's own definition,
    and no word in the benchmark, the scripts or the acceptance criteria."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package_dir.glob("*.py"))}
    refs = {stem: _surface_references(tree) for stem, tree in trees.items()}
    outside = _outside_text(repo)
    dead = []
    for stem, tree in trees.items():
        for name in _exported(tree):
            used = any(ref == name and not (where == stem and owner == name)
                       for where, module_refs in refs.items()
                       for owner, ref in module_refs)
            if not used and not re.search(rf"\b{re.escape(name)}\b", outside):
                dead.append(f"{stem}.{name}")
    return [name for name in dead if name not in _SURFACE_EXCEPTIONS]


def _unreferenced_methods(package_dir: Path, repo: Path) -> list[str]:
    """Class.method for each method or property of a class in a module's
    __all__ that no other code reaches: no attribute of that name in the
    package outside the method's own body, and no word in the benchmark, the
    scripts or the acceptance criteria.

    Dunders are reached through syntax (`+`, `==`, `len`), not by name, so
    they are not checked. A method named like one of another type is masked
    by it: `EndRing.add` would look reached through any `set.add`. Neither is
    within reach of a name check."""
    trees = [ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))]
    attributes = [node for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    outside = _outside_text(repo)
    dead = []
    for tree in trees:
        exported = set(_exported(tree))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        method.name.startswith("__") and method.name.endswith("__")):
                    continue
                own = {id(node) for node in ast.walk(method)}
                used = any(node.attr == method.name and id(node) not in own
                           for node in attributes)
                if not used and not re.search(rf"\b{re.escape(method.name)}\b", outside):
                    dead.append(f"{cls.name}.{method.name}")
    return dead


def test_every_public_name_is_reached_outside_its_own_tests():
    assert _unreferenced_surface(_PACKAGE_DIR, _REPO) == []


def test_every_public_method_is_reached_outside_its_own_tests():
    assert _unreferenced_methods(_PACKAGE_DIR, _REPO) == []


def test_public_surface_check_sees_a_name_only_its_definition_reaches(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "__all__ = ['used', 'dead', 'named']\n"
        "def used():\n    return 1\n"
        "def dead():\n    return dead()\n"
        "def named():\n    return 2\n")
    (package / "b.py").write_text("from .a import used\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("TARGETS = ['a.named']\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    assert _unreferenced_surface(package, tmp_path) == ["a.dead"]


def test_method_check_sees_a_method_only_its_own_body_reaches(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "__all__ = ['Public']\n"
        "class Public:\n"
        "    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return self.named()\n"
        "    def dead(self):\n        return self.dead()\n"
        "    @property\n    def flag(self):\n        return 1\n"
        "    def named(self):\n        return 2\n"
        "class Private:\n"
        "    def hidden(self):\n        return 3\n")
    (package / "b.py").write_text("def f(p):\n    return p.used()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("FLAGS = ['flag']\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    assert _unreferenced_methods(package, tmp_path) == ["Public.dead"]
