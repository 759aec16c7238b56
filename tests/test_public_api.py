import importlib
import pkgutil

import ntbounds


def test_every_exported_name_exists_once():
    for info in pkgutil.iter_modules(ntbounds.__path__):
        module = importlib.import_module(f"ntbounds.{info.name}")
        exported = module.__all__
        assert len(exported) == len(set(exported)), f"{info.name} lists a name twice"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"ntbounds.{info.name}.__all__ names missing {missing}"
