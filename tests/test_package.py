"""Every name the package and its modules export exists."""

import importlib
import pkgutil

import minkdecode


def test_every_exported_name_resolves():
    modules = [minkdecode] + [
        importlib.import_module(f"minkdecode.{info.name}")
        for info in pkgutil.iter_modules(minkdecode.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
