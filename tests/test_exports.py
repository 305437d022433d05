import importlib
import pkgutil

import pytest

import funcutpoint

MODULES = sorted(info.name for info in pkgutil.iter_modules(funcutpoint.__path__))


@pytest.mark.parametrize("name", ["funcutpoint"] + [f"funcutpoint.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
