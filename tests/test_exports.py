import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import funcutpoint

MODULES = sorted(info.name for info in pkgutil.iter_modules(funcutpoint.__path__))


@pytest.mark.parametrize("name", ["funcutpoint"] + [f"funcutpoint.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


ARTIFACT_WRITERS = {("json", "dumps"), ("json", "dump"), ("csv", "writer")}


def _artifact_writer_uses(path: Path):
    """The json.dump(s) and csv.writer references in a source file, whether
    written as attributes or imported by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in ARTIFACT_WRITERS):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if (node.module, alias.name) in ARTIFACT_WRITERS]
    return found


def test_artifact_format_lives_in_quantiles():
    """Only quantiles.write_json and write_csv serialise artifacts."""
    src = Path(funcutpoint.__file__).parent
    uses = {path.name: _artifact_writer_uses(path) for path in sorted(src.glob("*.py"))}
    assert uses.pop("quantiles.py") != []
    assert {name: found for name, found in uses.items() if found} == {}
