"""The package's public surface: every exported name resolves, and the SC
engine's per-node helpers stay private to sctree."""

import ast
import importlib
from pathlib import Path

import pytest

import polarmhw

# the modules whose __all__ a profiler may walk, wrapping every name in it
MODULES = ("construction", "bound", "bitops", "sctree", "listdec", "mhw", "channel", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"polarmhw.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_acceptance_imports_resolve_on_the_package():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "polarmhw"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(polarmhw, name)] == []


def test_sc_node_helpers_are_not_package_names():
    for name in ("f_combine", "g_combine", "beta_combine", "hard_decision"):
        assert not hasattr(polarmhw, name), name
        assert name not in importlib.import_module("polarmhw.sctree").__all__
