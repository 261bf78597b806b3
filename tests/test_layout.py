"""Layout rules of the package source.

No module imports another module's private helpers, and the single-budget
certificate API that lives in ``tests/oracles.py`` is not exported.
"""
import ast
from pathlib import Path

import pytest

import smoothcert

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "smoothcert")
                 .glob("*.py"))
REMOVED = ("certify_node", "CertDecision", "Outcome", "VoteStats",
           "vote_bounds", "certify_overlap", "certified_precision_recall",
           "save_model", "load_model")


def private_imports(path):
    """``(line, name)`` of every private name imported from the package
    (dunder names such as ``__version__`` are public)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("smoothcert")):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "certify.py",
                                         "pipeline.py", "recsys.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_private_helpers(path):
    assert private_imports(path) == []


def test_private_import_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .graph import Graph, _frozen\n"
                      "from smoothcert.pipeline import _BATCH_ROWS\n"
                      "from numpy import _NoValue\n"
                      "from . import __version__\n")
    assert private_imports(source) == [(1, "_frozen"), (2, "_BATCH_ROWS")]


@pytest.mark.parametrize("name", REMOVED)
def test_single_budget_api_is_not_exported(name):
    assert not hasattr(smoothcert, name)
    modules = (smoothcert.certify, smoothcert.models, smoothcert.pipeline,
               smoothcert.recsys)
    assert not any(hasattr(module, name) for module in modules)


def test_vote_table_has_no_stats_for():
    assert not hasattr(smoothcert.VoteTable, "stats_for")
