"""Layout rules of the package source.

No module imports another module's private helpers, only ``certify.py``
imports ``scipy.stats``, and the API that lives in ``tests/oracles.py`` (the
single-budget certificate and the accessors only tests use) is not exported.
Certificates read the smoothing noise, mode and degrees from the vote table,
so no certify entry point takes them again.
"""
import ast
import inspect
from pathlib import Path

import pytest

import smoothcert

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "smoothcert")
                 .glob("*.py"))
REMOVED = ("certify_node", "CertDecision", "Outcome", "VoteStats",
           "vote_bounds", "certify_overlap", "certified_precision_recall",
           "save_model", "load_model", "read_curve_csv", "CertConfig")
# Methods and fields whose only callers were tests.
REMOVED_MEMBERS = (("CertCurve", "certified_at"), ("AttackPlan", "from_json"),
                   ("AttackPlan", "degrees"), ("Graph", "indices"),
                   ("Graph", "degree"), ("Graph", "neighbors"),
                   ("Graph", "has_edge"), ("InteractionMatrix", "user_ids"),
                   ("InteractionMatrix", "item_ids"))


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


def stats_imports(path):
    """Line numbers of every import of ``scipy.stats`` or a submodule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        else:
            continue
        if any(name == "scipy.stats" or name.startswith("scipy.stats.")
               for name in names):
            found.append(node.lineno)
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
    modules = (smoothcert.attack, smoothcert.certify, smoothcert.graph,
               smoothcert.models, smoothcert.pipeline, smoothcert.recsys)
    assert not any(hasattr(module, name) for module in modules)


@pytest.mark.parametrize("owner, name", REMOVED_MEMBERS,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_test_only_members_are_gone(owner, name):
    cls = getattr(smoothcert, owner)
    fields = getattr(cls, "__dataclass_fields__", {})
    assert not hasattr(cls, name) and name not in fields


CERTIFY_ENTRY_POINTS = ("certified_radii", "certified_accuracy_curve",
                        "certified_accuracy_at", "certified_overlap_radii",
                        "recommender_curve", "certify_user_overlap")


@pytest.mark.parametrize("name", CERTIFY_ENTRY_POINTS)
def test_certify_entry_points_take_no_second_copy_of_the_table(name):
    parameters = inspect.signature(getattr(smoothcert, name)).parameters
    assert list(parameters)[0] == "table"
    assert not {"params", "config", "degrees", "mode"} & set(parameters)


def test_vote_table_has_no_stats_for():
    assert not hasattr(smoothcert.VoteTable, "stats_for")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_certify_imports_scipy_stats(path):
    assert bool(stats_imports(path)) == (path.name == "certify.py")


def test_stats_import_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import scipy.stats\n"
                      "from scipy import stats\n"
                      "from scipy.stats import beta\n"
                      "import scipy.special\n"
                      "from scipy import special\n")
    assert stats_imports(source) == [1, 2, 3]


def test_one_report_writer():
    # The recommender name stays only as an alias of the one writer.
    assert smoothcert.write_recommender_report is smoothcert.write_report
