"""Layout rules of the package source.

No module imports another module's private helpers, no module imports
``scipy.stats`` (nor does ``import smoothcert`` load it), and the API that lives in ``tests/oracles.py`` (the
single-budget certificate and the accessors only tests use) is not exported.
Certificates read the smoothing noise, mode and degrees from the vote table,
so no certify entry point takes them again. Every vote table is counted by
one constructor, ``BaseVoteTable.collect``, into the one table it allocates:
the workers that count for it return nothing. Every report is rendered by
one writer, ``write_report``: it and ``AttackPlan.to_json`` are the only
callers of the JSON encoder. Every radius is found by one search,
``largest_certified_rho``: no other function loops over the budget up to
``RHO_CAP``, and no module but ``certify.py`` names the cap. One function,
``certify.margin``, is the margin of both modes, and it takes arrays:
outside ``certify.py`` no loop or comprehension names a margin. The closed
forms ``prob_all_removed``, ``prob_all_removed_recsys`` and
``node_retention_probs`` evaluate arrays of budgets and degrees, each
distinct value once: outside ``certify.py`` no loop or comprehension calls
them. The recommender ranks through ``top_items`` only: the
whole-matrix ``build_similarity`` and the one-user ``recommend_topk`` are
kept for the benchmark's fixture and hooks, and nothing in the package
calls them. A curve is one record array, built and checked a column at a
time: ``certified_accuracy_curve``, ``recommender_curve`` and
``Curve.__post_init__`` hold no loop or comprehension but over the curve's
share names, so none runs over rho. The only private scipy names the package imports are pinned,
since each one ties it to the scipy floor in ``pyproject.toml``. The models
train and predict: abstention is the vote collectors' rule, so no function
in ``models.py`` takes a ``mode``, and only ``ClassifierSpec.aggregates``
compares a model kind with its name. Every kind is the two-layer network
over an operator, with no second path for the MLP: ``aggregates`` is read
only where a kind's edges are chosen and in the two skips that draw no
samples, and no function in ``models.py`` compares an operator with
``None``. The operator type is ``models.Operator``, the arrays of its
filled rows: ``models.py`` builds no scipy sparse matrix. Every training
runs one loop: only ``models._fit`` calls ``_adagrad_step`` or loops over
epochs. An Adagrad step is one update over the parameter vector:
``_adagrad_step`` has no loop or comprehension, and ``_gradients`` writes
into the views of the gradient vector and returns no value. The forward
pass, ``_forward``, allocates no array: it writes into its workspace.
"""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothcert

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "smoothcert")
                 .glob("*.py"))
REMOVED = ("certify_node", "CertDecision", "Outcome", "VoteStats",
           "vote_bounds", "certify_overlap", "certified_precision_recall",
           "save_model", "load_model", "read_curve_csv", "CertConfig",
           "certified_accuracy_at", "CurvePoint", "RecommenderCurvePoint")
# Methods and fields whose only callers were tests, and the live-row
# wrapper that ``models.Operator`` replaced.
REMOVED_MEMBERS = (("CertCurve", "certified_at"), ("AttackPlan", "from_json"),
                   ("AttackPlan", "degrees"), ("Graph", "indices"),
                   ("Graph", "degree"), ("Graph", "neighbors"),
                   ("Graph", "has_edge"), ("InteractionMatrix", "user_ids"),
                   ("InteractionMatrix", "item_ids"), ("models", "_LiveRows"))


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


def private_scipy_imports(path):
    """Dotted path of every imported scipy name with a private component."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "scipy"
                  and any(part.startswith("_") and not part.endswith("__")
                          for part in name.split("."))]
    return found


def scoped(path, match):
    """``(line, "Class.function")`` scope of every node ``match`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if match(child):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def names(node, name):
    """Whether ``name`` appears in ``node`` as a name or an attribute."""
    return any(getattr(n, "id", None) == name or getattr(n, "attr", None) == name
               for n in ast.walk(node))


def calls_of(path, name):
    """``(line, "Class.function")`` scope of every call of ``name``."""
    return scoped(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


LOOPS = (ast.While, ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def rho_cap_loops(path):
    """``(line, scope)`` of every loop or comprehension naming ``RHO_CAP``."""
    return scoped(path, lambda node: isinstance(node, LOOPS)
                  and names(node, "RHO_CAP"))


def while_loops(path):
    return scoped(path, lambda node: isinstance(node, ast.While))


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
                        "certified_overlap_radii", "recommender_curve",
                        "certify_user_overlap")


@pytest.mark.parametrize("name", CERTIFY_ENTRY_POINTS)
def test_certify_entry_points_take_no_second_copy_of_the_table(name):
    parameters = inspect.signature(getattr(smoothcert, name)).parameters
    assert list(parameters)[0] == "table"
    assert not {"params", "config", "degrees", "mode"} & set(parameters)


def test_vote_table_has_no_stats_for():
    assert not hasattr(smoothcert.VoteTable, "stats_for")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy_stats(path):
    assert stats_imports(path) == []


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # A fresh interpreter: this one has loaded scipy.stats for the tests.
    root = str(Path(smoothcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    check = ("import sys, smoothcert; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", check], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_stats_import_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import scipy.stats\n"
                      "from scipy import stats\n"
                      "from scipy.stats import beta\n"
                      "import scipy.special\n"
                      "from scipy import special\n")
    assert stats_imports(source) == [1, 2, 3]


def test_private_scipy_names_are_pinned():
    # Both are checked against scipy 1.17.1: the binomial CDF ufunc behind
    # certify.majority_pvalue and the sparse kernels behind
    # models.add_sparse_product.
    found = {path.name: private_scipy_imports(path) for path in SOURCES}
    assert {name: imports for name, imports in found.items() if imports} == {
        "certify.py": ["scipy.special._ufuncs._binom_cdf"],
        "models.py": ["scipy.sparse._sparsetools"]}
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert '"scipy>=1.17.1"' in pyproject.read_text(encoding="utf-8")


def test_private_scipy_import_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import scipy._lib\n"
                      "import scipy.sparse\n"
                      "from scipy import special, _lib\n"
                      "from scipy.sparse import _sparsetools, csr_matrix\n"
                      "from scipy.special._ufuncs import _binom_cdf\n"
                      "from scipy import __version__\n"
                      "from numpy import _NoValue\n")
    assert private_scipy_imports(source) == [
        "scipy._lib", "scipy._lib", "scipy.sparse._sparsetools",
        "scipy.special._ufuncs._binom_cdf"]


def test_one_report_writer():
    # Every report.json comes from write_report (see the test below); the
    # recommender name is only an alias of it, kept for the benchmark's hook.
    assert smoothcert.write_recommender_report is smoothcert.write_report


def json_encodes(path):
    """``(line, scope)`` of every call of ``json.dumps`` or ``json.dump``."""
    return calls_of(path, "dumps") + calls_of(path, "dump")


def test_reports_are_rendered_only_by_write_report():
    # attack_plan.json is the one JSON file that is not a report.
    scopes = sorted(scope for path in SOURCES for _, scope in json_encodes(path))
    assert scopes == ["AttackPlan.to_json", "write_report"]


def test_stray_renderer_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import json\n"
                      "def write_report(report):\n"
                      "    return json.dumps(report)\n"
                      "def render(obj, fh):\n"
                      "    json.dump(obj, fh)\n")
    assert json_encodes(source) == [(3, "write_report"), (5, "render")]


def test_votes_are_counted_only_by_collect():
    scopes = [scope for path in SOURCES
              for _, scope in calls_of(path, "accumulate_parallel")]
    assert scopes == ["BaseVoteTable.collect"]


def test_stray_vote_counting_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from . import pipeline\n"
                      "class BaseVoteTable:\n"
                      "    def collect(cls, worker):\n"
                      "        return accumulate_parallel(1, 0, 1, worker)\n"
                      "def collect_votes(worker):\n"
                      "    def inner():\n"
                      "        return pipeline.accumulate_parallel(1, 0, 1, worker)\n"
                      "    return inner()\n")
    assert calls_of(source, "accumulate_parallel") == [
        (4, "BaseVoteTable.collect"), (7, "collect_votes.inner")]


def own_nodes(function):
    """The nodes of ``function``'s body, not those of functions inside it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def collect_workers(path):
    """``{"caller.worker": [line of each return with a value]}`` for every
    function that a caller defines and passes to ``collect`` first."""
    found = {}
    for caller in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(caller, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {node.name: node for node in caller.body
                 if isinstance(node, ast.FunctionDef)}
        for call in own_nodes(caller):
            if (isinstance(call, ast.Call) and "collect" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))
                    and call.args and getattr(call.args[0], "id", None) in local):
                worker = local[call.args[0].id]
                found[f"{caller.name}.{worker.name}"] = [
                    node.lineno for node in own_nodes(worker)
                    if isinstance(node, ast.Return) and node.value is not None]
    return found


def test_vote_workers_add_into_the_one_table():
    # A worker that returned its chunk's table would bring back one table
    # per chunk beside the run's own.
    workers = {}
    for path in SOURCES:
        workers.update(collect_workers(path))
    assert workers == {"collect_votes_evasion.worker": [],
                       "collect_votes_poisoning.worker": [],
                       "collect_item_votes.worker": []}


def test_stray_chunk_table_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def collect_votes(graph):\n"
                      "    def worker(lo, hi, add):\n"
                      "        counts = count(graph, lo, hi)\n"
                      "        if counts is None:\n"
                      "            return\n"
                      "        def total():\n"
                      "            return counts.sum()\n"
                      "        return counts, total()\n"
                      "    return VoteTable.collect(worker, (2, 2), 1, 0, 1)\n"
                      "def tally(worker, lo, hi):\n"
                      "    def chunk(lo, hi):\n"
                      "        return worker(lo, hi)\n"
                      "    return collect(worker, 1), chunk\n")
    assert collect_workers(source) == {"collect_votes.worker": [8]}


@pytest.mark.parametrize("name", ["build_similarity", "recommend_topk"])
def test_the_ranking_wrappers_have_no_caller_in_the_package(name):
    assert [call for path in SOURCES for call in calls_of(path, name)] == []


RADIUS_FUNCTIONS = ("certified_radii", "certified_overlap_radii",
                    "certified_accuracy_curve")


def test_radii_are_searched_not_scanned():
    scans = {scope.split(".")[0] for path in SOURCES
             for _, scope in while_loops(path)}
    assert not scans & set(RADIUS_FUNCTIONS)
    scopes = [scope for path in SOURCES for _, scope in rho_cap_loops(path)]
    assert scopes == ["largest_certified_rho"]
    assert smoothcert.certify.RHO_CAP == 10**6


def test_stray_scan_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def certified_radii(table):\n"
                      "    def holds(rho):\n"
                      "        while rho <= RHO_CAP:\n"
                      "            rho += 1\n"
                      "    return holds(0)\n"
                      "def curve(radii):\n"
                      "    return [rho for rho in range(certify.RHO_CAP)]\n"
                      "def largest_certified_rho(holds):\n"
                      "    for step in range(3):\n"
                      "        holds(min(step, RHO_CAP))\n"
                      "    return [holds(rho) for rho in range(3)]\n")
    assert while_loops(source) == [(3, "certified_radii.holds")]
    assert rho_cap_loops(source) == [(3, "certified_radii.holds"),
                                     (7, "curve"), (9, "largest_certified_rho")]


CURVE_FUNCTIONS = ("certified_accuracy_curve", "recommender_curve",
                   "Curve.__post_init__")


def curve_row_loops(path):
    """``(line, scope)`` of every loop or comprehension in a curve function
    that does not run over the curve's ``shares``: one that could run over
    rho."""
    def over_rows(node):
        if not isinstance(node, LOOPS):
            return False
        iterables = ([node.iter] if isinstance(node, ast.For) else
                     [g.iter for g in getattr(node, "generators", [])])
        return isinstance(node, ast.While) or any(
            getattr(iterable, "attr", None) != "shares" for iterable in iterables)

    return [(line, scope) for line, scope in scoped(path, over_rows)
            if any(scope == f or scope.startswith(f + ".") for f in CURVE_FUNCTIONS)]


def test_curves_are_built_without_a_loop_over_rho():
    assert callable(smoothcert.pipeline.Curve.__post_init__)
    assert callable(smoothcert.certified_accuracy_curve)
    assert callable(smoothcert.recommender_curve)
    assert [loop for path in SOURCES for loop in curve_row_loops(path)] == []


def test_curve_row_loop_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("class Curve:\n"
                      "    def __post_init__(self):\n"
                      "        for name in self.shares:\n"
                      "            values = [v for v in self.points[name]]\n"
                      "def recommender_curve(radii, last):\n"
                      "    points = []\n"
                      "    for rho in range(last + 1):\n"
                      "        points.append((radii >= rho).sum())\n"
                      "    return points\n"
                      "def certified_accuracy_curve(accuracy):\n"
                      "    return tuple(Point(rho, float(a))\n"
                      "                 for rho, a in enumerate(accuracy))\n"
                      "def write_report(curve):\n"
                      "    return [row for row in curve.points.tolist()]\n")
    assert curve_row_loops(source) == [(4, "Curve.__post_init__"),
                                       (7, "recommender_curve"),
                                       (11, "certified_accuracy_curve")]


def rho_cap_names(path):
    """``(line, scope)`` of every name, attribute or import of ``RHO_CAP``."""
    return scoped(path, lambda node: "RHO_CAP" in (
        getattr(node, "id", None), getattr(node, "attr", None),
        node.name if isinstance(node, ast.alias) else None))


def test_only_certify_names_the_rho_cap():
    # The cap is the radius search's: a curve that clamped to it again
    # would stop at the cap with accuracy left to certify.
    assert sorted({path.name for path in SOURCES if rho_cap_names(path)}) == [
        "certify.py"]


def test_rho_cap_name_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .certify import RHO_CAP, prob_all_removed\n"
                      "from . import certify\n"
                      "def curve(radii):  # RHO_CAP\n"
                      "    last = min(RHO_CAP, radii.max() + 1)\n"
                      "    return min(certify.RHO_CAP, last), 'RHO_CAP'\n")
    assert rho_cap_names(source) == [(1, ""), (4, "curve"), (5, "curve")]


MARGINS = ("margin", "margin_include", "margin_exclude")


def margin_loops(path):
    """``(line, scope)`` of every loop or comprehension that names a margin:
    per-row calls that the array margin replaces."""
    return scoped(path, lambda node: isinstance(node, LOOPS)
                  and any(names(node, name) for name in MARGINS))


def test_margins_are_evaluated_on_arrays_not_in_loops():
    assert smoothcert.margin_include is smoothcert.margin_exclude is smoothcert.margin
    loops = [(path.name, line, scope) for path in SOURCES
             if path.name != "certify.py"
             for line, scope in margin_loops(path)]
    assert loops == []


def test_margin_loop_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def certified_radii(lowers, uppers, removed, exclude):\n"
                      "    margin = margin_exclude if exclude else margin_include\n"
                      "    def holds(rho, live):\n"
                      "        return [margin(lowers[j], uppers[j], p) > 0.0\n"
                      "                for p, j in zip(removed, live)]\n"
                      "    for j in range(3):\n"
                      "        certify.margin_include(lowers[j], uppers[j], 1.0)\n"
                      "    return certify.margin(lowers, uppers, removed) > 0.0\n")
    assert margin_loops(source) == [(4, "certified_radii.holds"),
                                    (6, "certified_radii")]


CLOSED_FORMS = ("prob_all_removed", "prob_all_removed_recsys",
                "node_retention_probs")


def closed_form_loops(path):
    """``(line, scope)`` of every loop or comprehension that names one of
    the closed forms: per-value calls that their array forms replace."""
    return scoped(path, lambda node: isinstance(node, LOOPS)
                  and any(names(node, name) for name in CLOSED_FORMS))


def test_closed_forms_are_called_on_arrays_not_in_loops():
    loops = [(path.name, line, scope) for path in SOURCES
             if path.name != "certify.py"
             for line, scope in closed_form_loops(path)]
    assert loops == []


def test_closed_form_loop_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def certified_radii(params, tau, degrees):\n"
                      "    retention = [node_retention_probs(params, int(d))\n"
                      "                 for d in degrees]\n"
                      "    def holds(rho, live):\n"
                      "        for b in rho:\n"
                      "            certify.prob_all_removed(params, tau, b)\n"
                      "        return prob_all_removed(params, tau, rho)\n"
                      "    return retention, holds\n"
                      "def curve(params, tau):\n"
                      "    cut = lambda rho, _: prob_all_removed_recsys(params, tau, rho)\n"
                      "    return [cut(rho, None) for rho in range(3)]\n")
    assert closed_form_loops(source) == [(2, "certified_radii"),
                                         (5, "certified_radii.holds")]


MODELS = next(path for path in SOURCES if path.name == "models.py")
KIND_NAMES = ("message_passing_2layer", "feature_mlp")


def mode_parameters(path):
    """``(line, name)`` of every function with a parameter named ``mode``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if "mode" in [a.arg for a in params]:
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def names_a_kind(node):
    """Whether ``node`` is a model-kind string or a literal collection of one."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(item, ast.Constant) and item.value in KIND_NAMES
               for item in items)


def kind_comparisons(path):
    """``(line, scope)`` of every ``==``, ``!=``, ``in`` or ``not in`` with a
    model-kind string on either side."""
    return scoped(path, lambda node: isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                          for op in node.ops)
                  and any(names_a_kind(side)
                          for side in [node.left] + node.comparators))


def test_models_take_no_mode():
    assert mode_parameters(MODELS) == []


def test_mode_parameter_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def train(spec, graph):\n"
                      "    return spec\n"
                      "def train_predict(spec, graph, split, mode='include'):\n"
                      "    return lambda *, mode: mode\n"
                      "class Model:\n"
                      "    def predict(self, graph, *, mode=None):\n"
                      "        return graph\n")
    assert mode_parameters(source) == [(3, "train_predict"), (4, "<lambda>"),
                                       (6, "predict")]


def test_one_place_decides_whether_a_kind_aggregates():
    scopes = [scope for path in SOURCES for _, scope in kind_comparisons(path)]
    assert scopes == ["ClassifierSpec.aggregates"]
    assert smoothcert.ClassifierSpec().aggregates
    assert not smoothcert.ClassifierSpec(kind="feature_mlp").aggregates


def test_kind_comparison_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("KINDS = ('message_passing_2layer', 'feature_mlp')\n"
                      "class ClassifierSpec:\n"
                      "    kind: str = 'message_passing_2layer'\n"
                      "    def aggregates(self):\n"
                      "        return self.kind == 'message_passing_2layer'\n"
                      "def collect(spec):\n"
                      "    a = 'feature_mlp' != spec.kind\n"
                      "    b = spec.kind in ('feature_mlp',)\n"
                      "    return a, b, spec.kind in KINDS, spec.kind == 'gcn'\n")
    assert kind_comparisons(source) == [(5, "ClassifierSpec.aggregates"),
                                        (7, "collect"), (8, "collect")]


def aggregates_reads(path):
    """``(line, scope)`` of every use of an attribute named ``aggregates``."""
    return scoped(path, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "aggregates")


OPERATOR_NAMES = ("agg", "op", "operator")


def operator_none_checks(path):
    """``(line, scope)`` of every comparison of a name in ``OPERATOR_NAMES``
    (or an attribute of that name) with ``None``."""
    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def is_operator(node):
        return (getattr(node, "id", None) in OPERATOR_NAMES
                or getattr(node, "attr", None) in OPERATOR_NAMES)

    return scoped(path, lambda node: isinstance(node, ast.Compare)
                  and any(is_none(side) for side in [node.left] + node.comparators)
                  and any(is_operator(side) for side in [node.left] + node.comparators))


def test_one_model_path():
    """Every kind is the two-layer network over an operator: the kind only
    chooses the operator's edges, and whether noisy training and evasion
    voting draw samples at all."""
    reads = sorted((path.name, scope) for path in SOURCES
                   for _, scope in aggregates_reads(path))
    assert reads == [("models.py", "_kind_edges"), ("models.py", "train_with_noise"),
                     ("pipeline.py", "collect_votes_evasion.worker")]
    assert operator_none_checks(MODELS) == []


def test_kind_branch_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("class _LiveRows:\n"
                      "    def __init__(self, operator, rows):\n"
                      "        self.aggregates = operator is not None\n"
                      "        self.rows = rows if rows is None else None\n"
                      "def _forward(weights, agg, t1):\n"
                      "    t2 = t1 @ weights['w2']\n"
                      "    return agg @ t2 if None != agg else t2\n"
                      "def predict_rows(model, live):\n"
                      "    if live.aggregates and live.op is None:\n"
                      "        return model\n")
    assert aggregates_reads(source) == [(3, "_LiveRows.__init__"),
                                        (9, "predict_rows")]
    assert operator_none_checks(source) == [(3, "_LiveRows.__init__"),
                                            (7, "_forward"), (9, "predict_rows")]


SPARSE_CONSTRUCTORS = ("csr_matrix", "csc_matrix", "coo_matrix", "csr_array",
                       "csc_array", "coo_array")


def sparse_constructions(path):
    """``(line, scope)`` of every call of a scipy sparse matrix constructor or
    of any function reached through ``sp.`` or ``scipy.sparse.``."""
    def builds(func):
        through = getattr(func, "value", None)
        return (getattr(func, "id", None) in SPARSE_CONSTRUCTORS
                or getattr(func, "attr", None) in SPARSE_CONSTRUCTORS
                or getattr(through, "id", None) == "sp"
                or getattr(through, "attr", None) == "sparse")

    return scoped(path, lambda node: isinstance(node, ast.Call) and builds(node.func))


def test_models_build_no_sparse_matrix():
    # The network runs on models.Operator; only the scipy kernels are used.
    assert sparse_constructions(MODELS) == []


def test_sparse_matrix_construction_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import scipy.sparse as sp\n"
                      "from scipy.sparse import csc_matrix, _sparsetools\n"
                      "def build(a):\n"
                      "    return sp.csr_matrix(a)\n"
                      "class Operator:\n"
                      "    def transposed(self, a):\n"
                      "        m = csc_matrix(a)\n"
                      "        t = scipy.sparse.coo_array(a)\n"
                      "        _sparsetools.csr_matvecs(1, 1, 1, a, a, a, a, a)\n"
                      "        return m.T, t, sp.diags(a), sp.csr_matrix\n")
    assert sparse_constructions(source) == [(4, "build"), (7, "Operator.transposed"),
                                            (8, "Operator.transposed"),
                                            (10, "Operator.transposed")]


def loop_iterables(node):
    """What a loop or comprehension iterates over (a ``while`` loop's test)."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, ast.While):
        return [node.test]
    return [generator.iter for generator in node.generators]


def training_loops(path):
    """``(line, scope)`` of every loop or comprehension that iterates over
    something naming ``epochs`` or calls ``_adagrad_step``."""
    def steps(node):
        return any(isinstance(n, ast.Call) and "_adagrad_step" in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(node))

    return scoped(path, lambda node: isinstance(node, LOOPS) and (
        any(names(it, "epochs") for it in loop_iterables(node)) or steps(node)))


def test_one_training_loop():
    assert [scope for path in SOURCES
            for _, scope in calls_of(path, "_adagrad_step")] == ["_fit"]
    assert [scope for path in SOURCES
            for _, scope in training_loops(path)] == ["_fit"]


def test_stray_training_loop_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def _fit(spec, operators):\n"
                      "    for operator in operators:\n"
                      "        _adagrad_step(operator)\n"
                      "def _fit_live(spec, weights):\n"
                      "    for epoch in range(spec.epochs):\n"
                      "        weights -= step(epoch)\n"
                      "def train(spec, model):\n"
                      "    while model.epochs:\n"
                      "        model.epochs -= 1\n"
                      "    return [models._adagrad_step(w) for w in model.weights]\n"
                      "def operators(spec):\n"
                      "    return map(build, range(spec.epochs))\n")
    assert training_loops(source) == [(2, "_fit"), (5, "_fit_live"), (8, "train"),
                                      (10, "train")]
    assert calls_of(source, "_adagrad_step") == [(3, "_fit"), (10, "train")]


def per_parameter_updates(path):
    """``(line, scope)`` of every loop or comprehension in ``_adagrad_step``
    and every ``return`` of a value from ``_gradients``."""
    loops = scoped(path, lambda node: isinstance(node, LOOPS))
    returns = scoped(path, lambda node: isinstance(node, ast.Return)
                     and node.value is not None)
    return sorted([(line, scope) for line, scope in loops
                   if scope.split(".")[0] == "_adagrad_step"]
                  + [(line, scope) for line, scope in returns
                     if scope == "_gradients"])


def test_adagrad_is_one_update_over_the_vector():
    assert callable(smoothcert.models._adagrad_step)
    assert callable(smoothcert.models._gradients)
    assert per_parameter_updates(MODELS) == []


def test_per_parameter_update_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def _adagrad_step(weights, grads, cache, learning_rate):\n"
                      "    for key, grad in grads.items():\n"
                      "        cache[key] += grad * grad\n"
                      "    def each():\n"
                      "        return [w for w in weights]\n"
                      "def _gradients(weights, grads):\n"
                      "    def decay(w):\n"
                      "        return 5e-4 * w\n"
                      "    grads['w1'] += decay(weights['w1'])\n"
                      "    return {'w1': grads['w1']}\n"
                      "def _fit(weights):\n"
                      "    return [w for w in weights]\n")
    assert per_parameter_updates(source) == [(2, "_adagrad_step"),
                                             (5, "_adagrad_step.each"),
                                             (10, "_gradients")]


ALLOCATORS = ("empty", "zeros", "ones", "full")


def forward_allocations(path):
    """``(line, scope)`` of every array that ``_forward`` or a function in it
    allocates: a call of ``empty``, ``zeros``, ``ones``, ``full`` or a
    ``*_like`` function, a ``matmul`` call without ``out``, or a ``@``
    product."""
    def allocates(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        return (name in ALLOCATORS or name.endswith("_like") or (
            name == "matmul" and "out" not in [k.arg for k in node.keywords]))

    return [(line, scope) for line, scope in scoped(path, allocates)
            if scope.split(".")[0] == "_forward"]


def test_the_forward_pass_allocates_nothing():
    # Every buffer of a forward pass is the workspace's.
    assert callable(smoothcert.models._forward)
    assert forward_allocations(MODELS) == []


def test_forward_allocation_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import numpy as np\n"
                      "def _forward(weights, first, operator, t1, work):\n"
                      "    h = np.empty_like(work.hidden)\n"
                      "    t2 = h @ weights['w2']\n"
                      "    np.matmul(h, weights['w2'], out=work.t2)\n"
                      "    def scratch():\n"
                      "        return zeros(3), np.matmul(h, t2)\n"
                      "    return np.full((2, 2), 0.0), work.logits\n"
                      "def _gradients(work):\n"
                      "    return np.zeros(3) @ work.h1\n")
    assert forward_allocations(source) == [(3, "_forward"), (4, "_forward"),
                                           (7, "_forward.scratch"),
                                           (7, "_forward.scratch"), (8, "_forward")]
