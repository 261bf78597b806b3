"""The benchmark's traced run against the package names it wraps, and its
recorded outputs.

``perfbench/traced.py`` wraps public functions at the module attributes
their callers look up, and reads their arguments and results. A refactor
that renames such a function, or changes how it is called, breaks the
traced run, which nothing else in the suite executes. These are tiny runs
of every benchmark workload through the same hooks.

Each workload's curve CSVs at seed 0 must hash to ``perfbench/digests.json``:
the fixture and the CLI run each in a fresh interpreter, as
``perfbench/run.py`` runs them, with OpenBLAS on the benchmark's two threads.
"""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from smoothcert import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TINY = ["--n", "20"]
WORKLOADS = ["evasion-small", "evasion-large", "poison-exclude", "recsys-ml100k"]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import traced
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, traced


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm")
    assert cli.main(["gen-synth", "--out", str(out), "--seed", "1",
                     "--synth-n", "60", "--synth-p-in", "0.3"]) == 0
    return out


def ratings_dir(tmp_path):
    """Eight users in two taste groups, one later rating each held out."""
    lines = []
    for u in range(8):
        base = 0 if u < 4 else 5
        lines += [f"{u}\t{base + j}\t4\t{j}" for j in range(5)]
        lines.append(f"{u}\t{base + 20 + u % 2}\t4\t100")
    (tmp_path / "ratings.tsv").write_text("\n".join(lines) + "\n")
    return tmp_path


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_yields_every_metric(perfbench, sbm_dir, tmp_path, name):
    run, traced = perfbench
    workload = replace(run.WORKLOADS[name], samples=20, check_samples=4)
    recsys = workload.fixture == "ratings-ml100k"
    fixture = ratings_dir(tmp_path) if recsys else sbm_dir
    # certify-recsys trains no classifier, so it takes no --epochs.
    tiny = TINY if recsys else TINY + ["--epochs", "5"]
    tracer = traced.Tracer(run_id="contract")
    captured = {}
    traced.install(tracer, captured)
    try:
        code = cli.main(workload.argv(str(fixture), str(tmp_path / "out"), 0)
                        + tiny)
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = traced.layer_metrics(tracer, captured)
    check_metrics, failures = traced.cross_checks(workload, captured)
    metrics.update(check_metrics)
    assert set(run.PER_LAYER) - {"trace.overhead_s"} <= set(metrics)
    assert not failures


def perfbench_script(script, *args):
    """Run a perfbench script in a fresh interpreter from the repository root."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, str(PERFBENCH / script), *map(str, args)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def seed_zero_fixture(tmp_path_factory):
    """The directory of a fixture recipe at seed 0, generated once."""
    root = tmp_path_factory.mktemp("fixtures")
    made = {}

    def fixture(recipe):
        if recipe not in made:
            perfbench_script("fixtures.py", recipe, 0, root / recipe)
            made[recipe] = root / recipe
        return made[recipe]
    return fixture


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_zero_curves_match_the_recorded_digests(perfbench, seed_zero_fixture,
                                                     tmp_path, name):
    run, _ = perfbench
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == run.DEFAULT_SEED == 0
    workload = run.WORKLOADS[name]
    out, result = tmp_path / "out", tmp_path / "cli.json"
    perfbench_script("child.py", result, *workload.argv(
        str(seed_zero_fixture(workload.fixture)), str(out), 0))
    assert json.loads(result.read_text(encoding="utf-8"))["exit_code"] == 0
    assert run.curve_digests(out) == recorded["workloads"][name]
