"""Seeded benchmark of the smoothcert certify subcommands.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run generates its workload's fixture from ``--seed`` in a process of
its own, then:

* ``--trace 0`` runs ``smoothcert.cli.main`` in a fresh interpreter per CLI
  run, repeating for about ``--seconds`` seconds (at least twice), and
  reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1`` runs the CLI once untraced and once traced
  (``traced.py``), reports the per-layer metrics, the tracing overhead and
  the cross-checks.

Every CLI run's curve CSVs are hashed. At the default seed the digests must
match ``digests.json``; at any other seed all runs of one invocation must
agree byte for byte. A run that exits non-zero or breaks the digest check
counts as failed. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints the summaries only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_CLI_RUNS = 2    # so that a non-default seed still has a digest to agree with
MIN_SETUPS = 3      # set-up samples per run; import-only probes fill the gap
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics every workload produces; the traced run prints the
# workload-specific ones as well.
PER_LAYER = ("graph.load_s", "graph.rebuild_us", "sampling.sample_us",
             "sampling.sample_us.count", "sampling.edge_keep_ratio",
             "pipeline.votes_s", "pipeline.votes_per_s", "pipeline.per_sample_us",
             "pipeline.thread_speedup", "pipeline.curve_s", "pipeline.report_s",
             "certify.rho_points", "trace.overhead_s")


class RunFailed(RuntimeError):
    """A step of the run could not produce a measurement."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(script: str, args: list, deadline: float) -> float:
    """Run a perfbench script in a fresh interpreter; return its start time.

    The start time is the monotonic clock read just before the process is
    created, which opens the set-up interval ``child.py`` closes.
    """
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / script), *map(str, args)],
                            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{script} did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"{script} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return started


def curve_digests(out_dir: Path) -> dict:
    """SHA-256 of every curve CSV; report.json embeds wall-clock time."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*curve_tau*.csv"))}


class Run:
    """One benchmark invocation of one workload at one seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.fixture = self.dir / "fixture"
        self.spans_path = WORK / f"spans-{workload.name}-seed{seed}.json"
        self.attempted = 0
        self.problems = []
        self.reference = None
        if seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
            if recorded["seed"] != DEFAULT_SEED or workload.name not in recorded["workloads"]:
                raise RunFailed(f"{DIGESTS.name} has no digests for {workload.name}")
            self.reference = recorded["workloads"][workload.name]

    def make_fixture(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        spawn("fixtures.py", [self.workload.fixture, self.seed, self.fixture],
              self.deadline)
        return json.loads((self.fixture / "meta.json").read_text(encoding="utf-8"))

    def check_outputs(self, label: str, out_dir: Path) -> None:
        digests = curve_digests(out_dir)
        if self.reference is None:
            self.reference = digests
        if not digests or digests != self.reference:
            self.problems.append(f"{label}: curve CSV digests differ from the reference")

    def cli_run(self) -> dict:
        """One untraced CLI run: wall_s, setup_s and peak_rss_mb."""
        index = self.attempted
        self.attempted += 1
        out, result_path = self.dir / f"out{index}", self.dir / f"cli{index}.json"
        argv = self.workload.argv(str(self.fixture), str(out), self.seed)
        try:
            started = spawn("child.py", [result_path, *argv], self.deadline)
        except RunFailed as exc:
            self.problems.append(f"CLI run {index}: {exc}")
            return {}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["exit_code"] != 0:
            self.problems.append(f"CLI run {index}: exit code {result['exit_code']}")
        else:
            self.check_outputs(f"CLI run {index}", out)
        return {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
                "setup_s": result["ready_monotonic"] - started}

    def setup_probe(self) -> float:
        result_path = self.dir / "probe.json"
        started = spawn("child.py", [result_path], self.deadline)
        return json.loads(result_path.read_text(encoding="utf-8"))["ready_monotonic"] - started

    def untraced(self, seconds: float) -> tuple[dict, list]:
        """Repeat CLI runs for about ``seconds``.

        Returns the median of each end-to-end metric and the ``wall_s`` of
        every CLI run.
        """
        samples = []
        started = time.monotonic()
        while True:
            samples.append(self.cli_run())
            elapsed = time.monotonic() - started
            per_run = elapsed / len(samples)
            if len(samples) >= MIN_CLI_RUNS and elapsed + per_run > seconds:
                break
            if time.monotonic() + 2 * per_run > self.deadline:
                break
        samples = [s for s in samples if s]
        if not samples:
            raise RunFailed("no CLI run finished")
        setups = [s["setup_s"] for s in samples]
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_probe())
        metrics = {name: statistics.median(s[name] for s in samples)
                   for name in ("wall_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        return metrics, [s["wall_s"] for s in samples]

    def traced(self) -> dict:
        """Per-layer metrics from one traced CLI run, plus the cross-checks."""
        baseline = self.cli_run()
        self.attempted += 1
        out, result_path = self.dir / "traced-out", self.dir / "traced.json"
        spawn("traced.py", [self.workload.name, self.seed, self.fixture, out,
                            self.spans_path, result_path], self.deadline)
        self.check_outputs("traced CLI run", out)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        checks = 2 if self.workload.flags[0] == "certify-evasion" else 1
        self.attempted += checks
        self.problems.extend(result["failures"])
        metrics = result["metrics"]
        if baseline:
            metrics["trace.untraced_wall_s"] = {"value": baseline["wall_s"], "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": metrics["trace.stage_total_s"]["value"] - baseline["wall_s"],
                "unit": "s"}
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; print its summary and return the JSON result."""
    run = Run(workload, seed)
    try:
        meta = run.make_fixture()
        print(f"# {workload.name} seed {seed}: "
              + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
        if trace:
            layers = run.traced()
            metrics = {name: {"value": layers[name]["value"],
                              "unit": layers[name]["unit"]}
                       for name in PER_LAYER if name in layers}
            for name, m in sorted(layers.items()):
                tail = (f"  p{m['tail_pct']:g} {_fmt(m['tail'])} {m['unit']}"
                        if "tail" in m else "")
                count = f"  (n={m['count']})" if "count" in m else ""
                print(f"{name:28s} {_fmt(m['value'])} {m['unit']}{tail}{count}")
            print(f"# spans written to {run.spans_path.relative_to(ROOT)}")
        else:
            values, walls = run.untraced(seconds)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            for name, unit in END_TO_END.items():
                print(f"{name:12s} {_fmt(values[name])} {unit}")
            print("# wall_s per CLI run: " + " ".join(_fmt(v) for v in walls))
    finally:
        run.close()
    failed = min(len(run.problems), run.attempted)
    print(f"{'error_rate':12s} {_fmt(failed / run.attempted)} ratio "
          f"({failed} of {run.attempted} failed)")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    missing = [name for name in PER_LAYER if trace and name not in metrics]
    if missing:
        raise RunFailed(f"per-layer metrics missing: {missing}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smoothcert" / "cli.py").is_file():
        print(f"error: no smoothcert sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(measure(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace)))
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
