"""The benchmark's workloads: fixture recipe, CLI flags and sample counts.

Only the standard library is imported here, so the orchestrating process
stays free of numpy and scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

# Fixture recipes. Graphs come from the CLI's own ``gen-synth`` subcommand;
# the rating log comes from ``ratings.py``.
FIXTURES = {
    # gen-synth defaults: n=300, 2 classes, p_in 0.1, p_out 0.01, d 8.
    "sbm-300": ["gen-synth"],
    "sbm-3000": ["gen-synth", "--synth-n", "3000", "--synth-p-in", "0.01",
                 "--synth-p-out", "0.001"],
    "ratings-ml100k": None,
}


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    flags: tuple
    samples: int        # Monte-Carlo sample count N passed as --n
    check_samples: int  # index range of the traced run's cross-checks

    def argv(self, fixture_dir: str, out_dir: str, seed: int) -> list[str]:
        """CLI arguments for one run on the fixture in ``fixture_dir``."""
        if self.fixture == "ratings-ml100k":
            data = ["--ratings", f"{fixture_dir}/ratings.tsv"]
        else:
            data = ["--dataset-edges", f"{fixture_dir}/edges.tsv",
                    "--dataset-nodes", f"{fixture_dir}/nodes.csv"]
        return [self.flags[0], *data, *self.flags[1:], "--n", str(self.samples),
                "--seed", str(seed), "--out", out_dir]


_EVASION = ("certify-evasion", "--p-e", "0.1", "--p-n", "0.8",
            "--tau", "1", "5", "10", "--alpha", "0.01")

# Why each workload is there: NOTES.md and the "why" lines of BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("evasion-small", "sbm-300", _EVASION + ("--threads", "1"),
             samples=2000, check_samples=256),
    Workload("evasion-large", "sbm-3000", _EVASION + ("--threads", "2"),
             samples=500, check_samples=256),
    Workload("poison-exclude", "sbm-300",
             ("certify-poison", "--mode", "exclude", "--p-e", "0.1",
              "--p-n", "0.7", "--tau", "5", "--epochs", "200",
              "--alpha", "0.01", "--threads", "1"),
             samples=40, check_samples=8),
    Workload("recsys-ml100k", "ratings-ml100k",
             ("certify-recsys", "--p-e", "0.1", "--p-n", "0.7", "--tau", "10",
              "--k", "10", "--k-prime", "10", "--alpha", "0.01",
              "--threads", "2"),
             samples=8, check_samples=4),
)}
