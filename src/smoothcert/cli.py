"""Command-line front end for reproducible certification runs.

Subcommands: gen-synth, certify-evasion, certify-poison, certify-recsys,
empirical-attack. Flag values override config-file values, which override
defaults; the fully resolved configuration is echoed into report.json so any
run can be reproduced bit-identically. Progress goes to stderr, summaries to
stdout. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from . import __version__
from .attack import apply_attack, craft_injection, empirical_accuracy
from .graph import (Graph, PerturbationBudget, generate_sbm,
                    load_interaction_dataset, load_node_classification_dataset,
                    save_node_classification_dataset, seeded_split)
from .models import ClassifierSpec, train_with_noise
from .pipeline import (certified_accuracy_at, certified_accuracy_curve,
                       collect_votes_evasion, collect_votes_poisoning,
                       render_json, write_report)
from .recsys import collect_item_votes, recommender_curve
from .recsys import write_recommender_report  # noqa: F401 (perfbench/traced.py hook)
from .sampling import SmoothingParams, derive_sample_seed

COMMANDS = ("gen-synth", "certify-evasion", "certify-poison", "certify-recsys",
            "empirical-attack")

# Seed substreams for the independent stages of a run.
_MODEL_STREAM = 10
_VOTES_STREAM = 11
_ATTACK_STREAM = 12


class UsageError(ValueError):
    """Configuration problem that should exit with status 2."""


@dataclass
class RunConfig:
    command: str
    out_dir: str
    dataset_edges: Optional[str] = None
    dataset_nodes: Optional[str] = None
    ratings: Optional[str] = None
    p_e: float = 0.0
    p_n: float = 0.0
    tau: tuple = (5,)
    num_samples: Optional[int] = None
    alpha: float = 0.01
    mode: str = "include"
    master_seed: int = 0
    threads: int = 1
    model: str = "message_passing_2layer"
    hidden_dim: int = 64
    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    rho: int = 5
    strategy: str = "centroid_flip"
    k: int = 10
    k_prime: int = 10
    split_fraction: float = 0.85
    synth_n: int = 300
    synth_classes: int = 2
    synth_p_in: float = 0.1
    synth_p_out: float = 0.01
    synth_d: int = 8

    def resolved_num_samples(self) -> int:
        if self.num_samples is not None:
            return self.num_samples
        return {"certify-evasion": 100_000, "certify-poison": 1_000,
                "certify-recsys": 100_000}.get(self.command, 1_000)

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if not 0.0 <= self.p_e < 1.0 or not 0.0 <= self.p_n < 1.0:
            raise UsageError("p_e and p_n must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError("alpha must lie in (0, 1)")
        if self.resolved_num_samples() < 1:
            raise UsageError("sample count must be >= 1")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        if any(t < 1 for t in self.tau):
            raise UsageError("every tau must be >= 1")
        if len(set(self.tau)) != len(self.tau):
            raise UsageError("tau values must be distinct")
        if self.mode not in ("include", "exclude"):
            raise UsageError("mode must be include or exclude")
        if self.command != "gen-synth" and self.p_e == 0.0 and self.p_n == 0.0:
            raise UsageError("certification needs p_e > 0 or p_n > 0")
        if self.command in ("certify-evasion", "certify-poison", "empirical-attack"):
            if not self.dataset_edges or not self.dataset_nodes:
                raise UsageError("--dataset-edges and --dataset-nodes are required")
            try:
                self.classifier_spec()
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if self.command == "certify-evasion" and self.mode != "include":
            raise UsageError("exclude mode applies to per-sample training runs only")
        if self.command == "certify-recsys":
            if not self.ratings:
                raise UsageError("--ratings is required")
            if not 0 < self.split_fraction <= 1:
                raise UsageError("split fraction must lie in (0, 1]")
            if self.k < 1 or self.k_prime < self.k:
                raise UsageError("need 1 <= k <= k_prime")
        if self.command == "empirical-attack" and self.rho < 0:
            raise UsageError("rho must be >= 0")
        if self.command == "empirical-attack" and len(self.tau) != 1:
            raise UsageError("empirical-attack takes one tau")

    def classifier_spec(self) -> ClassifierSpec:
        return ClassifierSpec(kind=self.model, hidden_dim=self.hidden_dim,
                              epochs=self.epochs,
                              learning_rate=self.learning_rate,
                              weight_decay=self.weight_decay,
                              seed=derive_sample_seed(self.master_seed, _MODEL_STREAM))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="Robustness certification of graph classifiers and "
                    "recommenders under node injection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        g = p.add_argument_group("run")
        g.add_argument("--out", dest="out_dir", help="output directory")
        g.add_argument("--config", help="JSON config file (flags override it)")
        g.add_argument("--seed", dest="master_seed", type=int)
        g.add_argument("--threads", type=int)
        n = p.add_argument_group("noise and certification")
        n.add_argument("--p-e", dest="p_e", type=float,
                       help="edge deletion probability")
        n.add_argument("--p-n", dest="p_n", type=float,
                       help="node deletion probability")
        n.add_argument("--tau", type=int, nargs="+",
                       help="edge budgets per injected node (one curve each)")
        n.add_argument("--n", dest="num_samples", type=int,
                       help="Monte-Carlo sample count")
        n.add_argument("--alpha", type=float, help="significance level")
        n.add_argument("--mode", choices=["include", "exclude"])
        m = p.add_argument_group("base model")
        m.add_argument("--model", choices=["message_passing_2layer", "feature_mlp"])
        m.add_argument("--hidden-dim", dest="hidden_dim", type=int)
        m.add_argument("--epochs", type=int)
        m.add_argument("--lr", dest="learning_rate", type=float)
        m.add_argument("--weight-decay", dest="weight_decay", type=float)
        d = p.add_argument_group("data")
        d.add_argument("--dataset-edges", dest="dataset_edges")
        d.add_argument("--dataset-nodes", dest="dataset_nodes")
        d.add_argument("--ratings")
        d.add_argument("--split-fraction", dest="split_fraction", type=float)

    for name in COMMANDS:
        p = sub.add_parser(name)
        add_common(p)
        if name == "gen-synth":
            p.add_argument("--synth-n", dest="synth_n", type=int)
            p.add_argument("--synth-classes", dest="synth_classes", type=int)
            p.add_argument("--synth-p-in", dest="synth_p_in", type=float)
            p.add_argument("--synth-p-out", dest="synth_p_out", type=float)
            p.add_argument("--synth-d", dest="synth_d", type=int)
        if name == "empirical-attack":
            p.add_argument("--rho", type=int, help="injected node count")
            p.add_argument("--strategy", choices=["random", "centroid_flip"])
        if name == "certify-recsys":
            p.add_argument("--k", type=int, help="smoothed recommendation size")
            p.add_argument("--k-prime", dest="k_prime", type=int,
                           help="base recommendation size")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse flags (and an optional JSON file) into a validated RunConfig."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required")
    provided = {k: v for k, v in vars(namespace).items()
                if v is not None and k != "config"}

    merged = {"command": provided.pop("command")}
    if namespace.config:
        try:
            file_values = json.loads(Path(namespace.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        file_values.pop("command", None)
        merged.update(file_values)
    merged.update(provided)

    if "out_dir" not in merged or not merged["out_dir"]:
        raise UsageError("--out is required")
    if "tau" in merged:
        merged["tau"] = tuple(int(t) for t in merged["tau"])
    try:
        config = RunConfig(**merged)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
    config.validate()
    return config


def _echo_config(config: RunConfig) -> dict:
    """Resolved configuration, reusable verbatim as a --config file."""
    echoed = asdict(config)
    echoed["tau"] = list(config.tau)
    echoed["num_samples"] = config.resolved_num_samples()
    return echoed


def _load_graph(config: RunConfig) -> Graph:
    return load_node_classification_dataset(config.dataset_edges,
                                            config.dataset_nodes)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _run_gen_synth(config: RunConfig) -> dict:
    graph, _ = generate_sbm(config.synth_n, config.synth_classes,
                            config.synth_p_in, config.synth_p_out,
                            config.synth_d, config.master_seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_node_classification_dataset(graph, out / "edges.tsv", out / "nodes.csv")
    _log(f"wrote synthetic dataset: {graph}")
    return {"nodes": graph.n, "edges": graph.num_edges,
            "classes": graph.num_classes,
            "files": ["edges.tsv", "nodes.csv"]}


def _run_certify_nodes(config: RunConfig) -> dict:
    graph = _load_graph(config)
    split = seeded_split(graph, config.master_seed)
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    spec = config.classifier_spec()
    num_samples = config.resolved_num_samples()
    votes_seed = derive_sample_seed(config.master_seed, _VOTES_STREAM)

    if config.command == "certify-evasion":
        _log(f"training with noise on {graph} ({spec.epochs} epochs)")
        model = train_with_noise(spec, graph, split, params)
        _log(f"collecting {num_samples} evasion votes")
        table = collect_votes_evasion(model, graph, num_samples, params,
                                      votes_seed, threads=config.threads)
    else:
        _log(f"collecting {num_samples} train-and-predict votes ({config.mode})")
        table = collect_votes_poisoning(spec, graph, split, num_samples, params,
                                        config.mode, votes_seed,
                                        threads=config.threads)

    curves = [certified_accuracy_curve(table, graph.labels, tau, config.alpha,
                                       nodes=split.test)
              for tau in config.tau]
    return {"curves": curves, "test_nodes": int(split.test.size)}


def _run_certify_recsys(config: RunConfig) -> dict:
    matrix, held_out = load_interaction_dataset(config.ratings,
                                                config.split_fraction)
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    num_samples = config.resolved_num_samples()
    _log(f"collecting {num_samples} recommendation votes over "
         f"{matrix.users} users / {matrix.items} items")
    table = collect_item_votes(matrix, num_samples, params, config.k_prime,
                               derive_sample_seed(config.master_seed, _VOTES_STREAM),
                               threads=config.threads)
    ground_truths = {u: held_out[u] for u in range(matrix.users)
                     if len(held_out[u]) > 0 and table.degrees[u] >= 1}
    if not ground_truths:
        raise ValueError("no user has both training ratings and held-out items")
    curves = [recommender_curve(table, ground_truths, config.k, tau, config.alpha)
              for tau in config.tau]
    return {"curves": curves, "evaluated_users": len(ground_truths)}


def _run_empirical_attack(config: RunConfig) -> dict:
    graph = _load_graph(config)
    split = seeded_split(graph, config.master_seed)
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    spec = config.classifier_spec()
    num_samples = config.resolved_num_samples()
    tau = config.tau[0]
    budget = PerturbationBudget(rho=config.rho, tau=tau)

    _log(f"training with noise on {graph}")
    model = train_with_noise(spec, graph, split, params)
    plan = craft_injection(graph, budget, config.strategy,
                           derive_sample_seed(config.master_seed, _ATTACK_STREAM),
                           split=split)
    attacked = apply_attack(graph, plan)

    votes_seed = derive_sample_seed(config.master_seed, _VOTES_STREAM)
    _log(f"collecting {num_samples} votes on the clean graph")
    clean_votes = collect_votes_evasion(model, graph, num_samples, params,
                                        votes_seed, threads=config.threads)
    _log(f"collecting {num_samples} votes on the attacked graph")
    attacked_votes = collect_votes_evasion(model, attacked, num_samples, params,
                                           votes_seed, threads=config.threads)
    clean_acc, attacked_acc = empirical_accuracy(clean_votes, attacked_votes,
                                                 graph.labels, split.test)
    certified = certified_accuracy_at(clean_votes, graph.labels, budget,
                                      config.alpha, nodes=split.test)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "attack_plan.json").write_text(plan.to_json() + "\n", encoding="utf-8")
    return {"clean_accuracy": clean_acc, "attacked_accuracy": attacked_acc,
            "certified_accuracy_at_budget": certified,
            "rho": config.rho, "tau": tau, "strategy": config.strategy,
            "files": ["attack_plan.json"]}


def run(config: RunConfig) -> int:
    """Execute the selected pipeline and write curves plus report.json.

    The report is a pure function of the configuration and the inputs; the
    run time goes to stderr only.
    """
    started = time.perf_counter()
    metadata = {"config": _echo_config(config), "version": __version__}

    if config.command.startswith("certify-"):
        result = (_run_certify_recsys(config) if config.command == "certify-recsys"
                  else _run_certify_nodes(config))
        curves = result.pop("curves")
        metadata.update(result)
        paths = write_report(curves, metadata, config.out_dir)
        report = Path(paths[-1]).read_text(encoding="utf-8")
    else:
        if config.command == "gen-synth":
            result = _run_gen_synth(config)
            metadata.update(result)
        else:
            result = _run_empirical_attack(config)
            metadata.update({k: v for k, v in result.items() if k != "files"})
        report = render_json({"metadata": metadata}) + "\n"
        (Path(config.out_dir) / "report.json").write_text(report, encoding="utf-8")
    _log(f"{config.command} finished in {time.perf_counter() - started:.2f} s")
    print(report, end="")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except Exception as exc:  # surfacing runtime failures as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
