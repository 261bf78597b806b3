"""Command-line front end for reproducible certification runs.

Subcommands: gen-synth, certify-evasion, certify-poison, certify-recsys,
empirical-attack. Each takes the flags and config-file keys of the settings
it reads, and no others. Flag values override config-file values, which
override defaults; the command and its resolved settings are echoed into
report.json so any run can be reproduced bit-identically. Progress goes to
stderr, summaries to stdout. Exit codes: 0 success, 1 runtime failure, 2
usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from . import __version__
from .attack import STRATEGIES, apply_attack, craft_injection, empirical_accuracy
from .graph import (PerturbationBudget, generate_sbm,
                    load_interaction_dataset, load_node_classification_dataset,
                    save_node_classification_dataset, seeded_split)
from .models import KINDS, ClassifierSpec, train_with_noise
from .pipeline import (certified_accuracy_curve, collect_votes_evasion,
                       collect_votes_poisoning, write_report)
from .recsys import collect_item_votes, recommender_curve
from .recsys import write_recommender_report  # noqa: F401 (perfbench/traced.py hook)
from .sampling import SmoothingParams, derive_sample_seed

# Monte-Carlo sample count of a command run without --n; 1 000 otherwise.
_DEFAULT_SAMPLES = {"certify-evasion": 100_000, "certify-recsys": 100_000}

# Settings that size an array axis. numpy refuses an axis longer than its
# index type holds: sys.maxsize, 2**63 - 1 on 64-bit platforms.
_DIMENSIONS = ("hidden_dim", "synth_d", "k_prime")

# Seed substreams for the independent stages of a run.
_MODEL_STREAM = 10
_VOTES_STREAM = 11
_ATTACK_STREAM = 12


class UsageError(ValueError):
    """Configuration problem that should exit with status 2."""


# The commands that read a setting.
_SYNTH, _RECSYS, _ATTACK = ("gen-synth",), ("certify-recsys",), ("empirical-attack",)
_GRAPH = ("certify-evasion", "certify-poison") + _ATTACK
_CERTIFY = _GRAPH + _RECSYS
_RUNS = _SYNTH + _CERTIFY


def _setting(default, flag, commands, **options):
    """A RunConfig field set by ``flag``, with any further argparse
    ``options``, and read by ``commands``. A None default means required."""
    return field(default=default, metadata={"flag": flag, "commands": commands,
                                            "options": options})


@dataclass
class RunConfig:
    command: str
    out_dir: Optional[str] = _setting(None, "--out", _RUNS, help="output directory")
    master_seed: int = _setting(0, "--seed", _RUNS)
    threads: int = _setting(1, "--threads", _CERTIFY)
    dataset_edges: Optional[str] = _setting(None, "--dataset-edges", _GRAPH)
    dataset_nodes: Optional[str] = _setting(None, "--dataset-nodes", _GRAPH)
    ratings: Optional[str] = _setting(None, "--ratings", _RECSYS)
    split_fraction: float = _setting(0.85, "--split-fraction", _RECSYS)
    p_e: float = _setting(0.0, "--p-e", _CERTIFY, help="edge deletion probability")
    p_n: float = _setting(0.0, "--p-n", _CERTIFY, help="node deletion probability")
    tau: tuple = _setting((5,), "--tau", _CERTIFY, type=int, nargs="+",
                          help="edge budgets per injected node (one curve each)")
    # A file may give null; parse_config then sets the command's default.
    num_samples: Optional[int] = _setting(1_000, "--n", _CERTIFY,
                                          help="Monte-Carlo sample count")
    alpha: float = _setting(0.01, "--alpha", _CERTIFY, help="significance level")
    mode: str = _setting("include", "--mode", ("certify-poison",),
                         choices=("include", "exclude"))
    model: str = _setting("message_passing_2layer", "--model", _GRAPH, choices=KINDS)
    hidden_dim: int = _setting(64, "--hidden-dim", _GRAPH)
    epochs: int = _setting(200, "--epochs", _GRAPH)
    learning_rate: float = _setting(0.01, "--lr", _GRAPH)
    weight_decay: float = _setting(5e-4, "--weight-decay", _GRAPH)
    rho: int = _setting(5, "--rho", _ATTACK, help="injected node count")
    strategy: str = _setting("centroid_flip", "--strategy", _ATTACK, choices=STRATEGIES)
    k: int = _setting(10, "--k", _RECSYS, help="smoothed recommendation size")
    k_prime: int = _setting(10, "--k-prime", _RECSYS, help="base recommendation size")
    synth_n: int = _setting(300, "--synth-n", _SYNTH)
    synth_classes: int = _setting(2, "--synth-classes", _SYNTH)
    synth_p_in: float = _setting(0.1, "--synth-p-in", _SYNTH)
    synth_p_out: float = _setting(0.01, "--synth-p-out", _SYNTH)
    synth_d: int = _setting(8, "--synth-d", _SYNTH)

    def validate(self) -> None:
        missing = [f.metadata["flag"] for f in _settings(self.command)
                   if f.default is None and not getattr(self, f.name)]
        if missing:
            raise UsageError(f"{' and '.join(missing)} required")
        if not 0.0 <= self.p_e < 1.0 or not 0.0 <= self.p_n < 1.0:
            raise UsageError("p_e and p_n must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError("alpha must lie in (0, 1)")
        if not 0 <= self.master_seed < 2**64:
            # Seeds are mixed modulo 2**64, so any other would alias one.
            raise UsageError("--seed must lie in [0, 2**64)")
        for f in _settings(self.command):
            if f.name in _DIMENSIONS and getattr(self, f.name) > sys.maxsize:
                raise UsageError(f"{f.metadata['flag']} must be at most {sys.maxsize}, "
                                 "numpy's largest array dimension")
        if not 1 <= self.num_samples <= 2**64 - 1:  # indices lie in [0, 2**64 - 1)
            raise UsageError("--n must lie in [1, 2**64 - 1]")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        if not self.tau or any(t < 1 for t in self.tau):
            raise UsageError("tau needs one or more values, each >= 1")
        if len(set(self.tau)) != len(self.tau):
            raise UsageError("tau values must be distinct")
        if self.mode not in ("include", "exclude"):
            raise UsageError("mode must be include or exclude")
        if self.strategy not in STRATEGIES:
            raise UsageError(f"strategy must be one of {STRATEGIES}")
        if self.command != "gen-synth" and self.p_e == 0.0 and self.p_n == 0.0:
            raise UsageError("certification needs p_e > 0 or p_n > 0")
        try:
            self.classifier_spec()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not 0 < self.split_fraction <= 1:
            raise UsageError("split fraction must lie in (0, 1]")
        if self.k < 1 or self.k_prime < self.k:
            raise UsageError("need 1 <= k <= k_prime")
        if self.rho < 0:
            raise UsageError("rho must be >= 0")
        if self.command == "empirical-attack" and len(self.tau) != 1:
            raise UsageError("empirical-attack takes one tau")

    def classifier_spec(self) -> ClassifierSpec:
        return ClassifierSpec(kind=self.model, hidden_dim=self.hidden_dim,
                              epochs=self.epochs,
                              learning_rate=self.learning_rate,
                              weight_decay=self.weight_decay,
                              seed=derive_sample_seed(self.master_seed, _MODEL_STREAM))

    def settings(self) -> dict:
        """The command and every setting it reads: what report.json echoes,
        and a --config file that reruns the same run."""
        return {"command": self.command,
                **{f.name: getattr(self, f.name) for f in _settings(self.command)}}


_TYPES = get_type_hints(RunConfig)


def _settings(command: str) -> list:
    """The RunConfig fields ``command`` reads."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top parser, and each command's parser by name."""
    # No abbreviations: a prefix such as --mode would stand for --model.
    parser = argparse.ArgumentParser(
        prog="smoothcert", allow_abbrev=False,
        description="Robustness certification of graph classifiers and "
                    "recommenders under node injection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for f in _settings(name):
            kind = get_args(_TYPES[f.name]) or (_TYPES[f.name],)  # Optional[X]: X
            p.add_argument(f.metadata["flag"], dest=f.name,
                           **{"type": kind[0], **f.metadata["options"]})
    return parser, sub.choices


def _check_file_values(command: str, values: dict) -> None:
    """Config-file keys must name settings the command reads and values have
    the field's type: tau is a non-empty list of integers, and a float field
    takes integers."""
    unknown = set(values) - {f.name for f in _settings(command)}
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key, value in values.items():
        if key == "tau":
            ok = type(value) is list and value and all(type(t) is int for t in value)
        else:
            types = get_args(_TYPES[key]) or (_TYPES[key],)
            ok = type(value) in types or (float in types and type(value) is int)
        if not ok:
            raise UsageError(f"config key {key!r} has the wrong type: {value!r}")


def parse_config(argv) -> RunConfig:
    """Parse flags (and an optional JSON file) into a validated RunConfig."""
    parser, commands = _build_parser()
    namespace, unknown = parser.parse_known_args(argv)
    if unknown:  # refused by the command's parser, so its usage lists its flags
        (commands.get(namespace.command) or parser).error(
            f"unrecognized arguments: {' '.join(unknown)}")
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
        file_values.pop("command", None)
        _check_file_values(merged["command"], file_values)
        merged.update(file_values)
    merged.update(provided)

    if "tau" in merged:
        merged["tau"] = tuple(merged["tau"])
    if merged.get("num_samples") is None:
        merged["num_samples"] = _DEFAULT_SAMPLES.get(merged["command"], 1_000)
    config = RunConfig(**merged)
    config.validate()
    return config


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _run_gen_synth(config: RunConfig) -> tuple[list, dict]:
    graph, _ = generate_sbm(config.synth_n, config.synth_classes,
                            config.synth_p_in, config.synth_p_out,
                            config.synth_d, config.master_seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_node_classification_dataset(graph, out / "edges.tsv", out / "nodes.csv")
    _log(f"wrote synthetic dataset: {graph}")
    return [], {"nodes": graph.n, "edges": graph.num_edges,
                "classes": graph.num_classes,
                "files": ["edges.tsv", "nodes.csv"]}


def _run_certify_nodes(config: RunConfig) -> tuple[list, dict]:
    graph = load_node_classification_dataset(config.dataset_edges,
                                             config.dataset_nodes)
    split = seeded_split(graph, config.master_seed)
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    spec = config.classifier_spec()
    num_samples = config.num_samples
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
    return curves, {"test_nodes": int(split.test.size)}


def _run_certify_recsys(config: RunConfig) -> tuple[list, dict]:
    matrix, held_out = load_interaction_dataset(config.ratings,
                                                config.split_fraction)
    ground_truths = {u: held_out[u] for u in range(matrix.users)
                     if len(held_out[u]) > 0 and matrix.user_degrees[u] >= 1}
    if not ground_truths:
        raise ValueError("no user has both training ratings and held-out items")
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    _log(f"collecting {config.num_samples} recommendation votes over "
         f"{matrix.users} users / {matrix.items} items")
    table = collect_item_votes(matrix, config.num_samples, params, config.k_prime,
                               derive_sample_seed(config.master_seed, _VOTES_STREAM),
                               threads=config.threads)
    curves = [recommender_curve(table, ground_truths, config.k, tau, config.alpha)
              for tau in config.tau]
    return curves, {"evaluated_users": len(ground_truths)}


def _run_empirical_attack(config: RunConfig) -> tuple[list, dict]:
    graph = load_node_classification_dataset(config.dataset_edges,
                                             config.dataset_nodes)
    split = seeded_split(graph, config.master_seed)
    params = SmoothingParams(p_e=config.p_e, p_n=config.p_n)
    spec = config.classifier_spec()
    num_samples = config.num_samples
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
    # The accuracy certified at the budget: the clean curve's value at rho,
    # or zero past its end.
    accuracy = certified_accuracy_curve(clean_votes, graph.labels, tau, config.alpha,
                                        nodes=split.test).points["certified_accuracy"]
    certified = float(accuracy[config.rho]) if config.rho < accuracy.size else 0.0
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "attack_plan.json").write_text(plan.to_json() + "\n", encoding="utf-8")
    return [], {"clean_accuracy": clean_acc, "attacked_accuracy": attacked_acc,
                "certified_accuracy_at_budget": certified,
                "rho": config.rho, "tau": tau, "strategy": config.strategy,
                "files": ["attack_plan.json"]}


# Each handler runs one command and returns its curves (none for gen-synth
# and empirical-attack) and the report metadata it adds.
_HANDLERS = {"gen-synth": _run_gen_synth,
             "certify-evasion": _run_certify_nodes,
             "certify-poison": _run_certify_nodes,
             "certify-recsys": _run_certify_recsys,
             "empirical-attack": _run_empirical_attack}
COMMANDS = tuple(_HANDLERS)


def run(config: RunConfig) -> int:
    """Execute the selected pipeline and write curves plus report.json.

    The report is a pure function of the configuration and the inputs; the
    run time goes to stderr only.
    """
    started = time.perf_counter()
    curves, metadata = _HANDLERS[config.command](config)
    metadata.update(config=config.settings(), version=__version__)
    report = write_report(curves, metadata, config.out_dir)[-1]
    _log(f"{config.command} finished in {time.perf_counter() - started:.2f} s")
    print(report.read_text(encoding="utf-8"), end="")
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
