import json
import sys
from pathlib import Path

import pytest

from smoothcert import cli
from smoothcert.cli import UsageError, main, parse_config


def make_tiny_dataset(tmp_path, seed=0):
    out = tmp_path / "data"
    code = main(["gen-synth", "--out", str(out), "--seed", str(seed),
                 "--synth-n", "40", "--synth-classes", "2",
                 "--synth-p-in", "0.5", "--synth-p-out", "0.02",
                 "--synth-d", "4"])
    assert code == 0
    return out / "edges.tsv", out / "nodes.csv"


def make_group_ratings(tmp_path):
    """Two taste groups of six users over six items each; every user rates
    its group's items and rates one of them last, so the held-out items are
    the ones the group recommends and the curve certifies."""
    lines = [f"{u}\t{(0 if u < 6 else 10) + j}\t4\t{100 if j == u % 6 else j}"
             for u in range(12) for j in range(6)]
    ratings = tmp_path / "u.data"
    ratings.write_text("\n".join(lines) + "\n")
    return ratings


GROUP_RUN = ["--p-e", "0.2", "--p-n", "0.4", "--n", "400", "--k", "1",
             "--k-prime", "2", "--split-fraction", "0.8", "--seed", "2"]

# A budget past any machine integer and a large one: q**tau is 0.0 at both,
# so their curves are the same bytes.
HUGE_TAUS = ("18446744073709551616", "1000000")


def make_tiny_ratings(tmp_path):
    # 8 users in two taste groups of four, each group over its own six
    # items. Every user rates all six; the two it rates last are held
    # out by the 0.7 split and were rated in training by two other
    # members of its group, so the recommender can recommend them.
    lines = []
    for u in range(8):
        base = 0 if u < 4 else 10
        late = {u % 4, (u + 1) % 4}
        for j in range(6):
            lines.append(f"{u}\t{base + j}\t4\t{100 + j if j in late else j}")
    ratings = tmp_path / "u.data"
    ratings.write_text("\n".join(sorted(set(lines))) + "\n")
    return ratings


FAST_MODEL = ["--hidden-dim", "8", "--epochs", "25"]


def tiny_run(tmp_path, command):
    """Flags of a seconds-long run of ``command``, without ``--n``."""
    if command == "gen-synth":
        return ["--synth-n", "40", "--synth-d", "4"]
    if command == "certify-recsys":
        return ["--ratings", str(make_tiny_ratings(tmp_path)), "--p-e", "0.2",
                "--p-n", "0.4", "--tau", "3", "--k", "2", "--k-prime", "4",
                "--split-fraction", "0.7"]
    edges, nodes = make_tiny_dataset(tmp_path)
    flags = ["--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
             "--p-e", "0.1", "--p-n", "0.3", "--tau", "2", "--hidden-dim", "4",
             "--epochs", "10"]
    return flags + ["--rho", "2"] if command == "empirical-attack" else flags


DEFAULT_SAMPLES = {"certify-evasion": 100_000, "certify-poison": 1_000,
                   "certify-recsys": 100_000, "empirical-attack": 1_000}
COMMANDS = ["gen-synth", *DEFAULT_SAMPLES]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_writes_its_report_through_one_path(tmp_path, capsys,
                                                          command):
    argv = [command, "--out", str(tmp_path / "out"), "--seed", "3",
            *tiny_run(tmp_path, command)]
    sampled = command in DEFAULT_SAMPLES
    if sampled:  # gen-synth takes neither num_samples nor --n
        null_file = tmp_path / "null.json"
        null_file.write_text(json.dumps({"num_samples": None}))
        argv += ["--config", str(null_file)]
        assert parse_config(argv).num_samples == DEFAULT_SAMPLES[command]
        argv += ["--n", "20"]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    report = json.loads(stdout)
    config = parse_config(argv).settings()
    assert report["metadata"]["config"] == json.loads(json.dumps(config))
    assert config.get("num_samples") == (20 if sampled else None)
    for name in report["metadata"].get("files", []):
        assert (tmp_path / "out" / name).is_file()
    certifies = command.startswith("certify-")
    assert bool(report["curves"]) == certifies
    assert ("files" in report["metadata"]) != certifies


@pytest.mark.parametrize("command", COMMANDS)
def test_echoed_config_replays_the_run(tmp_path, command):
    # The echoed settings alone, as a config file, rerun the same run.
    orig, replay = tmp_path / "orig", tmp_path / "replay"
    argv = [command, "--out", str(orig), "--seed", "3",
            *tiny_run(tmp_path, command)]
    assert main(argv + (["--n", "20"] if command in DEFAULT_SAMPLES else [])) == 0
    echoed = json.loads((orig / "report.json").read_text())["metadata"]["config"]
    echoed["out_dir"] = str(replay)
    (tmp_path / "replay.json").write_text(json.dumps(echoed))
    assert main([command, "--config", str(tmp_path / "replay.json")]) == 0
    names = sorted(p.name for p in orig.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    for name in names:
        if name != "report.json":
            assert (orig / name).read_bytes() == (replay / name).read_bytes()
    reports = [json.loads((out / "report.json").read_text()) for out in (orig, replay)]
    for report in reports:
        del report["metadata"]["config"]["out_dir"]
    assert reports[0] == reports[1]


# The settings each command reads, by flag and config key; the README's
# "CLI" table.
RUN = {"--out": "out_dir", "--seed": "master_seed"}
CERTIFY = {**RUN, "--threads": "threads", "--p-e": "p_e", "--p-n": "p_n",
           "--tau": "tau", "--n": "num_samples", "--alpha": "alpha"}
GRAPH = {**CERTIFY, "--dataset-edges": "dataset_edges",
         "--dataset-nodes": "dataset_nodes", "--model": "model",
         "--hidden-dim": "hidden_dim", "--epochs": "epochs",
         "--lr": "learning_rate", "--weight-decay": "weight_decay"}
TAKES = {
    "gen-synth": {**RUN, "--synth-n": "synth_n", "--synth-classes": "synth_classes",
                  "--synth-p-in": "synth_p_in", "--synth-p-out": "synth_p_out",
                  "--synth-d": "synth_d"},
    "certify-evasion": GRAPH,
    "certify-poison": {**GRAPH, "--mode": "mode"},
    "certify-recsys": {**CERTIFY, "--ratings": "ratings",
                       "--split-fraction": "split_fraction", "--k": "k",
                       "--k-prime": "k_prime"},
    "empirical-attack": {**GRAPH, "--rho": "rho", "--strategy": "strategy"},
}
KEYS = {flag: key for takes in TAKES.values() for flag, key in takes.items()}
UNREAD = [(command, flag) for command, takes in TAKES.items()
          for flag in KEYS if flag not in takes]
# A valid value for each setting other than its default.
VALUES = {"--out": "o", "--seed": 3, "--threads": 2, "--p-e": 0.1, "--p-n": 0.2,
          "--tau": (4, 6), "--n": 7, "--alpha": 0.05, "--dataset-edges": "e",
          "--dataset-nodes": "n", "--model": "feature_mlp", "--hidden-dim": 3,
          "--epochs": 4, "--lr": 0.5, "--weight-decay": 0.001, "--mode": "exclude",
          "--rho": 2, "--strategy": "random", "--ratings": "r",
          "--split-fraction": 0.5, "--k": 2, "--k-prime": 3, "--synth-n": 20,
          "--synth-classes": 3, "--synth-p-in": 0.3, "--synth-p-out": 0.03,
          "--synth-d": 5}


def flag_argv(flag):
    value = VALUES[flag]
    return [flag, *map(str, value if isinstance(value, tuple) else [value])]


class TestCommandSurface:
    def test_each_command_takes_exactly_its_settings(self):
        assert sum(map(len, TAKES.values())) == 67 and len(UNREAD) == 68
        for command, takes in TAKES.items():
            argv = [command] + [a for flag in takes for a in flag_argv(flag)]
            if command == "empirical-attack":
                argv += ["--tau", "4"]  # it takes one tau
            settings = parse_config(argv).settings()
            assert settings.pop("command") == command
            expected = {key: VALUES[flag] for flag, key in takes.items()}
            if command == "empirical-attack":
                expected["tau"] = (4,)
            assert settings == expected

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_a_flag_the_command_does_not_read_exits_two(self, tmp_path, capsys,
                                                        command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, "--out", str(tmp_path / "out"), *flag_argv(flag)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_an_unread_flag_is_refused_with_the_commands_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify-recsys", "--out", "x", "--ep", "3"])
        assert err.value.code == 2
        usage, message = capsys.readouterr().err.split("\nsmoothcert ")
        assert usage.startswith("usage: smoothcert certify-recsys [-h]")
        assert "--ratings RATINGS" in usage and "--epochs" not in usage
        assert message == "certify-recsys: error: unrecognized arguments: --ep 3\n"

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_a_config_key_the_command_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, command, flag):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({KEYS[flag]: VALUES[flag]}))
        argv = [command, "--config", str(config_file), "--out",
                str(tmp_path / "out")]
        message = f"unknown config keys for {command}: ['{KEYS[flag]}']"
        with pytest.raises(UsageError) as err:
            parse_config(argv)
        assert str(err.value) == message
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["certify-recsys", "--out", "x", "--p-n", "0.9", "--ratings", "r",
         "--ep", "3"],
        ["certify-recsys", "--out", "x", "--p-n", "0.9", "--rat", "r"],
        ["certify-poison", "--out", "x", "--p-n", "0.9", "--dataset-edges", "e",
         "--dataset-nodes", "n", "--hidden", "3"],
        ["gen-synth", "--out", "x", "--synth-p-i", "0.3"]],
        ids=["another-commands-flag", "recsys-flag", "poison-flag", "synth-flag"])
    def test_abbreviations_exit_two(self, capsys, argv):
        # Each is a unique prefix of one flag, which argparse would accept.
        with pytest.raises(SystemExit) as err:
            parse_config(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParseConfig:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["certify-evasion", "--bogus", "1"])
        assert err.value.code == 2

    def test_probability_bound_enforced(self, capsys):
        code = main(["certify-evasion", "--out", "x", "--p-e", "1.0",
                     "--dataset-edges", "e", "--dataset-nodes", "n"])
        assert code == 2
        assert "p_e" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({
            "num_samples": 1000, "p_n": 0.9, "out_dir": str(tmp_path),
            "dataset_edges": "e", "dataset_nodes": "n",
        }))
        config = parse_config(["certify-evasion", "--config", str(config_file),
                               "--n", "500"])
        assert config.num_samples == 500  # flag wins
        assert config.p_n == 0.9                     # file fills the rest

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({"knob": 1}))
        with pytest.raises(UsageError, match="unknown config keys"):
            parse_config(["certify-evasion", "--config", str(config_file),
                          "--out", "x"])

    def test_defaults_follow_command(self):
        base = ["--out", "x", "--p-n", "0.9", "--dataset-edges", "e",
                "--dataset-nodes", "n"]
        assert parse_config(["certify-evasion"] + base).num_samples == 100_000
        assert parse_config(["certify-poison"] + base).num_samples == 1_000
        config = parse_config(["certify-recsys", "--out", "x", "--p-n", "0.9",
                               "--ratings", "r"])
        assert config.num_samples == 100_000
        assert config.alpha == 0.01
        assert config.tau == (5,)

    def test_evasion_rejects_exclude(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_config(["certify-evasion", "--out", "x", "--p-n", "0.9",
                          "--mode", "exclude", "--dataset-edges", "e",
                          "--dataset-nodes", "n"])
        assert err.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_missing_dataset_flags(self):
        with pytest.raises(UsageError, match="dataset"):
            parse_config(["certify-evasion", "--out", "x", "--p-n", "0.9"])

    NODE_RUN = ["--out", "x", "--p-n", "0.9", "--dataset-edges", "e",
                "--dataset-nodes", "n"]

    @pytest.mark.parametrize("command", ["certify-evasion", "certify-poison",
                                         "empirical-attack"])
    @pytest.mark.parametrize("flag, message", [("--epochs", "epochs"),
                                               ("--hidden-dim", "hidden_dim")])
    def test_untrainable_model_is_usage_error(self, capsys, command, flag,
                                              message):
        # Decided before any file is read, so the missing dataset is not
        # what fails.
        assert main([command, *self.NODE_RUN, flag, "0"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify-evasion", "certify-poison",
                                         "empirical-attack"])
    @pytest.mark.parametrize("flag, value", [("--lr", "nan"),
                                             ("--weight-decay", "inf")])
    def test_non_finite_optimizer_setting_is_usage_error(self, capsys, command,
                                                         flag, value):
        # Refused before any file is read, so the missing dataset is not
        # what fails.
        assert main([command, *self.NODE_RUN, flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_uint64_is_usage_error(self, tmp_path, seed):
        # Seeds are mixed modulo 2**64: 2**64 would rerun seed 0.
        with pytest.raises(UsageError, match=r"--seed must lie in \[0, 2\*\*64\)"):
            parse_config(["gen-synth", "--out", "x", "--seed", str(seed)])
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"master_seed": seed}))
        with pytest.raises(UsageError, match="--seed must lie in"):
            parse_config(["gen-synth", "--out", "x", "--config", str(config)])

    @pytest.mark.parametrize("n", [2**64, 2**70])
    def test_sample_count_past_the_index_range_is_usage_error(self, tmp_path, n):
        # Sample indices lie in [0, 2**64 - 1): refused before any training.
        argv = ["certify-evasion", *self.NODE_RUN]
        with pytest.raises(UsageError, match=r"--n must lie in \[1, 2\*\*64 - 1\]"):
            parse_config(argv + ["--n", str(n)])
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"num_samples": n}))
        with pytest.raises(UsageError, match="--n must lie in"):
            parse_config(argv + ["--config", str(config)])
        assert parse_config(argv + ["--n", str(2**64 - 1)]).num_samples == 2**64 - 1

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert parse_config(["gen-synth", "--out", "x", "--seed",
                                 str(seed)]).master_seed == seed

    @pytest.mark.parametrize("argv, flag", [
        (["certify-evasion", *NODE_RUN], "--hidden-dim"),
        (["gen-synth", "--out", "x"], "--synth-d"),
        (["certify-recsys", "--out", "x", "--p-n", "0.9", "--ratings", "r"],
         "--k-prime")])
    def test_axis_beyond_numpy_is_usage_error(self, capsys, argv, flag):
        # Refused before any file is read, naming the flag and its limit.
        assert main(argv + [flag, str(sys.maxsize + 1)]) == 2
        assert f"error: {flag} must be at most {sys.maxsize}" in \
            capsys.readouterr().err
        assert getattr(parse_config(argv + [flag, str(sys.maxsize)]),
                       flag[2:].replace("-", "_")) == sys.maxsize

    @pytest.mark.parametrize("argv", [
        ["certify-evasion", *NODE_RUN],
        ["certify-poison", *NODE_RUN],
        ["certify-recsys", "--out", "x", "--p-n", "0.9", "--ratings", "r"],
    ], ids=["evasion", "poison", "recsys"])
    def test_repeated_tau_is_usage_error(self, capsys, argv):
        assert main(argv + ["--tau", "5", "2", "5"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_empirical_attack_takes_one_tau(self, capsys):
        assert main(["empirical-attack", *self.NODE_RUN, "--tau", "2", "3"]) == 2
        assert "one tau" in capsys.readouterr().err

    def run_with_file(self, tmp_path, command, values):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps(values))
        # The dataset files do not exist, so reading them would exit 1.
        return main([command, "--config", str(config_file), "--out",
                     str(tmp_path / "out"), "--p-n", "0.9", "--dataset-edges",
                     str(tmp_path / "e"), "--dataset-nodes", str(tmp_path / "n")])

    @pytest.mark.parametrize("values", [
        {"tau": 5}, {"tau": []}, {"tau": [2.7]}, {"p_e": "0.1"},
        {"threads": "2"}, {"num_samples": 2.5}, {"epochs": True}],
        ids=["tau-number", "tau-empty", "tau-float", "p_e-string",
             "threads-string", "num_samples-float", "epochs-bool"])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path,
                                                           capsys, values):
        assert self.run_with_file(tmp_path, "certify-evasion", values) == 2
        assert next(iter(values)) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_values_of_the_field_type_pass(self, tmp_path):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({
            "p_e": 0, "alpha": 0.05, "tau": [2, 4], "num_samples": None,
            "threads": 2, "out_dir": "x",
            "dataset_edges": "e", "dataset_nodes": "n"}))
        config = parse_config(["certify-evasion", "--config", str(config_file),
                               "--p-n", "0.9"])
        assert (config.p_e, config.tau, config.threads) == (0, (2, 4), 2)
        assert config.num_samples == 100_000

    def test_unknown_strategy_in_config_is_usage_error(self, tmp_path, capsys):
        code = self.run_with_file(tmp_path, "empirical-attack",
                                  {"strategy": "bogus"})
        assert code == 2
        assert "strategy" in capsys.readouterr().err


class TestGenSynth:
    def test_emits_loadable_dataset(self, tmp_path):
        edges, nodes = make_tiny_dataset(tmp_path)
        from smoothcert import load_node_classification_dataset
        graph = load_node_classification_dataset(edges, nodes)
        assert graph.n == 40
        assert graph.num_classes == 2

    def test_runs_are_reproducible(self, tmp_path):
        a_edges, a_nodes = make_tiny_dataset(tmp_path / "a", seed=5)
        b_edges, b_nodes = make_tiny_dataset(tmp_path / "b", seed=5)
        assert a_edges.read_bytes() == b_edges.read_bytes()
        assert a_nodes.read_bytes() == b_nodes.read_bytes()


class TestCertifyEvasionCommand:
    def run_once(self, tmp_path, tag):
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / tag
        code = main(["certify-evasion", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.8", "--tau", "2", "3",
                     "--n", "150", "--seed", "11"] + FAST_MODEL)
        assert code == 0
        return out

    def test_writes_curves_and_report(self, tmp_path, capsys):
        out = self.run_once(tmp_path, "run")
        assert (out / "curve_tau2.csv").exists()
        assert (out / "curve_tau3.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["config"]["num_samples"] == 150
        assert len(report["curves"]) == 2
        assert {c["tau"] for c in report["curves"]} == {2, 3}
        # stdout carries the machine-readable report (after the gen-synth one)
        stdout = capsys.readouterr().out
        assert '"curves"' in stdout
        assert stdout.rstrip().endswith("}")

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        # Relative paths, so both runs echo the same config into report.json.
        outputs = []
        for where in ("x", "y"):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            outputs.append(tmp_path / where / self.run_once(Path("."), "run"))
        first, second = outputs
        for name in ("curve_tau2.csv", "curve_tau3.csv", "report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_report_config_reproduces_the_run(self, tmp_path):
        # The echoed config alone must be enough to re-run bit-identically.
        out = self.run_once(tmp_path, "orig")
        echoed = json.loads((out / "report.json").read_text())["metadata"]["config"]
        config_file = tmp_path / "replay.json"
        replay_out = tmp_path / "replay"
        echoed["out_dir"] = str(replay_out)
        config_file.write_text(json.dumps(echoed))
        assert main(["certify-evasion", "--config", str(config_file)]) == 0
        for name in ("curve_tau2.csv", "curve_tau3.csv"):
            assert (out / name).read_bytes() == (replay_out / name).read_bytes()

    def test_rho_cutoff_at_one(self, tmp_path):
        # Noise so weak that two injected nodes already halve the overlap
        # mass: the grid stops at rho = 1.
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / "cut"
        code = main(["certify-evasion", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.25", "--tau", "5",
                     "--n", "50", "--seed", "3"] + FAST_MODEL)
        assert code == 0
        rows = (out / "curve_tau5.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [0, 1]

    def test_huge_budgets_give_the_same_curve(self, tmp_path):
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / "huge"
        assert main(["certify-evasion", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.8", "--tau", *HUGE_TAUS,
                     "--n", "150", "--seed", "11"] + FAST_MODEL) == 0
        huge, large = (out / f"curve_tau{tau}.csv" for tau in HUGE_TAUS)
        assert huge.read_bytes() == large.read_bytes()

    def test_a_radius_at_the_cap_ends_the_curve_at_zero(self, tmp_path,
                                                        small_rho_cap):
        # Noise that removes nearly every injected node certifies the test
        # nodes up to the radius search's cap; the curve reads 0 past it.
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / "cap"
        assert main(["certify-evasion", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.5", "--p-n", "0.9999999", "--tau", "1",
                     "--n", "1000", "--epochs", "5"]) == 0
        (curve,) = json.loads((out / "report.json").read_text())["curves"]
        assert curve["max_rho"] == small_rho_cap + 1
        rows = (out / "curve_tau1.csv").read_text().splitlines()
        assert len(rows) == small_rho_cap + 3  # the header, then rho 0..cap + 1
        assert float(rows[-2].split(",")[1]) > 0.0
        assert rows[-1].startswith(f"{small_rho_cap + 1},0,")

    def test_missing_dataset_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["certify-evasion", "--out", str(tmp_path / "o"),
                     "--dataset-edges", str(tmp_path / "missing.tsv"),
                     "--dataset-nodes", str(tmp_path / "missing.csv"),
                     "--p-n", "0.8", "--n", "10"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify-evasion", "certify-poison"])
    def test_diverged_training_is_runtime_error(self, tmp_path, capsys, command):
        edges, nodes = make_tiny_dataset(tmp_path)
        code = main([command, "--out", str(tmp_path / "o"),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-n", "0.5", "--n", "4", "--hidden-dim", "4",
                     "--epochs", "5", "--lr", "1e300"])
        assert code == 1
        assert "error: message_passing_2layer training diverged" in (
            capsys.readouterr().err.splitlines()[-1])
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_runtime_error(self, tmp_path, capsys, cell):
        edges, nodes = make_tiny_dataset(tmp_path)
        lines = nodes.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1] + [cell])
        nodes.write_text("\n".join(lines) + "\n")
        code = main(["certify-evasion", "--out", str(tmp_path / "o"),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-n", "0.5", "--n", "4"])
        assert code == 1
        assert "nodes.csv:4: non-finite feature" in capsys.readouterr().err


class TestCertifyPoisonCommand:
    def test_exclude_smoke_run(self, tmp_path):
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / "poison"
        code = main(["certify-poison", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.7", "--tau", "2",
                     "--mode", "exclude", "--n", "60", "--seed", "4",
                     "--hidden-dim", "4", "--epochs", "10"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "average_certified_radius" in report["curves"][0]
        points = (out / "curve_tau2.csv").read_text().strip().splitlines()[1:]
        accuracies = [float(r.split(",")[1]) for r in points]
        assert all(a >= b for a, b in zip(accuracies, accuracies[1:]))

    def test_include_run_keeps_samples_without_training_nodes(self, tmp_path,
                                                              monkeypatch):
        # At p_n = 0.8 some of these samples delete or isolate every training
        # node; they count as abstentions instead of ending the run.
        edges, nodes = make_tiny_dataset(tmp_path)
        tables = []
        collect = cli.collect_votes_poisoning
        monkeypatch.setattr(cli, "collect_votes_poisoning",
                            lambda *a, **k: tables.append(collect(*a, **k))
                            or tables[-1])
        code = main(["certify-poison", "--out", str(tmp_path / "poison"),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.8", "--tau", "2", "--n", "20",
                     "--seed", "3", "--hidden-dim", "4", "--epochs", "10"])
        assert code == 0
        assert tables[0].mode == "include" and tables[0].abstains.sum() > 0


class TestCertifyRecsysCommand:
    def test_smoke_run(self, tmp_path):
        ratings = make_tiny_ratings(tmp_path)
        out = tmp_path / "rec"
        code = main(["certify-recsys", "--out", str(out), "--ratings",
                     str(ratings), "--p-e", "0.2", "--p-n", "0.4",
                     "--tau", "3", "--n", "400", "--k", "2", "--k-prime", "4",
                     "--split-fraction", "0.7", "--seed", "2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["evaluated_users"] == 8
        csv = (out / "recsys_curve_tau3.csv").read_text().splitlines()
        assert csv[0] == "rho,certified_precision,certified_recall"
        rho, precision, _ = csv[1].split(",")
        assert rho == "0" and float(precision) > 0

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        make_group_ratings(tmp_path)
        # Relative paths, so both runs echo the same config into report.json.
        for where in ("x", "y"):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            assert main(["certify-recsys", "--out", "run", "--ratings",
                         "../u.data", "--tau", "2", "3", *GROUP_RUN]) == 0
        first, second = tmp_path / "x" / "run", tmp_path / "y" / "run"
        assert (first / "recsys_curve_tau2.csv").read_text().splitlines()[1] \
            == "0,1,0.5"
        for name in ("recsys_curve_tau2.csv", "recsys_curve_tau3.csv",
                     "report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_huge_budgets_give_the_same_curve(self, tmp_path):
        out = tmp_path / "rec"
        assert main(["certify-recsys", "--out", str(out), "--ratings",
                     str(make_group_ratings(tmp_path)), "--tau", *HUGE_TAUS,
                     *GROUP_RUN]) == 0
        huge, large = (out / f"recsys_curve_tau{tau}.csv" for tau in HUGE_TAUS)
        assert huge.read_text().splitlines()[1:] == ["0,1,0.5", "1,0,0"]
        assert huge.read_bytes() == large.read_bytes()

    @pytest.mark.parametrize("log", ["", "0\t0\t4\t1\n1\t1\t4\t2\n"])
    def test_a_log_without_evaluable_users_is_refused_before_voting(
            self, tmp_path, capsys, monkeypatch, log):
        # An empty log, and one whose users keep every rating in training.
        (tmp_path / "u.data").write_text(log)
        voted = []
        monkeypatch.setattr(cli, "collect_item_votes",
                            lambda *a, **k: voted.append(a))
        code = main(["certify-recsys", "--out", str(tmp_path / "o"), "--ratings",
                     str(tmp_path / "u.data"), "--p-n", "0.5"])
        assert code == 1 and voted == []
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no user has both training ratings and held-out items")


class TestEmpiricalAttackCommand:
    def test_smoke_run(self, tmp_path):
        edges, nodes = make_tiny_dataset(tmp_path)
        out = tmp_path / "attack"
        code = main(["empirical-attack", "--out", str(out),
                     "--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                     "--p-e", "0.1", "--p-n", "0.8", "--tau", "2",
                     "--rho", "3", "--strategy", "centroid_flip",
                     "--n", "120", "--seed", "6"] + FAST_MODEL)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        meta = report["metadata"]
        assert 0.0 <= meta["attacked_accuracy"] <= 1.0
        assert meta["attacked_accuracy"] >= meta["certified_accuracy_at_budget"]
        plan = json.loads((out / "attack_plan.json").read_text())
        assert len(plan["features"]) == 3

    @pytest.mark.parametrize("past_the_end", [False, True])
    def test_certified_accuracy_is_the_clean_curve_at_rho(self, tmp_path,
                                                          past_the_end):
        # The clean votes are certify-evasion's votes under the same
        # settings, and the certified accuracy is that curve's point at
        # rho, or 0 past its last one.
        edges, nodes = make_tiny_dataset(tmp_path)
        flags = ["--dataset-edges", str(edges), "--dataset-nodes", str(nodes),
                 "--p-e", "0.1", "--p-n", "0.8", "--tau", "2", "--n", "120",
                 "--seed", "6"] + FAST_MODEL
        assert main(["certify-evasion", "--out", str(tmp_path / "curve")]
                    + flags) == 0
        rows = (tmp_path / "curve" / "curve_tau2.csv").read_text().splitlines()[1:]
        rho = len(rows) if past_the_end else 3
        assert main(["empirical-attack", "--out", str(tmp_path / "attack"),
                     "--rho", str(rho), "--strategy", "centroid_flip"] + flags) == 0
        meta = json.loads((tmp_path / "attack" / "report.json").read_text())["metadata"]
        assert meta["certified_accuracy_at_budget"] == (
            0.0 if past_the_end else float(rows[rho].split(",")[1]))
