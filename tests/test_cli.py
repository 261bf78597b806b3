import json
from pathlib import Path

import pytest

from smoothcert.cli import UsageError, main, parse_config


def make_tiny_dataset(tmp_path, seed=0):
    out = tmp_path / "data"
    code = main(["gen-synth", "--out", str(out), "--seed", str(seed),
                 "--synth-n", "40", "--synth-classes", "2",
                 "--synth-p-in", "0.5", "--synth-p-out", "0.02",
                 "--synth-d", "4"])
    assert code == 0
    return out / "edges.tsv", out / "nodes.csv"


FAST_MODEL = ["--hidden-dim", "8", "--epochs", "25"]


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
        assert config.resolved_num_samples() == 500  # flag wins
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
        assert parse_config(["certify-evasion"] + base).resolved_num_samples() \
            == 100_000
        assert parse_config(["certify-poison"] + base).resolved_num_samples() \
            == 1_000
        config = parse_config(["certify-recsys", "--out", "x", "--p-n", "0.9",
                               "--ratings", "r"])
        assert config.resolved_num_samples() == 100_000
        assert config.alpha == 0.01
        assert config.tau == (5,)

    def test_evasion_rejects_exclude(self):
        with pytest.raises(UsageError, match="exclude"):
            parse_config(["certify-evasion", "--out", "x", "--p-n", "0.9",
                          "--mode", "exclude", "--dataset-edges", "e",
                          "--dataset-nodes", "n"])

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

    def test_missing_dataset_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["certify-evasion", "--out", str(tmp_path / "o"),
                     "--dataset-edges", str(tmp_path / "missing.tsv"),
                     "--dataset-nodes", str(tmp_path / "missing.csv"),
                     "--p-n", "0.8", "--n", "10"])
        assert code == 1
        assert "error" in capsys.readouterr().err


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


class TestCertifyRecsysCommand:
    def test_smoke_run(self, tmp_path):
        lines = []
        # 8 users in two taste groups of four, each group over its own six
        # items. Every user rates all six; the two it rates last are held
        # out by the 0.7 split and were rated in training by two other
        # members of its group, so the recommender can recommend them.
        for u in range(8):
            base = 0 if u < 4 else 10
            late = {u % 4, (u + 1) % 4}
            for j in range(6):
                lines.append(f"{u}\t{base + j}\t4\t{100 + j if j in late else j}")
        ratings = tmp_path / "u.data"
        ratings.write_text("\n".join(sorted(set(lines))) + "\n")
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
        # Two taste groups of six users over six items each; every user
        # rates its group's items and rates one of them last, so the held-out
        # items are the ones the group recommends and the curve certifies.
        lines = [f"{u}\t{(0 if u < 6 else 10) + j}\t4\t{100 if j == u % 6 else j}"
                 for u in range(12) for j in range(6)]
        (tmp_path / "u.data").write_text("\n".join(lines) + "\n")
        # Relative paths, so both runs echo the same config into report.json.
        for where in ("x", "y"):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            assert main(["certify-recsys", "--out", "run", "--ratings",
                         "../u.data", "--p-e", "0.2", "--p-n", "0.4",
                         "--tau", "2", "3", "--n", "400", "--k", "1",
                         "--k-prime", "2", "--split-fraction", "0.8",
                         "--seed", "2"]) == 0
        first, second = tmp_path / "x" / "run", tmp_path / "y" / "run"
        assert (first / "recsys_curve_tau2.csv").read_text().splitlines()[1] \
            == "0,1,0.5"
        for name in ("recsys_curve_tau2.csv", "recsys_curve_tau3.csv",
                     "report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


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
