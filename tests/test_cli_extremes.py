"""Every subcommand driven in-process over extreme values.

Each numeric setting is set just past each limit it documents, each float
setting to ``nan``, ``inf`` and ``-inf``, and each integer setting to
``2**64``, except where that value is valid and only adds work or memory
(``--epochs``, ``--rho``, ``--synth-n``). Each numeric cell of the three
dataset files is set to ``1e308``, ``-1e308``, ``-0`` and a 20-digit
number. A run either exits 0 with finite values in every CSV it writes, or
exits 1 or 2 with one ``error:`` line on stderr and no traceback; the runs
of ``USAGE_ERRORS`` must exit 2 with their message.
"""
import csv
import json
import math
import warnings

import pytest

from smoothcert import cli

BIG = str(2**64)
TWENTY_DIGITS = "12345678901234567890"
NON_FINITE = ["nan", "inf", "-inf"]
PROBABILITY = ["-5e-324", "1", *NON_FINITE]  # [0, 1)
CELLS = ["1e308", "-1e308", "-0", TWENTY_DIGITS]

NODE_SETTINGS = {
    "--seed": ["-1", BIG],
    "--threads": ["0", BIG],
    "--p-e": PROBABILITY,
    "--p-n": PROBABILITY,
    "--tau": ["0", BIG],
    "--n": ["0", BIG],
    "--alpha": ["0", "1", *NON_FINITE],
    "--hidden-dim": ["0", BIG],
    "--epochs": ["0"],
    "--lr": ["1e308", "-1e308", *NON_FINITE],
    "--weight-decay": ["1e308", "-1e308", *NON_FINITE],
}
SETTINGS = {
    "gen-synth": {
        "--seed": ["-1", BIG],
        "--synth-n": ["0", "61", "-1"],
        "--synth-classes": ["1", "0", "-1", BIG],
        "--synth-d": ["1", BIG],
        "--synth-p-in": ["0.005", "1.0000000000000002", *NON_FINITE],
        "--synth-p-out": ["-5e-324", "0.30000000000000004", *NON_FINITE],
    },
    "certify-evasion": NODE_SETTINGS,
    "certify-poison": NODE_SETTINGS,
    "empirical-attack": {**NODE_SETTINGS, "--rho": ["-1"]},
    "certify-recsys": {
        **{flag: NODE_SETTINGS[flag] for flag in
           ("--seed", "--threads", "--p-e", "--p-n", "--tau", "--n", "--alpha")},
        "--split-fraction": ["0", "1.0000000000000002", *NON_FINITE],
        "--k": ["0", "5", BIG],
        "--k-prime": ["1", BIG],
    },
}


# Runs that must exit 2 with a message that names the setting. A seed is
# mixed modulo 2**64 and would otherwise alias another; an axis longer than
# numpy's largest dimension would fail with numpy's message alone; a sample
# count past the index range would fail only after the model is trained.
USAGE_ERRORS = {
    "--seed=-1": "--seed must lie in [0, 2**64)",
    f"--seed={BIG}": "--seed must lie in [0, 2**64)",
    f"--hidden-dim={BIG}": "--hidden-dim must be at most",
    f"--synth-d={BIG}": "--synth-d must be at most",
    f"--k-prime={BIG}": "--k-prime must be at most",
    f"--n={BIG}": "--n must lie in [1, 2**64 - 1]",
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("extremes")
    assert cli.main(["gen-synth", "--out", str(root), "--seed", "2",
                     "--synth-n", "60", "--synth-d", "4",
                     "--synth-p-in", "0.3"]) == 0
    # Ten users in two taste groups; each rates six items, the last two
    # of which are held out.
    ratings = [f"{u}\t{(u // 5) * 10 + j}\t4\t{j if j < 4 else 100 + u}"
               for u in range(10) for j in range(6)]
    (root / "ratings.tsv").write_text("\n".join(ratings) + "\n")
    return root


def base_argv(command, files):
    if command == "gen-synth":
        return ["--synth-n", "60", "--synth-d", "4", "--synth-p-in", "0.3"]
    common = ["--p-e", "0.2", "--p-n", "0.4", "--n", "20", "--tau", "2"]
    if command == "certify-recsys":
        return common + ["--ratings", str(files["ratings.tsv"]), "--k", "2",
                         "--k-prime", "4", "--split-fraction", "0.7"]
    argv = common + ["--dataset-edges", str(files["edges.tsv"]),
                     "--dataset-nodes", str(files["nodes.csv"]),
                     "--hidden-dim", "4", "--epochs", "5"]
    return argv + ["--rho", "2"] if command == "empirical-attack" else argv


def with_cell(root, name, line, column, value, tmp_path):
    """A copy of dataset file ``name`` whose 0-based ``line`` has ``value``
    in ``column``."""
    delimiter = "," if name.endswith(".csv") else "\t"
    lines = (root / name).read_text().splitlines()
    cells = lines[line].split(delimiter)
    cells[column] = value
    lines[line] = delimiter.join(cells)
    path = tmp_path / f"{name}.{line}.{column}.{value}"
    path.write_text("\n".join(lines) + "\n")
    return path


def cases(command, root, tmp_path):
    """``(label, argv tail, files)`` of every extreme run of ``command``."""
    files = {name: root / name for name in ("edges.tsv", "nodes.csv",
                                            "ratings.tsv")}
    for flag, values in SETTINGS[command].items():
        for value in values:
            # One token, so argparse cannot take "-inf" for an option.
            yield f"{flag}={value}", [f"{flag}={value}"], files
    if command == "gen-synth":
        return
    # Line index 5 of the node file holds node 4: its id, label and feature 1.
    cells = ([("ratings.tsv", 0, column) for column in range(4)]
             if command == "certify-recsys" else
             [("edges.tsv", 0, 0), ("edges.tsv", 0, 1), ("nodes.csv", 5, 0),
              ("nodes.csv", 5, 1), ("nodes.csv", 5, 2)])
    for name, line, column in cells:
        for value in CELLS:
            changed = {**files,
                       name: with_cell(root, name, line, column, value, tmp_path)}
            yield f"{name}:{line + 1} column {column} = {value}", [], changed


def csv_values_are_finite(out_dir):
    for path in out_dir.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if not all(math.isfinite(float(cell)) for row in rows for cell in row
                   if cell):
            return False
    return True


def run(argv, capsys):
    """The exit code, stderr and warnings of one in-process CLI run."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals exit 2 from the parser
            code = exc.code
    return code, capsys.readouterr().err, caught


@pytest.mark.parametrize("command", list(SETTINGS))
def test_extreme_values_exit_cleanly(datasets, tmp_path, capsys, command):
    failures = []
    for i, (label, tail, files) in enumerate(cases(command, datasets, tmp_path)):
        out = tmp_path / f"run{i}"
        argv = [command, "--out", str(out)] + base_argv(command, files) + tail
        try:
            code, err, caught = run(argv, capsys)
        except Exception as exc:  # noqa: BLE001 - a traceback is the failure
            failures.append(f"{label}: raised {exc!r}")
            continue
        errors = [line for line in err.splitlines() if "error:" in line]
        if caught:
            failures.append(f"{label}: warned {caught[0].message}")
        if code == 0:
            json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not csv_values_are_finite(out):
                failures.append(f"{label}: exit 0 with a value that is not finite")
        elif code not in (1, 2) or len(errors) != 1 or "Traceback" in err:
            failures.append(f"{label}: exit {code}, stderr {err!r}")
        if label in USAGE_ERRORS and (code != 2 or USAGE_ERRORS[label] not in err):
            failures.append(f"{label}: expected exit 2 naming the setting, "
                            f"got exit {code}, stderr {err!r}")
    assert failures == []


def test_every_expected_usage_error_is_swept(datasets, tmp_path):
    labels = {label for command in SETTINGS
              for label, _, _ in cases(command, datasets, tmp_path)}
    assert set(USAGE_ERRORS) <= labels
