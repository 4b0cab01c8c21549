import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tuplebn
from tuplebn import dag_to_dict, load_dag, load_samples, save_dag
from tuplebn import cli
from tuplebn.cli import EXIT_MODEL_VIOLATION, EXIT_OK, EXIT_USAGE, main
from tuplebn import experiment
from tuplebn.experiment import ExperimentConfig, TrialReport, summarize
from tuplebn.vcbounds import required_sample_size


def run(args):
    return main(args)


@pytest.fixture
def xor_file(tmp_path, xor_dag):
    path = tmp_path / "xor.json"
    save_dag(xor_dag, path)
    return path


def test_generate_and_reload(tmp_path):
    out = tmp_path / "net.json"
    assert run(["generate", "--n", "4", "--delta", "1", "--d", "2", "--seed", "7", "--output", str(out)]) == EXIT_OK
    dag = load_dag(out)
    assert dag.n == 4 and dag.delta == 1


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--n", "5", "--delta", "2", "--d", "3", "--seed", "123", "--output"]
    run(argv + [str(a)])
    run(argv + [str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_card_conflict(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run(["generate", "--n", "3", "--delta", "1", "--d", "2", "--cards", "2,2,2",
                "--seed", "1", "--output", str(out)])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_generate_rejects_invalid_cards(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run(["generate", "--n", "3", "--delta", "1", "--cards", "2,banana,2",
                "--seed", "1", "--output", str(out)])
    assert code == EXIT_USAGE


def test_sample_then_estimate(tmp_path):
    net = tmp_path / "net.json"
    csv_path = tmp_path / "data.csv"
    freq_path = tmp_path / "freq.json"
    run(["generate", "--n", "3", "--delta", "1", "--d", "2", "--seed", "5", "--output", str(net)])
    assert run(["sample", "--dag", str(net), "--l", "500", "--seed", "6", "--output", str(csv_path)]) == EXIT_OK
    samples = load_samples(csv_path, cards=(2, 2, 2))
    assert samples.l == 500
    assert run(["estimate", "--samples", str(csv_path), "--k", "2", "--output", str(freq_path)]) == EXIT_OK
    data = json.loads(freq_path.read_text())
    assert data["k"] == 2 and data["l"] == 500


def test_cards_option_overrides_the_inferred_cards(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,x2\n0,0\n1,1\n0,1\n1,1\n")
    freq_path, out = tmp_path / "freq.json", tmp_path / "rec.json"
    assert run(["estimate", "--samples", str(csv_path), "--k", "2", "--cards", "3,4",
                "--output", str(freq_path)]) == EXIT_OK
    assert json.loads(freq_path.read_text())["cards"] == [3, 4]
    assert run(["recover", "--mode", "empirical", "--samples", str(csv_path), "--cards", "3,4",
                "--delta", "1", "--epsilon", "0.1", "--output", str(out)]) == EXIT_OK
    assert load_dag(out).cards == (3, 4)


def test_sample_rejects_invalid_dag(tmp_path, chain_dag, capsys):
    data = dag_to_dict(chain_dag)
    data["parents"][1] = [3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = run(["sample", "--dag", str(bad), "--l", "10", "--seed", "1", "--output", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert "invalid DAG" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sample_determinism(tmp_path):
    net = tmp_path / "net.json"
    run(["generate", "--n", "3", "--delta", "1", "--d", "2", "--seed", "5", "--output", str(net)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["sample", "--dag", str(net), "--l", "200", "--seed", "9", "--output", str(a)])
    run(["sample", "--dag", str(net), "--l", "200", "--seed", "9", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_seed_option_refuses_a_negative_value(tmp_path, chain_dag, capsys):
    net = tmp_path / "chain.json"
    save_dag(chain_dag, net)
    commands = [
        ["generate", "--n", "3", "--delta", "1", "--d", "2", "--seed", "-1", "--output", str(tmp_path / "g.json")],
        ["sample", "--dag", str(net), "--l", "10", "--seed", "-1", "--output", str(tmp_path / "s.csv")],
    ]
    for args in commands:
        assert run(args) == EXIT_USAGE
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "s.csv").exists()


def test_delta_option_refuses_a_negative_value(tmp_path, chain_dag, capsys):
    net = tmp_path / "chain.json"
    save_dag(chain_dag, net)
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,x2\n0,0\n1,1\n")
    out = tmp_path / "o.json"
    commands = [
        ["generate", "--n", "3", "--delta", "-1", "--d", "2", "--seed", "1"],
        ["recover", "--mode", "exact", "--dag", str(net), "--delta", "-1"],
        ["recover", "--mode", "empirical", "--samples", str(csv_path), "--epsilon", "0.01", "--delta", "-1"],
    ]
    for args in commands:
        assert run(args + ["--output", str(out)]) == EXIT_USAGE
        assert "argument --delta: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point_exits_with_the_cli_code(tmp_path):
    src = str(Path(tuplebn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "g.json"
    argv = [sys.executable, "-m", "tuplebn.cli", "generate", "--n", "3", "--delta", "1", "--d", "2", "--output", str(out)]
    bad = subprocess.run(argv + ["--seed", "-1"], env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == EXIT_USAGE
    assert "must be a non-negative integer" in bad.stderr and not out.exists()
    good = subprocess.run(argv + ["--seed", "1"], env=env, capture_output=True, text=True, timeout=60)
    assert good.returncode == EXIT_OK and out.exists()


def test_recover_exact_chain(tmp_path, chain_dag, capsys):
    net = tmp_path / "chain.json"
    save_dag(chain_dag, net)
    out = tmp_path / "rec.json"
    trace = tmp_path / "trace.json"
    code = run(["recover", "--mode", "exact", "--dag", str(net), "--delta", "1",
                "--trace", str(trace), "--output", str(out)])
    assert code == EXIT_OK
    recovered = load_dag(out)
    assert recovered.parents == ((), (1,), (2,))
    stdout = capsys.readouterr().out
    assert "markov-compatible: true" in stdout
    assert "max tuple size accessed" in stdout
    trace_data = json.loads(trace.read_text())
    assert [t["node"] for t in trace_data["nodes"]] == [1, 2, 3]


def test_recover_exact_model_violation_exit_2(xor_file, tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = run(["recover", "--mode", "exact", "--dag", str(xor_file), "--delta", "1", "--output", str(out)])
    assert code == EXIT_MODEL_VIOLATION
    assert "node 3" in capsys.readouterr().err


def test_recover_empirical(tmp_path, chain_dag, capsys):
    net = tmp_path / "chain.json"
    save_dag(chain_dag, net)
    csv_path = tmp_path / "data.csv"
    out = tmp_path / "rec.json"
    run(["sample", "--dag", str(net), "--l", "50000", "--seed", "3", "--output", str(csv_path)])
    code = run(["recover", "--mode", "empirical", "--samples", str(csv_path),
                "--delta", "1", "--epsilon", "0.0015", "--output", str(out)])
    assert code == EXIT_OK
    assert load_dag(out).parents == ((), (1,), (2,))
    assert "decider: empirical, epsilon=0.0015, dependence threshold=0.006 (" in capsys.readouterr().out


def test_recover_empirical_requires_epsilon(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,x2\n0,0\n1,1\n")
    code = run(["recover", "--mode", "empirical", "--samples", str(csv_path),
                "--delta", "0", "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_recover_empirical_refuses_nan_and_infinite_epsilon(tmp_path, capsys, epsilon):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,x2\n0,0\n1,1\n")
    code = run(["recover", "--mode", "empirical", "--samples", str(csv_path), "--delta", "0",
                "--epsilon", epsilon, "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert only_error_line(capsys) == f"error: epsilon must be finite and > 0, got {epsilon}"
    assert not (tmp_path / "o.json").exists()


def test_recover_empirical_refuses_epsilon_of_a_quarter_or_more(tmp_path, capsys):
    # at 4*epsilon >= 1 every context would be skipped and the graph come out empty
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,x2\n0,0\n1,1\n")
    code = run(["recover", "--mode", "empirical", "--samples", str(csv_path), "--delta", "1",
                "--epsilon", "0.3", "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert only_error_line(capsys).startswith("error: epsilon must be in (0, 0.25)")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("epsilon", ["0.25", "0.3", "nan", "0", "inf"])
def test_recover_empirical_checks_epsilon_before_reading_samples(tmp_path, capsys, epsilon):
    # the samples path does not exist: the epsilon error comes first
    code = run(["recover", "--mode", "empirical", "--samples", str(tmp_path / "missing.csv"), "--delta", "1",
                "--epsilon", epsilon, "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert only_error_line(capsys).startswith("error: epsilon must be ")
    assert not (tmp_path / "o.json").exists()


def test_recover_missing_input_is_usage_error(tmp_path):
    code = run(["recover", "--mode", "exact", "--dag", str(tmp_path / "nope.json"),
                "--delta", "1", "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("mode,missing", [("exact", "--dag"), ("empirical", "--samples")])
def test_recover_requires_the_input_of_its_mode(tmp_path, capsys, mode, missing):
    code = run(["recover", "--mode", mode, "--delta", "1", "--epsilon", "0.1", "--output", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert only_error_line(capsys) == f"error: {missing} is required in {mode} mode"
    assert not (tmp_path / "o.json").exists()


def test_bounds_text_and_json_agree(tmp_path, capsys):
    argv = ["bounds", "--n", "8", "--k", "3", "--d", "2", "--epsilon", "0.1", "--delta-risk", "0.05"]
    assert run(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert run(argv + ["--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    for key, value in data.items():
        assert f"{key}: {value}" in text
    assert data["l_suff"] == 28721
    assert data["vc_upper"] == 12.0


def test_bounds_reports_no_shattered_point_with_one_value_per_position(capsys):
    assert run(["bounds", "--n", "8", "--k", "3", "--d", "1", "--epsilon", "0.1", "--delta-risk", "0.05",
                "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["vc_lower"] == 0


def test_bounds_rejects_k_above_n(capsys):
    code = run(["bounds", "--n", "2", "--k", "5", "--d", "2", "--epsilon", "0.1", "--delta-risk", "0.05"])
    assert code == EXIT_USAGE


def test_bounds_output_file(tmp_path):
    out = tmp_path / "report.json"
    run(["bounds", "--n", "4", "--k", "2", "--d", "2", "--epsilon", "0.2", "--delta-risk", "0.1",
         "--format", "json", "--output", str(out)])
    data = json.loads(out.read_text())
    assert data["cylinder_count_exact"] == 24


def test_witness_roundtrip_and_exit(tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert run(["witness", "--n", "6", "--k", "2", "--output", str(out)]) == EXIT_OK
    assert "shattered=true" in capsys.readouterr().out
    with open(out) as f:
        data = json.load(f)
    assert data["witness"]["l_points"] == 2 and data["verification"]["ok"] is True


def test_witness_value_pairs_option(tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert run(["witness", "--n", "3", "--k", "2", "--value-pairs", "0:2,1:0,5:7", "--output", str(out)]) == EXIT_OK
    assert "shattered=true" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["witness"]["value_pairs"] == [[0, 2], [1, 0], [5, 7]]
    assert data["witness"]["points"] == [[2, 1, 7]]
    for pairs in ("0-1", "0:1,x:2,0:1", "0:1:2,0:1,0:1"):
        assert run(["witness", "--n", "3", "--k", "2", "--value-pairs", pairs]) == EXIT_USAGE
        assert only_error_line(capsys) == f"error: value pairs must look like 0:1,0:1,..., got {pairs!r}"


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    assert run(["generate", "--n", "3"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()


def test_commands_are_looked_up_by_name_when_they_run(capsys, monkeypatch):
    # the parser is built once; a handler replaced after that still runs
    assert cli.build_parser() is cli.build_parser()
    argv = ["bounds", "--n", "4", "--k", "2", "--d", "2", "--epsilon", "0.2", "--delta-risk", "0.1"]
    assert run(argv) == EXIT_OK
    assert "l_suff: " in capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.n) or EXIT_OK)
    assert run(argv) == EXIT_OK
    assert seen == [4] and capsys.readouterr().out == ""


def test_version_exits_zero(capsys):
    assert run(["--version"]) == EXIT_OK
    assert "tuplebn" in capsys.readouterr().out


def test_experiment_smoke(tmp_path, capsys):
    cfg = {
        "n": 4, "delta": 1, "d": 2, "floor": 0.05,
        "sample_sizes": [2000], "epsilon": 0.0015, "delta_risk": 0.05,
        "trials": 2, "seed": 31, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["experiment", "--config", str(cfg_path)]) == EXIT_OK
    trials = (tmp_path / "out" / "trials.csv").read_text().splitlines()
    assert trials[0] == "trial,l_index,l,seed,outcome,max_freq_dev,max_tuple_size,graph_equal"
    assert len(trials) == 3
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["per_l"][0]["trials"] == 2
    assert summary["max_tuple_size_overall"] <= 3


def test_error_cell_logs_its_exception_outside_the_artifacts(tmp_path, capsys, caplog):
    cfg = {
        "n": 25, "delta": 1, "d": 2,
        "sample_sizes": [200], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 2, "seed": 5, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    artifacts = []
    for level in (logging.CRITICAL, logging.WARNING):
        with caplog.at_level(level, logger="tuplebn.experiment"):
            assert run(["experiment", "--config", str(cfg_path)]) == EXIT_OK
        artifacts.append([(tmp_path / "out" / f).read_bytes() for f in ("trials.csv", "summary.json")])
    assert artifacts[0] == artifacts[1]
    assert capsys.readouterr().err == ""  # silent unless the application configures logging
    assert [(r.name, r.levelno) for r in caplog.records] == [("tuplebn.experiment", logging.WARNING)] * 2
    for trial, record in enumerate(caplog.records):
        assert record.exc_info[0].__name__ == "CapacityError"
        assert record.getMessage() == (
            f"cell (trial {trial}, l=200) failed: CapacityError: dense joint needs 33554432 entries,"
            " above the capacity guard 16777216"
        )


def test_experiment_cell_above_joint_capacity_is_an_error_cell(tmp_path, capsys):
    # 2**25 joint entries is above the capacity guard: each cell records an
    # error with no deviation, and the grid still runs to the end; the search
    # needs no joint, so each cell still records its tuple size
    cfg = {
        "n": 25, "delta": 1, "d": 2,
        "sample_sizes": [200, 300], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 2, "seed": 5, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        assert run(["experiment", "--config", str(cfg_path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**25  # the 256 MiB joint was never allocated
    rows = [line.split(",") for line in (tmp_path / "out" / "trials.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    assert all(r[4] == "error" and r[5] == "nan" for r in rows)
    assert all(r[6] == "3" for r in rows)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["max_tuple_size_overall"] == 3
    for entry in summary["per_l"]:
        assert entry["outcomes"]["error"] == 2
        assert entry["max_freq_dev_max"] is None
        assert entry["max_freq_dev_mean"] is None
        assert entry["freq_dev_exceed_rate"] is None
    assert "max freq dev n/a" in capsys.readouterr().out


def test_experiment_records_model_violation_cells(tmp_path, capsys):
    # a dependence threshold of 4e-4 at l=100 screens no node off
    cfg = {
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100], "epsilon": 1e-4, "delta_risk": 0.05,
        "trials": 3, "seed": 0, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["experiment", "--config", str(cfg_path)]) == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "out" / "trials.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["model-violation"] * 3
    assert all(math.isfinite(float(r[5])) and r[6] == "3" and r[7] == "false" for r in rows)
    entry = json.loads((tmp_path / "out" / "summary.json").read_text())["per_l"][0]
    assert entry["outcomes"] == {"markov-ok": 0, "model-violation": 3, "markov-fail": 0, "error": 0}
    assert entry["markov_ok_rate"] == 0.0


def test_experiment_output_dir_overrides_the_config(tmp_path, capsys):
    cfg = {
        "n": 3, "delta": 0, "d": 2, "sample_sizes": [100], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 1, "seed": 2, "output_dir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "from_option"
    assert run(["experiment", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trials.csv"]
    assert not (tmp_path / "from_config").exists()
    assert f"reports -> {out}" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["config"]["output_dir"] == str(out)


def test_summarize_skips_cells_without_a_deviation():
    config = ExperimentConfig.from_dict({
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100], "epsilon": 0.2, "delta_risk": 0.05,
        "trials": 4, "seed": 1, "output_dir": "out",
    })
    reports = [
        TrialReport(0, 0, 100, 1, "markov-ok", 0.25, 3, True),
        TrialReport(1, 0, 100, 2, "error", math.nan, 0, False),
        TrialReport(2, 0, 100, 3, "markov-fail", 0.05, 3, False),
        # a deviation of exactly epsilon counts as exceeding it
        TrialReport(3, 0, 100, 4, "markov-ok", 0.2, 3, True),
    ]
    sizes = required_sample_size(3, config.k, 2, config.epsilon, config.delta_risk)
    entry = summarize(config, reports, sizes)["per_l"][0]
    assert entry["max_freq_dev_max"] == 0.25
    assert entry["max_freq_dev_mean"] == pytest.approx(0.5 / 3)
    assert entry["freq_dev_exceed_rate"] == 2 / 3
    assert entry["outcomes"]["error"] == 1


@pytest.mark.parametrize("l_indices", [[0], []], ids=["one-size-of-two", "no-reports"])
def test_summarize_refuses_a_sample_size_without_reports(l_indices):
    config = ExperimentConfig.from_dict({
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100, 200], "epsilon": 0.2, "delta_risk": 0.05,
        "trials": 1, "seed": 1, "output_dir": "out",
    })
    reports = [TrialReport(0, i, config.sample_sizes[i], 1, "markov-ok", 0.25, 3, True) for i in l_indices]
    sizes = required_sample_size(3, config.k, 2, config.epsilon, config.delta_risk)
    l, i = (200, 1) if l_indices else (100, 0)
    with pytest.raises(ValueError, match=re.escape(f"no trial report for sample size l = {l} (l_index {i})")):
        summarize(config, reports, sizes)


@pytest.mark.parametrize("trial, l_index, message", [
    (True, 0, "trial: expected an integer, got True"),
    (1.0, 0, "trial: expected an integer, got 1.0"),
    (-1, 0, "trial must be >= 0, got -1"),
    (3, 0, "trial must be below config.trials = 3, got 3"),
    (7, 0, "trial must be below config.trials = 3, got 7"),
    (0, True, "l_index: expected an integer, got True"),
    (0, 1.0, "l_index: expected an integer, got 1.0"),
    (0, -1, "l_index must be >= 0, got -1"),
    (0, 2, "l_index must be below len(config.sample_sizes) = 2, got 2"),
    (0, 5, "l_index must be below len(config.sample_sizes) = 2, got 5"),
])
def test_trial_cell_refuses_a_cell_outside_the_grid(trial, l_index, message):
    config = ExperimentConfig.from_dict({
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100, 200], "epsilon": 0.2, "delta_risk": 0.05,
        "trials": 3, "seed": 1, "output_dir": "out",
    })
    with pytest.raises(ValueError) as exc:
        experiment.run_trial_cell(config, trial, l_index)
    assert str(exc.value) == message
    # the last cell of the grid runs, numpy integers being integers
    last = experiment.run_trial_cell(config, np.int64(2), np.uint8(1))
    assert (last.trial, last.l_index, last.l) == (2, 1, 200)
    assert type(last.trial) is int and type(last.l_index) is int


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n": 4, "typo_key": 1}))
    assert run(["experiment", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "typo_key" in capsys.readouterr().err


def only_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("text,got", [("5", "int"), ("[1]", "list"), ('"x"', "str"), ("null", "NoneType")])
@pytest.mark.parametrize("command,what", [("sample", "a DAG file"), ("experiment", "a config")])
def test_json_files_must_hold_an_object(tmp_path, capsys, command, what, text, got):
    path = tmp_path / "input.json"
    path.write_text(text + "\n")
    if command == "sample":
        args = ["sample", "--dag", str(path), "--l", "10", "--seed", "1", "--output", str(tmp_path / "s.csv")]
    else:
        args = ["experiment", "--config", str(path)]
    assert run(args) == EXIT_USAGE
    assert only_error_line(capsys) == f"error: {what} must hold a JSON object, got {got}"


@pytest.mark.parametrize("content", [b"not json", b"\xff{}"])
@pytest.mark.parametrize("command", ["sample", "recover", "experiment"])
def test_json_files_that_do_not_parse_are_named(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    args = {
        "sample": ["sample", "--dag", str(path), "--l", "10", "--seed", "1", "--output", str(tmp_path / "s.csv")],
        "recover": ["recover", "--mode", "exact", "--dag", str(path), "--delta", "1",
                    "--output", str(tmp_path / "r.json")],
        "experiment": ["experiment", "--config", str(path)],
    }[command]
    assert run(args) == EXIT_USAGE
    assert only_error_line(capsys).startswith(f"error: JSON file {path}: ")


def test_sample_names_malformed_dag_field(tmp_path, chain_dag, capsys):
    # a field of the wrong type is named; a fraction is not truncated
    for field, value in (("parents", 5), ("delta", 1.5)):
        data = dag_to_dict(chain_dag)
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run(["sample", "--dag", str(bad), "--l", "10", "--seed", "1", "--output", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert f"malformed field ({field}: expected" in only_error_line(capsys)


def test_sample_rejects_nan_probabilities(tmp_path, chain_dag, capsys):
    data = dag_to_dict(chain_dag)
    data["cpts"][1][1] = [math.nan, math.nan]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    code = run(["sample", "--dag", str(bad), "--l", "10", "--seed", "1", "--output", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert "node 2: probability out of [0,1]" in only_error_line(capsys)
    assert not (tmp_path / "s.csv").exists()


# integer fields refuse a fraction or a bool instead of truncating it, and
# real fields refuse a bool or a string instead of parsing it
@pytest.mark.parametrize("field, value", [
    ("n", None), ("sample_sizes", 10), ("cards", [2, None, 2]), ("output_dir", None),
    ("n", 3.7), ("sample_sizes", [100.9]), ("trials", True),
    ("epsilon", "0.01"), ("alpha", True), ("markov_tol", "1e-2"), ("seed", -1),
])
def test_experiment_names_malformed_config_field(tmp_path, capsys, field, value):
    cfg = {
        "n": 3, "delta": 1, "sample_sizes": [100], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 1, "seed": 2, "output_dir": str(tmp_path / "out"),
    }
    cfg["cards" if field == "cards" else "d"] = 2
    cfg[field] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["experiment", "--config", str(cfg_path)]) == EXIT_USAGE
    assert f"'{field}'" in only_error_line(capsys)


def test_experiment_with_no_feasible_bound_runs_no_cell(tmp_path, capsys, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment, "run_trial_cell", no_cell)
    cfg = {
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100], "epsilon": 1e-6, "delta_risk": 0.05,
        "trials": 1, "seed": 2, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["experiment", "--config", str(cfg_path)]) == EXIT_USAGE
    assert only_error_line(capsys).startswith("error: no feasible sample size below ")
    assert not (tmp_path / "out").exists()


def test_experiment_timings_flag(tmp_path):
    cfg = {
        "n": 3, "delta": 0, "d": 2,
        "sample_sizes": [100], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 1, "seed": 2, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run(["experiment", "--config", str(cfg_path), "--timings"])
    timing_lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert timing_lines[0] == "trial,l_index,wall_time_ms"
    assert len(timing_lines) == 2
