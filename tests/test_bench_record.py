"""bench/record.py, run against a stub benchmark command."""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("record", os.path.join(ROOT, "bench", "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

# prints a meta line and then, as the benchmark does, the JSON result line
# last; its metrics echo the arguments it was given
STUB = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("meta {}")
print(json.dumps({"correct": args["--workload"] != "bad", "attempted": 4, "failed": 0, "metrics": {
    "wall_s": {"value": float(args["--seed"]), "unit": "s"},
    "setup_s": {"value": float(args.get("--seconds", -1)), "unit": "s"},
    "trace": {"value": int(args["--trace"]), "unit": "flag"},
}}))
print("a last line that is not JSON")
"""


def stub_checkout(path, stub=STUB):
    (path / "stub.py").write_text(stub)
    spec = {"command": [sys.executable, "stub.py"], "run_seconds": 7, "workloads": [{"name": "good"}, {"name": "bad"}]}
    (path / "BENCHMARK.json").write_text(json.dumps(spec))


def test_each_run_appends_one_record(tmp_path, capsys):
    stub_checkout(tmp_path)
    assert record.main(["--root", str(tmp_path)]) == 0
    assert record.main(["--root", str(tmp_path), "--seed", "3", "--seconds", "2"]) == 0
    records = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
    assert [r["seed"] for r in records] == [0, 3] and [r["seconds"] for r in records] == [7, 2]
    first, second = records
    assert (first["revision"], first["dirty"]) == (None, None)  # not a git checkout
    assert first["nproc"] == len(os.sched_getaffinity(0)) and first["numpy"] == np.__version__
    assert set(first) == {"revision", "dirty", "nproc", "python", "numpy", "seed", "seconds", "workloads"}
    assert list(second["workloads"]) == ["good", "bad"]
    good, bad = second["workloads"]["good"], second["workloads"]["bad"]
    assert good["correct"] and not bad["correct"] and (good["attempted"], good["failed"]) == (4, 0)
    assert good["metrics"] == {
        "wall_s": {"value": 3.0, "unit": "s"},
        "setup_s": {"value": 2.0, "unit": "s"},
        "trace": {"value": 0, "unit": "flag"},
    }
    assert first["workloads"]["good"]["metrics"]["setup_s"]["value"] == -1.0  # no --seconds passed
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == second


def test_a_run_without_a_result_writes_nothing(tmp_path):
    stub_checkout(tmp_path, "print('no result')")
    with pytest.raises(SystemExit, match="^record: workload good printed no JSON result line$"):
        record.main(["--root", str(tmp_path)])
    assert not (tmp_path / "BENCH_pipeline.json").exists()
