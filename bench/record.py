"""Append one record of the pipeline benchmark to BENCH_pipeline.json.

Run from anywhere, with the interpreter the benchmark's command runs:

    python3 bench/record.py [--root CHECKOUT] [--seed 0] [--seconds S] [--output FILE]

For each workload of the checkout's BENCHMARK.json, its command runs once,
as a subprocess in the checkout, with ``--workload NAME --seed N --trace 0``
(and ``--seconds S`` when given). The last JSON line of each run's output
holds its ``correct`` flag, its operation counts and its end-to-end
metrics. One record then goes to the end of the output file's list: the
checkout's git revision and whether it is dirty (the record file itself
aside), ``nproc``, the Python and numpy versions, the seed, the seconds,
and each workload's result. A run that prints no JSON line stops the
recorder before anything is written.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_FILE = "BENCH_pipeline.json"


def run_workload(command, root, name, seed, seconds) -> str:
    """The standard output of one untraced run of workload ``name``."""
    argv = [*command, "--workload", name, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True).stdout


def last_json(output: str, name: str) -> dict:
    for line in reversed(output.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise SystemExit(f"record: workload {name} printed no JSON result line")


def git_state(root):
    """The checkout's revision and whether any file but the record differs
    from it; (None, None) outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None, None
    status = git("status", "--porcelain", "--", ".", f":(exclude){RECORD_FILE}")
    return head.stdout.strip(), bool(status.stdout.strip())


def record(root, seed=0, seconds=None) -> dict:
    """One record of every workload of ``root``'s BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        result = last_json(run_workload(spec["command"], root, name, seed, seconds), name)
        workloads[name] = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    revision, dirty = git_state(root)
    return {
        "revision": revision,
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": spec["run_seconds"] if seconds is None else seconds,
        "workloads": workloads,
    }


def append(path, entry) -> None:
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = json.load(f)
    records.append(entry)
    with open(path, "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="the checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="seconds a workload (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--output", help=f"the record file (default: {RECORD_FILE} at the root of the checkout)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    entry = record(root, args.seed, args.seconds)
    append(args.output or os.path.join(root, RECORD_FILE), entry)
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
