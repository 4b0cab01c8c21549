"""Pipeline benchmark for tuplebn: three closed-loop batch workloads.

Run one workload, from the root of a checkout:

    python3 pipebench/run.py --workload empirical_grid --seed 0 --seconds 30 --trace 0

or every workload, untraced and then traced, each in a fresh process:

    python3 pipebench/run.py

One process, on one Python thread, runs operations back to back until
``--seconds`` have passed. The package is imported from the checkout's
``src``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics: each input then also runs
with the spans of tracing.py installed, and one last pass measures the
tracemalloc peaks. The exit code is nonzero when any
output check fails. README.md beside this file describes the workloads.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = ".pipebench_work"  # relative to ROOT, so artifacts name the same paths in every checkout
DEFAULT_SEED = 0  # the seed the reference digests were recorded at
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = str(NPROC)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_tuplebn():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tuplebn
    except ImportError as exc:
        raise SystemExit(f"pipebench: cannot import tuplebn from {src}: {exc}")
    if not os.path.abspath(tuplebn.__file__).startswith(src + os.sep):
        raise SystemExit(f"pipebench: tuplebn was imported from {tuplebn.__file__}, not from {src}")
    return tuplebn


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))


def time_setup(args):
    """Wall time of a fresh process that imports tuplebn, makes the inputs and exits."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(command, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


class Run:
    """Operations of one run, their times and what their checks found."""

    def __init__(self, workload, seed, digests):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.markov_ok = 0
        self.recovered = 0
        self.nonzero_exits = 0
        self.problems = []

    def operate(self, inputs, span=None):
        """Run one operation; returns its wall time, its result and the error it raised."""
        gc.collect()
        start = time.perf_counter()
        try:
            with span("bench.op") if span else contextlib.nullcontext():
                result = self.workload.run(inputs)
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        return time.perf_counter() - start, result, error

    def record(self, index, inputs, result, error):
        """Check one operation's outputs and count what the checks found."""
        units = self.workload.units_per_op
        self.attempted += units
        if error is not None:
            self.failed += units
            self.problems.append(f"operation {index}: {error}")
            return
        try:
            outcome = self.workload.check(inputs, result)
        except Exception:
            self.failed += units
            self.problems.append(f"operation {index}: check raised {traceback.format_exc(limit=3)}")
            return
        if self.seed == DEFAULT_SEED and index == 0:
            want = self.digests.get(self.workload.name, {})
            for name, path in sorted(outcome.artifacts.items()):
                got = sha256(path)
                if got != want.get(name):
                    outcome.problems.append(f"{name} sha256 {got} differs from the reference {want.get(name)}")
                    outcome.failed = units
        self.failed += outcome.failed
        self.markov_ok += outcome.markov_ok
        self.recovered += outcome.recovered
        self.nonzero_exits += outcome.nonzero_exits
        self.problems += [f"operation {index}: {p}" for p in outcome.problems]


def layer_metrics(tracer, tracing, run, ops, times, traced_times):
    """Per-layer metrics, per traced operation unless they are ratios or maxima."""
    renamed_self = {"recovery.recover_structure": "recovery.search", "experiment.run_trial_cell": "experiment.cell"}
    c = tracer.counts
    m = {}
    for span in tracing.SPANS:
        m[f"{span}.s"] = tracer.total_s[span] / ops
        m[f"{renamed_self.get(span, span)}.self_s"] = tracer.self_s[span] / ops
    for span in ("oracle.table", "oracle.marginal", "estimation.table", "estimation.dense_counts", "recovery.decide"):
        m[f"{span}.calls"] = tracer.calls[span] / ops
    for provider in ("oracle.table", "estimation.table"):
        calls = tracer.calls[provider]
        m[f"{provider}.computed"] = c[f"{provider}.computed"] / ops
        m[f"{provider}.hit_ratio"] = 1.0 - c[f"{provider}.computed"] / calls if calls else 0.0
    for name in ("model.factorized_joint.entries", "oracle.table.bytes_read",
                 "estimation.sample.cells", "estimation.sample.bytes_out",
                 "estimation.tuple_frequencies.position_sets", "estimation.tuple_frequencies.rows_scanned",
                 "estimation.tuple_frequencies.keys", "estimation.dense_counts.keys_scanned",
                 "estimation.samples_csv_bytes", "estimation.frequencies_json_bytes",
                 "recovery.decide.unique", "recovery.candidates_tested", "recovery.removal_steps",
                 "vcbounds.verify_shattered.subsets", "experiment.error_cells"):
        m[name] = c[name] / ops
    for span in ("estimation.sample", "estimation.tuple_frequencies"):
        m[f"{span}.peak_alloc_mb"] = tracer.peak_mb[span]
    tested = c["recovery.candidates_tested"]
    m["recovery.accept_ratio"] = c["recovery.candidates_accepted"] / tested if tested else 0.0
    m["recovery.max_tuple_size"] = tracer.max_tuple_size
    m["recovery.markov_ok_rate"] = run.markov_ok / run.recovered if run.recovered else 0.0
    m["experiment.cells"] = tracer.calls["experiment.run_trial_cell"] / ops
    m["cli.exit_nonzero"] = run.nonzero_exits / run.attempted
    m["trace.wall_s"] = statistics.median(traced_times)
    m["trace.untraced_wall_s"] = statistics.median(times)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


def run_workload(args, spec):
    tuplebn = import_tuplebn()
    import numpy
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    workload.inputs(0)
    if args.setup_only:
        return 0
    with open(os.path.join(HERE, "digests.json")) as f:
        run = Run(workload, args.seed, json.load(f))
    tracer = tracing.Tracer()
    times, traced_times, setup_times = [], [], []
    start = time.perf_counter()
    index = 0
    try:
        while index == 0 or time.perf_counter() - start < args.seconds:
            # Set-up probes are spread over the run, so that their median sees the
            # same machine as the operations rather than one moment of it.
            if not args.trace and index < SETUP_REPEATS:
                setup_times.append(time_setup(args))
            inputs = workload.inputs(index)
            elapsed, result, error = run.operate(inputs)
            times.append(elapsed)
            run.record(index, inputs, result, error)
            if args.trace:
                with tracing.instrumented(tracer):
                    elapsed, result, error = run.operate(inputs, tracer.span)
                traced_times.append(elapsed)
                run.record(index, inputs, result, error)
            index += 1
        if args.trace:  # one more pass for the tracemalloc peaks alone
            alloc_tracer = tracing.Tracer()
            with tracing.instrumented(alloc_tracer, track_alloc=True):
                _, result, error = run.operate(workload.inputs(0), alloc_tracer.span)
            run.record(0, workload.inputs(0), result, error)
            tracer.peak_mb = alloc_tracer.peak_mb
    finally:
        shutil.rmtree(os.path.join(WORKDIR, workload.name), ignore_errors=True)
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(args))

    revision, dirty = git_state()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations": index, "git_revision": revision, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__, "backend": tuplebn.BACKEND,
        "nproc": NPROC, "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("meta " + json.dumps(meta))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"operation wall times over {len(times)} operations: {' '.join(f'{t:.4f}' for t in times)} s")
    print(f"error_rate {run.failed / run.attempted:.4f} ratio ({run.failed} of {run.attempted} failed)")
    markov = f"{run.markov_ok / run.recovered:.4f}" if run.recovered else "n/a"
    print(f"markov_ok_rate {markov} ratio ({run.markov_ok} of {run.recovered} recovered networks)")

    if args.trace:
        metrics = layer_metrics(tracer, tracing, run, index, times, traced_times)
        declared = spec["per_layer"]
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": statistics.median(times), "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": rss_kib / 1024}
        declared = spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"pipebench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args, names):
    """Every workload, untraced then traced, each in a fresh process."""
    codes = {}
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            codes[(name, trace)] = subprocess.run(command, timeout=CHILD_TIMEOUT_S + args.seconds * 3).returncode
    failed = [key for key, code in codes.items() if code != 0]
    for name, trace in failed:
        print(f"pipebench: {name} trace={trace} failed", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
