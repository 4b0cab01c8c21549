"""The benchmark's three workloads.

Each workload makes its inputs from the run seed (``inputs``), runs one
timed operation on them through the public tuplebn API (``run``), and
checks what the operation produced (``check``). ``run`` looks functions up
on the modules at call time, so the spans of ``tracing.instrumented`` apply
when they are installed. README.md beside this file says why each workload
was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

import tuplebn as tb
from tuplebn import cli, experiment

MARKOV_TOL = 1e-8  # exact recoveries must be Markov-relative at this tolerance
EMPIRICAL_MARKOV_TOL = 1e-2  # the experiment's default, for recoveries from samples


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation of a run with this seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What the checks found for one operation."""

    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    markov_ok: int = 0
    recovered: int = 0
    nonzero_exits: int = 0
    artifacts: dict[str, str] = field(default_factory=dict)


def _suff(l, n, k, d, eps):
    """l/(1+ln(2l)) * (eps-1/l)^2/2 >= k*log2(nd), restricted to eps*l > 1."""
    if eps * l <= 1.0:
        return False
    return l / (1.0 + math.log(2.0 * l)) * (eps - 1.0 / l) ** 2 / 2.0 >= k * math.log2(n * d)


def _risk(l, n, k, d, eps, delta_risk):
    """4*exp{(h(1+ln(2l/h))/l - (eps-1/l)^2) l} < delta_risk with h = k*log2(nd)."""
    if eps * l <= 1.0:
        return False
    h = k * math.log2(n * d)
    log_value = math.log(4.0) + (h * (1.0 + math.log(2.0 * l / h)) / l - (eps - 1.0 / l) ** 2) * l
    return log_value < 700.0 and math.exp(log_value) < delta_risk


def sample_size_problems(report, n, k, d, eps, delta_risk) -> list[str]:
    """The solved sizes must certify themselves: l passes, l-1 fails."""
    problems = []
    l_suff, l_risk = report["l_suff"], report["l_risk"]
    if not (_suff(l_suff, n, k, d, eps) and not _suff(l_suff - 1, n, k, d, eps)):
        problems.append(f"l_suff={l_suff} is not the smallest size meeting its inequality")
    if not (_risk(l_risk, n, k, d, eps, delta_risk) and not _risk(l_risk - 1, n, k, d, eps, delta_risk)):
        problems.append(f"l_risk={l_risk} is not the smallest size meeting its inequality")
    return problems


class EmpiricalGrid:
    """``run_experiment``, one trial over two sample sizes per operation."""

    name = "empirical_grid"
    units_per_op = 2  # grid cells
    N, DELTA, D = 12, 2, 2
    SAMPLE_SIZES = (20000, 100000)
    EPSILON, DELTA_RISK = 0.002, 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out_dir = os.path.join(workdir, self.name)

    def inputs(self, index):
        return experiment.ExperimentConfig.from_dict({
            "n": self.N, "delta": self.DELTA, "d": self.D,
            "sample_sizes": list(self.SAMPLE_SIZES), "epsilon": self.EPSILON,
            "delta_risk": self.DELTA_RISK, "markov_tol": EMPIRICAL_MARKOV_TOL, "trials": 1,
            "seed": op_seed(self.seed, index), "output_dir": self.out_dir,
        })

    def run(self, config):
        return experiment.run_experiment(config)

    def check(self, config, summary) -> Outcome:
        out = Outcome(units=self.units_per_op)
        budget = 2 * self.DELTA + 1
        trials_path = os.path.join(self.out_dir, "trials.csv")
        summary_path = os.path.join(self.out_dir, "summary.json")
        out.artifacts = {"trials.csv": trials_path, "summary.json": summary_path}
        with open(trials_path, newline="") as f:
            rows = list(csv.DictReader(f))
        if [int(r["l"]) for r in rows] != list(self.SAMPLE_SIZES):
            out.problems.append(f"trials.csv has rows for l={[r['l'] for r in rows]}")
            out.failed = out.units
            return out
        for r in rows:
            bad = []
            if r["outcome"] == experiment.OUTCOME_ERROR:
                bad.append("error cell")
            if not 1 <= int(r["max_tuple_size"]) <= budget:
                bad.append(f"max tuple size {r['max_tuple_size']} outside 1..{budget}")
            if bad:
                out.failed += 1
                out.problems.append(f"cell l={r['l']}: " + ", ".join(bad))
            out.markov_ok += r["outcome"] == experiment.OUTCOME_OK
            out.recovered += r["outcome"] in (experiment.OUTCOME_OK, experiment.OUTCOME_FAIL)
        with open(summary_path) as f:
            written = json.load(f)
        op_problems = []
        if written != json.loads(json.dumps(summary)):
            op_problems.append("summary.json differs from the returned summary")
        if written["max_tuple_size_overall"] > budget:
            op_problems.append(f"max_tuple_size_overall {written['max_tuple_size_overall']} > {budget}")
        op_problems += sample_size_problems(written, self.N, config.k, self.D, self.EPSILON, self.DELTA_RISK)
        if op_problems:
            out.problems += op_problems
            out.failed = out.units
        return out


@dataclass
class ExactResult:
    rebuilt: tb.DiscreteDag
    trace: tb.RecoveryTrace
    markov_ok: bool
    max_tuple_size: int


class ExactRecovery:
    """Oracle recovery of one n=18 network per operation.

    The search path, and so the cost, of an exact recovery follows the parent
    structure, which varies the cost of one network by up to 1.7x. So the
    structures are fixed (operation i uses the parents of ``random_dag`` at
    seed i) and the seed draws the CPTs: every run measures the same mix of
    search paths. Every node has exactly min(j-1, delta) parents, so the
    CPT shapes do not depend on the structure.
    """

    name = "exact_recovery"
    units_per_op = 1
    N, DELTA, D = 18, 2, 2
    POOL = 32  # networks made in set-up; operations cycle through them

    def __init__(self, seed: int, workdir: str):
        self.out_dir = os.path.join(workdir, self.name)
        cards = (self.D,) * self.N
        self.dags = [
            tb.DiscreteDag(self.N, cards, self.DELTA, tb.random_dag(self.N, self.DELTA, cards, i).parents,
                           tb.random_dag(self.N, self.DELTA, cards, op_seed(seed, i)).cpts)
            for i in range(self.POOL)
        ]

    def inputs(self, index):
        return self.dags[index % self.POOL]

    def run(self, dag) -> ExactResult:
        joint = tb.factorized_joint(dag)
        decider = tb.exact_ci_decider(joint, dag.delta)
        skeleton, trace = tb.recover_structure(decider, dag.n, dag.delta)
        rebuilt = tb.attach_cpts(skeleton, decider.provider).dag
        ok = tb.is_markov_relative(joint, rebuilt, tol=MARKOV_TOL)
        return ExactResult(rebuilt, trace, ok, decider.provider.access_log.max_size)

    def check(self, dag, result: ExactResult) -> Outcome:
        out = Outcome(units=1, recovered=1, markov_ok=int(result.markov_ok))
        if not result.markov_ok:
            out.problems.append(f"recovery is not Markov-relative at tol {MARKOV_TOL}")
        if result.max_tuple_size > 2 * self.DELTA + 1:
            out.problems.append(f"max tuple size {result.max_tuple_size} > {2 * self.DELTA + 1}")
        if max(len(p) for p in result.rebuilt.parents) > self.DELTA:
            out.problems.append("recovered in-degree above delta")
        if [nt.node for nt in result.trace.nodes] != list(range(1, self.N + 1)):
            out.problems.append("trace does not cover every node once")
        os.makedirs(self.out_dir, exist_ok=True)
        dag_path = os.path.join(self.out_dir, "recovered.json")
        trace_path = os.path.join(self.out_dir, "trace.json")
        tb.save_dag(result.rebuilt, dag_path)
        with open(trace_path, "w") as f:
            json.dump(result.trace.to_dict(), f, indent=2)
            f.write("\n")
        out.artifacts = {"recovered.json": dag_path, "trace.json": trace_path}
        out.failed = int(bool(out.problems))
        return out


class CliPipeline:
    """One in-process pass of the command line over a fresh network."""

    name = "cli_pipeline"
    units_per_op = 1
    N, DELTA, D, L, K = 8, 1, 3, 500000, 3
    EPSILON = 0.002
    BOUNDS_EPSILON, DELTA_RISK = 0.02, 0.05
    WITNESS_N = 2048
    RECOUNTED_SETS = 3
    FILES = ("net.json", "samples.csv", "freq.json", "recovered.json", "trace.json", "bounds.json", "witness.json")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out_dir = os.path.join(workdir, self.name)
        self.paths = {name: os.path.join(self.out_dir, name) for name in self.FILES}

    def inputs(self, index):
        s = op_seed(self.seed, index)
        p = self.paths
        return s, [
            ["generate", "--n", str(self.N), "--delta", str(self.DELTA), "--d", str(self.D),
             "--seed", str(s), "--output", p["net.json"]],
            ["sample", "--dag", p["net.json"], "--l", str(self.L), "--seed", str(s + 1),
             "--output", p["samples.csv"]],
            ["estimate", "--samples", p["samples.csv"], "--k", str(self.K), "--output", p["freq.json"]],
            ["recover", "--mode", "empirical", "--samples", p["samples.csv"], "--delta", str(self.DELTA),
             "--epsilon", str(self.EPSILON), "--trace", p["trace.json"], "--output", p["recovered.json"]],
            ["bounds", "--n", str(self.N), "--k", str(self.K), "--d", str(self.D),
             "--epsilon", str(self.BOUNDS_EPSILON), "--delta-risk", str(self.DELTA_RISK),
             "--format", "json", "--output", p["bounds.json"]],
            ["witness", "--n", str(self.WITNESS_N), "--k", str(self.K), "--output", p["witness.json"]],
        ]

    def run(self, inputs):
        _, steps = inputs
        os.makedirs(self.out_dir, exist_ok=True)
        results = []
        for argv in steps:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            results.append((argv[0], code, stdout.getvalue() + stderr.getvalue()))
        return results

    def check(self, inputs, results) -> Outcome:
        out = Outcome(units=1, artifacts=dict(self.paths))
        for command, code, text in results:
            if code != 0:
                out.nonzero_exits += 1
                out.problems.append(f"{command} exited {code}: {text.strip()[-200:]}")
        if out.problems:
            out.failed = 1
            return out
        recover_text = results[3][2]
        match = re.search(r"max tuple size accessed: (\d+)", recover_text)
        budget = 2 * self.DELTA + 1
        if match is None or int(match.group(1)) > budget:
            out.problems.append(f"recover did not report a tuple size within {budget}")
        rows = self._read_samples(out.problems)
        with open(self.paths["freq.json"]) as f:
            freq = json.load(f)
        if rows is not None:
            out.problems += self._count_problems(freq, rows, np.random.default_rng(inputs[0]))
        with open(self.paths["recovered.json"]) as f:
            recovered = json.load(f)
        with open(self.paths["trace.json"]) as f:
            trace = json.load(f)
        if [nt["parents"] for nt in trace["nodes"]] != recovered["parents"]:
            out.problems.append("trace parents differ from the recovered network")
        if max(len(p) for p in recovered["parents"]) > self.DELTA:
            out.problems.append("recovered in-degree above delta")
        source = tb.load_dag(self.paths["net.json"])
        out.recovered = 1
        out.markov_ok = int(tb.is_markov_relative(
            tb.factorized_joint(source), tb.dag_from_dict(recovered), tol=EMPIRICAL_MARKOV_TOL))
        with open(self.paths["bounds.json"]) as f:
            bounds = json.load(f)
        out.problems += sample_size_problems(bounds, self.N, self.K, self.D, self.BOUNDS_EPSILON, self.DELTA_RISK)
        out.problems += self._witness_problems()
        out.failed = int(bool(out.problems))
        return out

    def _read_samples(self, problems):
        """Parse the samples CSV strictly: one digit per value, fixed row width."""
        with open(self.paths["samples.csv"], "rb") as f:
            header, _, body = f.read().partition(b"\n")
        if header != ",".join(f"x{i}" for i in range(1, self.N + 1)).encode():
            problems.append(f"samples header is {header[:80]!r}")
            return None
        width = 2 * self.N
        grid = np.frombuffer(body, dtype=np.uint8)
        if grid.size != self.L * width:
            problems.append(f"samples body has {grid.size} bytes, want {self.L * width}")
            return None
        grid = grid.reshape(self.L, width)
        separators = np.frombuffer(b"," * (self.N - 1) + b"\n", dtype=np.uint8)
        values = grid[:, 0::2].astype(np.int64) - ord("0")
        if not np.array_equal(grid[:, 1::2], np.broadcast_to(separators, (self.L, self.N))):
            problems.append("samples rows are not single-digit comma-separated values")
            return None
        if values.min() < 0 or values.max() >= self.D:
            problems.append("sample values out of range")
            return None
        return values

    def _count_problems(self, freq, rows, rng) -> list[str]:
        if (freq["k"], freq["l"]) != (self.K, self.L):
            return [f"frequency file has k={freq['k']} l={freq['l']}"]
        by_set: dict[tuple, dict[tuple, int]] = {}
        for entry in freq["counts"]:
            by_set.setdefault(tuple(entry["positions"]), {})[tuple(entry["values"])] = entry["count"]
        problems = []
        all_sets = list(combinations(range(1, self.N + 1), self.K))
        if sorted(by_set) != all_sets:
            problems.append(f"frequency file covers {len(by_set)} position sets, want {len(all_sets)}")
        bad_sums = [pos for pos, counts in by_set.items() if sum(counts.values()) != self.L]
        if bad_sums:
            problems.append(f"counts of {len(bad_sums)} position sets do not sum to l, first {bad_sums[0]}")
        for i in rng.choice(len(all_sets), size=self.RECOUNTED_SETS, replace=False):
            pos = all_sets[i]
            codes, counts = np.unique(rows[:, [p - 1 for p in pos]] @ (self.D ** np.arange(self.K)[::-1]),
                                      return_counts=True)
            recount = {tuple(int(v) for v in np.unravel_index(code, (self.D,) * self.K)): int(c)
                       for code, c in zip(codes, counts)}
            if by_set.get(pos) != recount:
                problems.append(f"counts for positions {pos} differ from a recount")
        return problems

    def _witness_problems(self) -> list[str]:
        with open(self.paths["witness.json"]) as f:
            data = json.load(f)
        witness, verification = data["witness"], data["verification"]
        lp = witness["l_points"]
        if not verification["ok"] or lp != (self.WITNESS_N - self.K + 1).bit_length() - 1:
            return [f"witness not verified (ok={verification['ok']}, l_points={lp})"]
        certs = verification["certificates"]
        if [c["subset_index"] for c in certs] != list(range(2**lp)):
            return [f"witness has {len(certs)} certificates, want {2**lp}"]
        points, matrix = witness["points"], witness["matrix"]
        for c in certs:
            column = [matrix[r][c["column"] - 1] for r in range(lp)]
            members = [r for r in range(lp)
                       if all(points[r][p - 1] == v for p, v in zip(c["positions"], c["values"]))]
            if (len(c["positions"]) != self.K or column != c["indicator"]
                    or members != [r for r in range(lp) if c["indicator"][r]]):
                return [f"certificate {c['subset_index']} does not pick out its subset"]
        return []


WORKLOADS = {w.name: w for w in (EmpiricalGrid, ExactRecovery, CliPipeline)}
