"""End-to-end experiment harness: generate, sample, recover, validate, report.

Each (trial, sample-size) cell draws its own network instance and sample
matrix from seeds derived deterministically from (master seed, trial index,
sample-size index), recovers a structure with the empirical decider at the
full tuple budget, and validates the result against the exact joint. The
search runs before the joint is built, so a cell whose joint is above the
capacity guard still records its tuple size and graph equality. Such a
cell, or one whose recovery or validation raises, is recorded with outcome
``error`` (``model-violation`` if the search found one) and the grid goes
on. Reports go to ``trials.csv`` plus an aggregate ``summary.json``; both
are byte-identical across reruns with the same configuration. Wall-clock
timings are kept on the in-memory reports and written only on request, to
a separate file, so the primary artifacts stay reproducible.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .estimation import EmpiricalMarginalProvider, sample, tuple_frequencies
from .model import _integer, _integers, _read_field, _real, _require_object, factorized_joint, random_dag
from .oracle import is_markov_relative, marginal
from .recovery import ModelViolationError, attach_cpts, empirical_ci_decider, recover_structure
from .vcbounds import required_sample_size, risk_bound, vc_upper_bound

__all__ = [
    "ExperimentConfig",
    "TrialReport",
    "load_config",
    "run_experiment",
    "run_trial_cell",
    "save_trial_reports",
    "summarize",
]

OUTCOME_OK = "markov-ok"
OUTCOME_VIOLATION = "model-violation"
OUTCOME_FAIL = "markov-fail"
OUTCOME_ERROR = "error"

TRIALS_HEADER = ["trial", "l_index", "l", "seed", "outcome", "max_freq_dev", "max_tuple_size", "graph_equal"]


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


_REQUIRED = object()

# key -> (converter, default); _REQUIRED marks a key the file must give.
# "cards" and "d" are the two exclusive ways to give the cardinalities.
_CONFIG_FIELDS = {
    "n": (_integer, _REQUIRED),
    "cards": (_integers, None),
    "d": (_integer, None),
    "delta": (_integer, _REQUIRED),
    "alpha": (_real, 1.0),
    "floor": (_real, 0.01),
    "sample_sizes": (_integers, _REQUIRED),
    "epsilon": (_real, _REQUIRED),
    "delta_risk": (_real, _REQUIRED),
    "trials": (_integer, _REQUIRED),
    "seed": (_integer, _REQUIRED),
    "output_dir": (_string, _REQUIRED),
    "markov_tol": (_real, 1e-2),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; see from_dict for the file format."""

    n: int
    delta: int
    cards: tuple[int, ...]
    alpha: float
    floor: float
    sample_sizes: tuple[int, ...]
    epsilon: float
    delta_risk: float
    trials: int
    seed: int
    output_dir: str
    markov_tol: float = 1e-2

    def __post_init__(self):
        if self.n < 1 or self.delta < 0:
            raise ValueError(f"need n >= 1 and delta >= 0, got n={self.n}, delta={self.delta}")
        if len(self.cards) != self.n or any(c < 1 for c in self.cards):
            raise ValueError(f"cards must be {self.n} values >= 1, got {self.cards}")
        if not self.sample_sizes or any(l < 1 for l in self.sample_sizes):
            raise ValueError(f"sample_sizes must be nonempty positive, got {self.sample_sizes}")
        if not 0 < self.epsilon < 1 or not 0 < self.delta_risk < 1:
            raise ValueError("epsilon and delta_risk must be in (0,1)")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"config field 'seed' must be >= 0, got {self.seed}")
        if self.markov_tol <= 0:
            raise ValueError(f"markov_tol must be > 0, got {self.markov_tol}")

    @property
    def k(self) -> int:
        """Tuple budget actually usable: 2*delta+1 capped at n."""
        return min(2 * self.delta + 1, self.n)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from the JSON config mapping; unknown keys are rejected.

        Cardinalities come either as "cards" (a list) or "d" (one uniform
        value), exactly one of the two.
        """
        _require_object(data, "a config")
        unknown = sorted(set(data) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(k for k, (_, default) in _CONFIG_FIELDS.items() if default is _REQUIRED and k not in data)
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        if ("cards" in data) == ("d" in data):
            raise ValueError('exactly one of "cards" or "d" is required')
        values = {
            key: _read_field(data, key, convert, "config") if key in data else default
            for key, (convert, default) in _CONFIG_FIELDS.items()
        }
        d = values.pop("d")
        if d is not None:
            values["cards"] = (d,) * values["n"]
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


@dataclass
class TrialReport:
    """One (trial, sample size) cell of the experiment grid.

    wall_time_ms is measurement-dependent and therefore excluded from the
    reproducible CSV. max_freq_dev is nan on a cell whose exact joint was
    not built.
    """

    trial: int
    l_index: int
    l: int
    seed: int
    outcome: str
    max_freq_dev: float
    max_tuple_size: int
    graph_equal: bool
    wall_time_ms: float | None = None


def _max_frequency_deviation(freq, joint) -> float:
    """Largest |empirical - exact| over all stored-size tuple cylinders."""
    worst = 0.0
    n = len(freq.cards)
    for pos in itertools.combinations(range(1, n + 1), freq.k):
        emp = freq.dense_counts(pos).astype(np.float64) / freq.l
        exact = marginal(joint, pos)
        dev = float(np.abs(emp - exact).max())
        if dev > worst:
            worst = dev
    return worst


def run_trial_cell(config: ExperimentConfig, trial: int, l_index: int) -> TrialReport:
    """Run one grid cell: generate, sample, recover, validate."""
    l = config.sample_sizes[l_index]
    state = np.random.SeedSequence([config.seed, trial, l_index]).generate_state(2, dtype=np.uint64)
    dag_seed, sample_seed = int(state[0]), int(state[1])
    start = time.perf_counter()
    dag = random_dag(config.n, config.delta, config.cards, dag_seed, alpha=config.alpha, floor=config.floor)
    samples = sample(dag, l, sample_seed)
    freq = tuple_frequencies(samples, config.k)
    provider = EmpiricalMarginalProvider(freq)
    max_dev = math.nan  # stays nan when the exact joint cannot be built
    graph_equal = False
    outcome = OUTCOME_ERROR
    recovered = None
    # the search needs only the samples, so it runs before the exact joint,
    # which a cell above the capacity guard cannot build
    try:
        decider = empirical_ci_decider(provider, config.epsilon)
        try:
            skeleton, _ = recover_structure(decider, config.n, config.delta)
        except ModelViolationError:
            outcome = OUTCOME_VIOLATION
        else:
            recovered = attach_cpts(skeleton, provider).dag
            graph_equal = recovered.parents == dag.parents
        joint = factorized_joint(dag)
        max_dev = _max_frequency_deviation(freq, joint)
        if recovered is not None:
            ok = is_markov_relative(joint, recovered, tol=config.markov_tol)
            outcome = OUTCOME_OK if ok else OUTCOME_FAIL
    except Exception:
        # a cell failure must not abort the batch; the outcome stays error,
        # or model-violation when the search found one
        pass
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TrialReport(
        trial=trial,
        l_index=l_index,
        l=l,
        seed=dag_seed,
        outcome=outcome,
        max_freq_dev=max_dev,
        max_tuple_size=provider.access_log.max_size,
        graph_equal=graph_equal,
        wall_time_ms=elapsed_ms,
    )


def summarize(config: ExperimentConfig, reports: list[TrialReport]) -> dict:
    """Aggregate per sample size and set the observed rates beside the
    uniform-deviation bound at the same l."""
    h = vc_upper_bound(config.n, config.k, max(config.cards))
    sizes = required_sample_size(config.n, config.k, max(config.cards), config.epsilon, config.delta_risk)
    per_l = []
    for l_index, l in enumerate(config.sample_sizes):
        cell = [r for r in reports if r.l_index == l_index]
        counts = {
            OUTCOME_OK: 0,
            OUTCOME_VIOLATION: 0,
            OUTCOME_FAIL: 0,
            OUTCOME_ERROR: 0,
        }
        for r in cell:
            counts[r.outcome] += 1
        devs = [r.max_freq_dev for r in cell if not math.isnan(r.max_freq_dev)]
        per_l.append(
            {
                "l": l,
                "trials": len(cell),
                "outcomes": counts,
                "markov_ok_rate": counts[OUTCOME_OK] / len(cell),
                "graph_equal_rate": sum(r.graph_equal for r in cell) / len(cell),
                "max_freq_dev_max": max(devs) if devs else None,
                "max_freq_dev_mean": sum(devs) / len(devs) if devs else None,
                "freq_dev_exceed_rate": sum(d >= config.epsilon for d in devs) / len(devs) if devs else None,
                "risk_bound": risk_bound(h, l, config.epsilon).bound,
            }
        )
    return {
        "config": config.to_dict(),
        "k": config.k,
        "tuple_budget": 2 * config.delta + 1,
        "vc_upper_bound": h,
        "l_suff": sizes.l_suff,
        "l_risk": sizes.l_risk,
        "max_tuple_size_overall": max(r.max_tuple_size for r in reports),
        "per_l": per_l,
    }


def save_trial_reports(reports: list[TrialReport], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(TRIALS_HEADER)
        for r in reports:
            writer.writerow(
                [r.trial, r.l_index, r.l, r.seed, r.outcome, repr(r.max_freq_dev),
                 r.max_tuple_size, "true" if r.graph_equal else "false"]
            )


def run_experiment(config: ExperimentConfig, write_timings: bool = False) -> dict:
    """Run the full grid and write trials.csv plus summary.json.

    Rows appear in (trial, sample-size index) order. Returns the summary
    mapping. With write_timings, per-cell wall times go to timings.csv,
    which is deliberately outside the determinism guarantee.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    reports = [
        run_trial_cell(config, trial, l_index)
        for trial in range(config.trials)
        for l_index in range(len(config.sample_sizes))
    ]
    summary = summarize(config, reports)
    save_trial_reports(reports, os.path.join(config.output_dir, "trials.csv"))
    with open(os.path.join(config.output_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    if write_timings:
        with open(os.path.join(config.output_dir, "timings.csv"), "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["trial", "l_index", "wall_time_ms"])
            for r in reports:
                writer.writerow([r.trial, r.l_index, repr(r.wall_time_ms)])
    return summary
