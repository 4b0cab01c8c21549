"""End-to-end experiment harness: generate, sample, recover, validate, report.

Each (trial, sample-size) cell draws its own network instance and sample
matrix from seeds derived deterministically from (master seed, trial index,
sample-size index), recovers a structure with the empirical decider at the
full tuple budget, and validates the result against the exact joint. The
search runs before the joint is built, so a cell whose joint is above the
capacity guard still records its tuple size and graph equality. Such a
cell, or one whose recovery or validation raises, is recorded with outcome
``error`` (``model-violation`` if the search found one), its exception is
logged on the ``tuplebn.experiment`` logger, and the grid goes on. Reports
go to ``trials.csv`` plus an aggregate ``summary.json``; both are
byte-identical across reruns with the same configuration. Wall-clock
timings are kept on the in-memory reports and written only on request, to
a separate file, so the primary artifacts stay reproducible.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial

import numpy as np

from .estimation import EmpiricalMarginalProvider, sample, tuple_frequencies
from .model import (
    _at_least,
    _index,
    _indices,
    _read_json,
    _real,
    _real_in,
    _require_object,
    _write_json,
    factorized_joint,
    random_dag,
)
from .oracle import _fold_index, _scatter_fold, is_markov_relative
from .recovery import (
    _EPSILON_LIMIT,
    ModelViolationError,
    _tuple_budget,
    _usable_tuple_size,
    attach_cpts,
    empirical_ci_decider,
    recover_structure,
)
from .vcbounds import SampleSizes, required_sample_size, risk_bound, vc_upper_bound

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

_log = logging.getLogger(__name__)
_log.addHandler(logging.NullHandler())

TRIALS_HEADER = ["trial", "l_index", "l", "seed", "outcome", "max_freq_dev", "max_tuple_size", "graph_equal"]


# the tolerance of a cell's Markov check when the config leaves it out
_MARKOV_TOL = 1e-2

# the defaults of the fields a config file may leave out
_OPTIONAL = {"cards": None, "alpha": 1.0, "floor": 0.01, "markov_tol": _MARKOV_TOL}

# Prefix entries per call when the deviation sweep folds a chunk of kept
# sets with oracle._scatter_fold, each set repeating the prefix once; a
# larger prefix is folded one set a call. The values do not depend on this
# value; it bounds a call's temporaries whatever the number of sets. The
# repeated prefix takes 8 bytes an entry, the cell index that
# _chunk_index joins at most 2 (a chunk of many sets has fewer cells than
# entries, under 2**16), and the folded cells, at most half as many as
# entries for all but one set of an m, about 4 more: under 512 KiB a call,
# which stays in the L2 cache. The halves the index is joined from take a
# few bytes for each of about the square root of a set's entries.
_FOLD_ENTRIES = 1 << 15


def _ruled(read, ok, rule):
    """A reader of a field that no range reader covers: ``read``, and then a
    ValueError naming the field unless ``ok`` holds of the value."""

    def checked(value, name):
        value = read(value, name)
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")
        return value

    return checked


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked experiment parameters; see from_dict for the file format.

    The constructor is the one place a field is checked, in the order of
    the fields: a range of integers by ``model._at_least``, one of reals by
    ``model._real_in``, and the other rules by ``_ruled``, so that a NaN
    fails each. A bad field raises ValueError naming it.
    """

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
    markov_tol: float = _MARKOV_TOL

    def __post_init__(self):
        for field, read in (
            ("n", partial(_at_least, low=1)),
            ("delta", partial(_at_least, low=0)),
            ("cards", _ruled(_indices, lambda v: len(v) == self.n and min(v) >= 1, "n values >= 1")),
            ("alpha", _real_in),
            ("floor", _ruled(_real, lambda v: v >= 0 and v * max(self.cards) < 1, ">= 0 and below 1/max(cards)")),
            ("sample_sizes", _ruled(_indices, lambda v: len(v) >= 1 and min(v) >= 1, "nonempty and >= 1")),
            ("epsilon", _ruled(_real, lambda v: 0 < v < _EPSILON_LIMIT, f"in (0, {_EPSILON_LIMIT})")),
            ("delta_risk", partial(_real_in, high=1)),
            ("trials", partial(_at_least, low=1)),
            ("seed", partial(_at_least, low=0)),
            ("output_dir", _ruled(lambda v, name: v, lambda v: isinstance(v, str), "a string")),
            ("markov_tol", _real_in),
        ):
            object.__setattr__(self, field, read(getattr(self, field), f"config field {field!r}"))

    @property
    def k(self) -> int:
        """Tuple budget actually usable: 2*delta+1 capped at n."""
        return _usable_tuple_size(self.delta, self.n)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from the JSON config mapping. An unknown or a missing key,
        or both or neither of "cards" (a list) and "d" (one value for every
        variable), is refused here; the constructor checks every value.
        """
        _require_object(data, "a config")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names) - {"d"})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(set(names) - set(_OPTIONAL) - set(data))
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        if ("cards" in data) == ("d" in data):
            raise ValueError('exactly one of "cards" or "d" is required')
        values = {name: data.get(name, _OPTIONAL.get(name)) for name in names}
        if "d" in data:
            # repeating "d" needs n as an integer before the constructor reads n
            values["cards"] = (_index(data["d"], "config field 'd'"),) * _index(data["n"], "config field 'n'")
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_json(path))


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
    """Largest |empirical - exact| over all stored-size tuple cylinders.

    The sets are read a chunk at a time, by one fold of the prefix and one
    count of the sample for many sets (``_cylinder_tables``). Every table
    has the bits of reading its set alone, so the max does too.
    """
    worst = 0.0
    for counts, exact in _cylinder_tables(freq, joint):
        worst = max(worst, float(np.abs(counts / freq.l - exact).max()))
    return worst


def _cylinder_tables(freq, joint):
    """The float64 counts and the exact marginal of every size-k position
    set, as (counts, exact) pairs of a chunk of sets whose cells follow one
    another.

    A set's prefix is ``joint.prefix(m)``, m its last position of
    cardinality above 1, as in ``oracle.marginal``. The sets of one m are
    read ``_FOLD_ENTRIES`` prefix entries at a time, or one at a time when
    their prefix is larger. The chunk's cell index is joined from the
    halves that ``_sweep_plan`` keeps for the grid's (cards, k)
    (``_chunk_index``); it then folds the chunk's prefix and its counts,
    the nonzero entries of the sample's counts over 1..m. The fold adds
    each cell's entries in prefix order from 0.0, as ``marginal`` does, and
    the counts are exact integers, so every value has the bits of
    ``marginal`` and ``FrequencyTable._count`` for the set alone.
    """
    for m, halves in _sweep_plan(tuple(freq.cards), freq.k):
        prefix = joint.prefix(m)
        counts = freq._count(range(1, m + 1))
        nonzero = np.flatnonzero(counts)
        counts = counts[nonzero]
        per_call = max(1, _FOLD_ENTRIES // prefix.size)
        (_, _, rows), _ = halves  # each set's row of the high half
        for start in range(0, rows.size, per_call):
            index, cells = _chunk_index(halves, slice(start, start + per_call))
            yield _scatter_fold(counts, index[:, nonzero], cells), _scatter_fold(prefix, index, cells)


@lru_cache(maxsize=1)
def _sweep_plan(cards, k):
    """The deviation sweep's sets over ``cards``, a tuple, at tuple size
    ``k``: per m that has sets, in the sweep's order, m and the
    ``_set_halves`` of the sets' kept axes, in combinations order.

    The plan depends on (cards, k) alone, which every cell of a grid
    shares, so a grid builds it once and the cache holds that one plan.
    Its ids take a byte or two a set, and its half indexes, one row for
    each distinct half, about the square root of a prefix's entries each.
    """
    n, plan = len(cards), []
    for m in [0] + [p for p in range(1, n + 1) if cards[p - 1] > 1]:
        # the sets of this m: m, if not 0, and the rest from the positions
        # before it and the positions of cardinality 1 after it
        last = (m,) if m else ()
        pool = [p for p in range(1, n + 1) if p < m or p > m and cards[p - 1] == 1]
        if len(pool) >= k - len(last):
            kept = ([p - 1 for p in rest + last if p <= m] for rest in itertools.combinations(pool, k - len(last)))
            plan.append((m, _set_halves(cards[:m], kept)))
    return tuple(plan)


def _set_halves(cards, kept_sets):
    """The cell indexes of ``kept_sets``, one or more lists of increasing
    axes of a prefix over ``cards``, split where ``oracle._fold_index``
    splits them, at h = len(cards) // 2. Per half: the distinct
    ``_fold_index`` vectors of the sets' kept axes in it, as the rows of
    one array, their numbers of cells, and each set's row, in the smallest
    unsigned type that holds it.
    """
    h = len(cards) // 2
    rows, ids = ({}, {}), ([], [])
    for kept in kept_sets:
        # a half's kept axes as the bits of an int, a key that allocates
        # less than a tuple
        mask = sum(1 << a for a in kept)
        for part, row, row_ids in zip((mask & (1 << h) - 1, mask >> h), rows, ids):
            row_ids.append(row.setdefault(part, len(row)))
    halves = []
    for part_cards, row, row_ids in zip((cards[:h], cards[h:]), rows, ids):
        vectors = [_fold_index(part_cards, [a for a in range(len(part_cards)) if part >> a & 1]) for part in row]
        halves.append((
            np.stack([index for index, _ in vectors]),
            np.array([cells for _, cells in vectors]),
            np.array(row_ids, dtype=np.min_scalar_type(len(row) - 1)),
        ))
    return tuple(halves)


def _chunk_index(halves, chunk):
    """The cell index of the sets ``chunk``, a slice, of ``_set_halves``
    ``halves``, as a (sets, entries) array, and its number of cells: each
    row is ``oracle._fold_index`` of its set plus the cells of the sets
    before it, in the smallest unsigned type that holds every cell.

    An entry's cell is its high half's times the low half's number of
    cells, plus the set's offset, plus its low half's: one outer sum. Each
    operand is cast to the index's type first; a cast inside the sum's
    ufunc is slower.
    """
    (high, high_cells, high_rows), (low, low_cells, low_rows) = halves
    high_rows, low_rows = high_rows[chunk], low_rows[chunk]
    sizes = high_cells[high_rows] * low_cells[low_rows]
    cells = int(sizes.sum())
    dtype = np.min_scalar_type(cells)  # a byte per entry for up to 255 cells
    first = high[high_rows].astype(dtype)
    first *= low_cells[low_rows, None].astype(dtype)
    first += (np.cumsum(sizes) - sizes)[:, None].astype(dtype)
    index = np.empty((sizes.size, high.shape[1], low.shape[1]), dtype)
    np.add(first[:, :, None], low[low_rows].astype(dtype)[:, None, :], out=index)
    return index.reshape(sizes.size, -1), cells


def run_trial_cell(config: ExperimentConfig, trial: int, l_index: int) -> TrialReport:
    """Run one grid cell: generate, sample, recover, validate. ``trial``
    must be below ``config.trials`` and ``l_index`` below the number of
    sample sizes; anything else raises ValueError naming the argument."""
    trial, l_index = _at_least(trial, "trial", 0), _at_least(l_index, "l_index", 0)
    if trial >= config.trials:
        raise ValueError(f"trial must be below config.trials = {config.trials}, got {trial}")
    if l_index >= len(config.sample_sizes):
        raise ValueError(f"l_index must be below len(config.sample_sizes) = {len(config.sample_sizes)}, got {l_index}")
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
    except Exception as exc:
        # a cell failure must not abort the batch; the outcome stays error,
        # or model-violation when the search found one
        _log.warning("cell (trial %d, l=%d) failed: %s: %s", trial, l, type(exc).__name__, exc, exc_info=True)
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


def summarize(config: ExperimentConfig, reports: list[TrialReport], sizes: SampleSizes) -> dict:
    """Aggregate per sample size and set the observed rates beside the
    uniform-deviation bound at the same l. ``sizes`` is what
    ``required_sample_size`` solves for the config. Every sample size needs
    at least one report; the first that has none raises ValueError."""
    h = vc_upper_bound(config.n, config.k, max(config.cards))
    per_l = []
    for l_index, l in enumerate(config.sample_sizes):
        cell = [r for r in reports if r.l_index == l_index]
        if not cell:
            raise ValueError(f"no trial report for sample size l = {l} (l_index {l_index})")
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
        "tuple_budget": _tuple_budget(config.delta),
        "vc_upper_bound": h,
        "l_suff": sizes.l_suff,
        "l_risk": sizes.l_risk,
        "max_tuple_size_overall": max(r.max_tuple_size for r in reports),
        "per_l": per_l,
    }


def _write_csv(path, header, rows) -> None:
    """``header`` and then each of ``rows`` as one comma-separated line
    ending in a bare newline."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_trial_reports(reports: list[TrialReport], path) -> None:
    _write_csv(path, TRIALS_HEADER, (
        [r.trial, r.l_index, r.l, r.seed, r.outcome, repr(r.max_freq_dev),
         r.max_tuple_size, "true" if r.graph_equal else "false"]
        for r in reports
    ))


def run_experiment(config: ExperimentConfig, write_timings: bool = False) -> dict:
    """Run the full grid and write trials.csv plus summary.json.

    Rows appear in (trial, sample-size index) order. Returns the summary
    mapping. With write_timings, per-cell wall times go to timings.csv,
    which is deliberately outside the determinism guarantee. The sample
    size bounds are solved first, so an unsolvable one fails before any cell.
    """
    sizes = required_sample_size(config.n, config.k, max(config.cards), config.epsilon, config.delta_risk)
    os.makedirs(config.output_dir, exist_ok=True)
    reports = [
        run_trial_cell(config, trial, l_index)
        for trial in range(config.trials)
        for l_index in range(len(config.sample_sizes))
    ]
    summary = summarize(config, reports, sizes)
    save_trial_reports(reports, os.path.join(config.output_dir, "trials.csv"))
    _write_json(summary, os.path.join(config.output_dir, "summary.json"))
    if write_timings:
        _write_csv(
            os.path.join(config.output_dir, "timings.csv"),
            ["trial", "l_index", "wall_time_ms"],
            ([r.trial, r.l_index, repr(r.wall_time_ms)] for r in reports),
        )
    return summary
