"""Spans and counters around the calls into each tuplebn layer.

Nothing inside the package is edited. ``instrumented`` replaces, for the
duration of a ``with`` block, the public functions that the modules import
from one another (so ``tuplebn.experiment.sample`` and
``tuplebn.estimation.sample`` both become the same wrapper), the ``table``
method of the two public provider classes, ``FrequencyTable.dense_counts``,
and the decider factories, which hand out counting proxies. Everything is
restored when the block ends, so untraced operations run the original code.

Spans are aggregated in memory per name: calls, total time and self time
(total minus the time covered by child spans).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict

import tuplebn
from tuplebn import cli, estimation, experiment, model, oracle, recovery, vcbounds

MODULES = (tuplebn, model, oracle, estimation, recovery, vcbounds, experiment, cli)
FLOAT_BYTES = 8  # the dense joint holds float64 entries


class Tracer:
    """Aggregated spans (calls, total and self seconds) plus work counters."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self.max_tuple_size = 0
        self._child_s = [0.0]

    @contextlib.contextmanager
    def span(self, name):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_s.pop()
            self._child_s[-1] += elapsed
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child


# Work counters, taken from each call's arguments and result.

def _joint_entries(t, args, out):
    t.counts["model.factorized_joint.entries"] += out.probs.size


def _sample_cells(t, args, out):
    t.counts["estimation.sample.cells"] += out.rows.size
    t.counts["estimation.sample.bytes_out"] += out.rows.nbytes


def _tuple_counts(t, args, out):
    sets = math.comb(out.n, out.k)
    t.counts["estimation.tuple_frequencies.position_sets"] += sets
    t.counts["estimation.tuple_frequencies.rows_scanned"] += sets * out.l
    t.counts["estimation.tuple_frequencies.keys"] += len(out.counts)


def _file_bytes(counter, path_arg):
    def hook(t, args, out):
        t.counts[counter] += os.path.getsize(args[path_arg])
    return hook


def _search_counts(t, args, out):
    _, trace = out
    t.counts["recovery.candidates_tested"] += sum(len(nt.tested) for nt in trace.nodes)
    t.counts["recovery.candidates_accepted"] += sum(nt.accepted is not None for nt in trace.nodes)
    t.counts["recovery.removal_steps"] += sum(len(nt.removals) for nt in trace.nodes)


def _verify_subsets(t, args, out):
    t.counts["vcbounds.verify_shattered.subsets"] += len(out.certificates) + (not out.ok)


def _cell_outcome(t, args, out):
    t.counts["experiment.error_cells"] += out.outcome == experiment.OUTCOME_ERROR


# (defining module, function name, span name, counter hook, report a tracemalloc peak)
FUNCTIONS = (
    (model, "random_dag", "model.random_dag", None, False),
    (model, "factorized_joint", "model.factorized_joint", _joint_entries, False),
    (oracle, "marginal", "oracle.marginal", None, False),
    (oracle, "is_markov_relative", "oracle.is_markov_relative", None, False),
    (estimation, "sample", "estimation.sample", _sample_cells, True),
    (estimation, "tuple_frequencies", "estimation.tuple_frequencies", _tuple_counts, True),
    (estimation, "save_samples", "estimation.save_samples", _file_bytes("estimation.samples_csv_bytes", 1), False),
    (estimation, "load_samples", "estimation.load_samples", None, False),
    (estimation, "save_frequencies", "estimation.save_frequencies",
     _file_bytes("estimation.frequencies_json_bytes", 1), False),
    (recovery, "recover_structure", "recovery.recover_structure", _search_counts, False),
    (recovery, "attach_cpts", "recovery.attach_cpts", None, False),
    (vcbounds, "required_sample_size", "vcbounds.required_sample_size", None, False),
    (vcbounds, "shatter_witness", "vcbounds.shatter_witness", None, False),
    (vcbounds, "verify_shattered", "vcbounds.verify_shattered", _verify_subsets, False),
    (experiment, "run_trial_cell", "experiment.run_trial_cell", _cell_outcome, False),
    (experiment, "summarize", "experiment.summarize", None, False),
    (cli, "cmd_generate", "cli.generate", None, False),
    (cli, "cmd_sample", "cli.sample", None, False),
    (cli, "cmd_estimate", "cli.estimate", None, False),
    (cli, "cmd_recover", "cli.recover", None, False),
    (cli, "cmd_bounds", "cli.bounds", None, False),
    (cli, "cmd_witness", "cli.witness", None, False),
)

SPANS = tuple(spec[2] for spec in FUNCTIONS) + (
    "oracle.table", "estimation.table", "estimation.dense_counts", "recovery.decide", "bench.op",
)


def _wrap_function(tracer, fn, name, hook, track_alloc):
    def wrapper(*args, **kwargs):
        if track_alloc:
            tracemalloc.start()
        try:
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if track_alloc:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracer.peak_mb[name] = max(tracer.peak_mb[name], peak)
        finally:
            if track_alloc:
                tracemalloc.stop()
        if hook is not None:
            hook(tracer, args, out)
        return out

    return wrapper


def _wrap_table(tracer, method, name, miss_bytes):
    seen = weakref.WeakKeyDictionary()  # provider -> position sets already served

    def table(self, positions):
        with tracer.span(name):
            out = method(self, positions)
        key = tuple(int(p) for p in positions)
        known = seen.setdefault(self, set())
        if key not in known:
            known.add(key)
            tracer.counts[name + ".computed"] += 1
            if miss_bytes:
                tracer.counts[name + ".bytes_read"] += math.prod(self.cards) * FLOAT_BYTES
        tracer.max_tuple_size = max(tracer.max_tuple_size, len(key))
        return out

    return table


def _wrap_dense_counts(tracer, method):
    def dense_counts(self, positions):
        tracer.counts["estimation.dense_counts.keys_scanned"] += len(self.counts)
        with tracer.span("estimation.dense_counts"):
            return method(self, positions)

    return dense_counts


class DeciderProxy:
    """Counts and times the decisions a recovery search asks of its decider."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.provider = inner.provider
        self._tracer = tracer
        self._seen = set()

    def decide(self, X, L, K):
        key = (tuple(sorted(X)), tuple(sorted(L)), tuple(sorted(K)))
        if key not in self._seen:
            self._seen.add(key)
            self._tracer.counts["recovery.decide.unique"] += 1
        with self._tracer.span("recovery.decide"):
            return self.inner.decide(X, L, K)


def _wrap_factory(tracer, factory):
    def make(*args, **kwargs):
        return DeciderProxy(factory(*args, **kwargs), tracer)

    return make


_MISSING = object()


@contextlib.contextmanager
def instrumented(tracer: Tracer, track_alloc: bool = False):
    """Install the spans for one ``with`` block.

    With ``track_alloc``, ``tracemalloc`` runs inside the calls that report a
    peak allocation, and only there: it slows allocation-heavy code several
    times over, so the spans' times come from passes without it.
    """
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_everywhere(original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch(module, attr, wrapper)

    try:
        for module, fname, name, hook, alloc in FUNCTIONS:
            original = getattr(module, fname)
            patch_everywhere(original, _wrap_function(tracer, original, name, hook, alloc and track_alloc))
        for fname in ("exact_ci_decider", "empirical_ci_decider"):
            original = getattr(recovery, fname)
            patch_everywhere(original, _wrap_factory(tracer, original))
        patch(oracle.ExactMarginalProvider, "table",
              _wrap_table(tracer, oracle.ExactMarginalProvider.table, "oracle.table", miss_bytes=True))
        patch(estimation.EmpiricalMarginalProvider, "table",
              _wrap_table(tracer, estimation.EmpiricalMarginalProvider.table, "estimation.table", miss_bytes=False))
        patch(estimation.FrequencyTable, "dense_counts",
              _wrap_dense_counts(tracer, estimation.FrequencyTable.dense_counts))
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
