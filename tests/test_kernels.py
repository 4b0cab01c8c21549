"""The column-wise sampling and counting helpers behind sample and
tuple_frequencies."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tuplebn import (
    EmpiricalMarginalProvider,
    SampleMatrix,
    estimation,
    factorized_joint,
    marginal,
    random_dag,
    sample,
    tuple_frequencies,
)
from tuplebn.estimation import _SAMPLE_CHUNK, _inverse_cdf
from tuplebn.experiment import _max_frequency_deviation


def test_sample_node_boundary_uniform():
    # u exactly at a cumulative boundary goes to the next value; u close to
    # 1 never exceeds d-1 even when the row sums slightly below 1
    cum = np.array([[0.25, 0.5, 1.0 - 1e-16]])
    u = np.array([0.0, 0.25, 0.5, 1.0 - 1e-16, 0.9999999])
    out = np.zeros(5, dtype=np.uint8)
    _inverse_cdf(out, u, 0, cum.T.copy())
    assert out.tolist() == [0, 1, 2, 2, 2]
    # the same rule per parent configuration
    cum = np.array([[1.0, 1.0, 1.0], [0.25, 0.5, 1.0 - 1e-16]])
    out = np.zeros(5, dtype=np.uint8)
    _inverse_cdf(out, u, np.array([1, 1, 0, 1, 0]), cum.T.copy())
    assert out.tolist() == [0, 1, 0, 2, 0]


def test_count_tuples_matches_python_count():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 3, size=(500, 4))
    counted = tuple_frequencies(SampleMatrix((3,) * 4, rows), 2).dense_counts((2, 4))
    expected = Counter((r[1], r[3]) for r in rows.tolist())
    for a in range(3):
        for b in range(3):
            assert counted[3 * a + b] == expected[(a, b)]


@pytest.mark.parametrize(
    "cards, dtype",
    [((10, 10, 10), np.uint8), ((10, 10, 10, 1000), np.uint16)],
)
def test_wide_cards_count_matches_unique_recount(cards, dtype):
    # tuple codes reach 999 and 99,999: past what the storage dtype holds
    rng = np.random.default_rng(4)
    rows = np.column_stack([rng.integers(0, c, size=3000) for c in cards])
    s = SampleMatrix(cards, rows)
    assert s.rows.dtype == dtype and s.rows.flags.f_contiguous
    freq = tuple_frequencies(s, 3)
    for pos in itertools.combinations(range(1, len(cards) + 1), 3):
        dims = tuple(cards[p - 1] for p in pos)
        values, counts = np.unique(rows[:, [p - 1 for p in pos]], axis=0, return_counts=True)
        expected = np.zeros(math.prod(dims), dtype=np.int64)
        expected[np.ravel_multi_index(values.T, dims)] = counts
        assert np.array_equal(freq.dense_counts(pos), expected)


def test_sample_rows_do_not_depend_on_chunk(monkeypatch, chain_dag):
    whole = sample(chain_dag, 1000, seed=4)
    monkeypatch.setattr(estimation, "_SAMPLE_CHUNK", 7)
    assert sample(chain_dag, 1000, seed=4) == whole


def per_set_counts(samples, k):
    """The per-set count that tuple_frequencies replaced, kept as the
    reference: a Horner code of all l rows and an np.bincount per set."""
    counts = {}
    for pos in itertools.combinations(range(1, samples.n + 1), k):
        dims = tuple(samples.cards[p - 1] for p in pos)
        code = samples.rows[:, pos[0] - 1].astype(np.intp)
        for p, d in zip(pos[1:], dims[1:]):
            code *= d
            code += samples.rows[:, p - 1]
        counts[pos] = np.bincount(code, minlength=math.prod(dims))
    return counts


def random_rows(cards, l, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, c, size=l) for c in cards])


def every_row_distinct(cards):
    rows = np.array(list(itertools.product(*(range(c) for c in cards))))
    return np.random.default_rng(1).permutation(rows)


EQUIVALENCE_CASES = {
    "card-1-variables": ((1, 3, 1, 2, 1), random_rows((1, 3, 1, 2, 1), 400, 0)),
    "uint16-cards": ((300, 2, 5, 300), random_rows((300, 2, 5, 300), 2000, 1)),
    "no-rows": ((2, 3, 2), np.zeros((0, 3), dtype=np.int64)),
    "one-row": ((2, 3, 2), np.array([[1, 2, 0]])),
    "chunk-plus-7-rows": ((3, 2, 4, 2), random_rows((3, 2, 4, 2), _SAMPLE_CHUNK + 7, 2)),
    "chunk-plus-7-distinct-rows": ((40,) * 4, random_rows((40,) * 4, _SAMPLE_CHUNK + 7, 3)),
    "every-row-identical": ((2, 3, 4), np.tile([1, 0, 3], (500, 1))),
    "every-row-distinct": ((3, 2, 4, 3), every_row_distinct((3, 2, 4, 3))),
}


@pytest.mark.parametrize("chunk", [7, _SAMPLE_CHUNK], ids=["chunk-7", "default-chunk"])
@pytest.mark.parametrize("name", list(EQUIVALENCE_CASES))
def test_tuple_frequencies_matches_per_set_count(monkeypatch, name, chunk):
    monkeypatch.setattr(estimation, "_SAMPLE_CHUNK", chunk)
    cards, rows = EQUIVALENCE_CASES[name]
    s = SampleMatrix(cards, rows)
    for k in sorted({1, 2, s.n}):
        freq = tuple_frequencies(s, k)
        expected = per_set_counts(s, k)
        counted = {pos: freq.dense_counts(pos) for pos in expected}
        assert list(freq.counts) == list(expected)
        for pos, arr in counted.items():
            assert arr.dtype == expected[pos].dtype == np.int64
            assert not arr.flags.writeable
            assert np.array_equal(arr, expected[pos])
        if s.l == 0:
            assert all(not arr.any() for arr in counted.values())


def test_tuple_frequencies_matches_per_set_count_at_every_k():
    s = sample(random_dag(6, 2, (2, 3, 1, 2, 4, 2), seed=5), 3000, seed=6)
    for k in range(1, s.n + 1):
        freq = tuple_frequencies(s, k)
        expected = per_set_counts(s, k)
        assert all(np.array_equal(freq.dense_counts(pos), expected[pos]) for pos in expected)
        assert list(freq.counts) == list(expected)


@pytest.mark.parametrize("seed", range(4))
def test_counts_do_not_depend_on_query_order(seed):
    # the table keeps the Horner codes of the last set's prefixes; sets of
    # every size up to k, asked in any order and more than once, through the
    # table or the provider over it, must still read the per-set reference
    s = SampleMatrix((2, 3, 1, 4, 2, 3), random_rows((2, 3, 1, 4, 2, 3), 800, seed))
    freq = tuple_frequencies(s, 4)
    provider = EmpiricalMarginalProvider(freq)
    expected = {pos: arr for size in range(1, 5) for pos, arr in per_set_counts(s, size).items()}
    order = list(expected) * 2
    np.random.default_rng(seed).shuffle(order)
    for pos in order:
        counted = freq.dense_counts(pos) if len(pos) == 4 else freq._count(pos)
        assert np.array_equal(counted, expected[pos]), pos
        assert provider.table(pos).tobytes() == (expected[pos] / s.l).tobytes(), pos
    assert sorted(freq.counts) == list(per_set_counts(s, 4))


@pytest.mark.parametrize("n, cards, l", [
    (12, 2, 20_000),
    (8, (2, 3, 1, 4, 2, 3, 2, 5), 5_000),
])
def test_max_frequency_deviation_stores_no_counts(n, cards, l):
    dag = random_dag(n, 2, cards, seed=n)
    freq = tuple_frequencies(sample(dag, l, seed=1), 5)
    joint = factorized_joint(dag)
    freq.dense_counts((1, 2, 3, 4, 5))
    before = dict(freq.counts)
    dev = _max_frequency_deviation(freq, joint)
    assert freq.counts.keys() == before.keys()
    assert all(freq.counts[pos] is arr for pos, arr in before.items())
    reference = max(
        float(np.abs(freq.dense_counts(pos).astype(np.float64) / freq.l - marginal(joint, pos)).max())
        for pos in itertools.combinations(range(1, n + 1), freq.k)
    )
    assert dev == reference > 0


def test_tuple_frequencies_peak_memory_per_row():
    # the sort order takes 8 bytes a row; a sorted copy of the whole
    # sample, or a Horner code of all rows per set, would pass 12
    s = SampleMatrix((3,) * 8, random_rows((3,) * 8, 200_000, 7))
    tracemalloc.start()
    try:
        freq = tuple_frequencies(s, 3)
        for pos in itertools.combinations(range(1, s.n + 1), 3):
            freq.dense_counts(pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(arr.nbytes for arr in freq.counts.values())
    assert peak < 12 * s.l + tables
