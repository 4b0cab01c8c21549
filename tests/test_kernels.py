"""The column-wise sampling and counting helpers behind sample and
tuple_frequencies."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tuplebn import SampleMatrix, estimation, sample, tuple_frequencies
from tuplebn.estimation import _inverse_cdf


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
