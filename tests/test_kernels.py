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
    ExperimentConfig,
    SampleMatrix,
    estimation,
    factorized_joint,
    random_dag,
    run_experiment,
    sample,
    tuple_frequencies,
)
from tuplebn.estimation import _SAMPLE_CHUNK, _distinct_rows, _inverse_cdf
from tuplebn.experiment import _FOLD_ENTRIES, _chunk_index, _cylinder_tables, _max_frequency_deviation, _sweep_plan
from tuplebn.oracle import _fold_index

from conftest import full_sum_marginal


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


def repeated_rows(cards, l, patterns, seed):
    """l rows drawn from ``patterns`` random rows, the first of which holds
    every column's top value, so rows repeat and the largest packed code
    occurs."""
    pool = random_rows(cards, patterns, seed)
    pool[0] = np.asarray(cards) - 1
    return pool[np.random.default_rng(seed + 1).integers(0, patterns, size=l)]


# cardinalities whose product lands just below 2**63 (by 2.1e11), so a row
# fills one int64 row code, and at 2**63, the first product whose rows are
# counted as drawn; a product of 2**63 - 1 is the largest one code holds
CARDS_BELOW_2_63 = (592, 614, 511, 498, 483, 511, 404)
CARDS_AT_2_63 = (512,) * 7
CARDS_2_63_MINUS_1 = (7, 7, 73, 127, 337, 92737, 649657)
# 64 binary columns; these rows share a few values of the first 62 columns
# and differ in the last two
TWO_WORD_ROWS = np.column_stack([repeated_rows((2,) * 62, 3000, 4, 18), random_rows((2, 2), 3000, 19)])

EQUIVALENCE_CASES = {
    "card-1-variables": ((1, 3, 1, 2, 1), random_rows((1, 3, 1, 2, 1), 400, 0)),
    "uint16-cards": ((300, 2, 5, 300), random_rows((300, 2, 5, 300), 2000, 1)),
    "no-rows": ((2, 3, 2), np.zeros((0, 3), dtype=np.int64)),
    "one-row": ((2, 3, 2), np.array([[1, 2, 0]])),
    "chunk-plus-7-rows": ((3, 2, 4, 2), random_rows((3, 2, 4, 2), _SAMPLE_CHUNK + 7, 2)),
    "chunk-plus-7-distinct-rows": ((40,) * 4, random_rows((40,) * 4, _SAMPLE_CHUNK + 7, 3)),
    "every-row-identical": ((2, 3, 4), np.tile([1, 0, 3], (500, 1))),
    "every-row-distinct": ((3, 2, 4, 3), every_row_distinct((3, 2, 4, 3))),
    "two-words": ((2,) * 64, repeated_rows((2,) * 64, 3000, 300, 4)),
    "two-words-differing-in-the-second": ((2,) * 64, TWO_WORD_ROWS),
    "ten-columns-of-100": ((100,) * 10, repeated_rows((100,) * 10, 3000, 300, 5)),
    "product-below-2**63": (CARDS_BELOW_2_63, repeated_rows(CARDS_BELOW_2_63, 3000, 300, 6)),
    "product-2**63": (CARDS_AT_2_63, repeated_rows(CARDS_AT_2_63, 3000, 300, 7)),
}


@pytest.mark.parametrize("chunk", [7, _SAMPLE_CHUNK], ids=["chunk-7", "default-chunk"])
@pytest.mark.parametrize("name", list(EQUIVALENCE_CASES))
def test_tuple_frequencies_matches_per_set_count(monkeypatch, name, chunk):
    monkeypatch.setattr(estimation, "_SAMPLE_CHUNK", chunk)
    cards, rows = EQUIVALENCE_CASES[name]
    s = SampleMatrix(cards, rows)
    # a table over every variable is counted where it is small enough to hold
    for k in sorted({1, 2, s.n} if math.prod(cards) <= 1 << 22 else {1, 2}):
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
    # the table keeps no state between counts: sets of every size up to k,
    # asked in any order and more than once, through the table or the
    # provider over it, must read the per-set reference
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
    # prefixes of 2**13 and 2**14 entries: two sets of m = 14 fill a chunk
    (14, 2, 2_000),
    # cardinality-1 positions last and between: m falls below the last
    # position, and (2, 4, 6, 8, 10) has no position of cardinality above 1
    (10, (2, 1, 3, 1, 2, 1, 2, 1, 2, 1), 3_000),
    # k == n
    (5, (2, 3, 1, 2, 1), 1_000),
])
def test_max_frequency_deviation_stores_no_counts(n, cards, l):
    k = min(n, 5)
    dag = random_dag(n, 2, cards, seed=n)
    samples = sample(dag, l, seed=1)
    freq = tuple_frequencies(samples, k)
    joint = factorized_joint(dag)
    freq.dense_counts(tuple(range(1, k + 1)))
    before = dict(freq.counts)
    dev = _max_frequency_deviation(freq, joint)
    assert freq.counts.keys() == before.keys()
    assert all(freq.counts[pos] is arr for pos, arr in before.items())
    reference = max(
        float(np.abs(counts / l - full_sum_marginal(joint, pos)).max())
        for pos, counts in per_set_counts(samples, k).items()
    )
    assert dev == reference > 0


@pytest.mark.parametrize("n, cards, k, l", [
    # 2**16 and 2**15 prefix entries: one set a chunk; 2**14: two sets
    (16, 2, 3, 400),
    (14, 2, 5, 300),
    # cardinality-1 positions last and between
    (14, (2,) * 6 + (1,) + (2,) * 6 + (1,), 5, 300),
])
def test_cylinder_tables_match_each_set(n, cards, k, l):
    # each chunk is a run of sets of one m in combinations order; its counts
    # and marginal must have, byte for byte, the cells of each set's count
    # and of the full sum, the sets one after another
    dag = random_dag(n, 2, cards, seed=n)
    freq = tuple_frequencies(sample(dag, l, seed=2), k)
    joint = factorized_joint(dag)
    assert (freq._count(range(1, n + 1)) == 0).any()  # the count prefix has zero entries
    waiting = {}  # per m: the sets not yet seen in a chunk
    for pos in itertools.combinations(range(1, n + 1), k):
        waiting.setdefault(max((p for p in pos if dag.cards[p - 1] > 1), default=0), []).append(pos)
    sizes = []
    for counts, exact in _cylinder_tables(freq, joint):
        for sets in waiting.values():
            cells = itertools.accumulate(math.prod(dag.cards[p - 1] for p in pos) for pos in sets)
            run = list(itertools.takewhile(lambda c: c <= exact.size, cells))
            if not run or run[-1] != exact.size:
                continue
            chunk = sets[: len(run)]
            if counts.tobytes() == np.concatenate([freq._count(pos) for pos in chunk]).tobytes():
                assert exact.tobytes() == np.concatenate([full_sum_marginal(joint, pos) for pos in chunk]).tobytes()
                del sets[: len(chunk)]
                sizes.append(len(chunk))
                break
        else:
            raise AssertionError(f"a chunk of {exact.size} cells matches no run of sets")
    assert not any(waiting.values())
    assert min(sizes) == 1 and max(sizes) > 1


@pytest.mark.parametrize("cards, k, types", [
    ((2,) * 12, 5, {"uint8", "uint16"}),
    # cardinality-1 positions first, between and last
    ((1, 2, 2, 1, 3, 2, 1, 2, 2, 1), 4, {"uint8", "uint16"}),
    ((2, 1, 3, 12, 2, 2, 1), 3, {"uint8", "uint16"}),
    # 12 values a position: a sweep chunk of one set of 12**4 cells, the
    # four sets of m=5 in one chunk, and a sweep chunk of 12**5 cells
    ((12,) * 5, 4, {"uint16", "uint32"}),
    ((12,) * 5, 5, {"uint32"}),
])
def test_sweep_plan_chunks_match_the_fold_index_of_each_set(cards, k, types):
    # each chunk the sweep folds, and each m's whole run of sets, must index
    # each set's entries by its _fold_index, offset by the cells before it
    groups = {}
    for pos in itertools.combinations(range(1, len(cards) + 1), k):
        m = max((p for p in pos if cards[p - 1] > 1), default=0)
        groups.setdefault(m, []).append([p - 1 for p in pos if p <= m])
    _sweep_plan.cache_clear()
    plan = _sweep_plan(cards, k)
    assert [m for m, _ in plan] == sorted(groups)
    seen = set()
    for m, halves in plan:
        kept = groups[m]
        per_call = max(1, _FOLD_ENTRIES // math.prod(cards[:m]))
        for chunk in [slice(start, start + per_call) for start in range(0, len(kept), per_call)] + [slice(None)]:
            index, cells = _chunk_index(halves, chunk)
            expected, offset = [], 0
            for one, size in (_fold_index(cards[:m], kept_set) for kept_set in kept[chunk]):
                expected.append(one.astype(np.int64) + offset)
                offset += size
            assert cells == offset
            assert index.dtype == np.min_scalar_type(cells)
            assert np.array_equal(index, np.stack(expected))
            seen.add(index.dtype.name)
    assert seen == types


def test_a_grid_builds_its_sweep_plan_once(tmp_path):
    # the plan depends on (cards, k) alone, so both sample sizes share it
    config = ExperimentConfig(
        n=6, delta=1, cards=(2, 3, 2, 1, 2, 2), alpha=1.0, floor=0.01, sample_sizes=(300, 600),
        epsilon=0.1, delta_risk=0.05, trials=1, seed=0, output_dir=str(tmp_path),
    )
    _sweep_plan.cache_clear()
    run_experiment(config)
    assert (_sweep_plan.cache_info().misses, _sweep_plan.cache_info().hits) == (1, 1)


@pytest.mark.parametrize("n", [12, 14])
def test_max_frequency_deviation_peak_memory_is_bounded_by_the_chunk(n):
    # a fold call holds under 18 bytes for each of its _FOLD_ENTRIES prefix
    # entries (see experiment._FOLD_ENTRIES). The sweep reads one m at a time:
    # its counts over 1..m take 8 bytes for each of at most 2**14 entries
    # until only their nonzero entries and positions are kept, 16 bytes for
    # each of at most 2,000, one per row: under 32 * 8192 bytes. C(n, k),
    # 792 sets at n=12 and 2,002 at n=14, takes part only through the
    # sweep plan, which the first sweep builds: two one-byte ids a set and
    # the distinct half indexes, 15 KB at n=12 and 51 KB at n=14.
    dag = random_dag(n, 2, 2, seed=n)
    freq = tuple_frequencies(sample(dag, 2_000, seed=1), 5)
    joint = factorized_joint(dag)
    for m in range(n + 1):
        joint.prefix(m)  # cached on the joint, outside the sweep
    _sweep_plan.cache_clear()  # the first sweep of a grid builds the plan
    tracemalloc.start()
    try:
        _max_frequency_deviation(freq, joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * _FOLD_ENTRIES + 32 * 8192


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


DISTINCT_CASES = {
    **EQUIVALENCE_CASES,
    "three-words": ((3,) * 100, repeated_rows((3,) * 100, 2000, 100, 10)),
    "product-2**63-1": (CARDS_2_63_MINUS_1, repeated_rows(CARDS_2_63_MINUS_1, 2000, 100, 16)),
    "one-bit-past-62": ((2,) * 63, repeated_rows((2,) * 63, 2000, 100, 17)),
    "uint64-cards": ((3, 2**40, 2), repeated_rows((3, 2**40, 2), 2000, 100, 14)),
}


@pytest.mark.parametrize("name", list(DISTINCT_CASES))
def test_distinct_rows_match_unique_rows(name):
    cards, rows = DISTINCT_CASES[name]
    s = SampleMatrix(cards, rows)
    distinct, weights = _distinct_rows(s.rows, s.cards)
    if math.prod(cards) >= 2**63:
        # wider than one int64 code: the rows as drawn, each of weight 1
        assert np.shares_memory(distinct, s.rows) and np.array_equal(distinct, s.rows.T)
        assert weights.dtype == np.float64 and weights.tolist() == [1.0] * s.l
        return
    values, counts = np.unique(s.rows, axis=0, return_counts=True)
    assert distinct.dtype == s.rows.dtype and weights.dtype == np.float64
    assert distinct.shape == (s.n, len(values)) and weights.shape == (len(values),)
    # the same rows and multiplicities, in any order
    assert sorted(zip(map(tuple, distinct.T.tolist()), weights.tolist())) == sorted(
        zip(map(tuple, values.tolist()), counts.astype(np.float64).tolist())
    )


def test_sample_peak_memory_is_bounded_by_the_block():
    # beyond the rows it returns, a draw holds a block's uniforms, their
    # transposed copy and per-node temporaries of one block: less than
    # three (_SAMPLE_CHUNK, n) float64 arrays, whatever l is
    dag = random_dag(12, 2, 2, 0)
    tracemalloc.start()
    try:
        s = sample(dag, 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.rows.nbytes + 3 * _SAMPLE_CHUNK * dag.n * 8
    # and a block is cache-sized: its uniforms and their copy fit a 2 MiB L2
    assert 2 * _SAMPLE_CHUNK * dag.n * 8 <= 2 << 20


def test_tuple_frequencies_counts_wide_rows_as_drawn():
    # rows of 100 bits are not copied: the one allocation that grows with
    # l is a float64 weight a row, 8 bytes
    s = SampleMatrix((2,) * 100, repeated_rows((2,) * 100, 200_000, 500, 15))
    tracemalloc.start()
    try:
        freq = tuple_frequencies(s, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(freq.distinct, s.rows)
    assert peak < 9 * s.l
