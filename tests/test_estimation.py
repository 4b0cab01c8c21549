import csv
import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuplebn import (
    DiscreteDag,
    FrequencyTable,
    InvalidDagError,
    InvalidSamplesError,
    SampleMatrix,
    EmpiricalMarginalProvider,
    ExactMarginalProvider,
    TupleSizeError,
    dependence_statistic,
    empirical_ci_decider,
    factorized_joint,
    frequencies_to_dict,
    load_samples,
    random_dag,
    sample,
    save_frequencies,
    save_samples,
    tuple_frequencies,
)
from tuplebn.estimation import _PARSE_BLOCK, _SAMPLE_CHUNK


def point_mass_dag():
    # every CPT row is a point mass: sampling is deterministic
    return DiscreteDag(
        2, (2, 2), 1, ((), (1,)),
        [np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])],
    )


def test_sample_point_mass_every_row_identical():
    s = sample(point_mass_dag(), 50, seed=0)
    assert np.all(s.rows == np.array([1, 1]))


def test_sample_determinism(chain_dag):
    a = sample(chain_dag, 1000, seed=5)
    b = sample(chain_dag, 1000, seed=5)
    c = sample(chain_dag, 1000, seed=6)
    assert a == b
    assert a != c


def test_sample_requires_valid_dag():
    # an invalid network fails where it is built, before it can be sampled
    with pytest.raises(InvalidDagError, match="cpt row does not sum to 1"):
        DiscreteDag(1, (2,), 0, ((),), [np.array([[0.6, 0.6]])])
    with pytest.raises(ValueError):
        sample(point_mass_dag(), 0, seed=0)


def test_sample_root_frequency_concentrates():
    dag = DiscreteDag(1, (2,), 0, ((),), [np.array([[0.5, 0.5]])])
    s = sample(dag, 100_000, seed=42)
    mean = s.rows[:, 0].mean()
    assert abs(mean - 0.5) < 0.01  # ~6 sigma at this l


def test_sample_matrix_validates_range():
    with pytest.raises(ValueError):
        SampleMatrix((2, 2), [[0, 2]])
    with pytest.raises(ValueError):
        SampleMatrix((2, 2), [[0, -1]])
    with pytest.raises(ValueError):
        SampleMatrix((0, 2), np.zeros((0, 2), dtype=np.int64))


def test_sample_matrix_rejects_non_integer_values():
    with pytest.raises(ValueError, match="integers"):
        SampleMatrix((2, 2), [[0.9, 1.7]])
    with pytest.raises(ValueError, match="integers"):
        SampleMatrix((2, 2), np.zeros((3, 2)))


def test_sample_matrix_refuses_fractional_cards():
    with pytest.raises(InvalidSamplesError, match="cards: expected an integer, got 2.9"):
        SampleMatrix((2.9, 2), np.zeros((1, 2), dtype=np.int64))
    assert SampleMatrix(np.array([2, 2]), np.zeros((1, 2), dtype=np.int64)).cards == (2, 2)


def test_sample_matrix_range_checked_before_narrowing():
    # 257 and 256 wrap to 1 and 0 in the uint8 storage of binary variables
    with pytest.raises(ValueError, match="out of range"):
        SampleMatrix((2, 2), [[0, 257]])
    with pytest.raises(ValueError, match="out of range"):
        SampleMatrix((2, 2), np.array([[256, 0]], dtype=np.uint16))


def test_tuple_frequencies_tiny_case():
    s = SampleMatrix((2, 2), [[0, 0], [0, 1]])
    freq = tuple_frequencies(s, 2)
    assert list(freq.counts) == [(1, 2)]
    # values (0,0) (0,1) (1,0) (1,1) at mixed-radix codes 0..3
    assert (freq.dense_counts((1, 2)) / freq.l).tolist() == [0.5, 0.5, 0.0, 0.0]


def test_tuple_frequencies_counts_partition_l(chain_dag):
    s = sample(chain_dag, 500, seed=9)
    freq = tuple_frequencies(s, 2)
    assert list(freq.counts) == list(itertools.combinations((1, 2, 3), 2))
    for pos in itertools.combinations((1, 2, 3), 2):
        assert freq.dense_counts(pos).sum() == 500


def test_tuple_frequencies_sparse_only_realized_keys():
    s = SampleMatrix((2, 2), [[0, 0]])
    freq = tuple_frequencies(s, 2)
    assert freq.dense_counts((1, 2)).tolist() == [1, 0, 0, 0]
    assert frequencies_to_dict(freq)["counts"] == [{"positions": [1, 2], "values": [0, 0], "count": 1}]


@pytest.mark.parametrize("positions", [(2, 1), (0, 3), (1, 1), (1,), (1, 2, 3), (1.7, 2.9), (1, 3.0)])
def test_dense_counts_rejects_other_than_a_stored_position_set(chain_dag, positions):
    freq = tuple_frequencies(sample(chain_dag, 50, seed=0), 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        freq.dense_counts(positions)


def test_dense_counts_read_only(chain_dag):
    freq = tuple_frequencies(sample(chain_dag, 50, seed=0), 2)
    arr = freq.dense_counts((1, 3))
    assert arr.dtype == np.int64
    assert freq.dense_counts((np.int64(1), np.uint8(3))) is arr
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 7


def test_tuple_frequencies_k_out_of_range(chain_dag):
    s = sample(chain_dag, 10, seed=0)
    with pytest.raises(ValueError):
        tuple_frequencies(s, 0)
    with pytest.raises(ValueError):
        tuple_frequencies(s, 4)


def test_empty_data_refused():
    empty = SampleMatrix((2, 2), np.zeros((0, 2), dtype=np.int64))
    freq = tuple_frequencies(empty, 1)
    with pytest.raises(ValueError):
        EmpiricalMarginalProvider(freq)


def test_provider_superset_consistency(chain_dag):
    s = sample(chain_dag, 2000, seed=3)
    freq = tuple_frequencies(s, 2)
    via_12 = freq.dense_counts((1, 2)).reshape(2, 2).sum(axis=0)
    via_23 = freq.dense_counts((2, 3)).reshape(2, 2).sum(axis=1)
    assert np.array_equal(via_12, via_23)  # integer counts marginalize exactly
    assert np.array_equal(EmpiricalMarginalProvider(freq).table((2,)), via_12 / freq.l)


def test_provider_budget(chain_dag):
    s = sample(chain_dag, 100, seed=1)
    provider = EmpiricalMarginalProvider(tuple_frequencies(s, 2))
    with pytest.raises(TupleSizeError):
        provider.table((1, 2, 3))


def test_dependence_statistic_xor(xor_joint):
    provider = ExactMarginalProvider(xor_joint, 3)
    stat = dependence_statistic(provider, (1,), (3,), (2,), skip_below=0.04)
    assert stat == pytest.approx(0.0625, abs=1e-12)
    assert not empirical_ci_decider(provider, 0.01).decide((1,), (3,), (2,))


def test_dependence_statistic_product_measure_zero(product_joint):
    provider = ExactMarginalProvider(product_joint, 3)
    assert dependence_statistic(provider, (1,), (2,), (), skip_below=0.0) == pytest.approx(0.0, abs=1e-15)
    assert empirical_ci_decider(provider, 1e-6).decide((1,), (2,), (3,))


def test_large_epsilon_always_independent(xor_joint):
    # threshold 4*eps >= 1 exceeds any achievable statistic on binary data
    provider = ExactMarginalProvider(xor_joint, 3)
    assert empirical_ci_decider(provider, 0.25).decide((1,), (3,), (2,))


def test_empirical_matches_exact_decision_at_large_l(chain_dag, chain_joint):
    s = sample(chain_dag, 200_000, seed=11)
    emp = EmpiricalMarginalProvider(tuple_frequencies(s, 3))
    # chain: 1 and 3 screened by 2; 1 and 2 dependent
    assert empirical_ci_decider(emp, 0.005).decide((1,), (3,), (2,))
    assert not empirical_ci_decider(emp, 0.005).decide((1,), (2,), ())


def test_samples_csv_round_trip(tmp_path, chain_dag):
    s = sample(chain_dag, 123, seed=8)
    path = tmp_path / "rows.csv"
    save_samples(s, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3"
    again = load_samples(path, cards=s.cards)
    assert again == s
    save_samples(again, tmp_path / "rows2.csv")
    assert (tmp_path / "rows2.csv").read_bytes() == path.read_bytes()


def csv_writer_bytes(samples, path):
    """The samples CSV as csv.writer writes it, kept as the reference."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(1, samples.n + 1)])
        writer.writerows(samples.rows.tolist())
    return path.read_bytes()


@pytest.mark.parametrize(
    "cards, l",
    [((10, 300, 2, 1, 11, 1000), _SAMPLE_CHUNK + 7), ((7,), 1000), ((10, 2, 300), 1)],
    ids=["widths-1-to-3", "one-column", "one-row"],
)
def test_save_samples_matches_csv_writer(tmp_path, cards, l):
    rng = np.random.default_rng(l)
    rows = rng.integers(0, cards, size=(l, len(cards)))
    rows[0] = np.asarray(cards) - 1  # every column's widest value
    s = SampleMatrix(cards, rows)
    path = tmp_path / "rows.csv"
    save_samples(s, path)
    assert path.read_bytes() == csv_writer_bytes(s, tmp_path / "ref.csv")
    assert load_samples(path, cards=cards) == s


def test_load_samples_infers_cards(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n0,2\n1,0\n")
    s = load_samples(path)
    assert s.cards == (2, 3)


def test_load_samples_rejects_ragged_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n0,1\n1\n")
    with pytest.raises(ValueError):
        load_samples(path)


@pytest.mark.parametrize("value", ["1.5", "1.0", "a", "#1"])
def test_load_samples_rejects_non_integer_values(tmp_path, value):
    path = tmp_path / "rows.csv"
    path.write_text(f"x1,x2\n0,1\n{value},0\n")
    with pytest.raises(ValueError):
        load_samples(path)


def test_load_samples_rejects_width_other_than_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n0,1,1\n")
    with pytest.raises(ValueError, match="3 columns"):
        load_samples(path)


def test_load_samples_header_only(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_samples(path)
    s = load_samples(path, cards=(2, 3))
    assert s.l == 0 and s.cards == (2, 3)


@pytest.mark.parametrize(
    "body, rows",
    [
        ("x1,x2\r\n0,1\r\n1,0\r\n", [[0, 1], [1, 0]]),
        ("x1,x2\n0,1\n1,0", [[0, 1], [1, 0]]),
        ("x1,x2\r\n0,1\r\n1,0", [[0, 1], [1, 0]]),
        ("x1,x2\n0,1\n\n\r\n1,0\n\n\n", [[0, 1], [1, 0]]),
        ("x1,x2\n\n0,1\n1,0\n", [[0, 1], [1, 0]]),
        ("x1,x2\n000,01\n10,0007\n", [[0, 1], [10, 7]]),
    ],
    ids=["crlf", "no-final-newline", "crlf-no-final-newline", "blank-lines", "leading-blank-line", "leading-zeros"],
)
def test_load_samples_accepts_the_grammar(tmp_path, body, rows):
    path = tmp_path / "rows.csv"
    path.write_bytes(body.encode())
    assert load_samples(path) == SampleMatrix(np.max(rows, axis=0) + 1, rows)


@pytest.mark.parametrize(
    "record",
    [" 1,0", "1 ,0", "1,\t0", "1\t,0", "+1,0", "-0,1", "1.,0", ".5,0", "#1,0", ",0", "1,,0", "1,0,", "1\r,0"],
)
def test_load_samples_rejects_a_record_outside_the_grammar(tmp_path, record):
    path = tmp_path / "rows.csv"
    path.write_bytes(f"x1,x2\n0,1\n\n1,0\n{record}\n1,1\n".encode())
    with pytest.raises(InvalidSamplesError, match="rows.csv: row 3: "):
        load_samples(path)


def test_load_samples_rejects_a_field_of_more_than_18_digits(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n0,1\n1,000000000000000000000\n")
    with pytest.raises(InvalidSamplesError, match="row 2: a value of more than 18 digits"):
        load_samples(path)
    path.write_text("x1,x2\n0,1\n1,999999999999999999\n")
    assert load_samples(path).cards == (2, 10**18)


def wide_samples(l, seed=0):
    cards = (1000, 7, 300, 1, 12)
    rows = np.random.default_rng(seed).integers(0, cards, size=(l, len(cards)))
    rows[-1] = np.asarray(cards) - 1
    return SampleMatrix(cards, rows)


def test_load_samples_rows_across_parse_blocks(tmp_path):
    s = wide_samples(3 * _PARSE_BLOCK // 10)
    path = tmp_path / "rows.csv"
    save_samples(s, path)
    data = path.read_bytes()
    body = data.index(b"\n") + 1
    assert len(data) - body > 2 * _PARSE_BLOCK
    # the first block's read ends inside a record, so one carries over
    assert data[body + _PARSE_BLOCK - 1 : body + _PARSE_BLOCK] != b"\n"
    assert load_samples(path, cards=s.cards) == s
    assert load_samples(path) == s


def test_load_samples_numbers_rows_across_parse_blocks(tmp_path):
    s = wide_samples(3 * _PARSE_BLOCK // 10)
    path = tmp_path / "rows.csv"
    save_samples(s, path)
    data = path.read_bytes()
    body = data.index(b"\n") + 1
    # ragged: the record that starts after the first block loses a field
    start = data.index(b"\n", body + _PARSE_BLOCK) + 1
    end = data.index(b"\n", start)
    row = data.count(b"\n", body, start) + 1
    path.write_bytes(data[:start] + data[start:end].rsplit(b",", 1)[0] + data[end:])
    with pytest.raises(InvalidSamplesError, match=f"row {row}: 4 columns under a 5-column header"):
        load_samples(path)


@settings(max_examples=20, deadline=None)
@given(
    cards=st.lists(st.integers(1, 1000), min_size=1, max_size=3),
    l=st.integers(0, _PARSE_BLOCK // 2 + 1),  # a 1-digit column passes one block
    seed=st.integers(0, 2**32 - 1),
)
# inferred cards (219,) fit uint8 where the given (257,) need uint16
@example(cards=[257], l=1, seed=0)
def test_load_samples_inverts_save_samples(tmp_path_factory, cards, l, seed):
    rows = np.random.default_rng(seed).integers(0, cards, size=(l, len(cards)))
    s = SampleMatrix(cards, rows)
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    save_samples(s, path)
    loaded = [load_samples(path, cards=cards)] + ([load_samples(path)] if l else [])
    for again in loaded:
        assert np.array_equal(again.rows, s.rows)
        # the file holds values, not cards: an inferred load has the dtype of its own cards
        assert again.rows.dtype == SampleMatrix(again.cards, s.rows).rows.dtype and again.rows.flags.f_contiguous
    assert loaded[0].cards == s.cards
    assert loaded[0].rows.dtype == s.rows.dtype
    if l:
        assert loaded[1].cards == tuple(int(c) + 1 for c in s.rows.max(axis=0))


def test_load_samples_logs_inferred_cards(tmp_path, caplog, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2\n0,2\n1,0\n")
    with caplog.at_level(logging.INFO, logger="tuplebn"):
        load_samples(path, cards=(2, 3))
        assert caplog.records == []
        load_samples(path)
    [record] = caplog.records
    assert record.name == "tuplebn.estimation" and record.levelno == logging.INFO
    assert "rows.csv" in record.getMessage() and "(2, 3)" in record.getMessage()
    assert capsys.readouterr() == ("", "")


def test_invalid_samples_error_names_the_input(tmp_path):
    with pytest.raises(InvalidSamplesError, match="value 2 of x2 in row 3"):
        SampleMatrix((2, 2), [[0, 1], [1, 1], [1, 2]])
    with pytest.raises(InvalidSamplesError, match="x3 must be >= 1"):
        SampleMatrix((2, 2, 0), np.zeros((0, 3), dtype=np.int64))
    path = tmp_path / "rows.csv"
    for body in ("x1,x2\n0,1\n1.5,0\n", "x1,x2\n0,1\n1\n", "x1,x2\n0,1,1\n", "y1,y2\n0,1\n"):
        path.write_text(body)
        with pytest.raises(InvalidSamplesError, match="rows.csv"):
            load_samples(path)
    path.write_text("x1,x2\n0,1\n1,0\n")
    with pytest.raises(InvalidSamplesError, match="rows.csv: sample value 1 of x2 in row 1"):
        load_samples(path, cards=(2, 1))


def test_frequencies_json_round_trip(tmp_path, chain_dag):
    # the frequency JSON is an output only; an in-test inverse checks that
    # it holds every count array, zeros included
    s = sample(chain_dag, 300, seed=2)
    freq = tuple_frequencies(s, 2)
    path = tmp_path / "freq.json"
    save_frequencies(freq, path)
    with open(path) as f:
        data = json.load(f)
    assert (data["k"], data["l"], tuple(data["cards"])) == (freq.k, freq.l, freq.cards)
    rebuilt = {pos: np.zeros_like(arr) for pos, arr in freq.counts.items()}
    for e in data["counts"]:
        pos = tuple(e["positions"])
        dims = tuple(freq.cards[p - 1] for p in pos)
        rebuilt[pos][np.ravel_multi_index(e["values"], dims)] = e["count"]
    assert rebuilt.keys() == freq.counts.keys()
    for pos, arr in freq.counts.items():
        np.testing.assert_array_equal(rebuilt[pos], arr)
    assert all(e["count"] > 0 for e in data["counts"])
    save_frequencies(freq, tmp_path / "freq2.json")
    assert (tmp_path / "freq2.json").read_bytes() == path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(1, 200))
def test_marginal_consistency_property(seed, l):
    # summing stored k-tuple counts over dropped positions must equal the
    # directly counted smaller tuple, exactly
    dag = random_dag(4, 1, (2, 3, 2, 2), seed=seed)
    s = sample(dag, l, seed=seed + 1)
    k2 = tuple_frequencies(s, 2)
    k1 = tuple_frequencies(s, 1)
    provider = EmpiricalMarginalProvider(k2)
    for j in (1, 2, 3, 4):
        direct = k1.dense_counts((j,)) / l
        assert np.array_equal(provider.table((j,)), direct)
