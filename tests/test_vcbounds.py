import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuplebn import (
    Certificate,
    VerifyResult,
    cylinder_count,
    required_sample_size,
    risk_bound,
    save_witness,
    shatter_witness,
    vc_lower_bound,
    vc_upper_bound,
    verify_shattered,
)


def test_cylinder_count_examples():
    assert cylinder_count(4, 2, 2) == (24, 64)
    assert cylinder_count(3, 3, 1) == (1, 27)  # k=n, d=1
    assert cylinder_count(1, 1, 3) == (3, 3)
    with pytest.raises(ValueError):
        cylinder_count(2, 3, 2)
    with pytest.raises(ValueError):
        cylinder_count(2, 1, 0)


def test_cylinder_count_arbitrary_precision():
    exact, crude = cylinder_count(200, 50, 4)
    assert exact == 4**50 * math.comb(200, 50)
    assert exact < crude == 800**50


def test_vc_upper_bound_examples():
    assert vc_upper_bound(8, 3, 2) == pytest.approx(12.0)
    assert vc_upper_bound(1, 1, 2) == pytest.approx(1.0)
    tight = vc_upper_bound(4, 2, 2, tight=True)
    assert tight == pytest.approx(math.log2(24))
    assert tight < vc_upper_bound(4, 2, 2)


def test_vc_lower_bound_examples():
    assert vc_lower_bound(9, 2) == 3
    assert vc_lower_bound(5, 5) == 0
    assert vc_lower_bound(20, 3) == 4
    with pytest.raises(ValueError):
        vc_lower_bound(2, 3)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 2000), k=st.integers(1, 10), d=st.integers(2, 6))
def test_lower_never_exceeds_upper(n, k, d):
    if k > n:
        k = n
    assert vc_lower_bound(n, k) <= vc_upper_bound(n, k, d) + 1e-12


def test_risk_bound_reference_point():
    rb = risk_bound(1, 2000, 0.1)
    assert rb.value == pytest.approx(1.0943760387e-4, rel=1e-9)
    assert rb.bound == rb.value
    assert rb.log_value == pytest.approx(math.log(rb.value), rel=1e-12)


def test_risk_bound_clamps_to_one():
    rb = risk_bound(10, 5, 0.5)
    assert rb.value > 1
    assert rb.bound == 1.0


def test_risk_bound_survives_huge_exponent():
    # exponent ~ 2000: the raw value overflows but the log form stays exact
    rb = risk_bound(200, 10**6, 1e-6)
    assert math.isinf(rb.value)
    assert rb.bound == 1.0
    assert math.isfinite(rb.log_value) and rb.log_value > 700


def test_risk_bound_monotone_beyond_feasibility():
    # decreasing in l once the solver regime is reached, increasing in h
    values = [risk_bound(12.0, l, 0.1).value for l in range(2000, 40000, 2000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert risk_bound(14.0, 10000, 0.1).value > risk_bound(12.0, 10000, 0.1).value


def test_risk_bound_domain():
    with pytest.raises(ValueError):
        risk_bound(0, 100, 0.1)
    with pytest.raises(ValueError):
        risk_bound(1, 0, 0.1)
    with pytest.raises(ValueError):
        risk_bound(1, 100, 1.5)


def test_required_sample_size_self_certifies():
    for (n, k, d, eps, dr) in [
        (8, 3, 2, 0.1, 0.05),
        (8, 3, 2, 0.15, 0.05),
        (16, 2, 3, 0.2, 0.01),
        (100, 5, 2, 0.05, 0.1),
    ]:
        sizes = required_sample_size(n, k, d, eps, dr)
        target = k * math.log2(n * d)

        def suff(l):
            return eps * l > 1 and l / (1 + math.log(2 * l)) * (eps - 1 / l) ** 2 / 2 >= target

        h = vc_upper_bound(n, k, d)

        def risk(l):
            return eps * l > 1 and risk_bound(h, l, eps).value < dr

        assert suff(sizes.l_suff) and not suff(sizes.l_suff - 1)
        assert risk(sizes.l_risk) and not risk(sizes.l_risk - 1)


def test_required_sample_size_reference_values():
    # frozen by an independent linear scan before the implementation existed
    assert required_sample_size(8, 3, 2, 0.1, 0.05).l_suff == 28721
    assert required_sample_size(8, 3, 2, 0.15, 0.05).l_risk == 4241


def test_risk_bound_is_one_where_sauers_lemma_does_not_apply():
    # 2l = 10 < h = 36: the formula's value is small, but it bounds nothing
    rb = risk_bound(36.0, 5, 0.25)
    assert rb.value == pytest.approx(1.6008e-4, rel=1e-4)
    assert rb.bound == 1.0
    rb = risk_bound(36.0, 3726, 0.25)
    assert rb.bound == rb.value < 0.05


def test_l_risk_falls_with_epsilon_and_grows_with_the_class():
    epsilons = (0.15, 0.2, 0.22, 0.25, 0.3, 0.35, 0.4)
    for n, k, d in ((2048, 3, 2), (64, 5, 2)):
        sizes = [required_sample_size(n, k, d, eps, 0.05).l_risk for eps in epsilons]
        assert sizes == sorted(sizes, reverse=True), (n, k, d, sizes)
    # a larger class, h = 12, 21, 36, never needs fewer samples
    for eps in epsilons:
        sizes = [required_sample_size(n, 3, 2, eps, 0.05).l_risk for n in (8, 64, 2048)]
        assert sizes == sorted(sizes), (eps, sizes)


def test_l_risk_is_the_first_l_of_a_linear_scan():
    assert required_sample_size(3, 3, 10, 0.7, 0.05).l_risk == 128
    for n, k, d, eps in [
        (n, k, d, eps)
        for n in (2, 3, 4, 6)
        for k in (1, 2, 3)
        for d in (2, 3, 10)
        for eps in (0.3, 0.5, 0.7, 0.9)
        if k <= n
    ]:
        h = vc_upper_bound(n, k, d)
        l_risk = required_sample_size(n, k, d, eps, 0.05).l_risk
        assert 2 * l_risk >= h, (n, k, d, eps)
        first = next(l for l in range(1, 10**5) if risk_bound(h, l, eps).bound < 0.05)
        assert l_risk == first, (n, k, d, eps)


def test_doubling_n_adds_bounded_increment():
    # k*log2(nd) grows by exactly k when n doubles; l_suff grows sublinearly
    for n in (16, 32, 64, 128):
        a = required_sample_size(n, 3, 2, 0.1, 0.05).l_suff
        b = required_sample_size(2 * n, 3, 2, 0.1, 0.05).l_suff
        assert a < b < 2 * a


def test_bound_inputs_validation():
    required_sample_size(8, 3, 2, 0.1, 0.05)
    with pytest.raises(ValueError, match="k <= n"):
        required_sample_size(2, 3, 2, 0.1, 0.05)
    with pytest.raises(ValueError, match="d must be"):
        required_sample_size(8, 3, 0, 0.1, 0.05)
    with pytest.raises(ValueError, match="epsilon"):
        required_sample_size(8, 3, 2, 1.1, 0.05)
    with pytest.raises(ValueError, match="delta_risk"):
        required_sample_size(8, 3, 2, 0.1, 0.0)


def test_witness_matrix_worked_example():
    w = shatter_witness(6, 2)
    assert w.l_points == 2
    cols = list(zip(*w.matrix))
    assert cols[0] == (1, 1)
    assert cols[1:5] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert cols[5] == (0, 0)
    assert w.points == ((1, 0, 0, 1, 1, 0), (1, 0, 1, 0, 1, 0))


def test_witness_trivial_and_distinct_rows():
    w = shatter_witness(4, 4)
    assert w.l_points == 0
    assert w.points == ()
    result = verify_shattered(w)
    assert result.ok and len(result.certificates) == 1

    w2 = shatter_witness(12, 3)
    assert w2.l_points == 3
    assert len(set(w2.matrix)) == len(w2.matrix)  # binary-word columns separate rows


def test_witness_value_pairs():
    w = shatter_witness(3, 2, value_pairs=[(0, 2), (1, 0), (5, 7)])
    assert w.points[0][0] in (0, 2)
    with pytest.raises(ValueError):
        shatter_witness(3, 2, value_pairs=[(0, 0), (0, 1), (0, 1)])
    with pytest.raises(ValueError):
        shatter_witness(3, 2, value_pairs=[(0, 1)])


def test_witness_value_pairs_are_refused_not_truncated():
    with pytest.raises(ValueError, match="value_pairs: expected an integer, got 1.5"):
        shatter_witness(4, 2, [(0, 1.5), (0, 1), (0, 1), (0, 1)])
    for item, message in (
        ((0, 1, 2), "value_pairs: expected a pair of integers, got (0, 1, 2)"),
        ((0,), "value_pairs: expected a pair of integers, got (0,)"),
        (0, "value_pairs: expected a list of integers, got 0"),
        (None, "value_pairs: expected a list of integers, got None"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            shatter_witness(4, 2, [item, (0, 1), (0, 1), (0, 1)])
    with pytest.raises(ValueError, match="value_pairs: expected a list of pairs, got 5"):
        shatter_witness(4, 2, 5)
    assert shatter_witness(4, 2, np.array([(0, 1)] * 4)) == shatter_witness(4, 2)


def test_verify_shattered_worked_example():
    w = shatter_witness(6, 2)
    result = verify_shattered(w)
    assert result.ok
    assert len(result.certificates) == 4
    assert result.failing_subset is None
    assert [c.subset_index for c in result.certificates] == [0, 1, 2, 3]


def test_verify_detects_corruption():
    # flip one bit inside the binary-word block; the stored points no longer
    # agree with the matrix and some subset must expose that
    w = shatter_witness(10, 2)
    block_col = w.k - 1  # 0-based: first word column
    corrupted_rows = [list(row) for row in w.matrix]
    corrupted_rows[0][block_col + 2] ^= 1
    corrupted = dataclasses.replace(w, matrix=tuple(tuple(r) for r in corrupted_rows))
    result = verify_shattered(corrupted)
    assert not result.ok
    assert result.failing_subset is not None


W8 = shatter_witness(8, 2)  # l_points 2


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"l_points": 3}, "witness matrix must be 3 rows of 8 entries, got 2"),
        ({"n": 9}, "witness matrix must be 2 rows of 9 entries, got 8 entries at index 0"),
        ({"matrix": W8.matrix[:1]}, "witness matrix must be 2 rows of 8 entries, got 1"),
        ({"matrix": (W8.matrix[0], W8.matrix[1][:-1])}, "witness matrix must be 2 rows of 8 entries, got 7 entries at index 1"),
        ({"points": W8.points + W8.points[:1]}, "witness points must be 2 rows of 8 entries, got 3"),
        ({"points": (W8.points[0] + (0,), W8.points[1])}, "witness points must be 2 rows of 8 entries, got 9 entries at index 0"),
        ({"value_pairs": W8.value_pairs[:-1]}, "witness value_pairs must be 8 pairs, got 7"),
        ({"value_pairs": ((0, 1, 2),) + W8.value_pairs[1:]}, "witness value_pairs must be 8 pairs, got 3 entries at index 0"),
    ],
    ids=["l_points", "n", "matrix-rows", "matrix-row", "points-rows", "points-row", "value-pairs", "value-pair"],
)
def test_verify_shattered_refuses_a_witness_of_the_wrong_shape(changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_shattered(dataclasses.replace(W8, **changes))


@pytest.mark.parametrize(
    "k, message",
    [
        (0, "need 1 <= k <= n, got k=0, n=8"),
        (9, "need 1 <= k <= n, got k=9, n=8"),
        (10, "need 1 <= k <= n, got k=10, n=8"),
        (True, "k: expected an integer, got True"),
    ],
)
def test_verify_shattered_refuses_a_k_outside_one_to_n(k, message):
    # the error shatter_witness raises for the same n and k
    with pytest.raises(ValueError, match=re.escape(message)):
        shatter_witness(8, k)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_shattered(dataclasses.replace(W8, k=k))


@pytest.mark.parametrize(
    "changes",
    [
        {"points": ((W8.points[0][0] ^ 1,) + W8.points[0][1:], W8.points[1])},
        {"value_pairs": ((1, 0),) + W8.value_pairs[1:]},
    ],
    ids=["points-bit", "value-pair-swapped"],
)
def test_verify_shattered_rejects_a_flipped_bit(changes):
    assert not verify_shattered(dataclasses.replace(W8, **changes)).ok


def reference_verify(witness, k):
    """verify_shattered as a column scan per subset, kept as the reference."""
    lp = witness.l_points
    certs = []
    for idx in range(2**lp):
        s = tuple((idx >> (lp - 1 - r)) & 1 for r in range(lp))
        column = None
        for i in range(1, witness.n + 1):
            if tuple(witness.matrix[r][i - 1] for r in range(lp)) == s:
                column = i
                break
        if column is None:
            return VerifyResult(False, tuple(certs), s)
        positions = tuple(range(1, k)) + (column,)
        values = tuple(witness.value_pairs[p - 1][1] for p in positions)
        members = tuple(
            r for r in range(lp) if all(witness.points[r][p - 1] == v for p, v in zip(positions, values))
        )
        expected = tuple(r for r in range(lp) if s[r] == 1)
        if members != expected:
            return VerifyResult(False, tuple(certs), s)
        certs.append(Certificate(idx, s, column, positions, values, members))
    return VerifyResult(True, tuple(certs), None)


def with_column(w, j, column, remap_points):
    """w with 0-based matrix column j replaced; points follow the new matrix
    only when remap_points is set."""
    matrix = tuple(row[:j] + (column[r],) + row[j + 1:] for r, row in enumerate(w.matrix))
    points = w.points
    if remap_points:
        points = tuple(tuple(w.value_pairs[i][bit] for i, bit in enumerate(row)) for row in matrix)
    return dataclasses.replace(w, matrix=matrix, points=points)


def test_verify_shattered_matches_column_scan_on_grid():
    for k in (1, 2, 3):
        for n in range(k, 40):
            w = shatter_witness(n, k)
            assert verify_shattered(w) == reference_verify(w, k), (n, k)


W10 = shatter_witness(10, 1)  # l_points 3: word columns 1..8, zero columns 9 and 10
W10_K2 = shatter_witness(10, 2)
W9_K3 = shatter_witness(9, 3)  # l_points 2: head 1..2, word columns 3..6


@pytest.mark.parametrize(
    "w, k, ok, check",
    [
        (shatter_witness(3, 2, value_pairs=[(0, 2), (1, 0), (5, 7)]), 2, True, None),
        (shatter_witness(9, 2, value_pairs=[(j + 3, j) for j in range(9)]), 2, True, None),
        # one bit of the word block flipped; the points still show the old bit
        (with_column(W10_K2, 3, (1, 1, 0), remap_points=False), 2, False, None),
        # row 0's point at position 2 leaves the head; the all-ones subset
        # picks column 1, so only the head test sees the flip
        (dataclasses.replace(W9_K3, points=((1, 0) + W9_K3.points[0][2:], W9_K3.points[1])), 3, False,
         lambda r: r.failing_subset == (1, 0) and len(r.certificates) == 2),
        # column 1 now repeats subset 5's word: the first match picks column 1
        (with_column(W10, 0, (1, 0, 1), remap_points=True), 1, True,
         lambda r: r.certificates[5].column == 1 and r.certificates[0].column == 9),
        # the same, but the points still show the old column 1: no fallback to column 6
        (with_column(W10, 0, (1, 0, 1), remap_points=False), 1, False,
         lambda r: r.failing_subset == (1, 0, 1) and len(r.certificates) == 5),
        # no column holds subset 3's word: partial certificates 0..2
        (with_column(W10, 3, (0, 0, 0), remap_points=True), 1, False,
         lambda r: r.failing_subset == (0, 1, 1) and len(r.certificates) == 3),
    ],
    ids=["value-pairs-3", "value-pairs-9", "flipped-bit", "flipped-head-bit", "duplicate-column",
         "duplicate-column-stale-points", "missing-column"],
)
def test_verify_shattered_matches_column_scan(w, k, ok, check):
    result = verify_shattered(w)
    assert result == reference_verify(w, k)
    assert result.ok == ok
    assert check is None or check(result)


def test_witness_grid_small():
    for k in (1, 2, 3):
        for n in range(k, 20):
            assert verify_shattered(shatter_witness(n, k)).ok


def test_witness_json_round_trip(tmp_path):
    w = shatter_witness(9, 3)
    result = verify_shattered(w)
    path = tmp_path / "wit.json"
    save_witness(w, result, path)
    # the witness JSON is an output only; read it back field by field
    with open(path) as f:
        data = json.load(f)
    written = data["witness"]
    assert (written["n"], written["k"], written["l_points"]) == (w.n, w.k, w.l_points)
    for name in ("matrix", "value_pairs", "points"):
        assert tuple(map(tuple, written[name])) == getattr(w, name)
    verification = data["verification"]
    assert verification["ok"] is result.ok and verification["failing_subset"] is None
    certificates = tuple(
        Certificate(c["subset_index"], tuple(c["indicator"]), c["column"], tuple(c["positions"]),
                    tuple(c["values"]), tuple(c["members"]))
        for c in verification["certificates"]
    )
    assert certificates == result.certificates
    save_witness(w, result, tmp_path / "wit2.json")
    assert (tmp_path / "wit2.json").read_bytes() == path.read_bytes()


def test_witness_rejects_bad_domain():
    with pytest.raises(ValueError):
        shatter_witness(2, 3)
    with pytest.raises(ValueError):
        shatter_witness(0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: cylinder_count(4, True, 2), "k: expected an integer, got True"),
    (lambda: cylinder_count(4.5, 2, 2), "n: expected an integer, got 4.5"),
    (lambda: cylinder_count(4, 2, "2"), "d: expected an integer, got '2'"),
    (lambda: vc_upper_bound(4, 2, 2.5), "d: expected an integer, got 2.5"),
    (lambda: vc_lower_bound(4.0, 2), "n: expected an integer, got 4.0"),
    (lambda: shatter_witness(8, 3.0), "k: expected an integer, got 3.0"),
    (lambda: required_sample_size(4, 2.0, 2, 0.1, 0.1), "k: expected an integer, got 2.0"),
    (lambda: risk_bound(math.nan, 10, 0.1), "h must be finite and > 0, got nan"),
    (lambda: risk_bound("3", 10, 0.1), "h: expected a number, got '3'"),
    (lambda: risk_bound(3.0, 10.5, 0.1), "l: expected an integer, got 10.5"),
    (lambda: risk_bound(3.0, 10, "0.1"), "epsilon: expected a number, got '0.1'"),
    (lambda: risk_bound(3.0, 10, None), "epsilon: expected a number, got None"),
    (lambda: risk_bound(3.0, 10, True), "epsilon: expected a number, got True"),
    (lambda: required_sample_size(8, 3, 2, "0.1", 0.05), "epsilon: expected a number, got '0.1'"),
    (lambda: required_sample_size(8, 3, 2, None, 0.05), "epsilon: expected a number, got None"),
    (lambda: required_sample_size(8, 3, 2, True, 0.05), "epsilon: expected a number, got True"),
    (lambda: required_sample_size(8, 3, 2, 0.1, "0.1"), "delta_risk: expected a number, got '0.1'"),
    (lambda: required_sample_size(8, 3, 2, 0.1, None), "delta_risk: expected a number, got None"),
    (lambda: required_sample_size(8, 3, 2, 0.1, True), "delta_risk: expected a number, got True"),
    (lambda: vc_upper_bound(4, 2, 2, tight="no"), "tight must be a bool, got 'no'"),
    (lambda: vc_upper_bound(4, 2, 2, tight=1), "tight must be a bool, got 1"),
])
def test_bounds_refuse_non_integer_sizes_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

