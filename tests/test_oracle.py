import itertools
import re

import numpy as np
import pytest

from tuplebn import (
    EXACT_TOL,
    DiscreteDag,
    EmpiricalMarginalProvider,
    ExactMarginalProvider,
    InvalidDagError,
    JointTable,
    ProviderCiDecider,
    TupleSizeError,
    dependence_statistic,
    factorized_joint,
    is_markov_relative,
    marginal,
    random_dag,
    sample,
    tuple_frequencies,
)
from tuplebn.experiment import _chunk_index, _set_halves
from tuplebn.oracle import _scatter_fold

from conftest import full_sum_marginal


def exact_independent(joint, X, Y, Z):
    return ProviderCiDecider(ExactMarginalProvider(joint, joint.n), EXACT_TOL).decide(X, Y, Z)


def test_marginal_of_chain(chain_joint):
    assert marginal(chain_joint, (2,)) == pytest.approx([0.59, 0.41], abs=1e-12)
    assert marginal(chain_joint, (1, 2)) == pytest.approx([0.56, 0.14, 0.03, 0.27], abs=1e-12)


def test_marginal_full_set_is_identity(chain_joint):
    assert np.allclose(marginal(chain_joint, (1, 2, 3)), chain_joint.probs)


def test_marginal_rejects_bad_positions(chain_joint):
    with pytest.raises(ValueError):
        marginal(chain_joint, ())
    with pytest.raises(ValueError):
        marginal(chain_joint, (2, 1))
    with pytest.raises(ValueError):
        marginal(chain_joint, (0,))
    with pytest.raises(ValueError):
        marginal(chain_joint, (4,))


def test_fractional_positions_are_refused_not_truncated(chain_joint):
    provider = ExactMarginalProvider(chain_joint, 3)
    calls = [
        lambda: marginal(chain_joint, (1.5,)),
        lambda: provider.table((1.9, 2.2)),
        lambda: dependence_statistic(provider, (3.5,), (1.2,), (), EXACT_TOL),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"positions must be integers, got \(\d\.\d"):
            call()
    # a bool is not read as position 0 or 1
    for call in [
        lambda: marginal(chain_joint, (True, 2)),
        lambda: provider.table((True, 2)),
        lambda: provider.table((np.True_, 2)),
        lambda: dependence_statistic(provider, (True,), (2,), (), EXACT_TOL),
    ]:
        with pytest.raises(ValueError, match=r"positions must be integers, got \((np\.)?True"):
            call()
    assert provider.access_log.queries == 0
    # numpy integers are integers
    assert np.array_equal(marginal(chain_joint, (np.int64(2),)), marginal(chain_joint, (2,)))
    assert provider.table((np.int32(1), np.uint8(3))) is provider.table((1, 3))
    assert dependence_statistic(provider, (np.int64(3),), (np.int64(1),), (np.int64(2),), EXACT_TOL) == (
        dependence_statistic(provider, (3,), (1,), (2,), EXACT_TOL)
    )


@pytest.mark.parametrize("cards, seed", [
    ((2,) * 8, 0),
    ((3,) * 7, 1),
    ((2, 3, 2, 4, 2, 3, 5), 2),
    ((1, 2, 1, 3, 1, 2, 2, 1), 3),
    ((2, 1, 3, 12, 2, 2, 1), 4),
    # the largest prefixes, of 2**13 entries and more
    ((2,) * 15, 5),
    ((3,) * 9, 6),
    ((1,) + (2,) * 14, 7),
])
def test_marginal_bit_identical_to_full_sum(cards, seed):
    joint = factorized_joint(random_dag(len(cards), 2, cards, seed=seed))
    provider = ExactMarginalProvider(joint, 5)
    k_max = 5 if joint.n < 9 else 3  # the large joints read fewer sets, to keep the test short
    for k in range(1, k_max + 1):
        for pos in itertools.combinations(range(1, joint.n + 1), k):
            expected = full_sum_marginal(joint, pos).tobytes()
            m = marginal(joint, pos)
            assert m.tobytes() == expected, pos
            assert not m.flags.writeable
            assert provider.table(pos).tobytes() == expected, pos
    for m in range(joint.n + 1):
        p = joint.prefix(m)
        assert not p.flags.writeable
        assert joint.prefix(m) is p
    assert joint.prefix(joint.n) is joint.probs



def negative_zero_joint(n):
    """A binary joint whose entries with x_n = 1 are all -0.0."""
    probs = factorized_joint(random_dag(n, 2, 2, seed=n)).array.copy()
    probs[..., 1] = -0.0
    probs /= probs.sum()
    return JointTable((2,) * n, probs)


@pytest.mark.parametrize("n", [8, 14])
def test_marginal_keeps_negative_zero(n):
    # numpy's row fold starts from 0.0, so a cell whose entries are all
    # -0.0 sums to 0.0; the fold of a large prefix must agree
    joint = negative_zero_joint(n)
    for pos in [(3, n), (n,), (1, 2, n)]:
        m = marginal(joint, pos)
        assert m.tobytes() == full_sum_marginal(joint, pos).tobytes(), pos


@pytest.mark.parametrize("make", [
    lambda: negative_zero_joint(8),
    lambda: negative_zero_joint(14),
    lambda: factorized_joint(random_dag(8, 2, (1, 2, 1, 3, 1, 2, 2, 1), seed=3)),
    lambda: factorized_joint(random_dag(7, 2, (2, 1, 3, 12, 2, 2, 1), seed=4)),
], ids=["negative-zero-8", "negative-zero-14", "card-1-variables", "mixed-cards"])
def test_scatter_fold_of_many_sets_matches_each_set(make):
    # the deviation sweep folds a chunk of the sets of one m in one call,
    # by an index joined from the sets' halves: each set's cells must have
    # the bits of the full sum, -0.0 cells too
    joint = make()
    groups = {}
    for k in (1, 2, 3):
        for pos in itertools.combinations(range(1, joint.n + 1), k):
            groups.setdefault(max((p for p in pos if joint.cards[p - 1] > 1), default=0), []).append(pos)
    for m, sets in groups.items():
        prefix = joint.prefix(m)
        kept = [[p - 1 for p in pos if p <= m] for pos in sets]
        folded = _scatter_fold(prefix, *_chunk_index(_set_halves(joint.cards[:m], kept), slice(None)))
        expected = np.concatenate([full_sum_marginal(joint, pos) for pos in sets])
        assert folded.tobytes() == expected.tobytes(), m


def test_chain_screening(chain_joint):
    # X1 and X3 talk only through X2
    assert exact_independent(chain_joint, (1,), (3,), (2,))
    assert not exact_independent(chain_joint, (1,), (3,), ())
    assert not exact_independent(chain_joint, (1,), (2,), ())


def test_xor_pairwise_but_not_jointly_independent(xor_joint):
    assert exact_independent(xor_joint, (1,), (3,), ())
    assert exact_independent(xor_joint, (2,), (3,), ())
    assert not exact_independent(xor_joint, (1,), (3,), (2,))
    assert not exact_independent(xor_joint, (3,), (1, 2), ())


def test_product_measure_everything_independent(product_joint):
    assert exact_independent(product_joint, (1,), (2,), ())
    assert exact_independent(product_joint, (1,), (3,), (2,))
    assert exact_independent(product_joint, (1, 2), (3,), ())


def test_conditional_independent_rejects_overlap(chain_joint):
    with pytest.raises(ValueError):
        exact_independent(chain_joint, (1,), (1,), (2,))


def test_empty_side_is_vacuously_independent(chain_joint):
    assert exact_independent(chain_joint, (), (3,), (2,))
    assert exact_independent(chain_joint, (1,), (), ())
    provider = ExactMarginalProvider(chain_joint, 3)
    assert dependence_statistic(provider, (), (), (), EXACT_TOL) == 0.0
    assert dependence_statistic(provider, (), (3,), (1, 2), EXACT_TOL) == 0.0
    for skip_below, message in (
        (np.nan, "skip_below must be in [0,1), got nan"),
        (-1.0, "skip_below must be in [0,1), got -1.0"),
        ("x", "skip_below: expected a number, got 'x'"),
        (1.0, "skip_below must be in [0,1), got 1.0"),
    ):
        for X in ((), (1,)):  # refused before the empty side ends the query
            with pytest.raises(ValueError, match=re.escape(message)):
                dependence_statistic(provider, X, (3,), (2,), skip_below)
    assert provider.access_log.queries == 0


def old_statistic(provider, X, L, K, skip_below):
    """Reference: the statistic by ``ndarray.sum`` and ``np.max``, as it was
    first written. dependence_statistic must give it bit for bit."""
    if not X or not L:
        return 0.0
    union = tuple(sorted(X + L + K))
    table = provider.table(union).reshape(tuple(provider.cards[p - 1] for p in union))
    ax = {p: i for i, p in enumerate(union)}
    x_axes = tuple(ax[p] for p in X)
    l_axes = tuple(ax[p] for p in L)
    f_k = table.sum(axis=x_axes + l_axes, keepdims=True)
    f_xk = table.sum(axis=l_axes, keepdims=True)
    f_lk = table.sum(axis=x_axes, keepdims=True)
    stat = np.abs(table * f_k - f_xk * f_lk)
    return float(np.max(stat, where=f_k > skip_below, initial=0.0))


@pytest.mark.parametrize("seed", range(4))
def test_statistic_has_the_bits_of_the_sum_and_max_formula(seed):
    # every split of 5 positions into X, L, K and the unqueried, on a random
    # joint with zero cells and on the frequencies of a sample
    rng = np.random.default_rng(seed)
    cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
    probs = rng.random(np.prod(cards)) * (rng.random(np.prod(cards)) < 0.7)
    probs[0] += 0.01
    frequencies = tuple_frequencies(sample(random_dag(5, 4, cards, seed=seed), 500, seed=seed), 5)
    joint = JointTable(cards, probs / probs.sum())
    for provider in (ExactMarginalProvider(joint, 5), EmpiricalMarginalProvider(frequencies)):
        for groups in itertools.product(range(4), repeat=5):
            X, L, K = (tuple(p for p, g in enumerate(groups, 1) if g == side) for side in range(3))
            for skip_below in (0.0, EXACT_TOL, 0.02):
                got = dependence_statistic(provider, X, L, K, skip_below)
                want = old_statistic(provider, X, L, K, skip_below)
                assert type(got) is float and got.hex() == want.hex(), (X, L, K, skip_below)
            decider = ProviderCiDecider(provider, 0.02)
            assert decider.decide(X, L, K) == (old_statistic(provider, X, L, K, 0.02) <= 0.02)


def test_a_context_of_mass_equal_to_the_skip_level_is_left_out(xor_joint):
    # given either value of X2, of mass 1/2, X3 is X1 or its negation
    provider = ExactMarginalProvider(xor_joint, 3)
    assert dependence_statistic(provider, (1,), (3,), (2,), 0.5) == 0.0
    assert dependence_statistic(provider, (1,), (3,), (2,), 0.4375) == 0.0625
    assert ProviderCiDecider(provider, 0.5).decide((1,), (3,), (2,))
    assert not ProviderCiDecider(provider, 0.0625 - EXACT_TOL).decide((1,), (3,), (2,))


@pytest.mark.parametrize("X, L, K, message", [
    ((1,), (1,), (), "index sets must be pairwise disjoint: ((1,), (1,), ())"),
    ((1,), (2,), (2, 3), "index sets must be pairwise disjoint: ((1,), (2,), (2, 3))"),
    ((1, 1), (2,), (), "positions must be sorted and distinct: (1, 1, 2)"),
    ((1,), (2,), (3, 3), "positions must be sorted and distinct: (1, 2, 3, 3)"),
    ((1, 1), (), (), "positions must be sorted and distinct: (1, 1)"),
    ((True,), (2,), (), "positions must be integers, got (True,)"),
    ((1,), (2.0,), (), "positions must be integers, got (2.0,)"),
    ((1,), (2,), (3.5,), "positions must be integers, got (3.5,)"),
])
def test_statistic_and_decider_refuse_bad_sets_alike(chain_joint, X, L, K, message):
    provider = ExactMarginalProvider(chain_joint, 3)
    for query in (lambda: dependence_statistic(provider, X, L, K, EXACT_TOL),
                  lambda: ProviderCiDecider(provider, EXACT_TOL).decide(X, L, K)):
        with pytest.raises(ValueError) as exc:
            query()
        assert str(exc.value) == message
    assert provider.access_log.queries == 0


RANGE = r"position out of range 1\.\.4"
DISJOINT = "index sets must be pairwise disjoint"

BAD_POSITIONS = [
    # a position of 0 or n+1 in each group
    ((0,), (2,), (3,), RANGE, 0),
    ((5,), (2,), (3,), RANGE, 5),
    ((1,), (0,), (3,), RANGE, 0),
    ((1,), (5,), (3,), RANGE, 5),
    ((1,), (2,), (0,), RANGE, 0),
    ((1,), (2,), (5,), RANGE, 5),
    ((1,), (2,), (99,), RANGE, 99),
    # a position in two groups
    ((1,), (1, 2), (3,), DISJOINT, 1),
    ((1,), (2,), (1, 3), DISJOINT, 1),
    ((1,), (2,), (2, 3), DISJOINT, 2),
    ((), (2,), (2,), DISJOINT, 2),
    # a bad conditioning set beside an empty side, which reads no table
    ((), (2,), (99,), RANGE, 99),
    ((1,), (), (0, 3), RANGE, 0),
    ((), (), (5,), RANGE, 5),
]


@pytest.mark.parametrize("X, L, K, message, bad", BAD_POSITIONS, ids=[str(c[:3]) for c in BAD_POSITIONS])
def test_bad_positions_are_named_before_any_query(X, L, K, message, bad):
    provider = ExactMarginalProvider(factorized_joint(random_dag(4, 1, 2, seed=0)), 4)
    decider = ProviderCiDecider(provider, EXACT_TOL)
    pattern = rf"{message}: .*\b{bad}\b"
    with pytest.raises(ValueError, match=pattern):
        dependence_statistic(provider, X, L, K, EXACT_TOL)
    with pytest.raises(ValueError, match=pattern):
        decider.decide(X, L, K)
    assert provider.access_log.queries == 0


def test_is_markov_relative_true_and_false(chain_joint, chain_dag):
    assert is_markov_relative(chain_joint, chain_dag)
    wrong = DiscreteDag(
        3, (2, 2, 2), 1, ((), (1,), (1,)),
        [chain_dag.cpts[0], chain_dag.cpts[1], np.array([[0.5, 0.5], [0.5, 0.5]])],
    )
    assert not is_markov_relative(chain_joint, wrong)
    for tol, message in (
        (np.nan, "tol must be finite and >= 0, got nan"),
        (-1.0, "tol must be finite and >= 0, got -1.0"),
        ("x", "tol: expected a number, got 'x'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            is_markov_relative(chain_joint, chain_dag, tol=tol)


def test_is_markov_relative_superset_of_parents_still_compatible(chain_joint):
    # adding a spurious parent keeps the factorization exact
    fat = DiscreteDag(
        3, (2, 2, 2), 2, ((), (1,), (1, 2)),
        [np.full((1, 2), 0.5), np.full((2, 2), 0.5), np.full((4, 2), 0.5)],
    )
    assert is_markov_relative(chain_joint, fat)


def test_forward_edge_cannot_reach_is_markov_relative():
    # is_markov_relative reads only the parent sets, so it would answer for
    # node 1 listing node 2 as its parent; building that network fails first
    joint = factorized_joint(DiscreteDag(2, (2, 2), 1, ((), ()), [np.array([[0.5, 0.5]])] * 2))
    with pytest.raises(InvalidDagError, match="node 1: parent index >= child"):
        is_markov_relative(joint, DiscreteDag(2, (2, 2), 1, ((2,), ()), [np.full((2, 2), 0.5), np.full((1, 2), 0.5)]))


def test_provider_budget_and_log(chain_joint):
    provider = ExactMarginalProvider(chain_joint, 2)
    provider.table((1, 2))
    provider.table((3,))
    with pytest.raises(TupleSizeError):
        provider.table((1, 2, 3))
    assert provider.access_log.max_size == 2
    assert provider.access_log.queries == 2  # the refused query is not recorded


def test_provider_budget_is_refused_not_truncated(chain_joint):
    for budget in (2.9, "2"):
        with pytest.raises(ValueError, match="max_tuple_size: expected an integer"):
            ExactMarginalProvider(chain_joint, budget)
    assert ExactMarginalProvider(chain_joint, np.int64(2)).max_tuple_size == 2


def test_provider_cache_returns_same_array(chain_joint):
    provider = ExactMarginalProvider(chain_joint, 3)
    a = provider.table((1, 3))
    b = provider.table((1, 3))
    assert a is b
    assert not a.flags.writeable
