import itertools

import numpy as np
import pytest

from tuplebn import (
    EXACT_TOL,
    DiscreteDag,
    ExactMarginalProvider,
    InvalidDagError,
    ProviderCiDecider,
    TupleSizeError,
    dependence_statistic,
    factorized_joint,
    is_markov_relative,
    marginal,
    random_dag,
)


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
    assert provider.access_log.queries == 0
    # numpy integers are integers
    assert np.array_equal(marginal(chain_joint, (np.int64(2),)), marginal(chain_joint, (2,)))
    assert provider.table((np.int32(1), np.uint8(3))) is provider.table((1, 3))
    assert dependence_statistic(provider, (np.int64(3),), (np.int64(1),), (np.int64(2),), EXACT_TOL) == (
        dependence_statistic(provider, (3,), (1,), (2,), EXACT_TOL)
    )


def old_marginal_probs(joint, pos):
    """Reference: one numpy sum of the dense joint over every axis not in
    pos. marginal must give these values bit for bit."""
    keep = set(p - 1 for p in pos)
    drop = tuple(a for a in range(joint.n) if a not in keep)
    probs = joint.array.sum(axis=drop) if drop else joint.array
    return np.ascontiguousarray(probs).reshape(-1)


@pytest.mark.parametrize("cards, seed", [
    ((2,) * 8, 0),
    ((3,) * 7, 1),
    ((2, 3, 2, 4, 2, 3, 5), 2),
    ((1, 2, 1, 3, 1, 2, 2, 1), 3),
    ((2, 1, 3, 12, 2, 2, 1), 4),
])
def test_marginal_bit_identical_to_full_sum(cards, seed):
    joint = factorized_joint(random_dag(len(cards), 2, cards, seed=seed))
    provider = ExactMarginalProvider(joint, 5)
    for k in range(1, 6):
        for pos in itertools.combinations(range(1, joint.n + 1), k):
            expected = old_marginal_probs(joint, pos).tobytes()
            m = marginal(joint, pos)
            assert m.tobytes() == expected, pos
            assert not m.flags.writeable
            assert provider.table(pos).tobytes() == expected, pos
    for m in range(joint.n + 1):
        p = joint.prefix(m)
        assert not p.flags.writeable
        assert joint.prefix(m) is p
    assert joint.prefix(joint.n) is joint.probs


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


def test_is_markov_relative_true_and_false(chain_joint, chain_dag):
    assert is_markov_relative(chain_joint, chain_dag)
    wrong = DiscreteDag(
        3, (2, 2, 2), 1, ((), (1,), (1,)),
        [chain_dag.cpts[0], chain_dag.cpts[1], np.array([[0.5, 0.5], [0.5, 0.5]])],
    )
    assert not is_markov_relative(chain_joint, wrong)


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
