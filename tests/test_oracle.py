import itertools

import numpy as np
import pytest

from tuplebn import (
    EXACT_TOL,
    DiscreteDag,
    TupleSizeError,
    conditional_independent,
    exact_provider,
    factorized_joint,
    is_markov_relative,
    marginal,
    markov_parents,
    random_dag,
)


def test_marginal_of_chain(chain_joint):
    m2 = marginal(chain_joint, (2,))
    assert m2.probs == pytest.approx([0.59, 0.41], abs=1e-12)
    m12 = marginal(chain_joint, (1, 2))
    assert m12.probs == pytest.approx([0.56, 0.14, 0.03, 0.27], abs=1e-12)


def test_marginal_full_set_is_identity(chain_joint):
    m = marginal(chain_joint, (1, 2, 3))
    assert np.allclose(m.probs, chain_joint.probs)


def test_marginal_rejects_bad_positions(chain_joint):
    with pytest.raises(ValueError):
        marginal(chain_joint, ())
    with pytest.raises(ValueError):
        marginal(chain_joint, (2, 1))
    with pytest.raises(ValueError):
        marginal(chain_joint, (0,))
    with pytest.raises(ValueError):
        marginal(chain_joint, (4,))


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
    provider = exact_provider(joint, 5)
    for k in range(1, 6):
        for pos in itertools.combinations(range(1, joint.n + 1), k):
            expected = old_marginal_probs(joint, pos).tobytes()
            assert marginal(joint, pos).probs.tobytes() == expected, pos
            assert provider.table(pos).tobytes() == expected, pos
    for m in range(joint.n + 1):
        p = joint.prefix(m)
        assert not p.flags.writeable
        assert joint.prefix(m) is p
    assert joint.prefix(joint.n) is joint.probs


def test_chain_screening(chain_joint):
    # X1 and X3 talk only through X2
    assert conditional_independent(chain_joint, (1,), (3,), (2,))
    assert not conditional_independent(chain_joint, (1,), (3,), ())
    assert not conditional_independent(chain_joint, (1,), (2,), ())


def test_xor_pairwise_but_not_jointly_independent(xor_joint):
    assert conditional_independent(xor_joint, (1,), (3,), ())
    assert conditional_independent(xor_joint, (2,), (3,), ())
    assert not conditional_independent(xor_joint, (1,), (3,), (2,))
    assert not conditional_independent(xor_joint, (3,), (1, 2), ())


def test_product_measure_everything_independent(product_joint):
    assert conditional_independent(product_joint, (1,), (2,), ())
    assert conditional_independent(product_joint, (1,), (3,), (2,))
    assert conditional_independent(product_joint, (1, 2), (3,), ())


def test_conditional_independent_rejects_overlap(chain_joint):
    with pytest.raises(ValueError):
        conditional_independent(chain_joint, (1,), (1,), (2,))


def test_empty_side_is_vacuously_independent(chain_joint):
    assert conditional_independent(chain_joint, (), (3,), (2,))
    assert conditional_independent(chain_joint, (1,), (), ())


def test_markov_parents_chain(chain_joint):
    assert markov_parents(chain_joint, 1) == ()
    assert markov_parents(chain_joint, 2) == (1,)
    assert markov_parents(chain_joint, 3) == (2,)


def test_markov_parents_product(product_joint):
    for j in (1, 2, 3):
        assert markov_parents(product_joint, j) == ()


def test_markov_parents_refuses_zeros(xor_joint):
    # the xor joint has zero-probability configurations
    with pytest.raises(ValueError):
        markov_parents(xor_joint, 3)


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
        [np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((4, 2))],
    )
    assert is_markov_relative(chain_joint, fat)


def test_provider_budget_and_log(chain_joint):
    provider = exact_provider(chain_joint, 2)
    provider.table((1, 2))
    provider.table((3,))
    with pytest.raises(TupleSizeError):
        provider.table((1, 2, 3))
    assert provider.access_log.max_size == 2
    assert provider.access_log.queries == 2  # the refused query is not recorded


def test_provider_cache_returns_same_array(chain_joint):
    provider = exact_provider(chain_joint, 3)
    a = provider.table((1, 3))
    b = provider.table((1, 3))
    assert a is b
    assert not a.flags.writeable


def test_provider_query_scalar(chain_joint):
    provider = exact_provider(chain_joint, 3)
    assert provider.query((1, 2), (0, 0)) == pytest.approx(0.56, abs=1e-12)
    assert provider.query((2,), (1,)) == pytest.approx(0.41, abs=1e-12)
    with pytest.raises(ValueError):
        provider.query((1,), (2,))  # value out of range


def test_markov_parents_match_structure_on_random_instances():
    # strictly positive instances: the minimal screening set is the true one
    for seed in range(10):
        dag = random_dag(5, 1, (2,) * 5, seed=seed, floor=0.1)
        joint = factorized_joint(dag)
        for j in range(1, 6):
            found = markov_parents(joint, j)
            # found must screen j from all other predecessors
            rest = tuple(p for p in range(1, j) if p not in found)
            assert conditional_independent(joint, (j,), rest, found, EXACT_TOL)
            assert len(found) <= len(dag.parents[j - 1])
