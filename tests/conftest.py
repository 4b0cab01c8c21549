import numpy as np
import pytest

from tuplebn import DiscreteDag, factorized_joint


def full_sum_marginal(joint, pos):
    """Reference: one numpy sum of the dense joint over every axis not in
    pos, flat. ``marginal`` must give these values bit for bit."""
    drop = tuple(a for a in range(joint.n) if a + 1 not in pos)
    return np.ascontiguousarray(joint.array.sum(axis=drop) if drop else joint.array).reshape(-1)


@pytest.fixture
def chain_dag():
    # X1 -> X2 -> X3 with strictly positive CPTs
    return DiscreteDag(
        3,
        (2, 2, 2),
        1,
        ((), (1,), (2,)),
        [
            np.array([[0.7, 0.3]]),
            np.array([[0.8, 0.2], [0.1, 0.9]]),
            np.array([[0.9, 0.1], [0.4, 0.6]]),
        ],
    )


@pytest.fixture
def chain_joint(chain_dag):
    return factorized_joint(chain_dag)


@pytest.fixture
def xor_dag():
    # X3 = X1 xor X2 with fair independent inputs; X3 depends on both
    # parents jointly but is pairwise independent of each
    return DiscreteDag(
        3,
        (2, 2, 2),
        2,
        ((), (), (1, 2)),
        [
            np.array([[0.5, 0.5]]),
            np.array([[0.5, 0.5]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
        ],
    )


@pytest.fixture
def xor_joint(xor_dag):
    return factorized_joint(xor_dag)


@pytest.fixture
def product_dag():
    # three mutually independent variables
    return DiscreteDag(
        3,
        (2, 3, 2),
        0,
        ((), (), ()),
        [
            np.array([[0.6, 0.4]]),
            np.array([[0.2, 0.3, 0.5]]),
            np.array([[0.25, 0.75]]),
        ],
    )


@pytest.fixture
def product_joint(product_dag):
    return factorized_joint(product_dag)
