import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuplebn import (
    CapacityError,
    DiscreteDag,
    InvalidDagError,
    JointTable,
    dag_from_dict,
    dag_to_dict,
    factorized_joint,
    load_dag,
    random_dag,
    sample,
    save_dag,
)


def rules(exc_info):
    return [(v.node, v.rule) for v in exc_info.value.violations]


def test_validate_dag_accepts_chain(chain_dag):
    again = DiscreteDag(chain_dag.n, chain_dag.cards, chain_dag.delta, chain_dag.parents, chain_dag.cpts)
    assert again == chain_dag


def test_validate_dag_rejects_forward_edge():
    with pytest.raises(InvalidDagError, match="parent index") as exc:
        DiscreteDag(
            2, (2, 2), 1, ((2,), ()),
            [np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, 0.5]])],
        )
    assert rules(exc) == [(1, "parent index >= child")]


def test_validate_dag_rejects_in_degree_above_delta():
    with pytest.raises(InvalidDagError, match="in-degree") as exc:
        DiscreteDag(
            3, (2, 2, 2), 1, ((), (1,), (1, 2)),
            [
                np.array([[0.5, 0.5]]),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                np.array([[0.5, 0.5]] * 4),
            ],
        )
    assert rules(exc) == [(3, "in-degree exceeds bound")]


def test_validate_dag_rejects_bad_row_sum():
    with pytest.raises(InvalidDagError, match="sum") as exc:
        DiscreteDag(1, (2,), 0, ((),), [np.array([[0.6, 0.6]])])
    assert rules(exc) == [(1, "cpt row does not sum to 1")]


def test_validate_dag_rejects_wrong_cpt_shape():
    with pytest.raises(InvalidDagError, match="cpt shape mismatch") as exc:
        DiscreteDag(
            2, (2, 2), 1, ((), (1,)),
            [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])],  # needs 2 rows
        )
    assert rules(exc) == [(2, "cpt shape mismatch")]


def test_construction_lists_every_violation_in_order():
    with pytest.raises(InvalidDagError) as exc:
        DiscreteDag(
            3, (2, 2, 2), 0, ((), (3,), (1, 1)),
            [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([[0.6, 0.6]] * 2)],
        )
    assert rules(exc) == [
        (2, "parent index >= child"),
        (2, "in-degree exceeds bound"),
        (3, "duplicate parent index"),
        (3, "in-degree exceeds bound"),
        (3, "cpt shape mismatch"),
    ]


@pytest.mark.parametrize(
    "cards,cpts",
    [((2,), [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]] * 2)]), ((0, 2), [np.zeros((1, 0)), np.zeros((0, 2))])],
)
def test_cards_without_a_cpt_shape_are_a_violation(cards, cpts):
    # per-node checks would index a missing cardinality or reduce an empty CPT
    with pytest.raises(InvalidDagError, match="card") as exc:
        DiscreteDag(2, cards, 1, ((), (1,)), cpts)
    assert all(v.node is None for v in exc.value.violations)


def test_violation_messages_print_plain_numbers():
    with pytest.raises(InvalidDagError) as exc:
        DiscreteDag(2, (2, 2), 0, ((), ()), [np.array([[0.0, 1.0000000000000002]]), np.array([[0.6, 0.6]])])
    assert str(exc.value) == (
        "invalid DAG: node 1: probability out of [0,1] (min=0.0, max=1.0000000000000002); "
        "node 2: cpt row does not sum to 1 (row 0 sums to 1.2)"
    )


@pytest.mark.parametrize(
    "n,cards,delta,parents,name",
    [
        (2, (2, 2.9), 1, ((), (1,)), "cards"),
        (2, (2, 2), 1.5, ((), (1,)), "delta"),
        (2, (2, 2), 1, ((), (1.7,)), "parents"),
        ("2", (2, 2), 1, ((), (1,)), "n"),
    ],
    ids=["cards", "delta", "parents", "n"],
)
def test_fractional_or_string_dag_inputs_are_refused_not_truncated(n, cards, delta, parents, name):
    cpts = [np.full((1, 2), 0.5), np.full((2, 2), 0.5)]
    with pytest.raises(InvalidDagError, match=f"{name}: expected an integer"):
        DiscreteDag(n, cards, delta, parents, cpts)
    # numpy integers are integers
    dag = DiscreteDag(np.int64(2), np.array([2, 2]), np.int32(1), ((), (np.uint8(1),)), cpts)
    assert (dag.n, dag.cards, dag.delta, dag.parents) == (2, (2, 2), 1, ((), (1,)))


def test_factorized_joint_matches_hand_computation(chain_dag):
    joint = factorized_joint(chain_dag)
    arr = joint.array
    # brute force the product over all 8 configurations
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                expected = (
                    chain_dag.cpts[0][0, x1]
                    * chain_dag.cpts[1][x1, x2]
                    * chain_dag.cpts[2][x2, x3]
                )
                assert arr[x1, x2, x3] == pytest.approx(expected, abs=1e-15)
    assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def test_factorized_joint_chain_corner_values(chain_joint):
    arr = chain_joint.array
    assert arr[0, 0, 0] == pytest.approx(0.504, abs=1e-12)  # 0.7*0.8*0.9
    assert arr[1, 1, 1] == pytest.approx(0.162, abs=1e-12)  # 0.3*0.9*0.6


def test_factorized_joint_capacity_guard():
    # 2**25 entries is above JOINT_CAPACITY; the guard fires before allocating
    dag = random_dag(25, 1, (2,) * 25, seed=0)
    with pytest.raises(CapacityError, match=str(2**25)):
        factorized_joint(dag)


def test_joint_table_validates_mass():
    with pytest.raises(ValueError):
        JointTable((2,), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        JointTable((2,), np.array([1.2, -0.2]))
    with pytest.raises(ValueError, match="non-negative"):
        JointTable((2,), np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="sum to"):
        JointTable((2,), np.array([np.inf, 0.0]))
    # 1e-8 off is above JOINT_SUM_TOL = 1e-10
    with pytest.raises(ValueError, match="sum to"):
        JointTable((2,), [0.5, 0.5 + 1e-8])


def test_joint_table_refuses_fractional_cards():
    with pytest.raises(ValueError, match="cards: expected an integer, got 2.5"):
        JointTable((2.5, 2), np.full(4, 0.25))
    assert JointTable(np.array([2, 2]), np.full(4, 0.25)).cards == (2, 2)


@pytest.mark.parametrize("n,delta,d", [(1, 0, 2), (4, 0, 3), (6, 1, 2), (10, 2, 3), (5, 4, 2)])
def test_random_dag_is_valid_and_floored(n, delta, d):
    dag = random_dag(n, delta, (d,) * n, seed=123, floor=0.05)
    for j in range(1, n + 1):
        assert len(dag.parents[j - 1]) <= min(delta, j - 1)
        assert np.all(dag.cpts[j - 1] >= 0.05 - 1e-12)


def test_random_dag_determinism():
    a = random_dag(6, 2, (2, 3, 2, 3, 2, 2), seed=99)
    b = random_dag(6, 2, (2, 3, 2, 3, 2, 2), seed=99)
    c = random_dag(6, 2, (2, 3, 2, 3, 2, 2), seed=100)
    assert a == b
    assert a != c


def test_random_dag_delta_zero_is_edgeless():
    dag = random_dag(5, 0, (2,) * 5, seed=1)
    assert dag.parents == ((), (), (), (), ())


def test_random_dag_rejects_excessive_floor():
    # floor * cardinality must leave room for a distribution
    with pytest.raises(ValueError):
        random_dag(3, 1, (4,) * 3, seed=0, floor=0.3)


@pytest.mark.parametrize("kwargs, name", [
    ({"alpha": math.nan}, "alpha"), ({"alpha": math.inf}, "alpha"), ({"alpha": 0.0}, "alpha"),
    ({"floor": math.nan}, "floor"), ({"floor": math.inf}, "floor"),
])
def test_random_dag_refuses_nan_and_infinite_reals(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        random_dag(3, 1, 2, 0, **kwargs)


@pytest.mark.parametrize("name, value", [("alpha", "1"), ("alpha", True), ("floor", "0.01"), ("floor", None)])
def test_random_dag_refuses_non_numbers_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name}: expected a number, got"):
        random_dag(3, 1, 2, 0, **{name: value})
    assert random_dag(3, 1, 2, 0, **{name: np.float64(0.5) if name == "alpha" else 0}) is not None


@pytest.mark.parametrize("seed", [True, -1, 1.5])
@pytest.mark.parametrize("draw", ["random_dag", "sample"])
def test_seeds_are_read_by_the_integer_rule(chain_dag, draw, seed):
    # numpy would run True as seed 1, and name neither -1 nor 1.5 as the seed
    with pytest.raises(ValueError, match="^seed"):
        if draw == "random_dag":
            random_dag(3, 1, 2, seed)
        else:
            sample(chain_dag, 10, seed)


@pytest.mark.parametrize("card", [np.int64(2), np.uint8(2), 2])
def test_random_dag_expands_an_integer_scalar_cards(card):
    assert random_dag(3, 1, card, 0) == random_dag(3, 1, (2, 2, 2), 0)


def test_random_dag_refuses_fractional_cards():
    with pytest.raises(ValueError, match="cards: expected an integer, got 2.5"):
        random_dag(3, 1, (2, 2.5, 2), 0)
    assert random_dag(3, 1, np.array([2, 2, 2]), 0) == random_dag(3, 1, (2, 2, 2), 0)


def test_dag_dict_round_trip(chain_dag):
    data = dag_to_dict(chain_dag)
    again = dag_from_dict(data)
    assert again == chain_dag


def test_dag_file_round_trip_bit_exact(tmp_path):
    dag = random_dag(7, 2, (2, 3, 2, 2, 3, 2, 4), seed=17)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_dag(dag, p1)
    again = load_dag(p1)
    assert again == dag
    save_dag(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_dag_validates(tmp_path, chain_dag):
    data = dag_to_dict(chain_dag)
    data["parents"][1] = [3]  # node 2 with a later parent
    with pytest.raises(InvalidDagError, match="parent index"):
        dag_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidDagError, match="parent index"):
        load_dag(path)


def test_load_dag_rejects_nan_probabilities(tmp_path, chain_dag):
    data = dag_to_dict(chain_dag)
    data["cpts"][1][1] = [math.nan, math.nan]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidDagError, match="node 2: probability out of") as exc:
        load_dag(path)
    assert {(v.node, v.rule) for v in exc.value.violations} == {
        (2, "probability out of [0,1]"), (2, "cpt row does not sum to 1"),
    }


def test_dag_json_is_plain_data(tmp_path):
    dag = random_dag(3, 1, (2,) * 3, seed=5)
    path = tmp_path / "dag.json"
    save_dag(dag, path)
    data = json.loads(path.read_text())
    assert data["n"] == 3
    assert data["delta"] == 1
    assert len(data["parents"]) == 3
    assert len(data["cpts"]) == 3


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    delta=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_random_dag_always_validates(n, delta, seed):
    dag = random_dag(n, delta, (2,) * n, seed=seed)
    joint = factorized_joint(dag)
    assert math.isclose(float(joint.probs.sum()), 1.0, abs_tol=1e-10)
