"""One check per input field, made by the constructor that the JSON loader
calls: each bad value below is refused with the same exception and the same
message, naming the field, whether it comes from a file or straight from
Python."""

import json
import math
import re

import numpy as np
import pytest

from tuplebn import DiscreteDag, ExperimentConfig, InvalidDagError, dag_from_dict, dag_to_dict, load_config, load_dag

# 5 stands where a list is due; the others where an integer is due
BAD_INTEGERS = (1.5, 2.0, True, "2", None)
NOT_A_LIST = 5


# (field, index path inside the field, bad value); an empty path replaces the field
DAG_CASES = [
    *((field, at, v) for v in BAD_INTEGERS
      for field, at in (("n", ()), ("delta", ()), ("cards", (1,)), ("parents", (1, 0)))),
    *(("cpts", (1, 0, 0), v) for v in (True, "2", None)),
    *((field, (), NOT_A_LIST) for field in ("cards", "parents", "cpts")),
]
CONFIG_CASES = [
    *((field, (), v) for v in BAD_INTEGERS for field in ("n", "delta", "trials", "seed")),
    *((field, (0,), v) for v in BAD_INTEGERS for field in ("cards", "sample_sizes")),
    *((field, (), v) for v in (True, "2", None, math.nan)
      for field in ("alpha", "floor", "epsilon", "delta_risk", "markov_tol")),
    *((field, (), NOT_A_LIST) for field in ("cards", "sample_sizes", "output_dir")),
    ("output_dir", (), None),
]


def spoiled(data, field, at, value):
    """``data`` after a JSON round trip, as the loader sees it, with
    ``value`` put at index path ``at`` of ``field``."""
    data = json.loads(json.dumps(data))
    keys = (field, *at)
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


def refusal(call, data):
    with pytest.raises(ValueError) as exc:
        call(data)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("field, at, value", DAG_CASES)
def test_network_loader_and_constructor_refuse_alike(chain_dag, field, at, value):
    data = spoiled(dag_to_dict(chain_dag), field, at, value)
    from_file = refusal(dag_from_dict, data)
    direct = refusal(lambda d: DiscreteDag(**d), data)
    assert from_file == direct
    assert from_file[0] is InvalidDagError
    assert f"malformed field ({field}: " in from_file[1]


@pytest.mark.parametrize("field, at, value", CONFIG_CASES)
def test_config_loader_and_constructor_refuse_alike(field, at, value):
    data = spoiled({
        "n": 3, "delta": 1, "cards": [2, 2, 2], "alpha": 1.0, "floor": 0.01, "sample_sizes": [100],
        "epsilon": 0.1, "delta_risk": 0.05, "trials": 1, "seed": 0, "output_dir": "out", "markov_tol": 0.01,
    }, field, at, value)
    from_file = refusal(ExperimentConfig.from_dict, data)
    direct = refusal(lambda d: ExperimentConfig(**d), data)
    assert from_file == direct
    assert from_file[0] is ValueError
    assert from_file[1].startswith(f"config field '{field}'")


@pytest.mark.parametrize("value", BAD_INTEGERS)
def test_config_file_field_d_is_named(value):
    # "d" exists only in the file, so only the loader reads it
    data = {
        "n": 3, "delta": 1, "d": value, "sample_sizes": [100], "epsilon": 0.1, "delta_risk": 0.05,
        "trials": 1, "seed": 0, "output_dir": "out",
    }
    with pytest.raises(ValueError, match="^config field 'd': expected an integer"):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.inf), ("floor", 0.5), ("epsilon", math.inf), ("epsilon", 0.25), ("markov_tol", math.inf),
    ("markov_tol", 0.0),
])
def test_config_refuses_out_of_range_reals(field, value):
    data = {
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100], "epsilon": 0.1, "delta_risk": 0.05,
        "trials": 1, "seed": 0, "output_dir": "out", field: value,
    }
    with pytest.raises(ValueError, match=f"^config field '{field}' must be"):
        ExperimentConfig.from_dict(data)


def test_config_normalises_numpy_and_list_values():
    config = ExperimentConfig(
        n=np.int64(3), delta=np.uint8(1), cards=np.array([2, 2, 2]), alpha=1, floor=np.float64(0.01),
        sample_sizes=[100], epsilon=0.1, delta_risk=0.05, trials=1, seed=0, output_dir="out",
    )
    assert config == ExperimentConfig.from_dict({
        "n": 3, "delta": 1, "d": 2, "sample_sizes": [100], "epsilon": 0.1, "delta_risk": 0.05,
        "trials": 1, "seed": 0, "output_dir": "out",
    })
    assert type(config.n) is int and type(config.alpha) is float and config.cards == (2, 2, 2)


@pytest.mark.parametrize("content", [b"not json", b"\xff{}"])
@pytest.mark.parametrize("load", [load_dag, load_config])
def test_loaders_name_a_file_that_is_not_json(tmp_path, load, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"^JSON file {re.escape(str(path))}: "):
        load(path)
