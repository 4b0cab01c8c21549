"""The one JSON layout every file the package writes shares: the text of
``json.dumps(data, indent=2)`` and a final newline, byte for byte."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuplebn import model, save_witness, shatter_witness, vcbounds, verify_shattered
from tuplebn.cli import EXIT_OK, main
from tuplebn.model import _compact, _json_pieces, _write_json


def reference(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def dumped(data) -> str:
    return "".join(_json_pieces(data))


# every byte the layout reads, plus escapes, control characters and non-ASCII
text = st.text(st.sampled_from('"\\,:[]{} aZ0\n\t\x00\x1fé 😀'), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 1e-300, 5e-324, math.nan, -math.inf]),
    text,
)
keys = st.one_of(text, st.integers(), st.floats(allow_nan=True), st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(data=documents, block=st.sampled_from([1, 2, 3, 7, model._LAYOUT_BLOCK]))
# a top-level string whose first byte opens it, escapes at its ends
@example(data='\\"', block=1)
@example(data='"\\', block=model._LAYOUT_BLOCK)
@example(data=["\\", {"\\\\": []}, '"'], block=2)
@example(data={"": {}, "a": [[], {}], "b": ([],)}, block=3)
@example(data=[None, 0, -0.0, 1e16, math.nan, -math.inf, "", 'a"b', [[]], [{}]], block=model._LAYOUT_BLOCK)
@example(data=1e16, block=1)
def test_layout_equals_the_indented_dump(data, block):
    # small blocks put cuts inside strings, escapes and runs of brackets
    with mock.patch.object(model, "_LAYOUT_BLOCK", block):
        assert dumped(data) == reference(data)


@settings(max_examples=200, deadline=None)
@given(data=documents, size=st.sampled_from([1, 2, 3]), levels=st.sampled_from([0, 1, 2, 3]))
@example(data={"a": [1, (2, 3), {"b": []}], 1.5: {}, None: [[]]}, size=1, levels=4)
def test_compact_text_in_slices_equals_the_compact_dump(data, size, levels):
    # slices of one to three members, and levels encoded apart down to none
    with mock.patch.object(model, "_ENCODE_SLICE", size), mock.patch.object(model, "_ENCODE_LEVELS", levels):
        assert _compact(data) == json.dumps(data, separators=(",", ":")).encode()


def circular():
    data = {"a": [1]}
    data["a"].append(data)
    return data


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: {"a": [1, 2, 3], "b": np.int64(3)}, TypeError, "Object of type int64 is not JSON serializable"),
        (circular, ValueError, "Circular reference detected"),
    ],
)
def test_a_value_json_cannot_encode_leaves_the_old_file(tmp_path, make, error, message):
    bad = make()
    with pytest.raises(error) as expected:
        json.dumps(bad, indent=2)
    assert str(expected.value) == message
    path = tmp_path / "out.json"
    _write_json({"kept": [1, 2]}, path)
    before = path.read_bytes()
    with pytest.raises(error) as raised:
        _write_json(bad, path)
    assert str(raised.value) == message
    assert path.read_bytes() == before
    with pytest.raises(error):
        _write_json(bad, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


def test_bounds_json_on_stdout_is_the_file_layout(tmp_path, capsys):
    argv = ["bounds", "--n", "8", "--k", "3", "--d", "2", "--epsilon", "0.02", "--delta-risk", "0.05", "--format", "json"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))
    assert out.startswith('{\n  "n": 8,\n') and out.endswith("\n}\n")
    path = tmp_path / "bounds.json"
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    assert path.read_text() == out


def test_witness_file_layout_and_memory(tmp_path):
    witness = shatter_witness(2048, 3)
    result = verify_shattered(witness)
    path = tmp_path / "witness.json"
    save_witness(witness, result, path)
    text = path.read_text()
    assert len(text) == 1_009_966
    assert text == reference(json.loads(text))
    tracemalloc.start()
    try:
        save_witness(witness, result, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 1.44 MiB; test_witness_writer_peak_memory pins it
    assert peak < 4 * 2**20


def test_witness_writer_peak_memory(tmp_path):
    # one C encoder call over the whole witness held a str for each of its
    # tokens until it joined them into the 0.22 MB compact text: 3.14 MiB.
    # A slice of members a call holds the compact bytes, their pieces and
    # one slice's tokens, measured 0.75 MiB; the layout's blocks then add
    # under 1 MiB to the compact text, for 1.44 MiB in all
    witness = shatter_witness(2048, 3)
    result = verify_shattered(witness)
    documents = []
    with mock.patch.object(vcbounds, "_write_json", lambda data, path: documents.append(data)):
        save_witness(witness, result, tmp_path / "witness.json")
    tracemalloc.start()
    try:
        _compact(documents[0])
        compact_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        save_witness(witness, result, tmp_path / "witness.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compact_peak < 2**20
    assert peak < 1.75 * 2**20
