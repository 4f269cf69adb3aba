"""Tests for the run-artifact writers and readers."""

import os

import numpy as np
import pytest

from dmrom import artifacts


class Boom(Exception):
    pass


def failing_rows():
    yield ["1.0"]
    raise Boom


def test_matrix_format_is_csv_rows_of_repr_floats(tmp_path):
    path = tmp_path / "m.csv"
    artifacts.write_matrix(path, [[0.1, -2.0], [1e-300, 3.0]], ["a", "b"])
    assert path.read_bytes() == b"a,b\r\n0.1,-2.0\r\n1e-300,3.0\r\n"
    values, names = artifacts.read_matrix(path)
    assert names == ["a", "b"]
    assert np.array_equal(values, [[0.1, -2.0], [1e-300, 3.0]])


def test_matrix_with_no_rows_keeps_its_width(tmp_path):
    path = tmp_path / "m.csv"
    artifacts.write_matrix(path, np.zeros((0, 3)), ["a", "b", "c"])
    values, _ = artifacts.read_matrix(path)
    assert values.shape == (0, 3)


def test_read_matrix_rejects_ragged_and_non_numeric_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 2 has 1 fields, expected 2"):
        artifacts.read_matrix(path)
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=r"row 2, column 2"):
        artifacts.read_matrix(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        artifacts.read_matrix(path)


@pytest.mark.parametrize(
    "write",
    [
        lambda p: artifacts.write_rows(p, ["x"], failing_rows()),
        lambda p: artifacts.write_json(p, {"a": [1.0] * 10_000, "b": object()}),
    ],
    ids=["rows", "json"],
)
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous\n")
    with pytest.raises((Boom, TypeError)):
        write(path)
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_json_document_format(tmp_path):
    path = tmp_path / "doc.json"
    artifacts.write_json(path, {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n "a": [\n  0.5\n ],\n "b": 1\n}\n'
    assert artifacts.read_json(path, "doc", ("a", "b")) == {"a": [0.5], "b": 1}


def test_read_json_names_the_file_when_corrupt_or_incomplete(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match=r"corrupt model file .*doc\.json"):
        artifacts.read_json(path, "model file")
    path.write_text('{"a": 1}')
    with pytest.raises(ValueError, match=r"corrupt model file .*doc\.json: missing 'b'"):
        artifacts.read_json(path, "model file", ("a", "b"))
    path.write_text("[1]")
    with pytest.raises(ValueError, match="not a JSON object"):
        artifacts.read_json(path, "model file")
