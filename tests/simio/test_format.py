"""Tests for the SDF container format (determinism is the key property)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import InvalidArgumentError
from repro.simio import FormatError, decode, encode, read_file, write_file


class TestRoundTrip:
    def test_single_variable(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        variables, attrs = decode(encode({"x": arr}))
        np.testing.assert_array_equal(variables["x"], arr)
        assert attrs == {}

    def test_multiple_variables_and_attrs(self):
        data = {
            "rho": np.ones(5),
            "vel": np.linspace(0, 1, 7, dtype=np.float32),
            "count": np.array([3], dtype=np.int64),
        }
        variables, attrs = decode(encode(data, {"timestep": 42, "name": "blast"}))
        assert set(variables) == set(data)
        for name in data:
            np.testing.assert_array_equal(variables[name], data[name])
            assert variables[name].dtype == data[name].dtype
        assert attrs == {"timestep": 42, "name": "blast"}

    def test_empty_container(self):
        variables, attrs = decode(encode({}))
        assert variables == {} and attrs == {}

    def test_zero_length_array(self):
        variables, _ = decode(encode({"empty": np.zeros(0)}))
        assert variables["empty"].shape == (0,)

    def test_multidimensional_shapes_preserved(self):
        arr = np.arange(24, dtype=np.int32).reshape(2, 3, 4)
        variables, _ = decode(encode({"grid": arr}))
        assert variables["grid"].shape == (2, 3, 4)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.sdf")
        arr = np.random.default_rng(0).random(100)
        nbytes = write_file(path, {"x": arr}, {"k": 1})
        assert nbytes == (tmp_path / "out.sdf").stat().st_size
        variables, attrs = read_file(path)
        np.testing.assert_array_equal(variables["x"], arr)
        assert attrs == {"k": 1}


class TestDeterminism:
    """Bitwise reproducibility: identical inputs -> identical bytes."""

    def test_encoding_is_deterministic(self):
        rng = np.random.default_rng(7)
        data = {"b": rng.random(50), "a": rng.random(20)}
        assert encode(data, {"t": 1}) == encode(dict(data), {"t": 1})

    def test_insertion_order_does_not_matter(self):
        a, b = np.ones(3), np.zeros(4)
        assert encode({"a": a, "b": b}) == encode({"b": b, "a": a})

    def test_noncontiguous_input_equals_contiguous(self):
        arr = np.arange(20, dtype=np.float64)[::2]
        assert encode({"x": arr}) == encode({"x": arr.copy()})


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(FormatError):
            decode(b"NOPE" + b"\x00" * 20)

    def test_truncated_header(self):
        blob = encode({"x": np.ones(4)})
        with pytest.raises(FormatError):
            decode(blob[:13])

    def test_truncated_payload(self):
        blob = encode({"x": np.ones(4)})
        with pytest.raises(FormatError):
            decode(blob[:-8])

    def test_short_blob(self):
        with pytest.raises(FormatError):
            decode(b"SDF1")

    def test_corrupt_header_json(self):
        blob = bytearray(encode({"x": np.ones(2)}))
        blob[14] = 0xFF  # clobber a JSON byte
        with pytest.raises(FormatError):
            decode(bytes(blob))

    def test_non_dict_variables(self):
        with pytest.raises(InvalidArgumentError):
            encode([np.ones(3)])  # type: ignore[arg-type]


@settings(max_examples=50, deadline=None)
@given(
    arr=hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
        shape=hnp.array_shapes(max_dims=3, max_side=16),
    ),
    name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=10,
    ),
)
def test_roundtrip_property(arr, name):
    variables, _ = decode(encode({name: arr}))
    restored = variables[name]
    assert restored.shape == arr.shape
    assert restored.dtype == arr.dtype
    np.testing.assert_array_equal(restored, arr)


class TestAtomicWrite:
    """Re-simulated outputs replace files a data server may be streaming:
    ``write_file`` must never expose a truncated or half-written file."""

    def test_rewrite_does_not_tear_an_open_reader(self, tmp_path):
        path = str(tmp_path / "step_out_0001.sdf")
        old = np.arange(4096, dtype=np.float64)
        new = np.arange(4096, dtype=np.float64)[::-1].copy()
        write_file(path, {"x": old})
        old_bytes = open(path, "rb").read()
        with open(path, "rb") as held:
            head = held.read(64)  # mid-stream when the rewrite lands
            write_file(path, {"x": new})
            assert head + held.read() == old_bytes
        variables, _ = read_file(path)
        np.testing.assert_array_equal(variables["x"], new)
        assert os.listdir(tmp_path) == ["step_out_0001.sdf"]

    def test_failed_write_leaves_no_temp_file_and_the_old_bytes(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "step_out_0001.sdf")
        write_file(path, {"x": np.ones(8)})
        old_bytes = open(path, "rb").read()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_file(path, {"x": np.zeros(8)})
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["step_out_0001.sdf"]
        assert open(path, "rb").read() == old_bytes
