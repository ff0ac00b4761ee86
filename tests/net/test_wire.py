"""Unit and property tests for the binary wire codec and size model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    ENVELOPE_OVERHEAD,
    WireFormatError,
    _size_of,
    decode,
    encode,
    payload_size,
)


SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    3.14159,
    float("inf"),
    "",
    "hello",
    "ünïcødé ☃",
    b"",
    b"\x00\xff raw",
    [],
    [1, "two", 3.0, None],
    (1, 2),
    {},
    {"nested": {"list": [1, [2, [3]]]}, "flag": True},
]


class TestRoundtrip:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_scalar_and_container_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_preserved_as_tuple(self):
        assert decode(encode((1, 2))) == (1, 2)
        assert isinstance(decode(encode((1, 2))), tuple)

    @pytest.mark.parametrize("dtype", ["uint8", "int32", "float32", "float64"])
    def test_ndarray_roundtrip(self, dtype):
        array = (np.arange(24).reshape(2, 3, 4) % 7).astype(dtype)
        result = decode(encode(array))
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        np.testing.assert_array_equal(result, array)

    def test_zero_dim_array_roundtrip(self):
        array = np.array(5.0)
        result = decode(encode(array))
        assert result.shape == ()
        assert float(result) == 5.0

    def test_numpy_scalars_become_python_scalars(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float32(0.5))) == pytest.approx(0.5)

    def test_noncontiguous_array_roundtrip(self):
        array = np.arange(20).reshape(4, 5)[:, ::2]
        np.testing.assert_array_equal(decode(encode(array)), array)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(WireFormatError):
            encode(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(WireFormatError):
            encode({1: "x"})

    def test_bad_magic_rejected(self):
        with pytest.raises(WireFormatError):
            decode(b"XX\x01\x00")

    def test_truncated_data_rejected(self):
        data = encode([1, 2, 3])
        with pytest.raises(WireFormatError):
            decode(data[:-2])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireFormatError):
            decode(encode(1) + b"extra")

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireFormatError):
            decode(b"VP\x01\xfe")


class TestSizeModel:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_size_matches_actual_encoding(self, value):
        if value == float("inf"):
            pytest.skip("inf equality quirk irrelevant here")
        expected = ENVELOPE_OVERHEAD + len(encode(value))
        assert payload_size(value) == expected

    def test_size_of_array_dominated_by_data(self):
        frame = np.zeros((480, 640, 3), dtype=np.uint8)
        size = payload_size(frame)
        assert size > frame.nbytes
        assert size < frame.nbytes + 200

    def test_wire_size_hint_honored(self):
        class Encoded:
            wire_size = 45000

        assert payload_size(Encoded()) == ENVELOPE_OVERHEAD + 3 + 45000


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=20,
)


@given(value=json_like)
@settings(max_examples=150)
def test_property_roundtrip(value):
    assert decode(encode(value)) == value


@given(value=json_like)
@settings(max_examples=150)
def test_property_size_model_is_exact(value):
    assert payload_size(value) == ENVELOPE_OVERHEAD + len(encode(value))


def reference_size_of(value):
    """``_size_of`` as it was before the exact-type dispatch: one
    ``isinstance`` chain for every value."""
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, (int, np.integer)):
        return 9
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 5 + len(value)
    if isinstance(value, (list, tuple)):
        return 5 + sum(reference_size_of(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(reference_size_of(k) + reference_size_of(v)
                       for k, v in value.items())
    if isinstance(value, np.ndarray):
        dtype_len = len(value.dtype.str.encode("ascii"))
        return 1 + 1 + dtype_len + 1 + 8 * value.ndim + 8 + value.nbytes
    hint = getattr(value, "wire_size", None)
    if hint is not None:
        return int(hint)
    raise WireFormatError(f"unsupported wire type: {type(value).__name__}")


class Hinted:
    def __init__(self, size):
        self.wire_size = size


class HintedInt(int):
    """An int subclass with a hint: sized as an int, not by the hint."""

    wire_size = 1000


class Label(str):
    pass


class Unsized:
    pass


def _sized(value):
    try:
        return reference_size_of(value), None
    except WireFormatError as exc:
        return None, str(exc)


numpy_scalars = st.one_of(
    st.integers(-100, 100).map(np.int64),
    st.integers(-100, 100).map(np.int32),
    st.integers(0, 200).map(np.uint8),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),  # unsupported, on both paths
)
leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(), st.text(max_size=12), st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.binary(max_size=12).map(memoryview),
    numpy_scalars,
    st.lists(st.integers(0, 9), max_size=6).map(np.array),
    st.integers(0, 5000).map(Hinted),
    st.integers(0, 9).map(HintedInt),
    st.text(max_size=6).map(Label),
    st.just(Unsized()),
)
nested_payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # unsupported keys too: the first unsupported item names the error
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers(0, 9),
                                  st.just(Unsized()),
                                  st.booleans().map(np.bool_)),
                        children, max_size=5),
    ),
    max_leaves=25,
)


@given(value=nested_payloads)
@settings(max_examples=300)
def test_property_dispatch_sizes_like_the_isinstance_chain(value):
    """Every nested payload gets the size (or the error) the pre-dispatch
    function gives it: exact types, subclasses, hints and numpy scalars."""
    size, error = _sized(value)
    if error is None:
        assert _size_of(value) == size
    else:
        with pytest.raises(WireFormatError) as raised:
            _size_of(value)
        assert str(raised.value) == error


@pytest.mark.parametrize("value, size", [
    (True, 1), (False, 1), (7, 9), (np.int64(3), 9), (np.float32(1.0), 9),
    (np.float64(2.5), 9),  # a float subclass, with its own entry
    (HintedInt(4), 9),  # an int subclass: the chain ignores its hint
    (Label("ab"), 7), ("ünï", 10), (Hinted(12), 12),
], ids=repr)
def test_subclasses_and_numpy_scalars_size_as_before(value, size):
    assert _size_of(value) == reference_size_of(value) == size


def test_numpy_bool_is_still_unsupported():
    with pytest.raises(WireFormatError, match="bool"):
        _size_of(np.bool_(True))
