"""Input-stream conversion tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    bytes_to_nibbles,
    nibble_position_to_byte,
    nibbles_to_bytes,
    stream_for,
    vectorize,
)


class TestNibbleConversion:
    def test_high_nibble_first(self):
        assert bytes_to_nibbles(b"\xAB") == [0xA, 0xB]

    @given(st.binary(max_size=64))
    def test_roundtrip(self, data):
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data

    def test_odd_length_rejected(self):
        with pytest.raises(SimulationError):
            nibbles_to_bytes([1, 2, 3])

    def test_out_of_range_byte_rejected(self):
        with pytest.raises(SimulationError):
            bytes_to_nibbles([300])


class TestVectorize:
    def test_exact_multiple(self):
        vectors, length = vectorize([1, 2, 3, 4], 2)
        assert vectors == [(1, 2), (3, 4)]
        assert length == 4

    def test_padding(self):
        vectors, length = vectorize([1, 2, 3], 2, pad=0)
        assert vectors == [(1, 2), (3, 0)]
        assert length == 3

    def test_empty(self):
        vectors, length = vectorize([], 4)
        assert vectors == [] and length == 0

    @given(st.lists(st.integers(0, 15), max_size=40), st.integers(1, 4))
    def test_flattening_recovers_prefix(self, symbols, arity):
        vectors, length = vectorize(symbols, arity)
        flat = [value for vector in vectors for value in vector]
        assert flat[:length] == symbols
        assert len(flat) % arity == 0

    def test_bad_arity_rejected(self):
        with pytest.raises(SimulationError):
            vectorize([1], 0)


class TestStreamFor:
    def test_byte_automaton(self, abc_automaton):
        vectors, limit = stream_for(abc_automaton, b"ab")
        assert vectors == [(ord("a"),), (ord("b"),)]
        assert limit == 2

    def test_nibble_automaton(self, abc_automaton):
        from repro.transform import to_rate
        strided = to_rate(abc_automaton, 4)
        vectors, limit = stream_for(strided, b"abc")
        assert limit == 6  # nibbles
        assert len(vectors) == 2  # ceil(6/4)
        assert all(len(v) == 4 for v in vectors)

    def test_position_mapping(self):
        assert nibble_position_to_byte(7) == 3

    @pytest.mark.parametrize("rate", [1, 2, 4])
    @pytest.mark.parametrize("data", [b"", b"ab", b"abc", bytes(range(256)),
                                      bytes(range(255, -1, -1)) + b"\x00"],
                             ids=["empty", "even", "odd", "all-bytes",
                                  "all-bytes-odd"])
    def test_nibble_vectors_match_vectorize(self, abc_automaton, rate, data):
        from repro.transform import to_rate
        strided = to_rate(abc_automaton, rate)
        expected = vectorize(bytes_to_nibbles(data), rate)
        assert stream_for(strided, data) == expected
        assert stream_for(strided, bytearray(data)) == expected
        assert stream_for(strided, list(data)) == expected

    def test_byte_vectors_are_shared(self, abc_automaton):
        from repro.transform import to_rate
        vectors, _ = stream_for(abc_automaton, b"abab")
        assert vectors == [(97,), (98,), (97,), (98,)]
        assert vectors[0] is vectors[2]
        strided, _ = stream_for(to_rate(abc_automaton, 4), b"abcdab")
        assert strided[0] is strided[2]

    @pytest.mark.parametrize("rate", [None, 1, 2, 4])
    def test_out_of_range_values_raise(self, abc_automaton, rate):
        from repro.transform import to_rate
        machine = (abc_automaton if rate is None
                   else to_rate(abc_automaton, rate))
        for values in ([300], [97, -1]):
            with pytest.raises(SimulationError):
                stream_for(machine, values)
