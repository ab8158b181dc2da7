"""Input-stream conversion tests."""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    bytes_to_nibbles,
    code_vectors,
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
        codes, limit = stream_for(abc_automaton, b"ab")
        assert codes == b"ab"
        assert limit == 2

    def test_nibble_automaton(self, abc_automaton):
        from repro.transform import to_rate
        strided = to_rate(abc_automaton, 4)
        codes, limit = stream_for(strided, b"abc")
        assert limit == 6  # nibbles
        # ceil(6/4) big-endian byte pairs, the odd byte padded with zeros
        assert codes == array("H", [0x6162, 0x6300])

    def test_position_mapping(self):
        assert nibble_position_to_byte(7) == 3

    @pytest.mark.parametrize("rate", [None, 1, 2, 4])
    @pytest.mark.parametrize("data", [b"", b"ab", b"abc", bytes(range(256)),
                                      bytes(range(255, -1, -1)) + b"\x00"],
                             ids=["empty", "even", "odd", "all-bytes",
                                  "all-bytes-odd"])
    def test_nibble_vectors_match_vectorize(self, abc_automaton, rate, data):
        """Decoded, the codes are the vectors vectorize builds from the
        nibbles (the bytes themselves at 8 bits), whatever holds the
        bytes."""
        from repro.transform import to_rate
        machine = (abc_automaton if rate is None
                   else to_rate(abc_automaton, rate))
        if rate is None:
            expected = [(value,) for value in data], len(data)
        else:
            expected = vectorize(bytes_to_nibbles(data), rate)
        for given in (data, bytearray(data), list(data)):
            codes, limit = stream_for(machine, given)
            assert (code_vectors(codes, machine.bits, machine.arity),
                    limit) == expected

    def test_byte_vectors_are_shared(self, abc_automaton):
        """An 8-bit or rate-2 machine's stream is the data itself; rate
        1 is one nibble per byte and rate 4 one uint16 per byte pair."""
        from repro.transform import to_rate
        data = b"abab"
        assert stream_for(abc_automaton, data)[0] is data
        assert stream_for(to_rate(abc_automaton, 2), data)[0] is data
        nibbles, _ = stream_for(to_rate(abc_automaton, 1), data)
        assert nibbles == bytes([6, 1, 6, 2, 6, 1, 6, 2])
        pairs, _ = stream_for(to_rate(abc_automaton, 4), data)
        assert pairs.typecode == "H" and pairs.itemsize == 2

    @pytest.mark.parametrize("rate", [None, 1, 2, 4])
    def test_out_of_range_values_raise(self, abc_automaton, rate):
        from repro.transform import to_rate
        machine = (abc_automaton if rate is None
                   else to_rate(abc_automaton, rate))
        for values in ([300], [97, -1]):
            with pytest.raises(SimulationError):
                stream_for(machine, values)
