"""Input stream conversion between byte, nibble, strided-vector and code domains.

The nibble transformation (paper Section 4) changes the *input* alphabet as
well as the automaton: a byte stream becomes a nibble stream (high nibble
first, matching FlexAmata's big-endian bit ordering), and temporal striding
groups consecutive nibbles into fixed-arity vectors, padding the tail.

The engines consume *codes*, not vectors: a vector's values packed
big-endian into one int, ``code = v[0] << bits * (arity - 1) | ... |
v[-1]``.  For an 8-bit machine and at rate 2 a code is the input byte, at
rate 1 a nibble and at rate 4 the big-endian byte pair, so
:func:`stream_for` builds every stream in a few C-level passes and a
stream costs one or two bytes per cycle.
"""

import sys
from array import array

from ..errors import SimulationError

#: Pad value appended when the stream length is not a multiple of the
#: stride.  Any value works because pad-position reports are filtered by
#: position; zero matches the paper's "concatenated with all zeros".
PAD_NIBBLE = 0

# ``bytes.translate`` tables: each byte's high and low nibble.
_HIGH_NIBBLES = bytes(value >> 4 for value in range(256))
_LOW_NIBBLES = bytes(value & 0xF for value in range(256))


def bytes_to_nibbles(data):
    """Split each byte into (high, low) nibbles, high nibble first."""
    nibbles = []
    for value in data:
        if not 0 <= value <= 0xFF:
            raise SimulationError("byte value %r out of range" % (value,))
        nibbles.append(value >> 4)
        nibbles.append(value & 0xF)
    return nibbles


def nibbles_to_bytes(nibbles):
    """Inverse of :func:`bytes_to_nibbles`; length must be even."""
    if len(nibbles) % 2 != 0:
        raise SimulationError("nibble stream has odd length %d" % len(nibbles))
    return bytes(
        (nibbles[index] << 4) | nibbles[index + 1]
        for index in range(0, len(nibbles), 2)
    )


def vectorize(symbols, arity, pad=PAD_NIBBLE):
    """Group a flat symbol stream into arity-sized tuples, padding the tail.

    Returns ``(vectors, original_length)`` where ``original_length`` is the
    pre-padding symbol count — callers pass it to the report recorder's
    ``position_limit`` so pad-position reports are discarded.
    """
    if arity < 1:
        raise SimulationError("arity must be positive")
    symbols = list(symbols)
    original_length = len(symbols)
    remainder = original_length % arity
    if remainder:
        symbols.extend([pad] * (arity - remainder))
    vectors = [
        tuple(symbols[index:index + arity])
        for index in range(0, len(symbols), arity)
    ]
    return vectors, original_length


def code_array(codes, width):
    """An iterable of ints below ``2 ** width`` in the compact container
    for ``width``-bit codes: ``bytes`` up to 8 bits, ``array('H')`` up to
    16, ``array('Q')`` up to 64, else a list.  (An ``array`` built from
    a bytes-like object would read its buffer, so pass ints.)"""
    if width <= 8:
        return bytes(codes)
    if width <= 16:
        return array("H", codes)
    if width <= 64:
        return array("Q", codes)
    return list(codes)


def code_vectors(codes, bits, arity):
    """Unpack each code into its ``arity``-tuple of ``bits``-bit values."""
    if arity == 1:
        return [(code,) for code in codes]
    value_mask = (1 << bits) - 1
    shifts = range(bits * (arity - 1), -1, -bits)
    return [tuple((code >> shift) & value_mask for shift in shifts)
            for code in codes]


def stream_for(automaton, data):
    """Convert a byte string into the code stream ``automaton`` consumes.

    Returns ``(codes, position_limit)``:

    - an 8-bit arity-1 automaton, or a rate-2 one, consumes the bytes
      themselves (``data``, as ``bytes``);
    - a rate-1 automaton consumes nibbles, as ``bytes``;
    - a rate-4 automaton consumes big-endian byte pairs, as an
      ``array('H')``; an odd tail byte is padded with
      :data:`PAD_NIBBLE`-s.

    Decoded (:func:`code_vectors`), the codes are what :func:`vectorize`
    builds from :func:`bytes_to_nibbles`.  ``position_limit`` is in the
    automaton's sub-symbol units and already accounts for padding.  A
    non-``bytes`` ``data`` must hold byte values; any other value raises
    :class:`SimulationError`.
    """
    if automaton.bits not in (4, 8):
        raise SimulationError(
            "no byte-stream conversion for %d-bit automata" % automaton.bits
        )
    if automaton.bits == 8 and automaton.arity != 1:
        raise SimulationError("strided 8-bit automata are not modelled")
    if type(data) is not bytes:
        data = bytes(data if isinstance(data, bytearray)
                     else _checked_bytes(data))
    if automaton.bits == 8:
        return data, len(data)
    arity = automaton.arity
    if arity == 2:
        return data, 2 * len(data)
    if arity == 1:
        nibbles = bytearray(2 * len(data))
        nibbles[0::2] = data.translate(_HIGH_NIBBLES)
        nibbles[1::2] = data.translate(_LOW_NIBBLES)
        return bytes(nibbles), 2 * len(data)
    if arity == 4:
        codes = array("H", data[:len(data) & ~1])
        if sys.byteorder == "little":
            codes.byteswap()
        if len(data) & 1:  # one byte left: pad its vector
            codes.append(data[-1] << 8 | PAD_NIBBLE << 4 | PAD_NIBBLE)
        return codes, 2 * len(data)
    vectors, limit = vectorize(bytes_to_nibbles(data), arity)
    return code_array(map(_nibble_code, vectors), 4 * arity), limit


def _nibble_code(vector):
    """Big-endian code of one nibble vector."""
    code = 0
    for value in vector:
        code = code << 4 | value
    return code


def _checked_bytes(values):
    """Yield ``values``, raising SimulationError on one outside a byte."""
    for value in values:
        if not 0 <= value <= 0xFF:
            raise SimulationError("byte value %r out of range" % (value,))
        yield value


def nibble_position_to_byte(position):
    """Map a nibble-stream report position back to its byte index."""
    return position // 2
