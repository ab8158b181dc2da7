"""Input stream conversion between byte, nibble, and strided-vector domains.

The nibble transformation (paper Section 4) changes the *input* alphabet as
well as the automaton: a byte stream becomes a nibble stream (high nibble
first, matching FlexAmata's big-endian bit ordering), and temporal striding
groups consecutive nibbles into fixed-arity vectors, padding the tail.
"""

import sys
from itertools import chain

from ..errors import SimulationError

#: Pad value appended when the stream length is not a multiple of the
#: stride.  Any value works because pad-position reports are filtered by
#: position; zero matches the paper's "concatenated with all zeros".
PAD_NIBBLE = 0

# Shared vector tuples, so a stream holds references, not one new tuple
# per vector: per byte for 8-bit machines (``(b,)``), for rate 1 (its
# two one-nibble vectors) and for rate 2 (``(high, low)``).
_BYTE_VECTORS = tuple((value,) for value in range(256))
_NIBBLE_VECTORS = tuple((value,) for value in range(16))
_BYTE_NIBBLE_VECTORS = tuple(
    (_NIBBLE_VECTORS[value >> 4], _NIBBLE_VECTORS[value & 0xF])
    for value in range(256))
_BYTE_PAIR_VECTORS = tuple((value >> 4, value & 0xF) for value in range(256))


class _PairVectors(dict):
    """Rate-4 vectors keyed by two bytes read as one native uint16.

    An interning table: each entry is fixed by its key, so sharing one
    table across streams changes no result, only which equal tuple a
    stream holds.  Entries are made as pairs first appear, so it holds
    only pairs seen, at most 65,536.  One table per stream instead
    made converting the sessions benchmark's packets about 2x slower,
    since a 1500-byte packet repeats few of its pairs.
    """

    def __missing__(self, key):
        first, second = key.to_bytes(2, sys.byteorder)
        vector = self[key] = (first >> 4, first & 0xF,
                              second >> 4, second & 0xF)
        return vector


_PAIR_VECTORS = _PairVectors()


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


def stream_for(automaton, data):
    """Convert a byte string into the stream shape ``automaton`` consumes.

    Returns ``(vectors, position_limit)``:

    - 8-bit arity-1 automata consume the bytes directly;
    - 4-bit automata consume nibbles, grouped into arity-sized vectors.

    ``position_limit`` is in the automaton's sub-symbol units and already
    accounts for padding.  The vectors are shared tuples (per byte, or
    per byte pair at rate 4), equal to what :func:`vectorize` builds
    from :func:`bytes_to_nibbles`.  A non-``bytes`` ``data`` must hold
    byte values; any other value raises :class:`SimulationError`.
    """
    if automaton.bits not in (4, 8):
        raise SimulationError(
            "no byte-stream conversion for %d-bit automata" % automaton.bits
        )
    if automaton.bits == 8 and automaton.arity != 1:
        raise SimulationError("strided 8-bit automata are not modelled")
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(_checked_bytes(data))
    if automaton.bits == 8:
        return list(map(_BYTE_VECTORS.__getitem__, data)), len(data)
    arity = automaton.arity
    if arity == 1:
        vectors = list(chain.from_iterable(
            map(_BYTE_NIBBLE_VECTORS.__getitem__, data)))
    elif arity == 2:
        vectors = list(map(_BYTE_PAIR_VECTORS.__getitem__, data))
    elif arity == 4:
        even = len(data) & ~1
        vectors = list(map(_PAIR_VECTORS.__getitem__,
                           memoryview(data)[:even].cast("H")))
        if even < len(data):  # one byte left: pad its vector
            last = data[-1]
            vectors.append((last >> 4, last & 0xF, PAD_NIBBLE, PAD_NIBBLE))
    else:
        return vectorize(bytes_to_nibbles(data), arity)
    return vectors, 2 * len(data)


def _checked_bytes(values):
    """Yield ``values``, raising SimulationError on one outside a byte."""
    for value in values:
        if not 0 <= value <= 0xFF:
            raise SimulationError("byte value %r out of range" % (value,))
        yield value


def nibble_position_to_byte(position):
    """Map a nibble-stream report position back to its byte index."""
    return position // 2
