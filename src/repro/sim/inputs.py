"""Input stream conversion between byte, nibble, and strided-vector domains.

The nibble transformation (paper Section 4) changes the *input* alphabet as
well as the automaton: a byte stream becomes a nibble stream (high nibble
first, matching FlexAmata's big-endian bit ordering), and temporal striding
groups consecutive nibbles into fixed-arity vectors, padding the tail.
"""

from ..errors import SimulationError

#: Pad value appended when the stream length is not a multiple of the
#: stride.  Any value works because pad-position reports are filtered by
#: position; zero matches the paper's "concatenated with all zeros".
PAD_NIBBLE = 0


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
    accounts for padding.
    """
    if automaton.bits == 8:
        if automaton.arity != 1:
            raise SimulationError("strided 8-bit automata are not modelled")
        return [(value,) for value in data], len(data)
    if automaton.bits == 4:
        nibbles = bytes_to_nibbles(data)
        vectors, original_length = vectorize(nibbles, automaton.arity)
        return vectors, original_length
    raise SimulationError(
        "no byte-stream conversion for %d-bit automata" % automaton.bits
    )


def nibble_position_to_byte(position):
    """Map a nibble-stream report position back to its byte index."""
    return position // 2
