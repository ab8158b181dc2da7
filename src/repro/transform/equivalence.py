"""Equivalence checking between an 8-bit automaton and its transforms.

The whole transformation pipeline is only useful if it is *exactly*
language-preserving.  These helpers run both machines on the same byte
stream and compare report sets, mapping transformed (nibble-domain)
positions back to byte indices.  They are used by the property-based test
suite and exposed publicly so users can validate their own pipelines.
"""

from ..errors import TransformError
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for
from .nibble import nibble_report_position_to_byte


def byte_reports(automaton, data):
    """Run a byte/nibble automaton on ``data`` (bytes).

    Returns the set of ``(byte_index, report_code)`` pairs, regardless of
    whether ``automaton`` is the original 8-bit machine or any 4-bit
    transform of it.
    """
    vectors, limit = stream_for(automaton, data)
    recorder = BitsetEngine(automaton).run(vectors, position_limit=limit)
    keys = recorder.event_keys()
    if automaton.bits == 8:
        return keys
    return {(nibble_report_position_to_byte(position), code)
            for position, code in keys}


def check_equivalent(original, transformed, data):
    """Assert both machines report identically on ``data``.

    Raises :class:`TransformError` with a readable diff on mismatch;
    returns the common report set on success.
    """
    expected = byte_reports(original, data)
    actual = byte_reports(transformed, data)
    if expected != actual:
        missing = sorted(expected - actual)[:10]
        spurious = sorted(actual - expected)[:10]
        raise TransformError(
            "transformed automaton diverges on %d bytes: missing=%s spurious=%s"
            % (len(data), missing, spurious)
        )
    return expected
