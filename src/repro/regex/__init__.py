"""Regex front-end: parse patterns and compile them to homogeneous NFAs."""

from .compiler import compile_pattern, compile_ruleset
from .parser import parse


def find_match_ends(pattern, data, ignore_case=False):
    """Positions in ``data`` (byte stream) where ``pattern`` matches end.

    Convenience wrapper used heavily in tests: compiles the pattern, runs
    the bitset engine over the bytes, and returns the sorted set of 0-based
    indices of the *last* byte of each match.
    """
    from ..sim.engine import BitsetEngine

    automaton = compile_pattern(pattern, ignore_case=ignore_case)
    recorder = BitsetEngine(automaton).run(list(data))
    return recorder.positions()


__all__ = ["compile_pattern", "compile_ruleset", "find_match_ends", "parse"]
