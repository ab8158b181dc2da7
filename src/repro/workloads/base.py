"""Workload-generation machinery.

We do not have ANMLZoo's ANML files or its 1MB input streams, so each
benchmark is *synthesized*: an automaton family with the paper's static
structure (state count, report-state fraction, symbol density flavour)
plus an input stream *planted* to reproduce the paper's dynamic reporting
statistics (Table 1: report-cycle % and reports per report cycle).

Key design decisions:

- **Cold rules** give the automaton its bulk.  They are drawn over a
  disjoint byte range from the input alphabet, so they never fire: like
  real rulesets (virus signatures, intrusion rules), the overwhelming
  majority of patterns stay idle.
- **Hot rules** have known witness strings.  The planner overwrites noise
  with witnesses at a Poisson rate chosen to hit the target report-cycle
  fraction; *burst groups* are sets of rules sharing one witness, so a
  single plant yields many same-cycle reports (SPM-style density).
- Everything is deterministic given ``(scale, seed)``.
"""

import random

from ..automata.ops import union
from ..errors import WorkloadError
from ..regex.compiler import compile_pattern
from ..sim.stats import reporting_behavior

#: Bytes reserved for cold (never-matching) rules.
COLD_ALPHABET = bytes(range(0x80, 0xC0))
#: Default input alphabet for noise (printable ASCII subset).
NOISE_ALPHABET = b"abcdefghijklmnopqrstuvwxyz 0123456789"

#: Input bytes at scale 1.0 (the paper streams 1MB).
FULL_INPUT_BYTES = 1_000_000


class WorkloadInstance:
    """One generated benchmark: automaton + input + provenance."""

    def __init__(self, name, family, automaton, input_bytes, paper_row=None):
        self.name = name
        self.family = family
        self.automaton = automaton
        self.input_bytes = input_bytes
        #: The paper's Table 1 row for this benchmark (reference values).
        self.paper_row = paper_row or {}

    def freeze(self):
        """Freeze the instance's automaton for good; returns ``self``.

        Generated instances are born frozen (:func:`assemble`), so this
        is a no-op for them; it freezes a hand-built instance's machine.
        The artifact store calls it on every instance it holds and
        serves that one object to every reader (see
        :meth:`~repro.automata.automaton.Automaton.freeze`).
        """
        self.automaton.freeze()
        return self

    def measured_behavior(self):
        """Simulate and return the Table 1 row for this instance."""
        row = reporting_behavior(self.automaton, list(self.input_bytes))
        row["benchmark"] = self.name
        row["family"] = self.family
        row["input_bytes"] = len(self.input_bytes)
        return row

    def __repr__(self):
        return "WorkloadInstance(%s, states=%d, input=%dB)" % (
            self.name, len(self.automaton), len(self.input_bytes),
        )


class WorkloadRandom(random.Random):
    """Seeded RNG with the helpers the generators share."""

    def literal(self, length, alphabet):
        """Random literal string over ``alphabet``."""
        return bytes(self.choice(alphabet) for _ in range(length))

    def cold_literal(self, length):
        """Random literal guaranteed never to appear in the input."""
        return self.literal(length, COLD_ALPHABET)


def escape_literal(data):
    """Escape a byte string into regex-literal form (hex escapes)."""
    return "".join("\\x%02x" % byte for byte in data)


def poisson_positions(rng, input_length, count, witness_length):
    """``count`` approximately-uniform plant positions, non-overlapping.

    Positions are end-aligned slots; raises :class:`WorkloadError` when
    the requested density cannot fit.
    """
    if count == 0:
        return []
    slot = witness_length + 1
    available = input_length // slot
    if count > available:
        raise WorkloadError(
            "cannot plant %d witnesses of %dB in %dB of input"
            % (count, witness_length, input_length)
        )
    chosen = rng.sample(range(available), count)
    return sorted(index * slot for index in chosen)


def uniform_noise(rng, length, alphabet):
    """``length`` symbols of ``alphabet``, as ``rng.choice`` draws them.

    ``choice`` takes ``getrandbits(k)`` with ``k = len(alphabet)
    .bit_length()``, the top ``k`` bits of one 32-bit word, and draws
    again while that is out of range.  ``getrandbits(32 * need)`` returns
    ``need`` such words, the first one least significant, so the top
    byte of each word goes through one ``bytes.translate`` that maps an
    in-range draw to its symbol and deletes a rejected one.  Each block
    asks for as many words as symbols are still missing, so no word past
    the last accepted draw is consumed: the bytes and the generator's
    state are exactly those of ``length`` ``choice`` calls.  Returns a
    ``bytearray``.
    """
    size = len(alphabet)
    if not 0 < size < 256:
        raise WorkloadError(
            "a noise alphabet needs 1 to 255 symbols, got %d" % size)
    shift = 8 - size.bit_length()
    table = bytes(alphabet[top >> shift] if top >> shift < size else 0
                  for top in range(256))
    rejected = bytes(top for top in range(256) if top >> shift >= size)
    buffer = bytearray()
    need = length
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        buffer += words[3::4].translate(table, rejected)
        need = length - len(buffer)
    return buffer


def build_input(rng, input_length, plants, noise_alphabet=NOISE_ALPHABET,
                noise_weights=None):
    """Noise stream with witnesses planted at the given positions.

    ``plants`` is a list of ``(position, witness_bytes)``; later plants
    overwrite earlier ones on overlap (the measured statistics absorb
    collisions).
    """
    if noise_weights is None:
        buffer = uniform_noise(rng, input_length, noise_alphabet)
    else:
        buffer = bytearray(
            rng.choices(noise_alphabet, weights=noise_weights,
                        k=input_length)
        )
    for position, witness in plants:
        end = position + len(witness)
        if end > input_length:
            continue
        buffer[position:end] = witness
    return bytes(buffer)


def burst_group_patterns(witness, group_size, rng):
    """``group_size`` distinct patterns that all match ``witness``.

    Each pattern is the witness with one position widened into a
    two-character class, so one planted witness fires every pattern in
    the group on the same cycle.
    """
    if not witness:
        raise WorkloadError("burst witness must be non-empty")
    patterns = [escape_literal(witness)]
    seen = {patterns[0]}
    attempts = 0
    while len(patterns) < group_size:
        attempts += 1
        if attempts > group_size * 50:
            raise WorkloadError(
                "could not derive %d distinct burst patterns" % group_size
            )
        position = rng.randrange(len(witness))
        alternate = rng.choice(COLD_ALPHABET)
        body = (
            escape_literal(witness[:position])
            + "[%s\\x%02x]" % (escape_literal(witness[position:position + 1]),
                               alternate)
            + escape_literal(witness[position + 1:])
        )
        if body not in seen:
            seen.add(body)
            patterns.append(body)
    return patterns


def grow_cold_rules(rng, pattern_factory, state_budget, name):
    """Compile cold rules until ``state_budget`` states are reached.

    ``pattern_factory(rng)`` returns one regex string over the cold
    alphabet.  Returns a list of compiled automata.
    """
    rules = []
    total = 0
    guard = 0
    while total < state_budget:
        guard += 1
        if guard > state_budget * 4 + 1000:
            raise WorkloadError("cold-rule growth for %s did not converge" % name)
        pattern = pattern_factory(rng)
        rule = compile_pattern(
            pattern, name="%s_cold%d" % (name, len(rules)),
            report_code="%s/cold%d" % (name, len(rules)),
        )
        rules.append(rule)
        total += len(rule)
    return rules


def assemble(name, rules, bits=8):
    """Union rule automata into the final benchmark machine.

    The machine is frozen and validated here, where it enters the
    pipeline: it arrives as integer columns with the pass remembered,
    so a :class:`~repro.exec.session.Session`, the engine and
    :func:`~repro.transform.nibble.to_nibbles` read it without a second
    column build or check.  Call ``copy()`` on it before mutating.
    """
    if not rules:
        raise WorkloadError("benchmark %s has no rules" % name)
    return union(rules, name=name, bits=bits).freeze().validate()


def scaled(value, scale, minimum=1):
    """Scale a paper-sized quantity, keeping at least ``minimum``."""
    return max(minimum, int(round(value * scale)))


def plant_schedule(rng, input_length, report_cycle_pct, witness, scale,
                   absolute_reports=None):
    """Plant positions hitting a target report-cycle percentage.

    For near-zero benchmarks pass ``absolute_reports`` (the paper's raw
    report count for 1MB); it is scaled down but kept >= 1.
    """
    if absolute_reports is not None:
        count = scaled(absolute_reports, scale)
    else:
        count = int(round(input_length * report_cycle_pct / 100.0))
    count = min(count, max(1, input_length // (len(witness) + 1)))
    positions = poisson_positions(rng, input_length, count, len(witness))
    return [(position, witness) for position in positions]


def infer_noise_budget(scale):
    """Input length in bytes for a given scale."""
    length = int(FULL_INPUT_BYTES * scale)
    if length < 64:
        raise WorkloadError("scale %r yields a degenerate input" % scale)
    return length
