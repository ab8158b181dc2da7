"""Device-level tests: the bit-faithful hardware path vs the functional engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Automaton, StartKind, Ste, SymbolSet
from repro.core import ProcessingUnit, SunderConfig, SunderDevice
from repro.errors import ArchitectureError
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, stream_for
from repro.transform import to_rate

RULES = ["abc", "b.d", "xy+z", "hello", "[0-9]{3}", "q(rs|tu)v"]
DATA_ALPHABET = b"abcdxyz hello0123qrstuv"


def _run_both(automaton, data, config):
    device = SunderDevice(config)
    device.configure(automaton)
    vectors, limit = stream_for(automaton, data)
    result = device.run(vectors, position_limit=limit)
    hardware = result.reports().event_keys()
    reference = BitsetEngine(automaton).run(
        vectors, position_limit=limit
    ).event_keys()
    return hardware, reference, device, result


@pytest.mark.parametrize("rate", [1, 2, 4])
class TestDifferentialVsEngine:
    def test_reports_identical(self, rate):
        rng = random.Random(rate * 7)
        machine = compile_ruleset(RULES)
        strided = to_rate(machine, rate)
        config = SunderConfig(rate_nibbles=rate, report_bits=16)
        noise = bytes(rng.choice(DATA_ALPHABET) for _ in range(120))
        data = noise + b"abc" + noise + b" hello 123 " + noise + b"xyyz"
        hardware, reference, _, _ = _run_both(strided, data, config)
        assert hardware == reference
        assert hardware  # the stream must actually exercise reporting

    def test_reports_identical_with_fifo_drain(self, rate):
        rng = random.Random(rate * 13)
        machine = compile_ruleset(RULES[:3])
        strided = to_rate(machine, rate)
        config = SunderConfig(rate_nibbles=rate, report_bits=16, fifo=True,
                              fifo_drain_rows_per_cycle=0.5)
        data = bytes(rng.choice(DATA_ALPHABET) for _ in range(200))
        hardware, reference, _, _ = _run_both(strided, data, config)
        assert hardware == reference


class TestReportPath:
    def test_reports_survive_forced_flushes(self):
        # A tiny reporting region forces many flushes; the host archive
        # plus the live region must still reconstruct every report.
        machine = compile_ruleset(["ab"])
        strided = to_rate(machine, 4)
        config = SunderConfig(rate_nibbles=4, report_bits=16,
                              metadata_bits=224, fifo=False)
        assert config.report_capacity == config.report_rows  # 1 entry/row
        data = b"ab" * 450  # 450 report cycles > 192-entry capacity
        hardware, reference, device, _ = _run_both(strided, data, config)
        assert hardware == reference
        stats = device.statistics()
        assert stats["flushes"] >= 1

    def test_metadata_unwrap_across_wraparound(self):
        # 4-bit metadata counter wraps every 16 cycles; reconstruction
        # must unwrap it correctly over a much longer run.
        machine = compile_ruleset(["ab"])
        strided = to_rate(machine, 4)
        config = SunderConfig(rate_nibbles=4, report_bits=16,
                              metadata_bits=4, fifo=False)
        data = b"ab" * 120
        hardware, reference, _, _ = _run_both(strided, data, config)
        assert hardware == reference

    def test_summarize_all(self):
        machine = compile_ruleset(["ab", "zz"])
        strided = to_rate(machine, 4)
        # FIFO off: summarization reads what is resident in the region.
        config = SunderConfig(rate_nibbles=4, report_bits=16, fifo=False)
        device = SunderDevice(config)
        device.configure(strided)
        vectors, limit = stream_for(strided, b"xxabxxabxx")
        device.run(vectors, position_limit=limit)
        summary, stall = device.summarize_all()
        reported_codes = {
            strided.state(state_id).report_code for state_id in summary
        }
        assert reported_codes == {0}  # rule 0 ("ab") fired, rule 1 did not
        assert stall >= config.summarize_stall_cycles

    def test_slowdown_accounts_stalls(self):
        machine = compile_ruleset(["ab"])
        strided = to_rate(machine, 4)
        config = SunderConfig(rate_nibbles=4, report_bits=16,
                              metadata_bits=224, fifo=False,
                              flush_rows_per_cycle=1)
        device = SunderDevice(config)
        device.configure(strided)
        vectors, limit = stream_for(strided, b"ab" * 400)
        result = device.run(vectors, position_limit=limit)
        assert result.slowdown > 1.0


class TestConfigurationErrors:
    def test_byte_automaton_rejected(self, small_ruleset):
        device = SunderDevice(SunderConfig())
        with pytest.raises(ArchitectureError):
            device.configure(small_ruleset)

    def test_step_before_configure_rejected(self):
        with pytest.raises(ArchitectureError):
            SunderDevice().step((0, 0, 0, 0))

    def test_multi_pu_automaton_uses_global_switch(self):
        # A >256-state connected component must span PUs and still match.
        automaton = Automaton(bits=4, arity=1, start_period=2)
        previous = None
        length = 300
        for index in range(length):
            state_id = "s%d" % index
            automaton.new_state(
                state_id, SymbolSet.of(4, [index % 16]),
                start="all-input" if index == 0 else "none",
                report=index == length - 1,
                report_code="end" if index == length - 1 else None,
            )
            if previous:
                automaton.add_transition(previous, state_id)
            previous = state_id
        config = SunderConfig(rate_nibbles=1, report_bits=12)
        device = SunderDevice(config)
        placement = device.configure(automaton)
        assert len(placement.pus_used()) >= 2
        stream = [index % 16 for index in range(length)]
        result = device.run(stream, position_limit=length)
        keys = result.reports().event_keys()
        assert keys == {(length - 1, "end")}


@st.composite
def _placed_states(draw):
    """A rate, then random STEs on distinct columns of one PU: both start
    kinds and none, reporting states on the reporting columns only."""
    config = SunderConfig(rate_nibbles=draw(st.sampled_from([1, 2, 4])))
    base = config.subarray_cols - config.report_bits
    columns = draw(st.lists(st.integers(0, base - 1), unique=True,
                            max_size=20))
    columns += draw(st.lists(st.integers(base, config.subarray_cols - 1),
                             unique=True, max_size=config.report_bits))
    placed = []
    for index, column in enumerate(draw(st.permutations(columns))):
        report = column >= base
        placed.append((column, Ste(
            "s%d" % index,
            [SymbolSet(4, draw(st.integers(0, 0xFFFF)))
             for _ in range(config.rate_nibbles)],
            start=draw(st.sampled_from(list(StartKind))), report=report,
            report_code="r%d" % index if report else None)))
    return config, placed


def _written_cell_by_cell(config, placed):
    """What writing ``placed`` one state at a time, one cell at a time,
    leaves: matching rows (complemented), start vectors, report mask."""
    cols = config.subarray_cols
    cells = np.ones((config.matching_rows, cols), dtype=bool)
    vectors = {kind: np.zeros(cols, dtype=bool)
               for kind in (StartKind.ALL_INPUT, StartKind.START_OF_DATA,
                            "report")}
    for column, state in placed:
        for position, symbol_set in enumerate(state.symbols):
            for value in range(16):
                cells[position * 16 + value, column] = value not in symbol_set
        if state.start in vectors:
            vectors[state.start][column] = True
        if state.report:
            vectors["report"][column] = True
    return cells, vectors


class TestOneWriteConfigure:
    @settings(max_examples=40, deadline=None)
    @given(_placed_states())
    def test_one_write_equals_per_state_writes(self, case):
        config, placed = case
        at_once = ProcessingUnit(config)
        at_once.configure(placed)
        per_state = ProcessingUnit(config)
        for column, state in placed:
            per_state.configure([(column, state)])
        cells, vectors = _written_cell_by_cell(config, placed)
        identities = [None] * config.subarray_cols
        for column, state in placed:
            identities[column] = state
        rows = config.matching_rows
        for pu in (at_once, per_state):
            assert (pu.subarray.cells[:rows] == cells).all()
            assert not pu.subarray.cells[rows:].any()
            assert (pu.all_input_vector
                    == vectors[StartKind.ALL_INPUT]).all()
            assert (pu.start_of_data_vector
                    == vectors[StartKind.START_OF_DATA]).all()
            assert (pu.report_column_mask == vectors["report"]).all()
            assert pu.state_of_column == identities

    def test_wrong_kind_of_column_rejected_before_any_write(self):
        pu = ProcessingUnit(SunderConfig(rate_nibbles=1))
        base = pu.report_column_base
        start = Ste("a", SymbolSet.of(4, [1]), start="all-input")
        reporting = Ste("b", SymbolSet.of(4, [2]), report=True,
                        report_code="b")
        for placed in ([(0, start), (1, reporting)],
                       [(base, reporting), (base + 1, start)]):
            with pytest.raises(ArchitectureError, match="column"):
                pu.configure(placed)
            assert pu.state_of_column == [None] * len(pu.state_of_column)
            assert pu.subarray.cells[:16].all()
            assert not (pu.all_input_vector.any()
                        or pu.report_column_mask.any())
