"""Visualization and tracing tests."""

import pytest

from repro.automata import outline, single_pattern, to_dot, write_dot
from repro.sim import Tracer


class TestDot:
    def test_structure_present(self, abc_automaton):
        dot = to_dot(abc_automaton)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for state in abc_automaton:
            assert '"%s"' % state.id in dot
        assert "doublecircle" in dot  # reporting state styled
        assert "color=blue" in dot    # all-input start styled

    def test_edges_rendered(self):
        machine = single_pattern("p", b"ab")
        dot = to_dot(machine)
        assert '"p_0" -> "p_1";' in dot

    def test_size_guard(self, abc_automaton):
        with pytest.raises(ValueError):
            to_dot(abc_automaton, max_states=1)

    def test_escaping(self):
        machine = single_pattern('we"ird', b"ab")
        assert '\\"' in to_dot(machine)

    def test_write_dot(self, tmp_path, abc_automaton):
        path = tmp_path / "a.dot"
        write_dot(abc_automaton, str(path))
        assert path.read_text().startswith("digraph")


class TestOutline:
    def test_flags_and_truncation(self):
        machine = single_pattern("p", b"abcdef")
        text = outline(machine, max_states=3)
        assert "[S " in text or "[S]" in text.replace("  ", " ")
        assert "more states" in text

    def test_full_render(self, abc_automaton):
        text = outline(abc_automaton)
        assert "3 states" in text


class TestTracer:
    def test_trace_contents(self, abc_automaton):
        tracer = Tracer(abc_automaton)
        recorder = tracer.run(list(b"xabc"))
        assert recorder.positions() == [3]
        assert len(tracer.cycles) == 4
        assert tracer.cycles[0].active == []
        assert tracer.cycles[3].reports == [("p2", "abc")]
        assert tracer.report_cycles() == [3]
        assert tracer.active_counts() == [0, 1, 1, 1]

    def test_render(self, abc_automaton):
        tracer = Tracer(abc_automaton)
        tracer.run(list(b"abcab"))
        text = tracer.render(max_cycles=3)
        assert "REPORT abc" in tracer.render()
        assert "more cycles" in text

    def test_as_dict(self, abc_automaton):
        tracer = Tracer(abc_automaton)
        tracer.run(list(b"abc"))
        record = tracer.cycles[2].as_dict()
        assert record["cycle"] == 2
        assert record["reports"] == [{"state": "p2", "code": "abc"}]

    def test_nibble_rendering(self, abc_automaton):
        from repro.transform import to_rate
        from repro.sim import stream_for
        machine = to_rate(abc_automaton, 2)
        tracer = Tracer(machine)
        vectors, limit = stream_for(machine, b"abc")
        recorder = tracer.run(vectors, position_limit=limit)
        assert recorder.total_reports == 1
        assert "/" in tracer.render()  # hex nibble rendering

    def test_rerun_resets_cycles(self, abc_automaton):
        tracer = Tracer(abc_automaton)
        tracer.run(list(b"abcabc"))
        tracer.run(list(b"abc"))
        assert [trace.cycle for trace in tracer.cycles] == [0, 1, 2]
        assert tracer.report_cycles() == [2]


class TestTracerBounded:
    def test_default_behaviour_unchanged(self, abc_automaton):
        tracer = Tracer(abc_automaton)
        tracer.run(list(b"xabc"))
        assert isinstance(tracer.cycles, list)
        assert len(tracer.cycles) == 4
        assert tracer.cycles[0].cycle == 0
