"""CLI tests (argument wiring and end-to-end command behaviour)."""

import pytest

from repro.cli import main
from repro.runtime import store as runtime_store


def test_store_path_that_is_not_a_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "not-a-dir"
    path.write_text("x", encoding="utf-8")
    try:
        for argv in (["experiment", "table1", "--scale", "0.002"],
                     ["runtime", "info"]):
            assert main(["--artifact-dir", str(path)] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert str(path) in captured.err
    finally:
        runtime_store.configure()


def test_artifact_dir_holds_every_kind_and_clears(tmp_path):
    """One flag, one directory: compiled automata land next to the stage
    artifacts, and ``runtime clear`` empties it."""
    directory = str(tmp_path)
    try:
        assert main(["--artifact-dir", directory, "experiment", "table3",
                     "--scale", "0.002"]) == 0
        names = [path.name for path in tmp_path.iterdir()]
        assert any(name.startswith("automaton-") for name in names)
        assert not (tmp_path / "transforms").exists()
        assert main(["--artifact-dir", directory, "runtime", "clear"]) == 0
        assert not list(tmp_path.rglob("*.json"))
    finally:
        runtime_store.configure()


class TestCompile:
    def test_summary(self, capsys):
        assert main(["compile", "abc"]) == 0
        out = capsys.readouterr().out
        assert "3 states" in out

    def test_anml_output(self, capsys):
        assert main(["compile", "ab", "--format", "anml"]) == 0
        assert "state-transition-element" in capsys.readouterr().out

    def test_mnrl_output(self, capsys):
        assert main(["compile", "ab", "--format", "mnrl"]) == 0
        assert '"hState"' in capsys.readouterr().out

    def test_dot_output(self, capsys):
        assert main(["compile", "ab", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_bad_pattern_reports_error(self, capsys):
        assert main(["compile", "a(("]) == 2
        assert "error:" in capsys.readouterr().err


class TestMatch:
    def test_text_matching(self, capsys):
        assert main(["match", "lo wo", "--text", "hello world"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["7\tlo wo"]
        assert "1 matches" in captured.err

    def test_file_matching(self, tmp_path, capsys):
        path = tmp_path / "input.bin"
        path.write_bytes(b"xx needle xx needle")
        assert main(["match", "needle", "--file", str(path),
                     "--rate", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["8\tneedle", "18\tneedle"]

    def test_byte_offsets_identical_across_rates(self, capsys):
        # positions are derived from the machine geometry, not hardcoded
        for rate in ("1", "2", "4"):
            assert main(["match", "needle", "--text", "xx needle xx needle",
                         "--rate", rate]) == 0
            out = capsys.readouterr().out
            assert out.splitlines() == ["8\tneedle", "18\tneedle"], rate

    def test_engine_plan_is_rejected(self):
        with pytest.raises(SystemExit, match="--plan: match runs on the "
                                             "device"):
            main(["--plan", '{"target": "engine"}', "match", "needle",
                  "--text", "xx needle"])

    def test_unreadable_file_exits_2_before_compiling(self, tmp_path,
                                                      capsys):
        missing = tmp_path / "missing.bin"
        # The pattern is invalid too: the input is read first.
        assert main(["match", "a(", "--file", str(missing)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read %s: No such file or directory\n" % missing)


@pytest.mark.parametrize("argv", [
    ["--device-fidelity", "literal", "match", "ab", "--text", "xab"],
    ["--prefilter", "match", "ab", "--text", "xab"],
    ["--hotcold-coverage", "0.9", "match", "ab", "--text", "xab"],
    ["experiment", "table1", "--batch", "4"],
    ["experiment", "table1", "--shards", "auto"],
    ["experiment", "figure10", "--workers", "2"],
    ["plan", "explain", "a.c", "--stream-bytes", "65536"],
    ["cache", "info"],
    ["--transform-cache", "store", "runtime", "info"],
], ids=["device-fidelity", "prefilter", "hotcold-coverage", "batch",
        "shards", "workers", "stream-bytes", "cache", "transform-cache"])
def test_removed_strategy_flags_are_usage_errors(argv, capsys):
    """``--plan`` is the only strategy flag and ``--artifact-dir`` the only
    store flag; the old ones no longer parse."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "repro: error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_transform(self, capsys):
        assert main(["transform", "ab[0-9]c"]) == 0
        out = capsys.readouterr().out
        assert "1 nibble(s):" in out and "4 nibble(s):" in out

    def test_trace(self, capsys):
        assert main(["trace", "ab", "--text", "xab"]) == 0
        assert "REPORT" in capsys.readouterr().out

    def test_workload(self, capsys):
        assert main(["workload", "Bro217", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "report_cycle_pct" in out

    def test_experiment_table5(self, capsys):
        assert main(["experiment", "table5"]) == 0
        assert "Sunder (14nm)" in capsys.readouterr().out

    def test_experiment_with_scale(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.002"]) == 0
        assert "Snort" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPlanAndCompare:
    def test_plan_recommends_a_rate(self, capsys):
        assert main(["plan", "abc", "--clusters", "4"]) == 0
        out = capsys.readouterr().out
        assert "<- recommended" in out
        assert "effective Gbps" in out

    def test_compare_reports_overheads(self, capsys):
        assert main(["compare", "ab", "--text", "xxabxxab"]) == 0
        out = capsys.readouterr().out
        assert "Sunder (16-bit)" in out
        assert "AP+RAD" in out

    def test_compare_from_file(self, tmp_path, capsys):
        path = tmp_path / "input.bin"
        path.write_bytes(b"needle " * 30)
        assert main(["compare", "needle", "--file", str(path)]) == 0
        assert "reporting overhead" in capsys.readouterr().out

    def test_compare_unreadable_file_exits_2(self, tmp_path, capsys):
        # A directory opens but cannot be read as a file.
        assert main(["compare", "needle", "--file", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot read %s: Is a directory\n" % tmp_path)


class TestProfile:
    def test_profile_workload_writes_metrics_and_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_snapshot

        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(["profile", "workload", "Bro217", "--scale", "0.002",
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "report_cycle_pct" in captured.out
        assert "profile:" in captured.err
        snapshot = json.loads(metrics.read_text())
        validate_snapshot(snapshot)
        names = [m["name"] for m in snapshot["metrics"]]
        assert "repro_engine_cycles_total" in names
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"] == "cli.workload" for e in events)

    def test_profile_without_flags_prints_exposition(self, capsys):
        assert main(["profile", "experiment", "table5"]) == 0
        captured = capsys.readouterr()
        assert "# TYPE repro_experiment_runs_total counter" in captured.err
        assert 'repro_experiment_runs_total{experiment="table5"} 1' \
            in captured.err

    def test_profile_requires_a_command(self, capsys):
        assert main(["profile"]) == 2
        assert "requires a command" in capsys.readouterr().err

    def test_profile_cannot_nest(self, capsys):
        assert main(["profile", "profile", "experiment", "table5"]) == 2
        assert "cannot wrap itself" in capsys.readouterr().err

    def test_flags_work_without_profile_wrapper(self, tmp_path):
        import json

        from repro.obs import validate_snapshot

        metrics = tmp_path / "m.json"
        assert main(["match", "ab", "--text", "xxab",
                     "--metrics-out", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        validate_snapshot(snapshot)
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        cycles = by_name["repro_device_cycles_total"]["samples"][0]["value"]
        assert cycles > 0

    def test_detaches_after_run(self):
        from repro.obs import OBS

        assert main(["profile", "experiment", "table5"]) == 0
        assert not OBS.active

    def test_profile_forwards_root_flags(self, tmp_path):
        """Root flags before ``profile`` reach the wrapped command.

        ``profile`` re-parses its wrapped argv, which starts at the
        subcommand — a literal-fidelity ``--plan`` given before
        ``profile`` must be copied onto the inner namespace or the run
        silently uses the packed kernel.
        """
        import json

        metrics = tmp_path / "m.json"
        assert main(["--plan", '{"target": "device", "fidelity": "literal"}',
                     "profile", "match", "needle",
                     "--text", "xxxneedleyy",
                     "--metrics-out", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        cycles = by_name["repro_device_cycles_total"]["samples"]
        assert cycles and cycles[0]["value"] > 0
        # The literal device never compiles the packed kernel.
        compiles = by_name["repro_device_kernel_compile_seconds"]["samples"]
        assert compiles and compiles[0]["count"] == 0
