"""Differential tests: the stage-graph runtime preserves every output.

``tests/data/golden_experiments.json`` captures the rendered tables,
figures, and scorecard produced *before* the experiments were rewritten
onto the stage-graph runtime (scale 0.002, seed 0).  These tests pin

- byte-identity of every rendered experiment against those goldens,
- byte-identity of the scorecard's rendered table and full-precision
  ``to_json`` payload across a cold-vs-warm artifact store,
- that a warm ``--artifact-dir`` scorecard executes no cacheable stage
  and is served by its result rows alone: ``table1_row``, ``table3_row``
  and ``report_drain`` hit, and nothing below a row is read,
- the cached Table 4 rows and the rate-ladder rungs' bytes against
  pinned digests, so a change to the reporting models or the transforms
  cannot leave warm stores serving stale rows or rungs, and
- the ``scorecard.to_json`` payload schema.
"""

import hashlib
import json
import pathlib

import pytest

from repro import obs
from repro.core.config import SunderConfig
from repro.errors import WorkloadError
from repro.experiments import (figure8, figure10, scorecard, table1, table3,
                               table4)
from repro.runtime import store as runtime_store
from repro.runtime.stages import REGISTRY, _with_fifo
from repro.transform.pipeline import rate_ladder
from repro.workloads import generate

SCALE = 0.002
FAST_NAMES = ["Bro217", "Snort", "TCP", "SPM"]

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_experiments.json")
    .read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def fresh_store():
    """Every test starts and ends with a pristine memory-only store."""
    runtime_store.configure()
    yield
    runtime_store.configure()


class TestGoldenOutputs:
    def test_table1(self):
        rows = table1.run(scale=SCALE, seed=0, names=FAST_NAMES)
        assert table1.render(rows) == GOLDEN["table1"]

    def test_table3(self):
        rows, averages = table3.run(scale=SCALE, seed=0,
                                    names=["Bro217", "TCP"])
        assert table3.render(rows, averages) == GOLDEN["table3"]

    def test_table4_and_figure8(self):
        rows, averages = table4.run(scale=SCALE, seed=0, names=FAST_NAMES)
        assert table4.render(rows, averages) == GOLDEN["table4"]
        figure_rows = figure8.run(table4_rows=rows)
        assert figure8.render(figure_rows) == GOLDEN["figure8"]

    def test_figure10(self):
        assert figure10.render(figure10.run()) == GOLDEN["figure10"]

    def test_scorecard(self):
        claims = scorecard.build_scorecard(scale=SCALE)
        assert scorecard.render(claims) == GOLDEN["scorecard"]
        assert scorecard.to_json(claims) == GOLDEN["scorecard_json"]
        # Hits share masters, so an eviction is the only way one
        # scorecard would re-run a stage or a transform: the default
        # memory tier must hold all of it.
        assert runtime_store.get_store().stats["evictions"] == 0


class TestArtifactStoreInvariance:
    def test_cold_then_warm_scorecard_identical_and_hit_only(self, tmp_path):
        runtime_store.configure(directory=str(tmp_path))
        cold_claims = scorecard.build_scorecard(scale=SCALE)

        # Fresh store on the same directory: drops the memory tier, so
        # the warm run is served purely by on-disk artifacts.
        runtime_store.configure(directory=str(tmp_path))
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            warm_claims = scorecard.build_scorecard(scale=SCALE)
            snapshot = registry.snapshot()
        assert scorecard.render(cold_claims) == scorecard.render(warm_claims)
        # Outside the collector, so neither payload embeds metrics: the
        # comparison is of the full-precision claim values.
        assert scorecard.to_json(cold_claims) == scorecard.to_json(warm_claims)

        misses = registry.get("repro_runtime_stage_misses_total")
        hits = registry.get("repro_runtime_stage_hits_total")
        cacheable = {name for name, entry in REGISTRY.items()
                     if entry.cacheable}
        for stage in cacheable:
            assert misses.labels(stage=stage).value == 0, stage
        for stage in ("table1_row", "table3_row", "report_drain"):
            assert hits.labels(stage=stage).value > 0, stage
        # A row hit removes the demand on everything below it.
        for stage in ("generate", "simulate8", "simulate_strided", "to_rate"):
            assert hits.labels(stage=stage).value == 0, stage
            assert misses.labels(stage=stage).value == 0, stage
        # The acceptance signal is also visible in the embedded metrics
        # snapshot (what --metrics-out exports).
        by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
        samples = by_name["repro_runtime_stage_misses_total"]["samples"]
        executed = {sample["labels"]["stage"] for sample in samples
                    if sample["value"] > 0}
        assert executed.isdisjoint(cacheable)


#: ``(CODE_VERSION, sha256 of the FAST_NAMES Table 4 rows at SCALE)``.
TABLE4_ROWS_PIN = (
    "2026.10-runtime-4",
    "a01b9c939951480990e836b07f1671cebb5cb0bdd842d6f5ab66d1f0fe18a85e",
)

#: ``(CODE_VERSION, sha256 over the dumps() of every rung rate_ladder
#: builds for FAST_NAMES at SCALE, seed 0)``.  Unlike a fingerprint, the
#: bytes change when a transform only reorders states.
RUNG_BYTES_PIN = (
    "2026.10-runtime-4",
    "d1a3ccfed0ca852fce95affd7aa4704fb1c59877b4149394d6c92deaad82fc74",
)


class TestCachedRowsStaleness:
    def test_table4_rows_match_the_code_version(self):
        rows, _ = table4.run(scale=SCALE, seed=0, names=FAST_NAMES)
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
        assert (runtime_store.CODE_VERSION, digest) == TABLE4_ROWS_PIN, (
            "the Table 4 rows changed, so warm stores would serve stale "
            "ones: bump runtime.store.CODE_VERSION and re-pin "
            "TABLE4_ROWS_PIN")

    def test_rung_bytes_match_the_code_version(self):
        digest = hashlib.sha256()
        for name in FAST_NAMES:
            ladder = rate_ladder(generate(name, scale=SCALE, seed=0).automaton)
            for rate in sorted(ladder):
                digest.update(ladder[rate].dumps().encode("utf-8"))
        assert (runtime_store.CODE_VERSION,
                digest.hexdigest()) == RUNG_BYTES_PIN, (
            "the rate-ladder rungs changed their bytes, so warm stores "
            "would serve stale ones: bump runtime.store.CODE_VERSION and "
            "re-pin RUNG_BYTES_PIN")


class TestToJsonSchema:
    def test_payload_schema(self):
        claims = scorecard.build_scorecard(
            scale=SCALE)[:3]  # schema, not values
        payload = json.loads(scorecard.to_json(claims))
        assert set(payload) == {"claims", "metrics"}
        assert payload["metrics"] is None  # no collector attached
        for record in payload["claims"]:
            assert set(record) == {"claim", "paper", "measured", "band",
                                   "verdict"}
            assert isinstance(record["claim"], str)
            assert isinstance(record["measured"], (int, float))
            assert record["verdict"] in ("PASS", "FAIL")

    def test_payload_embeds_metrics_when_collecting(self):
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            claims = scorecard.build_scorecard(scale=SCALE)
            payload = json.loads(scorecard.to_json(claims))
        assert isinstance(payload["metrics"], dict)
        names = {metric["name"] for metric in payload["metrics"]["metrics"]}
        assert "repro_runtime_stage_misses_total" in names


class TestSelectionGuards:
    def test_empty_selection_raises(self):
        for run in (table1.run, table3.run, table4.run):
            with pytest.raises(ValueError, match="empty benchmark selection"):
                run(scale=SCALE, names=[])

    def test_unknown_benchmark_still_fails_cleanly(self):
        with pytest.raises(WorkloadError):
            table1.run(scale=SCALE, names=["NoSuchBenchmark"])


class TestCustomInstancePath:
    def test_evaluate_benchmark_without_paper_row(self):
        # A custom instance carries no paper columns; the row must come
        # back with them empty instead of raising (regression test).
        instance = generate("Bro217", scale=SCALE, seed=0)
        custom = type(instance)(
            name="custom", family="synthetic",
            automaton=instance.automaton,
            input_bytes=instance.input_bytes)
        row = table4.evaluate_benchmark(custom, scale=SCALE)
        assert row["benchmark"] == "custom"
        assert row["paper_sunder"] is None
        assert row["paper_ap"] is None
        assert row["sunder_overhead"] >= 1.0

    def test_evaluate_benchmark_matches_stage_path(self):
        instance = generate("Bro217", scale=SCALE, seed=0)
        direct = table4.evaluate_benchmark(instance, scale=SCALE)
        rows, _ = table4.run(scale=SCALE, seed=0, names=["Bro217"])
        assert direct == rows[0]

    def test_custom_config_keeps_its_subarray_geometry(self):
        config = SunderConfig(rate_nibbles=4, subarray_rows=128)
        clone = _with_fifo(config, not config.fifo)
        assert vars(clone) == dict(vars(config), fifo=not config.fifo)
        instance = generate("Snort", scale=SCALE, seed=0)
        small = table4.evaluate_benchmark(instance, config=config,
                                          scale=SCALE)
        default = table4.evaluate_benchmark(instance, scale=SCALE)
        assert small["sunder_flushes"] != default["sunder_flushes"]
