"""Benchmark-harness configuration.

Every benchmark regenerates one paper artifact (table or figure), prints
it next to the paper's reference values, and saves the rendered table
under ``results/``.  Wall-clock timing comes from pytest-benchmark; the
artifact itself is the real output.

Scale: workload-driven experiments default to REPRO_BENCH_SCALE (2% of
the paper's 1MB stream / state counts).  Raise it for higher-fidelity
runs: ``REPRO_BENCH_SCALE=0.05 pytest benchmarks/ --benchmark-only``.
"""

import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The benches import ``repro`` from the checkout without PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

#: Fraction of the paper's input/automaton sizes used by the benches.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))

RESULTS_DIR = ROOT / "results"


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment table under results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name, text):
        path = RESULTS_DIR / ("%s.txt" % name)
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)
        return path

    return _save
