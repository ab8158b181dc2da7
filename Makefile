# Convenience targets for the Sunder reproduction.

PYTHON ?= python
SCALE ?= 0.02

.PHONY: install test bench bench-smoke repro scorecard scorecard-paper profile-smoke docs clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own tests (about a minute); among them the
# check that every layer entry point it times still exists.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest bench -q

repro:
	PYTHONPATH=src $(PYTHON) examples/reproduce_paper.py $(SCALE)

scorecard:
	PYTHONPATH=src $(PYTHON) -m repro experiment scorecard --scale 0.01

# Full paper-scale scorecard (the EXPERIMENTS.md wall-clock budget run);
# opt-in: its last record had Table 4 done at 97 s with a 1.41 GiB peak
# on one core (EXPERIMENTS.md, "Memory at paper scale").
scorecard-paper:
	PYTHONPATH=src $(PYTHON) -m repro experiment scorecard --scale 1.0

profile-smoke:
	$(PYTHON) scripts/check_metrics_schema.py

docs:
	$(PYTHON) scripts/generate_api_docs.py

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
