# Convenience targets for the Sunder reproduction.

PYTHON ?= python
SCALE ?= 0.02

.PHONY: install test bench repro scorecard scorecard-paper profile-smoke docs clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

repro:
	$(PYTHON) examples/reproduce_paper.py $(SCALE)

scorecard:
	$(PYTHON) -m repro experiment scorecard --scale 0.01

# Full paper-scale scorecard (the EXPERIMENTS.md wall-clock budget run);
# opt-in because it takes tens of minutes on one core.
scorecard-paper:
	$(PYTHON) -m repro experiment scorecard --scale 1.0

profile-smoke:
	$(PYTHON) scripts/check_metrics_schema.py

docs:
	$(PYTHON) scripts/generate_api_docs.py

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
