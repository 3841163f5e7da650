# Development targets for the Leviathan reproduction.

PYTHON ?= python

.PHONY: install test experiments report examples clean

install:
	pip install -e . || pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

experiments:
	$(PYTHON) -m repro.experiments all

report:
	$(PYTHON) -m repro.experiments all --markdown report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; rm -f report.md
