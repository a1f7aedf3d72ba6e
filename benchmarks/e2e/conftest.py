"""pytest wiring for ``pytest benchmarks/e2e``."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def fresh_report():
    """Shadows ``benchmarks/conftest.py``'s fixture of the same name,
    which resets ``bench_report.txt`` at the repo root: this benchmark
    writes only under its own directory."""
    yield
