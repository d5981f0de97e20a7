"""The benchmark tracer's patches land on real coptree names and come off.

``bench/spans.py`` wraps coptree functions by name.  A rename or removal
in the package would otherwise surface only in traced benchmark runs.
"""
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

if not (BENCH_DIR / "spans.py").exists():
    pytest.skip("bench/spans.py not present", allow_module_level=True)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_install_then_uninstall_restores_every_patched_name(spans):
    import coptree.cli  # noqa: F401  the tracer patches the CLI module too

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched, "the tracer patched nothing"
        for owner, name, original in patched:
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)
