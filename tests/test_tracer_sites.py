"""Every site the benchmark's tracer wraps still names an attribute of the
program, so a renamed or dropped import fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


SITES = _sites()


def test_sites_are_listed():
    assert SITES


@pytest.mark.parametrize("module,attr", [(site[0], site[1]) for site in SITES])
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
