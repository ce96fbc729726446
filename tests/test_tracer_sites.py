"""Every site the benchmark's tracer wraps still names an attribute of the
program, so a renamed or dropped import fails here and not only in a
traced benchmark run."""

import importlib

import pytest

from helpers import load_tracer_sites

SITES = load_tracer_sites()


def test_sites_are_listed():
    assert SITES


@pytest.mark.parametrize("module,attr", [(site[0], site[1]) for site in SITES])
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
