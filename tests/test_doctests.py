"""Every doctest in the package runs in tier-1."""

import doctest
import importlib
import pkgutil

import pytest

import heckeo

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(heckeo.__path__, prefix="heckeo.")
)


@pytest.mark.parametrize("name", ["heckeo"] + MODULES)
def test_module_doctests_pass(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


def test_doctests_are_collected():
    # laurent and weyl carry examples; a silently empty run would pass above
    for name, at_least in (("heckeo.laurent", 5), ("heckeo.weyl", 4)):
        _, attempted = doctest.testmod(importlib.import_module(name))
        assert attempted >= at_least, name
