"""Every name a ``repro`` module exports through ``__all__`` exists, so
``from <module> import *`` works for each of them."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def test_walk_finds_the_package_tree():
    assert "repro.federation.replication" in MODULES
    assert "repro.metrics.counters" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
