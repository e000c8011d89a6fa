"""The package's public names: `from rollwin import *` must import each one."""

import collections

import rollwin as rw


def test_every_export_resolves_and_is_listed_once():
    assert [name for name, count in collections.Counter(rw.__all__).items() if count > 1] == []
    assert [name for name in rw.__all__ if not hasattr(rw, name)] == []
