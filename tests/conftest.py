"""Fixtures shared by the test modules."""

import pytest


def rebuilt(record, **changes):
    """A copy of a record with some fields changed, rebuilt from its fields
    (the fields of a record class are its own annotations)."""
    fields = {name: getattr(record, name) for name in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


@pytest.fixture
def replace():
    return rebuilt
