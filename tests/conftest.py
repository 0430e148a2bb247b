"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def level():
    """Selfcheck level for a check collected as a test: the full ranges."""
    return "full"
