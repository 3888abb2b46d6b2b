"""Shared test fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(cls, attr) wraps the method cls.attr for this test and
    returns the list that gets one entry per call."""

    def patch(cls, attr):
        calls = []
        original = getattr(cls, attr)

        def counted(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(cls, attr, counted)
        return calls

    return patch
