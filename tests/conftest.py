import pytest

from aisemiring import terms


@pytest.fixture
def searched(monkeypatch):
    """The Terms whose delta family is searched, in order: every call of
    terms._exact_covers is recorded, then runs as usual."""
    calls = []
    search = terms._exact_covers
    monkeypatch.setattr(terms, "_exact_covers", lambda u: calls.append(u) or search(u))
    return calls
