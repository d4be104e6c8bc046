import pytest

from ftik import memo


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts from empty memo tables, so an oracle compared with
    a fast path computes its own values instead of reading the fast path's."""
    memo.clear()
