import pytest

from hypercurrent import complex_core


@pytest.fixture(autouse=True)
def fresh_gaps():
    """Each test starts and ends with no shared gap, so a gap built under a
    monkeypatch never reaches a later test and call counts see cold builds."""
    complex_core._GAPS.clear()
    yield
    complex_core._GAPS.clear()
