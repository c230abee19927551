import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced while fn(*args, **kwargs) runs, over what was
    traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The memory gates' measure: bytes of the largest allocation peak of
    one call, numpy arrays included."""
    return _traced_peak
