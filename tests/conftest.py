from concurrent.futures import Future

import pytest

from tensorball import montecarlo


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the Monte-Carlo thread pool with one that runs each job at
    submission, so no thread starts; returns the list of the pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
    return sizes
