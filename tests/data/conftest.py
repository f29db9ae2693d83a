import pytest

from repro.dv.loop import EventLoop


@pytest.fixture
def loop():
    """A running event loop, as a node's DV server gives its data port."""
    loop = EventLoop(workers=1)
    loop.start()
    yield loop
    loop.stop()
