import threading

import pytest

from amp_retrain import glm, numerics


class SplitCounts(list):
    """The number of threads that ran each ``numerics._split`` call, in call
    order; ``by_caller`` holds them per calling function, keyed by its
    qualified name (``"OptimalGlm._evaluate"``)."""

    def __init__(self):
        super().__init__()
        self.by_caller = {}

    def clear(self):
        super().clear()
        self.by_caller.clear()


@pytest.fixture
def split_threads(monkeypatch):
    """A :class:`SplitCounts` that gets, for each ``numerics._split`` call, the
    number of threads that ran its pieces; the calling thread must be one of
    them."""
    counts = SplitCounts()
    split = numerics._split

    def recording_split(pieces, work):
        ran = set()

        def spy(j, threads):
            ran.add(threading.current_thread())
            work(j, threads)

        split(pieces, spy)
        assert threading.current_thread() in ran
        counts.append(len(ran))
        caller = work.__qualname__.split(".<locals>")[0]
        counts.by_caller.setdefault(caller, []).append(len(ran))

    # glm binds the name too
    for module in (numerics, glm):
        monkeypatch.setattr(module, "_split", recording_split)
    return counts
