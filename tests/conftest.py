import threading

import pytest

from amp_retrain import numerics


@pytest.fixture
def split_threads(monkeypatch):
    """A list that gets, for each ``numerics._split`` call, the number of
    threads that ran its pieces; the calling thread must be one of them."""
    counts = []
    split = numerics._split

    def recording_split(pieces, work):
        ran = set()

        def spy(j, threads):
            ran.add(threading.current_thread())
            work(j, threads)

        split(pieces, spy)
        assert threading.current_thread() in ran
        counts.append(len(ran))

    monkeypatch.setattr(numerics, "_split", recording_split)
    return counts
