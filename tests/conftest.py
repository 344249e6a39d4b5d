import importlib
import pkgutil
import threading

import pytest

import amp_retrain
from amp_retrain import numerics


def bindings(name):
    """The package's modules that bind ``numerics.<name>`` under that name
    (numerics itself included), so a test patches every one of them."""
    modules = [importlib.import_module(f"amp_retrain.{info.name}")
               for info in pkgutil.iter_modules(amp_retrain.__path__)]
    return [module for module in modules
            if getattr(module, name, None) is getattr(numerics, name)]


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
    number of threads that ran its block ranges; the calling thread must run
    index 0, the others 1, 2, ... on threads of their own, and the ranges
    must tile [0, blocks) exactly once."""
    counts = SplitCounts()
    split = numerics._split

    def recording_split(blocks, work, threads=None):
        ran = {}
        ranges = []

        def spy(j, a, b):
            ran[j] = threading.current_thread()
            ranges.append((a, b))
            work(j, a, b)

        split(blocks, spy, threads)
        assert ran[0] is threading.current_thread()
        assert sorted(ran) == list(range(len(ran))) and len(set(ran.values())) == len(ran)
        assert sorted(k for a, b in ranges for k in range(a, b)) == list(range(blocks))
        assert all(a < b for a, b in ranges)
        counts.append(len(ran))
        caller = work.__qualname__.split(".<locals>")[0]
        counts.by_caller.setdefault(caller, []).append(len(ran))

    for module in bindings("_split"):
        monkeypatch.setattr(module, "_split", recording_split)
    return counts


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(cpus)`` makes every module that binds
    ``numerics._usable_cpus`` (the kernels' threads and ``simulate``'s
    default ``--jobs``) see ``cpus`` usable CPUs."""
    modules = bindings("_usable_cpus")
    assert {module.__name__ for module in modules} >= {"amp_retrain.numerics",
                                                        "amp_retrain.harness"}

    def set_cpus(cpus):
        for module in modules:
            monkeypatch.setattr(module, "_usable_cpus", lambda: cpus)

    return set_cpus
