"""The README and stage-wise flows under seeded schedules.

`SeededExecutor` stands in for `ThreadPoolExecutor` in the pipeline and the
gateway and runs all work on the calling thread: `submit` runs its task at
once, and `map` runs its items one at a time, in an order drawn from a
seed, and returns their results in input order. So every document's work
(and every review batch) completes in a seeded order, and an artifact,
agent call or transcript line that depends on completion order differs
from the golden pin for some seed. After systematic concurrency testing
(CHESS, Musuvathi et al., OSDI 2008), on a small scale: the schedules are
sampled, not enumerated.
"""

from __future__ import annotations

import random
from concurrent.futures import Future

import pytest

from manalyzer import gateway, pipeline

from test_golden import _assert_matches_pin


def seeded_executor(seed: int) -> type:
    """An executor class whose instances share one generator seeded by `seed`."""
    rng = random.Random(seed)

    class SeededExecutor:
        def __init__(self, max_workers: int | None = None) -> None:
            pass

        def __enter__(self) -> "SeededExecutor":
            return self

        def __exit__(self, *exc_info) -> None:
            return None

        def submit(self, fn, *args, **kwargs) -> Future:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:
                future.set_exception(exc)
            return future

        def map(self, fn, *iterables):
            items = list(zip(*iterables))
            order = list(range(len(items)))
            rng.shuffle(order)
            results = [None] * len(items)
            for index in order:
                results[index] = fn(*items[index])
            return iter(results)

    return SeededExecutor


def test_seeded_executor_runs_in_a_seeded_order_and_returns_input_order():
    ran = []

    def square(i):
        ran.append(i)
        return i * i

    with seeded_executor(3)() as pool:
        assert list(pool.map(square, range(8))) == [i * i for i in range(8)]
    assert sorted(ran) == list(range(8)) and ran != list(range(8))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("flow", ["readme", "stagewise"])
def test_flow_matches_the_pin_under_a_seeded_schedule(flow, seed, tmp_path, monkeypatch):
    executor = seeded_executor(seed)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", executor)
    monkeypatch.setattr(gateway, "ThreadPoolExecutor", executor)
    _assert_matches_pin(flow, tmp_path / "demo")
