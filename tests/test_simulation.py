"""One seeded simulator for the corpus run: thread schedules, kills and
provider outages, all drawn from one seed, in the manner of deterministic
simulation testing (Zhou et al., SIGMOD 2021). Schedules are sampled, not
enumerated, as in systematic concurrency testing on a small scale (CHESS,
Musuvathi et al., OSDI 2008).

Each seed draws a schedule (`Schedule`), seeded single-attempt
`TransportError`s, which the gateway retries, and one plan, fixed by where
the seed falls in `SEEDS`:

- no fault: one of the four golden flows, which must match its pin;
- a kill at commit k of the corpus run (ingest's commits included): the
  temp file of the k-th write is written, and then nothing more happens.
  Every k is covered, but the schedule decides which write is the k-th;
- a provider outage from the first call of a tag the corpus issues, or from
  a seeded call on: every attempt then raises `TransportError`.

After a kill or an outage the run is resumed under a fresh seed's schedule
with a healthy `ScriptedProvider`. The first half must have ended only by
returning, `Killed` or `StageFailure`; the resume must return, with the
clean run's tree byte for byte; and each (tag, digest) the resume repeats
must have been issued after the last finishing artifact the first half
wrote, unless a kill fell between two record writes of the comparative
review batch, whose call a resume repeats. The resume issues no call twice.

A failing case prints its seed and plan, and its node id replays it:
`pytest "tests/test_simulation.py::test_simulated_run[<seed>]"`.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import NamedTuple

import pytest

from manalyzer import gateway, pipeline, synth, workspace
from manalyzer.config import PipelineConfig
from manalyzer.errors import StageFailure, TransportError
from manalyzer.gateway import ScriptedProvider
from manalyzer.pipeline import Pipeline
from manalyzer.workspace import Workspace

from helpers import Killed, tree
from test_golden import FLOWS, _assert_matches_pin

CONFIG = PipelineConfig()
FLOW_RUNS = 10  # schedules per golden flow
SEEDS = range(len(FLOWS) * FLOW_RUNS + 130)
# The artifacts that record a document's (or the analysis's) work as done.
FINISHING = re.compile(r"packed/.*|reviews/d\d\d(\.indep)?\.json|extracted/.*/table\.json"
                       r"|analysis/results\.json")
RECORD = re.compile(r"reviews/d\d\d\.json")


class Schedule:
    """Stands in for `ThreadPoolExecutor`: each pool is this one object, and
    all work runs on the calling thread. `submit` runs its task at once;
    `map` runs its items one at a time in an order drawn from the seed and
    returns their results in input order. So `Gateway.map`'s helpers claim
    items in input order, and documents and review batches complete in a
    seeded order. `permuted` tells whether a drawn order was not input order."""

    def __init__(self, seed: int) -> None:
        self.rng, self.permuted = random.Random(seed), False

    def __call__(self, max_workers: int | None = None) -> "Schedule":
        return self

    def __enter__(self) -> "Schedule":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, fn, *args) -> None:
        fn(*args)

    def map(self, fn, items):
        items = list(items)
        order = self.rng.sample(range(len(items)), len(items))
        self.permuted |= order != sorted(order)
        results = [None] * len(items)
        for index in order:
            results[index] = fn(items[index])
        return iter(results)


class Plan(NamedTuple):
    flow: str | None = None  # a golden flow, run without a fault
    kill: int | None = None  # the commit whose temp file is the last write
    down_tag: str | None = None  # the provider is down from this tag's first call...
    down_at: float = math.inf  # ...or from this call on, counted from 0
    drops: frozenset[int] = frozenset()  # the calls whose first attempt fails


def draw(seed: int, commits: int, calls: int, tags: list[str]) -> tuple[Plan, int, int]:
    """`seed`'s plan, and the seeds of its first and its resumed schedule."""
    rng = random.Random(seed)
    drops = frozenset(n for n in range(calls) if rng.random() < 0.1)
    i = seed - len(FLOWS) * FLOW_RUNS
    if i < 0:
        plan = Plan(flow=sorted(FLOWS)[seed % len(FLOWS)], drops=drops)
    elif i < commits:
        plan = Plan(kill=i, drops=drops)
    elif i < commits + len(tags):
        plan = Plan(down_tag=tags[i - commits], drops=drops)
    else:
        plan = Plan(down_at=rng.randrange(calls), drops=drops)
    return plan, rng.getrandbits(32), rng.getrandbits(32)


def faulty(plan: Plan) -> type[ScriptedProvider]:
    """A ScriptedProvider that fails the attempts `plan` says, before serving."""
    down_at, dropped = plan.down_at, set()

    class FaultyProvider(ScriptedProvider):
        def complete(self, request):
            nonlocal down_at
            call = len(self.calls)  # a failed attempt is not served
            if request.request_tag == plan.down_tag:
                down_at = min(down_at, call)
            if call >= down_at or call in plan.drops - dropped:
                dropped.add(call)
                raise TransportError(f"simulated fault at call {call}")
            return super().complete(request)

    return FaultyProvider


@pytest.fixture(scope="module")
def clean(tmp_path_factory, corpus_dir):
    """The tree, commit count, call count and tags, in first-call order, of
    an uninterrupted corpus run on real threads. Checks first that `SEEDS`
    cover every flow, commit and tag."""
    root = tmp_path_factory.mktemp("clean") / "ws"
    provider = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
    pipe = Pipeline(Workspace.init(root, synth.DIRECTION, CONFIG), CONFIG, provider)
    commit, commits = workspace._commit, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workspace, "_commit", lambda tmp, path: (commits.append(path),
                                                               commit(tmp, path)))
        pipe.ingest_dir(corpus_dir / "docs")
        pipe.run(synth.TEMPLATE)
    expected, tags = tree(root), list(dict.fromkeys(tag for tag, _ in provider.calls))
    assert not [name for name in expected if name.endswith(".tmp")]
    plans = [draw(seed, len(commits), len(provider.calls), tags)[0] for seed in SEEDS]
    assert Counter(p.flow for p in plans if p.flow) == dict.fromkeys(FLOWS, FLOW_RUNS)
    assert {p.kill for p in plans} >= set(range(len(commits))), "too few seeds"
    assert {p.down_tag for p in plans} >= set(tags)
    assert any(p.down_at < math.inf for p in plans)
    return expected, len(commits), len(provider.calls), tags


@pytest.mark.parametrize("seed", SEEDS)
def test_simulated_run(seed, clean, corpus_dir, tmp_path, monkeypatch, request):
    expected, commits, calls, tags = clean
    plan, first_seed, resume_seed = draw(seed, commits, calls, tags)
    print(f"seed {seed}: {plan}\nreplay: pytest {request.node.nodeid!r}")
    schedule = Schedule(first_seed)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", schedule)
    monkeypatch.setattr(gateway, "ThreadPoolExecutor", schedule)
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.0,))
    provider = faulty(plan)
    if plan.flow:
        monkeypatch.setattr(pipeline, "ScriptedProvider", provider)  # `build_provider`'s
        _assert_matches_pin(plan.flow, tmp_path / "demo")
        assert schedule.permuted
        return

    root, first = tmp_path / "ws", provider.load_script(corpus_dir / "script.jsonl")
    done, killed = [], []  # (name, calls served by then) per commit; the write killed
    commit = workspace._commit

    def hook(tmp, path):
        name = path.relative_to(root).as_posix()
        if len(done) == plan.kill:  # the temp file is written; nothing more happens
            killed.append(name)
            raise Killed(path)
        commit(tmp, path)
        done.append((name, len(first.calls)))

    pipe = Pipeline(Workspace.init(root, synth.DIRECTION, CONFIG), CONFIG, first)
    ingested = False
    with monkeypatch.context() as patch:
        patch.setattr(workspace, "_commit", hook)
        try:
            pipe.ingest_dir(corpus_dir / "docs")
            ingested = True
            pipe.run(synth.TEMPLATE)
        except (Killed, StageFailure):
            pass
    assert bool(killed) == (plan.kill is not None)

    schedule.rng.seed(resume_seed)
    healthy = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
    resumed = Pipeline(Workspace.load(root), CONFIG, healthy)
    if not ingested:
        resumed.ingest_dir(corpus_dir / "docs")
    resumed.run(synth.TEMPLATE)
    got = tree(root)
    assert got == expected, sorted(n for n in got.keys() | expected if got.get(n) != expected.get(n))
    assert schedule.permuted

    # A call issued before the last finishing artifact was written is
    # vouched for by it and never repeated, but for the comparative batch's.
    assert len(set(healthy.calls)) == len(healthy.calls)
    vouched = max([served for name, served in done if FINISHING.fullmatch(name)], default=0)
    repeated = set(first.calls[:vouched]) & set(healthy.calls)
    if repeated:
        assert killed and RECORD.fullmatch(killed[0]) and RECORD.fullmatch(done[-1][0])
        assert repeated == {first.calls[-1]} and first.calls[-1][0] == "comparative_review"
