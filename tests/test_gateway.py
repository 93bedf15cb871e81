import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from manalyzer import gateway as gateway_module
from manalyzer.errors import (
    DuplicateScriptKeyError,
    EmptyResponseError,
    InvalidRequestError,
    ScriptMissError,
    TransportError,
    UnparseableReplyError,
)
from manalyzer.gateway import (
    AgentRequest,
    AgentResponse,
    Gateway,
    ImagePart,
    ScriptedProvider,
    TextPart,
    digest_request,
)

from helpers import register_for


def text_request(*texts, tag="extract"):
    return AgentRequest(
        system_prompt="system",
        user_parts=tuple(TextPart(t) for t in texts),
        request_tag=tag,
    )


class FlakyProvider:
    """Fails with TransportError a fixed number of times, then succeeds."""

    provider_id = "flaky"

    def __init__(self, failures, reply="ok"):
        self.failures = failures
        self.reply = reply
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("socket reset")
        return AgentResponse(raw_text=self.reply, provider_id=self.provider_id)


def test_digest_depends_only_on_user_parts():
    a = text_request("hello")
    b = AgentRequest(
        system_prompt="a completely different system prompt",
        user_parts=(TextPart("hello"),),
        request_tag="extract",
    )
    assert digest_request(a) == digest_request(b)


def test_digest_distinguishes_part_boundaries():
    assert digest_request(text_request("ab", "c")) != digest_request(text_request("a", "bc"))
    assert digest_request(text_request("x")) != digest_request(text_request("x", ""))


def test_digest_covers_image_bytes_and_caption(tmp_path):
    img = tmp_path / "fig.png"
    img.write_bytes(b"pixels-v1")

    def vision(caption):
        return AgentRequest(
            system_prompt="s",
            user_parts=(ImagePart(str(img), caption),),
            request_tag="table_convert",
        )

    d1 = digest_request(vision("cap"))
    assert digest_request(vision("cap")) == d1
    assert digest_request(vision("other")) != d1
    img.write_bytes(b"pixels-v2")
    assert digest_request(vision("cap")) != d1


def test_digest_ignores_image_path(tmp_path):
    a = tmp_path / "a.png"
    b = tmp_path / "sub"
    b.mkdir()
    b = b / "b.png"
    a.write_bytes(b"same bytes")
    b.write_bytes(b"same bytes")

    def vision(path):
        return AgentRequest(
            system_prompt="s",
            user_parts=(ImagePart(str(path), "cap"),),
            request_tag="table_convert",
        )

    assert digest_request(vision(a)) == digest_request(vision(b))


def test_with_addendum_changes_digest_and_keeps_original():
    req = text_request("body")
    re_ask = req.with_addendum("just the list please")
    assert digest_request(req) != digest_request(re_ask)
    assert req.user_parts == (TextPart("body"),)
    assert re_ask.user_parts[-1] == TextPart("just the list please")


def test_request_validation():
    with pytest.raises(InvalidRequestError):
        text_request("x", tag="not-a-tag")
    with pytest.raises(InvalidRequestError):
        AgentRequest("s", (), "extract")


def test_scripted_provider_round_trip():
    provider = ScriptedProvider()
    req = text_request("question")
    register_for(provider, req, "answer")
    assert provider.complete(req).raw_text == "answer"
    assert provider.complete(req).raw_text == "answer"
    assert provider.calls.count(("extract", digest_request(req))) == 2


def test_scripted_provider_misses_loudly():
    provider = ScriptedProvider()
    with pytest.raises(ScriptMissError):
        provider.complete(text_request("never registered"))


def test_scripted_provider_rejects_duplicate_keys():
    provider = ScriptedProvider()
    req = text_request("q")
    register_for(provider, req, "a")
    with pytest.raises(DuplicateScriptKeyError):
        register_for(provider, req, "different")


def test_script_save_load_round_trip(tmp_path):
    provider = ScriptedProvider()
    reqs = [text_request(f"q{i}") for i in range(5)]
    for i, req in enumerate(reqs):
        register_for(provider, req, f"a{i}\nwith a second line")
    path = tmp_path / "script.jsonl"
    provider.save_script(path)

    loaded = ScriptedProvider.load_script(path)
    for i, req in enumerate(reqs):
        assert loaded.complete(req).raw_text == f"a{i}\nwith a second line"


def test_script_load_rejects_bad_records(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"tag": "extract", "digest": "d1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="script.jsonl:1"):
        ScriptedProvider.load_script(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ScriptedProvider.load_script(path)


def test_gateway_retries_transport_errors_with_backoff():
    provider = FlakyProvider(failures=2)
    delays = []
    gateway = Gateway(provider, retries=3, sleep=delays.append)
    assert gateway.complete(text_request("x")).raw_text == "ok"
    assert provider.attempts == 3
    assert delays == [1.0, 2.0]


def test_gateway_gives_up_after_retry_budget():
    provider = FlakyProvider(failures=99)
    delays = []
    gateway = Gateway(provider, retries=3, sleep=delays.append)
    with pytest.raises(TransportError):
        gateway.complete(text_request("x"))
    assert provider.attempts == 3
    assert delays == [1.0, 2.0]


def test_gateway_does_not_retry_empty_replies():
    provider = FlakyProvider(failures=0, reply="")
    gateway = Gateway(provider, sleep=lambda s: None)
    with pytest.raises(EmptyResponseError):
        gateway.complete(text_request("x"))
    assert provider.attempts == 1


class ReplyListProvider:
    """Serves `replies` in order and records the text parts of each request."""

    provider_id = "list"

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []

    def complete(self, request):
        self.requests.append(tuple(part.text for part in request.user_parts))
        return AgentResponse(raw_text=self.replies.pop(0), provider_id=self.provider_id)


def parse_digits(reply):
    if not reply.isdigit():
        raise UnparseableReplyError(f"not digits: {reply!r}")
    return int(reply)


def test_ask_chains_one_addendum_per_reask_in_order():
    provider = ReplyListProvider("no", "still no", "7")
    gateway = Gateway(provider, sleep=lambda s: None)
    assert gateway.ask(text_request("q"), parse_digits, "digits only", attempts=3) == 7
    assert provider.requests == [
        ("q",), ("q", "digits only"), ("q", "digits only", "digits only"),
    ]


@pytest.mark.parametrize("attempts", [1, 2, 3])
def test_ask_honours_attempts(attempts):
    provider = ReplyListProvider(*["no"] * (attempts - 1), "7", "8")
    gateway = Gateway(provider, sleep=lambda s: None)
    assert gateway.ask(text_request("q"), parse_digits, "again", attempts=attempts) == 7
    assert len(provider.requests) == attempts


def test_ask_returns_none_after_the_last_failed_reply():
    provider = ReplyListProvider("no", "no", "7")
    gateway = Gateway(provider, sleep=lambda s: None)
    assert gateway.ask(text_request("q"), parse_digits, "again") is None
    assert provider.requests == [("q",), ("q", "again")]


def test_ask_does_not_reask_an_empty_reply():
    provider = ReplyListProvider("", "7")
    gateway = Gateway(provider, sleep=lambda s: None)
    with pytest.raises(EmptyResponseError):
        gateway.ask(text_request("q"), parse_digits, "again")
    assert provider.requests == [("q",)]


def test_ask_leaves_transport_retries_to_complete():
    provider = FlakyProvider(failures=2, reply="7")
    delays = []
    gateway = Gateway(provider, retries=3, sleep=delays.append)
    assert gateway.ask(text_request("q"), parse_digits, "again") == 7
    assert provider.attempts == 3
    assert delays == [1.0, 2.0]


def test_gateway_bounds_in_flight_calls():
    active = 0
    peak = 0
    lock = threading.Lock()
    release = threading.Event()

    class SlowProvider:
        provider_id = "slow"

        def complete(self, request):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            release.wait(timeout=2)
            with lock:
                active -= 1
            return AgentResponse(raw_text="ok", provider_id="slow")

    gateway = Gateway(SlowProvider(), max_in_flight=2, sleep=lambda s: None)
    threads = [
        threading.Thread(target=gateway.complete, args=(text_request(f"q{i}"),))
        for i in range(6)
    ]
    for t in threads:
        t.start()
    # Give the workers a moment to pile up against the semaphore.
    time.sleep(0.2)
    release.set()
    for t in threads:
        t.join()
    assert peak <= 2


def test_gateway_map_calls_fn_directly_for_fewer_than_two_items():
    gateway = Gateway(ScriptedProvider(), sleep=lambda s: None)
    assert gateway.map(lambda i: threading.get_ident(), []) == []
    assert gateway.map(lambda i: threading.get_ident(), [7]) == [threading.get_ident()]


def test_gateway_map_returns_results_in_input_order():
    provider = ScriptedProvider()
    requests = [text_request(f"q{i}") for i in range(4)]
    for i, request in enumerate(requests):
        register_for(provider, request, f"a{i}")
    gateway = Gateway(provider, max_in_flight=4, sleep=lambda s: None)
    done = [threading.Event() for _ in requests]
    finished = []
    lock = threading.Lock()

    def fn(i):
        # Each item waits for the next one, so they finish last-to-first.
        if i + 1 < len(requests):
            assert done[i + 1].wait(timeout=5)
        reply = gateway.complete(requests[i]).raw_text
        with lock:
            finished.append(i)
        done[i].set()
        return reply

    assert gateway.map(fn, range(4)) == ["a0", "a1", "a2", "a3"]
    assert finished == [3, 2, 1, 0]


def test_gateway_map_raises_first_failure_in_input_order():
    gateway = Gateway(ScriptedProvider(), max_in_flight=8, sleep=lambda s: None)
    five_failed = threading.Event()

    def fn(i):
        if i == 5:
            five_failed.set()
            raise ValueError("item 5")
        if i == 2:
            # Fail only after item 5 has, so the later failure comes first.
            assert five_failed.wait(timeout=5)
            raise ValueError("item 2")
        return i

    with pytest.raises(ValueError, match="item 2"):
        gateway.map(fn, range(7))


def test_gateway_map_starts_no_item_after_a_failure_is_seen():
    provider = ScriptedProvider()
    requests = [text_request(f"q{i}") for i in range(32)]
    for request in requests:
        register_for(provider, request, "ok")
    gateway = Gateway(provider, max_in_flight=2, sleep=lambda s: None)
    started = []
    lock = threading.Lock()

    def fn(i):
        with lock:
            started.append(i)
        if i == 0:
            raise ValueError("item 0")
        time.sleep(0.02)
        return gateway.complete(requests[i]).raw_text

    with pytest.raises(ValueError, match="item 0"):
        gateway.map(fn, range(32))
    issued = len(provider.calls)
    time.sleep(0.1)
    assert len(provider.calls) == issued, "an item ran after map returned"
    assert len(started) < 32, "items queued behind the failure still ran"
    expected = {("extract", digest_request(requests[i])) for i in started if i != 0}
    assert set(provider.calls) == expected
    assert len(provider.calls) == len(expected)


def test_gateway_map_submits_one_task_per_thread_not_per_item(monkeypatch):
    submitted = []

    class SpyExecutor(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", SpyExecutor)
    gateway = Gateway(ScriptedProvider(), max_in_flight=4, sleep=lambda s: None)
    assert gateway.map(lambda i: i * i, range(1000)) == [i * i for i in range(1000)]
    assert 1 <= len(submitted) <= 3


def test_gateway_map_with_one_slot_submits_no_task_and_runs_on_the_caller(monkeypatch):
    submitted = []

    class SpyExecutor(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", SpyExecutor)
    gateway = Gateway(ScriptedProvider(), max_in_flight=1, sleep=lambda s: None)
    caller = threading.get_ident()
    assert gateway.map(lambda i: threading.get_ident(), range(5)) == [caller] * 5
    assert submitted == []


def test_gateway_map_stress_keeps_slots_bounded_and_loses_no_call():
    active = 0
    peak = 0
    lock = threading.Lock()

    class CountingProvider(ScriptedProvider):
        def complete(self, request):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                time.sleep(0.0005)
                return super().complete(request)
            finally:
                with lock:
                    active -= 1

    provider = CountingProvider()
    requests = [[text_request(f"item {i} call {k}") for k in range(3)] for i in range(32)]
    for chain in requests:
        for request in chain:
            register_for(provider, request, request.user_parts[0].text)
    gateway = Gateway(provider, max_in_flight=3, sleep=lambda s: None)

    def fn(i):
        return [gateway.complete(request).raw_text for request in requests[i]]

    results = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: results.append(gateway.map(fn, range(32))))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not worker.is_alive()
    assert results == [[[f"item {i} call {k}" for k in range(3)] for i in range(32)]]
    assert 2 <= peak <= 3
    expected = Counter(
        ("extract", digest_request(request)) for chain in requests for request in chain
    )
    assert Counter(provider.calls) == expected
