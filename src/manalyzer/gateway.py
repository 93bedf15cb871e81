"""Provider gateway: a uniform surface for text and vision agent calls.

Every agent interaction in the pipeline goes through Gateway.complete(), so
tests can swap in the deterministic ScriptedProvider and the whole engine
runs with no network and no model. Script entries are keyed on
(request_tag, content digest); the digest covers only the user-visible
content parts, not the system prompt, so prompt-template churn does not
invalidate a recorded script. The request types come from `prompts`, and
`REQUEST_TAGS` is the key set of its tag -> system prompt table.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol, TypeVar

from .config import DEFAULTS
from .errors import (
    DuplicateScriptKeyError,
    EmptyResponseError,
    InvalidRequestError,
    ScriptMissError,
    TransportError,
    UnparseableReplyError,
)
from .prompts import SYSTEM, AgentRequest, ImagePart, TextPart  # ImagePart: re-exported

REQUEST_TAGS = frozenset(SYSTEM)

_PART_SEPARATOR = "\x1e"  # record separator between user parts
BACKOFF_S = (1.0, 2.0, 4.0)  # seconds slept after each failed attempt; the last repeats

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class AgentResponse:
    raw_text: str
    provider_id: str
    latency_ms: int = 0


def digest_request(request: AgentRequest) -> str:
    """Content digest of a request's user parts.

    Text parts contribute their text; image parts contribute the SHA-256 of
    the file bytes plus the caption, so a script binds to the actual image
    content rather than its path.
    """
    pieces: list[str] = []
    for part in request.user_parts:
        if isinstance(part, TextPart):
            pieces.append(part.text)
        else:
            file_digest = hashlib.sha256(Path(part.path).read_bytes()).hexdigest()
            pieces.append(f"image:{file_digest}:{part.caption}")
    joined = _PART_SEPARATOR.join(pieces)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class Provider(Protocol):
    """Answers one AgentRequest, as a vision or text call at temperature 0."""

    provider_id: str

    def complete(self, request: AgentRequest) -> AgentResponse: ...


class ScriptedProvider:
    """Deterministic mock provider: a pure function of (tag, content digest).

    Replies must be registered up front; unknown keys raise ScriptMissError
    at call time. Registration is append-only (duplicate keys rejected), so
    a fully registered provider is read-only and freely shareable between
    worker threads. Every served call is appended to ``calls`` so tests can
    assert exactly which requests were issued.
    """

    provider_id = "scripted"

    def __init__(self) -> None:
        self._script: dict[tuple[str, str], str] = {}
        self.calls: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def register_script(self, tag: str, digest: str, response: str) -> None:
        if tag not in REQUEST_TAGS:
            raise InvalidRequestError(f"unknown request tag {tag!r}")
        key = (tag, digest)
        if key in self._script:
            raise DuplicateScriptKeyError(f"script key already registered: {key}")
        self._script[key] = response

    def complete(self, request: AgentRequest) -> AgentResponse:
        key = (request.request_tag, digest_request(request))
        with self._lock:
            self.calls.append(key)
        try:
            text = self._script[key]
        except KeyError:
            raise ScriptMissError(
                f"no script entry for tag={key[0]!r} digest={key[1][:12]}..."
            ) from None
        return AgentResponse(raw_text=text, provider_id=self.provider_id, latency_ms=0)

    def save_script(self, path: str | Path) -> None:
        lines = [
            json.dumps({"tag": tag, "digest": digest, "response": response})
            for (tag, digest), response in sorted(self._script.items())
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load_script(cls, path: str | Path) -> "ScriptedProvider":
        provider = cls()
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                provider.register_script(
                    record["tag"], record["digest"], record["response"]
                )
            except (json.JSONDecodeError, KeyError, TypeError, InvalidRequestError,
                    DuplicateScriptKeyError) as exc:
                raise ValueError(f"{path}:{lineno}: bad script record: {exc}") from exc
        return provider


class Gateway:
    """Pipeline-facing wrapper enforcing the retry policy.

    Transient TransportErrors are retried with exponential backoff (up to
    ``retries`` attempts, sleeping BACKOFF_S between them); refusals and empty
    replies are surfaced immediately. A semaphore bounds in-flight calls
    across worker threads.

    ``ask`` owns the re-ask policy: a reply the caller's parser rejects is
    asked for again with a format reminder appended. The caller owns the
    fallback once the re-asks run out: a default value, or its own error.

    ``map`` runs independent call chains concurrently: on its calling thread
    and on up to ``max_in_flight - 1`` helper threads, so a ``max_in_flight``
    of 1, or a single item, starts no thread. The semaphore stays the only
    bound on calls in flight. Each thread claims the next item in input
    order and stores its result at that item's index, so no item gets a
    future of its own, and results come back in input order, as a serial
    loop would. Once any item has failed no item is claimed; items already
    claimed finish first, so a failure can leave calls issued for later
    items. ``map`` then raises the exception of the first failing item in
    input order, the one the serial loop would have raised.
    """

    def __init__(
        self,
        provider: Provider,
        retries: int = DEFAULTS.provider_retries,
        max_in_flight: int = DEFAULTS.provider_max_in_flight,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 1:
            raise InvalidRequestError("retries must be >= 1")
        if max_in_flight < 1:
            raise InvalidRequestError("max_in_flight must be >= 1")
        self.provider = provider
        self.retries = retries
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        self._slots = threading.Semaphore(max_in_flight)

    def complete(self, request: AgentRequest) -> AgentResponse:
        last_error: Exception | None = None
        for attempt in range(self.retries):
            try:
                with self._slots:
                    response = self.provider.complete(request)
            except TransportError as exc:
                last_error = exc
                if attempt + 1 < self.retries:
                    self._sleep(BACKOFF_S[min(attempt, len(BACKOFF_S) - 1)])
                continue
            if response.raw_text == "":
                raise EmptyResponseError(
                    f"provider returned empty reply for tag {request.request_tag!r}"
                )
            return response
        assert last_error is not None
        raise last_error

    def ask(
        self, request: AgentRequest, parse: Callable[[str], R], reask: str, attempts: int = 2
    ) -> R | None:
        """``parse`` the reply, asking again with `reask` appended while it
        raises UnparseableReplyError; None after `attempts` failed replies.
        An empty reply raises EmptyResponseError and is not re-asked."""
        for _ in range(attempts):
            try:
                return parse(self.complete(request).raw_text)
            except UnparseableReplyError:
                request = request.with_addendum(reask)
        return None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(item) for item in items]``, with the calls run concurrently."""
        items = list(items)
        results: list[R | None] = [None] * len(items)
        failures: dict[int, BaseException] = {}
        claimed = 0
        lock = threading.Lock()

        def drain() -> None:
            nonlocal claimed
            while True:
                with lock:
                    if failures or claimed == len(items):
                        return
                    index = claimed
                    claimed += 1
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:  # re-raised on the calling thread
                    with lock:
                        failures[index] = exc
                    return

        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            for _ in range(min(self.max_in_flight, len(items)) - 1):
                pool.submit(drain)
            drain()
        if failures:
            raise failures[min(failures)]
        return results  # type: ignore[return-value]
