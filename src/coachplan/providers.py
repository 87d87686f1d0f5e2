"""Chat provider abstraction with transcript record/replay.

Replay keys responses by a fingerprint of the canonicalized request, so any
prompt edit loudly invalidates stale recordings instead of silently replaying
a mismatched response.
"""
from __future__ import annotations

import functools
import json
import os
import time
from typing import NamedTuple

from . import jsonl
from .domain import Record
from .errors import ProviderError, UnencodableText


class ChatRequest(Record, NamedTuple("ChatRequest", [("system_text", str), ("user_text", str)])):
    def __new__(cls, system_text, user_text):
        for text in (system_text, user_text):
            try:
                text.encode()
            except UnicodeEncodeError as exc:
                raise UnencodableText(f"prompt text is not UTF-8: {exc}") from None
        return tuple.__new__(cls, (system_text, user_text))

    def canonical(self) -> str:
        return "\n".join(
            [
                "SYSTEM",
                self.system_text,
                "USER",
                self.user_text,
                # No image is sent; the empty field keeps recorded fingerprints valid.
                "IMAGE",
                "",
            ]
        )

    def fingerprint(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        """The sha256 of `canonical()`, hashed once per request: the replay
        lookup and the run manifest both read it.  It is no field, so
        equality and repr do not see it."""
        import hashlib  # here: only a call that hashes loads OpenSSL
        return hashlib.sha256(self.canonical().encode()).hexdigest()


class ChatResponse(NamedTuple):
    text: str
    provider_id: str
    latency: float = 0.0


class Transcript:
    """Ordered fingerprint -> response-text records."""

    def __init__(self, records=None):
        self.records = {} if records is None else records

    def add(self, fingerprint: str, text: str):
        if fingerprint in self.records:
            raise ProviderError(f"duplicate transcript fingerprint {fingerprint}")
        self.records[fingerprint] = text

    def lookup(self, fingerprint: str) -> str:
        if fingerprint not in self.records:
            raise ProviderError(f"no transcript record for fingerprint {fingerprint}")
        return self.records[fingerprint]

    @classmethod
    def load(cls, path) -> "Transcript":
        # read_records refuses a repeated fingerprint, as add does.
        records = jsonl.read_records(path, ["fingerprint", "response"], "fingerprint")
        return cls({r["fingerprint"]: r["response"] for r in records})

    def save(self, path):
        """One {"fingerprint", "response"} JSON object per line, in order."""
        jsonl.write_records(path, (
            {"fingerprint": fp, "response": text} for fp, text in self.records.items()
        ))


class ReplayChatProvider:
    """Serves responses from a transcript; never touches the network."""

    provider_id = "replay"

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def complete(self, request: ChatRequest) -> ChatResponse:
        text = self.transcript.lookup(request.fingerprint())
        return ChatResponse(text=text, provider_id=self.provider_id)


class RecordingChatProvider:
    """Wraps a live provider and records every exchange into a transcript."""

    def __init__(self, inner):
        self.inner = inner
        self.transcript = Transcript()
        self.provider_id = f"recording({inner.provider_id})"

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        self.transcript.add(request.fingerprint(), response.text)
        return response


class OpenAIChatProvider:
    """Minimal live provider against an OpenAI-style chat endpoint.

    One retry, then fail; no silent fallback.  Client errors (4xx) are not
    retried, except 408 (timeout) and 429 (rate limit).  Credentials come
    from the environment and are never read in replay mode.
    """

    def __init__(self, model: str, base_url: str = "https://api.openai.com/v1",
                 api_key_env: str = "OPENAI_API_KEY"):
        self.model = model
        self.base_url = base_url
        self.api_key_env = api_key_env
        self.provider_id = f"openai:{model}"

    def complete(self, request: ChatRequest) -> ChatResponse:
        # Imported here: only live runs pay for the HTTP stack.
        import http.client
        import urllib.error
        import urllib.request

        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise ProviderError(f"missing credentials in ${self.api_key_env}")
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.append({"role": "user", "content": request.user_text})
        http_request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps({"model": self.model, "messages": messages}).encode(),
            headers={
                "Authorization": f"Bearer {api_key}",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        last_error = None
        for _ in range(2):  # one retry
            start = time.monotonic()
            try:
                with urllib.request.urlopen(http_request, timeout=120) as resp:
                    reply = json.load(resp)
                text = reply["choices"][0]["message"]["content"]
            except urllib.error.HTTPError as exc:
                exc.close()
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise ProviderError(
                        f"provider call failed: HTTP {exc.code} {exc.reason}"
                    ) from exc
                last_error = exc
            except (OSError, http.client.HTTPException,
                    ValueError, LookupError, TypeError) as exc:
                last_error = exc
            else:
                return ChatResponse(
                    text=text,
                    provider_id=self.provider_id,
                    latency=time.monotonic() - start,
                )
        raise ProviderError(f"provider call failed after retry: {last_error}")
