import hashlib
import io
import json
import os
import urllib.error

import pytest
from hypothesis import example, given, settings, strategies as st

import coachplan as cp
from coachplan.actions import MockEmbeddingProvider
from coachplan.errors import (
    CoachParseFailed,
    MalformedRecord,
    ProviderError,
    SyncFailed,
    ValidationFailed,
)
from coachplan.pipeline import DEFAULT_GOAL, RunManifest, make_record, run_generate
from coachplan.providers import (
    ChatRequest,
    OpenAIChatProvider,
    RecordingChatProvider,
    ReplayChatProvider,
    Transcript,
)
from coachplan.refine import load_sync_examples


class TestChatRequest:
    def test_fingerprint_is_stable(self):
        a = ChatRequest("sys", "user")
        b = ChatRequest("sys", "user")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_all_fields(self):
        base = ChatRequest("sys", "user")
        assert base.fingerprint() != ChatRequest("sys2", "user").fingerprint()
        assert base.fingerprint() != ChatRequest("sys", "user2").fingerprint()


    def test_fingerprint_is_the_sha256_of_canonical(self):
        request = ChatRequest("sys", "user\nwith two lines")
        digest = hashlib.sha256(request.canonical().encode()).hexdigest()
        assert request.fingerprint() == digest
        assert request.fingerprint() == digest  # a second call reads the kept digest

    def test_kept_digest_is_not_part_of_the_request(self):
        hashed, fresh = ChatRequest("sys", "user"), ChatRequest("sys", "user")
        hashed.fingerprint()
        assert hashed == fresh and fresh == hashed
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh) == "ChatRequest(system_text='sys', user_text='user')"
        assert hashed != ChatRequest("sys", "other")


class TestTranscript:
    def test_round_trip(self, tmp_path):
        t = Transcript()
        t.add("a" * 64, "first response\nwith two lines")
        t.add("b" * 64, "second")
        path = tmp_path / "t.txt"
        t.save(path)
        again = Transcript.load(path)
        assert again.records == t.records

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.text(), max_size=4))
    @example({"f": "line one\nRESPONSE: x\nlast  \n"})
    @example({"FINGERPRINT: a": "FINGERPRINT: b\nRESPONSE:\n"})
    @example({"a": "", "b": "\r", "c": "x\r\ny\r", "d": " \n\n "})
    def test_any_text_round_trips(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "round_trip.transcript"
        Transcript(records).save(path)
        again = Transcript.load(path)
        assert list(again.records.items()) == list(records.items())

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        Transcript({"a" * 64: "x\ny"}).save(path)
        assert path.read_text() == '{"fingerprint": "%s", "response": "x\\ny"}\n' % ("a" * 64)

    @pytest.mark.parametrize("text, line", [
        ('{"fingerprint": "a", "response": "x"}\nFINGERPRINT: b\n', 2),
        ('{"fingerprint": "a"}\n', 1),
        ('{"fingerprint": "a", "response": 7}\n', 1),
        ('{"fingerprint": "a", "response": "x", "latency": "1"}\n', 1),
        ('["a", "x"]\n', 1),
        ('\n', 1),
        ('{"fingerprint": "a", "response": "x"}\n{"fingerprint": "a", "response": "y"}\n', 2),
    ])
    def test_malformed_line(self, tmp_path, text, line):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        with pytest.raises(MalformedRecord) as exc:
            Transcript.load(path)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_duplicate_fingerprint(self):
        t = Transcript()
        t.add("f" * 64, "x")
        with pytest.raises(ProviderError):
            t.add("f" * 64, "y")

    def test_lookup_missing(self):
        with pytest.raises(ProviderError):
            Transcript().lookup("0" * 64)

    def test_replay_round_trips_through_recording(self):
        class Canned:
            provider_id = "canned"

            def complete(self, request):
                from coachplan.providers import ChatResponse

                return ChatResponse("canned reply", "canned")

        recorder = RecordingChatProvider(Canned())
        request = ChatRequest("sys", "hello")
        assert recorder.complete(request).text == "canned reply"
        replay = ReplayChatProvider(recorder.transcript)
        assert replay.complete(request).text == "canned reply"
        with pytest.raises(ProviderError):
            replay.complete(ChatRequest("sys", "different"))


class TestOpenAIChatProvider:
    """The live provider against the fake `urlopen` of conftest.py."""

    @staticmethod
    def provider():
        return OpenAIChatProvider("m1", base_url="http://example.invalid/v1",
                                  api_key_env="TEST_OPENAI_KEY")

    @staticmethod
    def reply(text):
        return {"choices": [{"message": {"content": text}}]}

    @staticmethod
    def http_error(code):
        return urllib.error.HTTPError("http://example.invalid/v1", code,
                                      "status", {}, io.BytesIO(b"{}"))

    def test_success(self, urlopen):
        calls, outcomes = urlopen
        outcomes.append(self.reply("hello back"))
        response = self.provider().complete(ChatRequest("sys", "hello"))
        assert (response.text, response.provider_id) == ("hello back", "openai:m1")
        (request,) = calls
        assert request.full_url == "http://example.invalid/v1/chat/completions"
        assert request.get_method() == "POST"
        assert request.get_header("Authorization") == "Bearer sk-test"
        assert json.loads(request.data) == {
            "model": "m1",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "hello"},
            ],
        }

    def test_client_error_not_retried(self, urlopen):
        calls, outcomes = urlopen
        outcomes.append(self.http_error(401))
        with pytest.raises(ProviderError, match="401"):
            self.provider().complete(ChatRequest("sys", "hello"))
        assert len(calls) == 1

    @pytest.mark.parametrize("code", [408, 429, 500])
    def test_retryable_error_then_success(self, urlopen, code):
        calls, outcomes = urlopen
        outcomes.extend([self.http_error(code), self.reply("second try")])
        assert self.provider().complete(ChatRequest("sys", "hi")).text == "second try"
        assert len(calls) == 2

    def test_fails_after_one_retry(self, urlopen):
        calls, outcomes = urlopen
        outcomes.extend([self.http_error(500), {"choices": []}])
        with pytest.raises(ProviderError, match="after retry"):
            self.provider().complete(ChatRequest("sys", "hi"))
        assert len(calls) == 2

    def test_missing_key(self, urlopen, monkeypatch):
        calls, _ = urlopen
        monkeypatch.delenv("TEST_OPENAI_KEY")
        with pytest.raises(ProviderError, match="TEST_OPENAI_KEY"):
            self.provider().complete(ChatRequest("sys", "hi"))
        assert calls == []


class TestRunManifest:
    def test_json_is_sorted_and_hashable(self):
        m = RunManifest("cfg")
        m.record("b-stage", {"z": 1, "a": 2})
        m.record("a-stage", {"k": "v"})
        payload = json.loads(m.to_json())
        assert payload["config_hash"] == "cfg"
        assert list(payload["stages"]) == ["a-stage", "b-stage"]
        assert m.manifest_hash() == RunManifest("cfg", dict(m.stages)).manifest_hash()


@pytest.fixture()
def golden_world(golden_dir, domain):
    with open(os.path.join(golden_dir, "frame_0.world")) as fh:
        return cp.parse_world_file(fh.read(), domain)


@pytest.fixture()
def golden_transcript(golden_dir):
    return Transcript.load(os.path.join(golden_dir, "transcript.txt"))


# The golden frame and four golden evaluation worlds from which the golden
# transcript's plan is valid, with the manifest_hash of each one's run under
# config_hash "golden".  (scenario_1 is the golden frame's world, and
# scenario_5 gives scenario_2's manifest.)
GOLDEN_FRAMES = {
    "frame_0.world": "278e95ca0c4b40030148a0f18533e0c486e3c4df5fd242c4b057774aa7c555e1",
    "scenarios/scenario_2.world": "f0b6ddd86497040f930e2d5066e782b6fb57e6488a49562d662e36c6600b6731",
    "scenarios/scenario_3.world": "94725064502d052955992651a6f314eff48b86463412791bbc7488c9bd0c0492",
    "scenarios/scenario_4.world": "aebe889842f5b658b1d0724279e55106d64d719f7b609d29dfa2280c400e01d2",
    "scenarios/scenario_6.world": "1674ad80570d895ee605097b4ac8ec8d5af707f69f7b030c0b6b97b305403e2a",
}


class TestRunGenerate:
    def test_offline_replay(self, domain, schemas, golden_world, golden_transcript):
        manifest, plan, scenario = run_generate(
            domain, list(schemas.values()), golden_world,
            ReplayChatProvider(golden_transcript), MockEmbeddingProvider(),
        )
        assert manifest.stages["validation"]["report"] == "OK\n"
        assert plan.steps[0].kind == "JOIN"
        assert dict(scenario.assignments)["BALL"] == "CENTER_FIELD"
        assert cp.serialize_plan(plan) == manifest.stages["synchronizer"]["plan"]
        assert set(manifest.stages) == {
            "retrieval", "coach", "grounding", "synchronizer", "validation"
        }

    def test_deterministic_manifest(self, domain, schemas, golden_world, golden_transcript):
        def run():
            m, _, _ = run_generate(
                domain, list(schemas.values()), golden_world,
                ReplayChatProvider(golden_transcript), MockEmbeddingProvider(),
                config_hash="fixed",
            )
            return m.manifest_hash()

        assert run() == run()

    def test_stage_tagged_failure(self, domain, schemas, golden_world):
        # An empty transcript fails at the coach stage with a provider cause.
        with pytest.raises(CoachParseFailed) as exc:
            run_generate(
                domain, list(schemas.values()), golden_world,
                ReplayChatProvider(Transcript()), MockEmbeddingProvider(),
            )
        assert exc.value.stage == "coach"
        assert isinstance(exc.value.__cause__, ProviderError)

    def test_unparseable_sync_output(self, domain, schemas, golden_world, golden_transcript):
        # Corrupt only the synchronizer record: same fingerprints, bad body.
        records = dict(golden_transcript.records)
        last_fp = list(records)[-1]
        records[last_fp] = "JOIN {kick_to_goal STRIKER {}}"
        broken = Transcript(records)
        with pytest.raises(SyncFailed):
            run_generate(
                domain, list(schemas.values()), golden_world,
                ReplayChatProvider(broken), MockEmbeddingProvider(),
            )

    def test_validation_gate(self, domain, schemas, golden_world, golden_transcript):
        records = dict(golden_transcript.records)
        last_fp = list(records)[-1]
        # Parses fine but kicks without possession.
        records[last_fp] = "kick_to_goal JOLLY {}"
        broken = Transcript(records)
        with pytest.raises(ValidationFailed):
            run_generate(
                domain, list(schemas.values()), golden_world,
                ReplayChatProvider(broken), MockEmbeddingProvider(),
            )

    def test_shared_provider_gives_fresh_provider_bytes(self, domain, schemas, golden_dir,
                                                        golden_transcript):
        worlds = []
        for name in GOLDEN_FRAMES:
            with open(os.path.join(golden_dir, name)) as fh:
                worlds.append(cp.parse_world_file(fh.read(), domain))

        def manifest(world, provider):
            m, _, _ = run_generate(domain, list(schemas.values()), world,
                                   ReplayChatProvider(golden_transcript), provider,
                                   config_hash="golden")
            return m.to_json()

        shared = MockEmbeddingProvider()
        via_shared = [manifest(world, shared) for world in worlds]
        assert via_shared == [manifest(world, MockEmbeddingProvider()) for world in worlds]
        assert ([hashlib.sha256(text.encode()).hexdigest() for text in via_shared]
                == list(GOLDEN_FRAMES.values()))

    def test_default_goal_text(self):
        assert DEFAULT_GOAL.text == (
            "The own team should score a goal in the opponent's goal."
        )


def test_sync_examples_are_not_shared_between_calls():
    positive, negatives = load_sync_examples()
    expected = list(negatives)
    negatives.clear()
    negatives.append(("mutated", "kick_to_goal STRIKER {}"))
    assert load_sync_examples() == (positive, expected)


def test_make_record_injects_frame_id(domain, schemas, roles):
    plan = cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)
    scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
    record = make_record(plan, scenario, "frame_7", "2024-01-01T00:00:00Z")
    assert record.plan == plan
    assert record.frame_id == "frame_7"
