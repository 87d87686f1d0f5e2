import argparse
import ast
import contextlib
import glob
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import urllib.request
from importlib import resources

import pytest
from hypothesis import event, given, settings, strategies as st

import coachplan as cp
from coachplan import errors
from coachplan.cli import build_parser, main
from coachplan.domain import DATA_DIR, read_text
from coachplan.providers import ChatRequest, Transcript
from coachplan.refine import parse_facts_file

from conftest import (ACTION_LINE_INSERTS, COMMON_LINE_INSERTS, CORPUS_PLAN_TEXTS,
                      DOMAIN_LINE_INSERTS, FACT_LINE_INSERTS, LINE_WORDS, WORLD_LINE_INSERTS,
                      mutated_corpus_texts, mutated_lines)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

pytestmark = pytest.mark.usefixtures("no_network")


@pytest.fixture()
def no_network(monkeypatch):
    import socket

    def refuse(*args, **kwargs):
        raise AssertionError("CLI tests must not open sockets")

    monkeypatch.setattr(socket.socket, "connect", refuse)


@pytest.fixture()
def base(data_dir):
    return [
        "--domain", os.path.join(data_dir, "domain.txt"),
        "--actions", os.path.join(data_dir, "actions.txt"),
    ]


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestValidate:
    def test_valid_plan_exit_zero(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        init = write(tmp_path / "init.facts", "ball_held_by(STRIKER)\n")
        code = main(["validate", "--plan", plan, "--initial", init, *base])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        code = main(["validate", "--plan", plan, *base])
        assert code == 1
        assert "[PRECONDITION]" in capsys.readouterr().out

    def test_lines_format(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        init = write(tmp_path / "init.facts", "ball_held_by(STRIKER)\n")
        code = main(["validate", "--plan", plan, "--initial", init,
                     "--format", "lines", *base])
        assert code == 0
        assert capsys.readouterr().out == "OK\n"

    def test_parse_error_exit_two(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "fly_to_moon STRIKER {}\n")
        assert main(["validate", "--plan", plan, *base]) == 2

    def test_missing_file_exit_two(self, tmp_path, base):
        assert main(["validate", "--plan", str(tmp_path / "nope.plan"), *base]) == 2

    def test_unknown_waypoint_exit_two(self, tmp_path, base, capsys):
        # Checked against the domain when parsed, not first in the simulator.
        plan = write(tmp_path / "p.plan", "move_to STRIKER {TARGET: NOWHERE}\n")
        assert main(["validate", "--plan", plan, *base]) == 2
        assert capsys.readouterr().err == (
            f"error: {plan}: move_to: TARGET='NOWHERE' is not a waypoint of the domain\n")
        world = write(tmp_path / "w.world", "AGENT STRIKER OWN STRIKER 0.0 0.0 0.0\nBALL 1 0\n")
        assert main(["simulate", "--plan", plan, "--world", world, *base]) == 2
        assert "NOWHERE" in capsys.readouterr().err


class TestSimulate:
    def test_clear_shot(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        world = write(tmp_path / "w.world",
                      "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n")
        code = main(["simulate", "--plan", plan, "--world", world, *base])
        assert code == 0
        assert "success=True" in capsys.readouterr().out

    def test_trace_out(self, tmp_path, base):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        world = write(tmp_path / "w.world",
                      "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n")
        trace = tmp_path / "trace.txt"
        code = main(["simulate", "--plan", plan, "--world", world,
                     "--trace-out", str(trace), *base])
        assert code == 0
        assert "EVENT GOAL" in trace.read_text()

    def test_sim_config_override(self, tmp_path, base, capsys):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        world = write(tmp_path / "w.world",
                      "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n")
        cfg = write(tmp_path / "sim.json", json.dumps({"kick_speed": 1.0}))
        code = main(["simulate", "--plan", plan, "--world", world,
                     "--sim-config", cfg, *base])
        assert code == 0
        out = capsys.readouterr().out
        # Slower ball, later goal than with the default 4 m/s kick.
        t = float(out.split("scoring_time=")[1])
        assert t > 1.0

    def test_bad_sim_config_exit_two(self, tmp_path, base):
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        world = write(tmp_path / "w.world",
                      "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n")
        cfg = write(tmp_path / "sim.json", json.dumps({"tick": -1}))
        assert main(["simulate", "--plan", plan, "--world", world,
                     "--sim-config", cfg, *base]) == 2


CUSTOM_ACTIONS = """
ACTION_ID: shoot
DESCRIPTION: Shoot at the opponent goal.
ARGS:
PRECONDITIONS: ball_held_by(AGENT)
EFFECTS: !ball_held_by(AGENT), ball_at(OPPONENT_GOAL)

ACTION_ID: go_to_kickoff
DESCRIPTION: Walk to a kickoff position.
ARGS: TARGET : WAYPOINT
PRECONDITIONS:
EFFECTS: at(AGENT,TARGET)
"""


class TestActionsFileSemantics:
    """`simulate` and `evaluate` run each action as its --actions effects say,
    whatever its id."""

    NEAR_GOAL = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"

    @pytest.fixture()
    def custom(self, tmp_path, data_dir):
        with open(os.path.join(data_dir, "domain.txt")) as fh:
            domain_text = fh.read().replace(
                'ACTIONS=pass_the_ball,', 'ACTIONS=shoot,go_to_kickoff,pass_the_ball,', 1)
        with open(os.path.join(data_dir, "actions.txt")) as fh:
            actions_text = fh.read() + CUSTOM_ACTIONS
        return ["--domain", write(tmp_path / "domain.txt", domain_text),
                "--actions", write(tmp_path / "actions.txt", actions_text)]

    def simulate(self, tmp_path, custom, plan_text, capsys):
        plan = write(tmp_path / "p.plan", plan_text)
        world = write(tmp_path / "w.world", self.NEAR_GOAL)
        assert main(["simulate", "--plan", plan, "--world", world, "--trace", *custom]) == 0
        return capsys.readouterr().out

    def test_shoot_scores(self, tmp_path, custom, capsys):
        out = self.simulate(tmp_path, custom, "shoot STRIKER {}\n", capsys)
        assert out.startswith("success=True passes=0 ")
        assert "EVENT KICK STRIKER" in out and "EVENT GOAL BALL" in out

    def test_go_to_kickoff_walks(self, tmp_path, custom, capsys):
        out = self.simulate(tmp_path, custom,
                            "go_to_kickoff STRIKER {TARGET: CENTER_FIELD}\n", capsys)
        assert out.startswith("success=False passes=0 scoring_time=None")
        assert "KICK" not in out
        assert "EVENT ACTION_DONE STRIKER go_to_kickoff" in out
        assert out.rstrip().endswith("EVENT PLAN_DONE MATCH")

    def test_evaluate_uses_actions_file(self, tmp_path, custom, capsys):
        lib, scenarios = tmp_path / "lib", tmp_path / "scenarios"
        scenarios.mkdir()
        write(scenarios / "a.world", self.NEAR_GOAL)
        plan = write(tmp_path / "p.plan", "shoot STRIKER {}\n")
        scenario = write(tmp_path / "s.scenario", "SCENARIO:\n"
                         "STRIKER is at KICKING_POSITION\nBALL is at KICKING_POSITION\n")
        assert main(["library", "add", "--library", str(lib), "--plan", plan,
                     "--scenario", scenario, "--frame-id", "f1", *custom]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--library", str(lib), "--scenarios", str(scenarios),
                     "--format", "tsv", *custom]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[0] == "1"

    def test_pass_by_another_agent(self, tmp_path, base, capsys):
        # JOLLY cannot pass a ball STRIKER holds: the validator reports what
        # the simulator refuses.
        plan = write(tmp_path / "p.plan",
                     "pass_the_ball JOLLY {SENDER: STRIKER, RECEIVER: JOLLY}\n")
        init = write(tmp_path / "init.facts", "ball_held_by(STRIKER)\n")
        assert main(["validate", "--plan", plan, "--initial", init,
                     "--format", "lines", *base]) == 1
        assert capsys.readouterr().out == (
            "STEP 1: [UNRUNNABLE] pass_the_ball JOLLY: "
            "the pass is made by STRIKER, not the acting agent\n")
        world = write(tmp_path / "w.world",
                      "AGENT STRIKER OWN STRIKER 0.1 0.1 0.0\n"
                      "AGENT JOLLY OWN JOLLY 3.2 0.0 0.0\nBALL 0.2 0.1\n")
        assert main(["simulate", "--plan", plan, "--world", world, *base]) == 2
        assert "made by STRIKER, not the acting agent" in capsys.readouterr().err


class TestMalformedInput:
    """Bad world files and sim configs end in a one-line error and exit 2."""

    @pytest.fixture()
    def plan(self, tmp_path):
        return write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")

    def simulate(self, tmp_path, base, plan, world_text, *extra):
        world = write(tmp_path / "w.world", world_text)
        return main(["simulate", "--plan", plan, "--world", world, *extra, *base])

    @pytest.mark.parametrize("world_text, line", [
        ("AGENT STRIKER OWN STRIKER 1.x 0.0 0.0\nBALL 3.3 0.0\n", 1),
        ("AGENT STRIKER OWN STRIKER 3.2 nan 0.0\nBALL 3.3 0.0\n", 1),
        ("AGENT STRIKER OWN STRIKER 3.2 0.0 inf\nBALL 3.3 0.0\n", 1),
        ("AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 NaN\n", 2),
        ("# comment\nBALL inf 0.0\n", 2),
    ])
    def test_bad_world_number(self, tmp_path, base, plan, capsys, world_text, line):
        assert self.simulate(tmp_path, base, plan, world_text) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'w.world'}: line {line}: ")
        assert "Traceback" not in err

    def test_bad_waypoint_number(self, tmp_path, data_dir, plan, capsys):
        domain = write(tmp_path / "domain.txt", 'WAYPOINT A 1.2.3 0 "x"\n')
        code = main(["validate", "--plan", plan, "--domain", domain,
                     "--actions", os.path.join(data_dir, "actions.txt")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {domain}: line 1: bad number '1.2.3'\n"

    def test_repeated_own_role(self, tmp_path, base, plan, capsys):
        world_text = ("AGENT a OWN STRIKER 0.0 0.0 0.0\n"
                      "AGENT b OWN STRIKER 3.0 1.0 0.0\n"
                      "BALL 0.0 0.0\n")
        assert self.simulate(tmp_path, base, plan, world_text) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'w.world'}: line 2: duplicate own role STRIKER\n")

    @pytest.mark.parametrize("payload", [
        {"tick_rate": 1},
        {"tick": "fast"},
        {"timeout": None},
        {"walk_speed": True},
        {"timeout": float("inf")},  # written as Infinity, read back as a float
        [0.05],
        {"tick": 1e-6},  # 1.2e8 ticks to the timeout, over the tick budget
        {"control_radius": 0.3},  # field, goal and radius are fixed in `domain`
        {"goal_x": 6.0},
        {"goal_half_width": 0.75},
    ])
    def test_bad_sim_config(self, tmp_path, base, plan, capsys, payload):
        cfg = write(tmp_path / "sim.json", json.dumps(payload))
        world_text = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"
        assert self.simulate(tmp_path, base, plan, world_text, "--sim-config", cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    @pytest.mark.parametrize("payload, message", [
        ({"tick": "x"}, "tick must be a finite number, got 'x'"),
        ({"tick": 0.05, "ticks": 1}, "unknown sim config key(s): ticks"),
        ([0.05], "sim config must be a JSON object"),
    ])
    def test_sim_config_error_names_its_file(self, tmp_path, base, plan, capsys, payload,
                                             message):
        cfg = write(tmp_path / "sim.json", json.dumps(payload))
        world_text = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"
        assert self.simulate(tmp_path, base, plan, world_text, "--sim-config", cfg) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}: {message}\n")

    def test_deeply_nested_sim_config(self, tmp_path, base, plan, capsys):
        cfg = write(tmp_path / "sim.json", "[" * 100_000 + "]" * 100_000)
        world_text = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"
        assert self.simulate(tmp_path, base, plan, world_text, "--sim-config", cfg) == 2
        assert capsys.readouterr().err == f"error: {cfg}: nested too deeply\n"

    def test_sim_config_that_is_not_json(self, tmp_path, base, plan, capsys):
        cfg = write(tmp_path / "sim.json", "[1,")
        world_text = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"
        assert self.simulate(tmp_path, base, plan, world_text, "--sim-config", cfg) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 1: not JSON: Expecting value at column 4\n")

    def test_overlong_integer_sim_config(self, tmp_path, base, plan, capsys):
        # Longer than int() converts by default (4300 digits).
        cfg = write(tmp_path / "sim.json", '{"tick": ' + "1" * 5000 + "}")
        world_text = "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n"
        assert self.simulate(tmp_path, base, plan, world_text, "--sim-config", cfg) == 2
        assert capsys.readouterr().err == f"error: {cfg}: a number with too many digits\n"

    def test_sim_config_opponents_key(self, tmp_path, base, golden_dir, capsys):
        # The policy is chosen by --opponents only; the key is not dropped quietly.
        argv = ["simulate", *base, "--plan", os.path.join(CORPUS_DIR, "p04_join_move_pass.plan"),
                "--world", os.path.join(golden_dir, "scenarios", "scenario_1.world")]
        assert main([*argv, "--opponents", "NEAREST_INTERCEPT"]) == 0
        assert capsys.readouterr().out.startswith("success=False ")
        cfg = write(tmp_path / "sim.json", json.dumps({"opponents": "NEAREST_INTERCEPT"}))
        assert main([*argv, "--sim-config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown sim config key(s): opponents\n"

    def test_bad_evaluate_world(self, tmp_path, base, golden_dir):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        write(scenarios / "a.world", "BALL 0.0 zero\n")
        lib = tmp_path / "lib"
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--library", str(lib),
        ]) == 0
        assert main(["evaluate", *base, "--library", str(lib),
                     "--scenarios", str(scenarios)]) == 2


class TestGenerate:
    def test_offline_generate(self, tmp_path, base, golden_dir, capsys):
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("manifest_hash ")
        assert "JOIN {" in out
        payload = json.loads(manifest_path.read_text())
        assert payload["stages"]["validation"]["report"] == "OK\n"

    def test_generate_appends_to_library(self, tmp_path, base, golden_dir, domain,
                                         schemas, roles):
        lib_path = tmp_path / "lib"
        code = main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--library", str(lib_path), "--frame-id", "demo",
        ])
        assert code == 0
        lib = cp.load_library(lib_path, schemas, roles, domain)
        assert lib.frame_ids() == ["demo"]

    def test_stale_transcript_exit_three(self, tmp_path, base, golden_dir):
        empty = write(tmp_path / "empty.txt", "")
        code = main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", empty,
        ])
        assert code == 3

    def test_plan_with_violations_exit_one(self, tmp_path, base, golden_dir, capsys):
        # A synchronizer reply that kicks without the ball: the report goes
        # to stderr once, and nothing is printed or stored.
        transcript = Transcript.load(os.path.join(golden_dir, "transcript.txt"))
        _, _, sync_fp = transcript.records
        transcript.records[sync_fp] = "kick_to_goal JOLLY {}\n"
        transcript.save(tmp_path / "t.txt")
        lib = tmp_path / "lib.jsonl"
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", str(tmp_path / "t.txt"), "--library", str(lib),
        ]) == 1
        assert capsys.readouterr() == (
            "", "FAILED at stage validation:\n"
                "STEP 1: [PRECONDITION] kick_to_goal JOLLY: requires ball_held_by(JOLLY)\n")
        assert not lib.exists()

    def test_pass_by_another_agent_exit_one(self, tmp_path, base, golden_dir, capsys):
        # A synchronizer reply that no match can run fails the validation
        # stage, so the library never holds a plan `evaluate` would refuse.
        transcript = Transcript.load(os.path.join(golden_dir, "transcript.txt"))
        _, _, sync_fp = transcript.records
        transcript.records[sync_fp] = "pass_the_ball JOLLY {SENDER: STRIKER, RECEIVER: JOLLY}\n"
        transcript.save(tmp_path / "t.txt")
        lib = tmp_path / "lib.jsonl"
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", str(tmp_path / "t.txt"), "--library", str(lib),
        ]) == 1
        assert capsys.readouterr() == (
            "", "FAILED at stage validation:\n"
                "STEP 1: [UNRUNNABLE] pass_the_ball JOLLY: "
                "the pass is made by STRIKER, not the acting agent\n")
        assert not lib.exists()

    def test_needs_transcript_or_provider(self, base, golden_dir):
        code = main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
        ])
        assert code == 2

    def test_frame_id_stays_in_the_library_file(self, tmp_path, base, golden_dir):
        store = tmp_path / "store"
        store.mkdir()
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--library", str(store / "lib.jsonl"), "--frame-id", "../escaped",
        ]) == 0
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "store", os.path.join("store", "lib.jsonl")]
        assert main(["library", "ls", "--library", str(store / "lib.jsonl"), *base]) == 0

    def test_negative_k_exit_two(self, base, golden_dir, capsys):
        code = main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--k", "-1",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "FAILED at stage action-retrieval: k must be >= 0, got -1\n")

    def test_blank_goal_exit_two(self, base, golden_dir, capsys):
        # An empty --goal is refused, not taken for an absent one.
        for goal in ("   ", ""):
            assert main([
                "generate", *base,
                "--world", os.path.join(golden_dir, "frame_0.world"),
                "--transcript", os.path.join(golden_dir, "transcript.txt"),
                "--goal", goal,
            ]) == 2
            assert capsys.readouterr().err == "error: planning goal must be non-empty\n"

    def test_coach_text_on_the_header_line_fails_the_coach_stage(self, tmp_path, base,
                                                                 golden_dir, capsys):
        # A reply whose first assignment shares the SCENARIO: line is
        # refused, not parsed without it.
        with open(os.path.join(golden_dir, "transcript.txt")) as fh:
            text = fh.read()
        transcript = write(tmp_path / "t.txt", text.replace(
            "SCENARIO:\\nSTRIKER", "SCENARIO: STRIKER", 1))
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", transcript, "--library", str(tmp_path / "lib"),
        ]) == 2
        assert capsys.readouterr() == ("", (
            "FAILED at stage coach: text after SCENARIO: on its line: "
            "'SCENARIO: STRIKER is at CENTER_FIELD'\n"))
        assert not (tmp_path / "lib").exists()

    # "\udcff" is what Python makes of the byte 0xff in a command-line
    # argument, or of the JSON escape \udcff in a transcript.
    @pytest.mark.parametrize("flags, advice, stage", [
        (["--goal", "\udcff"], "", "coach"),
        (["--tactics", "\udcff"], "", "coach"),
        ([], " \\udcff", "plan-grounding"),
    ], ids=["goal", "tactics", "coach-response"])
    def test_text_that_is_not_utf8_exit_two(self, tmp_path, base, golden_dir, capsys,
                                            flags, advice, stage):
        with open(os.path.join(golden_dir, "transcript.txt")) as fh:
            text = fh.read()
        transcript = write(tmp_path / "t.txt",
                           text.replace("to the opponent goal.", "to the opponent goal." + advice))
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", transcript, *flags,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"FAILED at stage {stage}: prompt text is not UTF-8: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestLiveRecording:
    """`generate --provider M --transcript OUT` against a fake `urlopen` that
    answers with the golden responses."""

    @pytest.fixture()
    def golden(self, golden_dir):
        return Transcript.load(os.path.join(golden_dir, "transcript.txt"))

    @pytest.fixture()
    def answers(self, monkeypatch, golden):
        """Maps a request's fingerprint to the reply text; golden by default."""
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        answers = dict(golden.records)

        def fake(request, timeout):
            messages = {m["role"]: m["content"] for m in json.loads(request.data)["messages"]}
            fingerprint = ChatRequest(messages.get("system", ""), messages["user"]).fingerprint()
            reply = {"choices": [{"message": {"content": answers[fingerprint]}}]}
            return io.BytesIO(json.dumps(reply).encode())

        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return answers

    def generate(self, base, golden_dir, *extra):
        return main(["generate", *base,
                     "--world", os.path.join(golden_dir, "frame_0.world"), *extra])

    def test_replay_of_the_recording(self, tmp_path, base, golden_dir, golden, answers,
                                     capsys):
        out = str(tmp_path / "out.jsonl")
        assert self.generate(base, golden_dir, "--provider", "m1", "--transcript", out) == 0
        live = capsys.readouterr().out
        assert Transcript.load(out).records == golden.records
        assert self.generate(base, golden_dir, "--transcript", out) == 0
        assert capsys.readouterr().out == live
        assert live.startswith("manifest_hash ")

    def test_written_when_a_stage_fails(self, tmp_path, base, golden_dir, golden, answers,
                                        capsys):
        coach_fp, grounding_fp, _ = golden.records
        answers[grounding_fp] = "not a plan"
        out = tmp_path / "out.jsonl"
        assert self.generate(base, golden_dir, "--provider", "m1",
                             "--transcript", str(out)) == 2
        assert "FAILED at stage plan-grounding" in capsys.readouterr().err
        assert Transcript.load(out).records == {
            coach_fp: golden.records[coach_fp], grounding_fp: "not a plan"}

    def test_existing_transcript_is_refused(self, tmp_path, base, golden_dir, answers,
                                            capsys):
        out = write(tmp_path / "out.jsonl", "keep me\n")
        assert self.generate(base, golden_dir, "--provider", "m1", "--transcript", out) == 2
        assert "exists" in capsys.readouterr().err
        assert (tmp_path / "out.jsonl").read_text() == "keep me\n"

    def test_provider_needs_transcript(self, tmp_path, base, golden_dir, answers, capsys):
        assert self.generate(base, golden_dir, "--provider", "m1") == 2
        assert capsys.readouterr().err.startswith("error: --provider needs --transcript")


class TestEvaluateAndLibrary:
    @pytest.fixture()
    def lib_path(self, tmp_path, base, golden_dir):
        lib_path = tmp_path / "lib"
        assert main([
            "generate", *base,
            "--world", os.path.join(golden_dir, "frame_0.world"),
            "--transcript", os.path.join(golden_dir, "transcript.txt"),
            "--library", str(lib_path), "--frame-id", "frame_0",
        ]) == 0
        return str(lib_path)

    def test_evaluate_matches_golden_report(self, base, golden_dir, lib_path, capsys):
        code = main([
            "evaluate", *base,
            "--library", lib_path,
            "--scenarios", os.path.join(golden_dir, "scenarios"),
        ])
        assert code == 0
        with open(os.path.join(golden_dir, "report.txt")) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_evaluate_tsv(self, base, golden_dir, lib_path, capsys):
        code = main([
            "evaluate", *base,
            "--library", lib_path,
            "--scenarios", os.path.join(golden_dir, "scenarios"),
            "--format", "tsv",
        ])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("\t")[0] == "success_rate"

    def test_evaluate_intercept_report(self, base, golden_dir, lib_path, capsys):
        # The aggregated report the simulator's early exits feed, pinned
        # under the policy that steals.
        argv = ["evaluate", *base, "--library", lib_path,
                "--scenarios", os.path.join(golden_dir, "scenarios"),
                "--opponents", "NEAREST_INTERCEPT"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ("Success Rate       | 12%\n"
                                           "Avg. no. of passes | 1.00\n"
                                           "Avg. scoring time  | 2.2 sec.\n")
        assert main([*argv, "--format", "tsv"]) == 0
        assert capsys.readouterr().out == ("success_rate\tavg_passes\tavg_scoring_time\n"
                                           "0.125\t1\t2.2\n")

    def test_evaluate_empty_library_exit_two(self, tmp_path, base, golden_dir, capsys):
        assert main([
            "evaluate", *base, "--library", str(tmp_path / "none"),
            "--scenarios", os.path.join(golden_dir, "scenarios"),
        ]) == 2
        assert capsys.readouterr().err == "error: library is empty\n"

    def test_evaluate_empty_dir_exit_two(self, tmp_path, base, lib_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        capsys.readouterr()
        assert main([
            "evaluate", *base, "--library", lib_path, "--scenarios", str(empty),
        ]) == 2
        assert capsys.readouterr() == ("", f"error: {empty}: no *.world files\n")

    def test_evaluate_dir_name_is_not_a_pattern(self, tmp_path, base, golden_dir, lib_path,
                                                capsys):
        # `[1]` in a directory name is no glob character class.
        scenarios = tmp_path / "set[1]"
        scenarios.mkdir()
        for name in os.listdir(os.path.join(golden_dir, "scenarios")):
            write(scenarios / name, read_text(os.path.join(golden_dir, "scenarios", name)))
        capsys.readouterr()
        assert main(["evaluate", *base, "--library", lib_path,
                     "--scenarios", str(scenarios)]) == 0
        with open(os.path.join(golden_dir, "report.txt")) as fh:
            assert capsys.readouterr() == (fh.read(), "")

    TWO_ROLES = "SCENARIO:\nSTRIKER is at CENTER_FIELD\nJOLLY is at FORWARD_LEFT\n"

    @pytest.mark.parametrize("plan, runs, fails, message", [
        ("move_to SUPPORTER {TARGET: CENTER_FIELD}\n",
         "AGENT SUPPORTER OWN SUPPORTER 0.0 0.0 0.0\nBALL 1.0 1.0\n",
         "AGENT STRIKER OWN STRIKER 0.1 0.1 0.0\nAGENT JOLLY OWN JOLLY 2.0 1.4 0.0\n"
         "BALL 0.2 0.1\n",
         "world is missing plan agents: ['SUPPORTER']"),
        ("kick_to_goal STRIKER {}\n",
         "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0\nBALL 3.3 0.0\n",
         "AGENT r1 OWN STRIKER 0.1 0.1 0.0\nAGENT r2 OWN JOLLY 2.0 1.4 0.0\n"
         "AGENT r3 OWN SUPPORTER -1.0 0.0 0.0\nBALL 0.2 0.1\n",
         "3 own agents vs 2 scenario roles"),
    ], ids=["missing-agents", "cardinality"])
    def test_evaluate_error_names_the_world(self, tmp_path, base, capsys,
                                            plan, runs, fails, message):
        lib = str(tmp_path / "lib")
        assert main(["library", "add", "--library", lib, *base,
                     "--plan", write(tmp_path / "p.plan", plan),
                     "--scenario", write(tmp_path / "s.scenario", self.TWO_ROLES),
                     "--frame-id", "f"]) == 0
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        write(scenarios / "a.world", runs)
        write(scenarios / "b.world", fails)
        write(scenarios / "c.world", fails)
        capsys.readouterr()
        assert main(["evaluate", *base, "--library", lib,
                     "--scenarios", str(scenarios)]) == 2
        # One error line, naming the first world that fails.
        assert capsys.readouterr() == ("", f"error: {scenarios / 'b.world'}: {message}\n")

    def test_evaluate_renames_a_world_lacking_only_the_pass_receiver(self, tmp_path, base,
                                                                    capsys):
        # The world names its striker STRIKER but its jolly r2: the plan's
        # receiver JOLLY is missing, so the own agents are renamed.
        lib = str(tmp_path / "lib")
        assert main(["library", "add", "--library", lib, *base,
                     "--plan", write(tmp_path / "p.plan",
                                     "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"),
                     "--scenario", write(tmp_path / "s.scenario", self.TWO_ROLES),
                     "--frame-id", "f"]) == 0
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        write(scenarios / "a.world",
              "AGENT STRIKER OWN STRIKER 0.0 0.0 0.0\nAGENT r2 OWN JOLLY 2.0 1.5 0.0\n"
              "BALL 0.1 0.0\n")
        capsys.readouterr()
        assert main(["evaluate", *base, "--library", lib, "--scenarios", str(scenarios),
                     "--format", "tsv"]) == 0
        # The pass completes; the plan has no kick, so nothing scores.
        assert capsys.readouterr() == (
            "success_rate\tavg_passes\tavg_scoring_time\n0\t1\t\n", "")

    def test_library_ls(self, base, lib_path, capsys):
        assert main(["library", "ls", "--library", lib_path, *base]) == 0
        assert capsys.readouterr().out.startswith("frame_0\t")

    def test_library_select(self, base, golden_dir, lib_path, capsys):
        world = os.path.join(golden_dir, "scenarios", "scenario_2.world")
        assert main(["library", "select", "--library", lib_path,
                     "--world", world, *base]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "frame_0"
        assert "SCENARIO:" in out

    @pytest.mark.parametrize("argv", [
        ["library", "add", "--scenario", "s", "--frame-id", "f"],
        ["library", "add", "--plan", "p", "--scenario", "s"],
        ["library", "add", "--plan", "p", "--frame-id", "f"],
        ["library", "select"],
    ])
    def test_library_missing_argument(self, tmp_path, base, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--library", str(tmp_path / "lib.jsonl"), *base])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert not (tmp_path / "lib.jsonl").exists()

    def test_library_needs_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["library"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["not json", "repeat", "directory", "bad plan"])
    @pytest.mark.parametrize("command", ["ls", "evaluate", "generate"])
    def test_bad_library_exit_two(self, tmp_path, base, golden_dir, lib_path, capsys,
                                  bad, command):
        if bad == "directory":
            lib = str(tmp_path)
        else:
            with open(lib_path) as fh:
                line = fh.read()
            second = {"not json": bad + "\n", "repeat": line,
                      "bad plan": json.dumps({**json.loads(line), "frame_id": "f2",
                                              "plan": "kick_to_goal STRIKER {"}) + "\n"}[bad]
            lib = write(tmp_path / "bad.jsonl", line + second)
        argv = {
            "ls": ["library", "ls", "--library", lib],
            "evaluate": ["evaluate", "--library", lib,
                         "--scenarios", os.path.join(golden_dir, "scenarios")],
            "generate": ["generate", "--library", lib, "--frame-id", "other",
                         "--world", os.path.join(golden_dir, "frame_0.world"),
                         "--transcript", os.path.join(golden_dir, "transcript.txt")],
        }[command]
        capsys.readouterr()
        assert main([*argv, *base]) == 2
        err = capsys.readouterr().err
        if bad == "directory":
            assert err == f"error: {lib}: Is a directory\n"
        else:
            assert err.startswith(f"error: {lib}: line 2: ")
        if bad == "bad plan":
            assert err.startswith(f"error: {lib}: line 2: bad plan text of frame_id 'f2': "
                                  "PlanSyntaxError: line 1, col 22: ")

    @pytest.mark.parametrize("bad", ["directory", "not json", "taken"])
    def test_generate_checks_library_before_model_calls(self, tmp_path, base, golden_dir,
                                                         lib_path, urlopen, monkeypatch,
                                                         capsys, bad):
        calls, _ = urlopen
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        lib = {"directory": str(tmp_path), "taken": lib_path}.get(bad)
        if bad == "not json":
            with open(lib_path) as fh:
                lib = write(tmp_path / "bad.jsonl", fh.read() + "not json\n")
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert main(["generate", *base, "--library", lib,
                     "--frame-id", "frame_0" if bad == "taken" else "other",
                     "--world", os.path.join(golden_dir, "frame_0.world"),
                     "--provider", "m1", "--transcript", str(out)]) == 2
        assert calls == []
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if bad == "taken":
            assert err == "error: frame_0\n"

    def test_library_add(self, tmp_path, base, capsys):
        lib_path = tmp_path / "lib2"
        plan = write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n")
        scenario = write(tmp_path / "s.scenario",
                         "SCENARIO:\nSTRIKER is at KICKING_POSITION\n")
        assert main(["library", "add", "--library", str(lib_path),
                     "--plan", plan, "--scenario", scenario,
                     "--frame-id", "manual", *base]) == 0
        assert main(["library", "ls", "--library", str(lib_path), *base]) == 0
        out = capsys.readouterr().out
        assert "manual" in out


# flag -> the argv that reads the file `bad` through that flag, every other
# file valid (`ok`).
INPUT_FILES = {
    "--plan": lambda bad, ok: ["validate", *ok["base"], "--plan", bad],
    "--initial": lambda bad, ok: ["validate", *ok["base"], "--plan", ok["plan"],
                                  "--initial", bad],
    "--domain": lambda bad, ok: ["validate", "--domain", bad, "--actions", ok["actions"],
                                 "--plan", ok["plan"]],
    "--actions": lambda bad, ok: ["validate", "--domain", ok["domain"], "--actions", bad,
                                  "--plan", ok["plan"]],
    "--world": lambda bad, ok: ["simulate", *ok["base"], "--plan", ok["plan"],
                                "--world", bad],
    "--sim-config": lambda bad, ok: ["simulate", *ok["base"], "--plan", ok["plan"],
                                     "--world", ok["world"], "--sim-config", bad],
    "--scenario": lambda bad, ok: ["library", "add", *ok["base"], "--library", ok["library"],
                                   "--plan", ok["plan"], "--scenario", bad,
                                   "--frame-id", "f"],
    "--scenarios": lambda bad, ok: ["evaluate", *ok["base"], "--library", ok["library"],
                                    "--scenarios", os.path.dirname(bad)],
    "--library": lambda bad, ok: ["library", "ls", *ok["base"], "--library", bad],
    "--transcript": lambda bad, ok: ["generate", *ok["base"], "--world", ok["world"],
                                     "--transcript", bad],
}
# The JSON Lines stores read the file as bytes; the other inputs are text.
STORES = ("--library", "--transcript")


@pytest.fixture()
def ok(tmp_path, base, golden_dir):
    """The valid inputs of INPUT_FILES's argvs; `library` does not exist."""
    return {"base": base, "plan": write(tmp_path / "p.plan", "kick_to_goal STRIKER {}\n"),
            "domain": base[1], "actions": base[3],
            "world": os.path.join(golden_dir, "frame_0.world"),
            "library": str(tmp_path / "out.jsonl")}


@pytest.mark.parametrize("flag", [flag for flag in INPUT_FILES if flag not in STORES])
def test_undecodable_file_exit_two(tmp_path, ok, capsys, flag):
    (tmp_path / "in").mkdir()
    bad = tmp_path / "in" / "a.world"
    bad.write_bytes(b"\xffAGENT STRIKER OWN STRIKER 3.2 0.0 0.0\n")
    assert main(INPUT_FILES[flag](str(bad), ok)) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: invalid start byte\n"
    assert not os.path.exists(ok["library"])


@pytest.mark.parametrize("flag", INPUT_FILES)
def test_directory_in_place_of_an_input_file(tmp_path, ok, capsys, flag):
    # For --scenarios, a directory among its *.world files.
    bad = tmp_path / "in" / "a.world"
    bad.mkdir(parents=True)
    assert main(INPUT_FILES[flag](str(bad), ok)) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: Is a directory\n")
    assert not os.path.exists(ok["library"])


# A missing --library is an empty library, which `library ls` lists as nothing.
@pytest.mark.parametrize("flag", [flag for flag in INPUT_FILES if flag != "--library"])
def test_missing_input_file_exit_two(tmp_path, ok, capsys, flag):
    bad = tmp_path / "in" / "a.world"
    assert main(INPUT_FILES[flag](str(bad), ok)) == 2
    expected = (f"{bad.parent}: no *.world files" if flag == "--scenarios"
                else f"{bad}: No such file or directory")
    assert capsys.readouterr() == ("", f"error: {expected}\n")
    assert not os.path.exists(ok["library"])


# (flag, file text, message): a file whose first line holds `{c}`, which
# str.splitlines would take for a line break, and whose third line is at
# fault.  A line ends only at a line feed, so the message names line 3.
ODD_SPACE_FILES = [
    ("--world", "AGENT STRIKER OWN STRIKER 3.2 0.0 0.0{c}\nBALL 0 0\nJUNK\n",
     "line 3: unknown record: 'JUNK'"),
    ("--domain", 'WAYPOINT A{c}0 0 "a"\nWAYPOINT B 1 0 "b"\nWAYPOINT A 2 0 "c"\n',
     "line 3: duplicate waypoint A"),
    ("--actions", "ACTION_ID:{c}shoot\nARGS: T : ROLE\nARGS:\n", "line 3: duplicate field ARGS"),
    ("--plan", "kick_to_goal{c}STRIKER {}\n\nkick_to_goal {}\n",
     "line 3, col 14: expected an agent id"),
    ("--initial", "ball_held_by(STRIKER){c}\nat(STRIKER,CENTER_FIELD)\n!at(JOLLY,CENTER_FIELD)\n",
     "line 3: initial facts must be positive"),
]


@pytest.mark.parametrize("c", ["\f", "\v", "\x1c", "\x85", "\u2028"], ids=ascii)
@pytest.mark.parametrize("flag, text, message", ODD_SPACE_FILES,
                         ids=[flag for flag, _, _ in ODD_SPACE_FILES])
def test_line_numbers_count_line_feeds_only(tmp_path, ok, capsys, flag, text, message, c):
    text = text.replace("{c}", c)
    assert len(text.splitlines()) == 4
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    assert main(INPUT_FILES[flag](str(bad), ok)) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


# (flag, file text, message): one parse error of each kind in the file read
# through `flag` (with INPUT_FILES's argv), and the message after the file's
# path on main's one stderr line.
MALFORMED = [
    pytest.param("--domain", 'WAYPOINT A 0 0 "a"\nWAYPOINT A 1 0 "b"\n',
                 "line 2: duplicate waypoint A", id="domain-duplicate-waypoint"),
    pytest.param("--domain", 'ROLE striker "s" ACTIONS=move_to\n',
                 """line 1: bad ROLE record: 'ROLE striker "s" ACTIONS=move_to'""",
                 id="domain-bad-role"),
    pytest.param("--domain", 'ROLE S "s" ACTIONS=move_to\nROLE S "t" ACTIONS=move_to\n',
                 "line 2: duplicate role S", id="domain-duplicate-role"),
    pytest.param("--domain", "GOAL A 0 0\n", "line 1: unknown record: 'GOAL A 0 0'",
                 id="domain-unknown-record"),
    pytest.param("--world", "AGENT a OWN STRIKER 0 0\n",
                 "line 1: bad AGENT record: 'AGENT a OWN STRIKER 0 0'", id="world-bad-agent"),
    pytest.param("--world", "AGENT a REFEREE - 0 0 0\n", "line 1: bad team 'REFEREE'",
                 id="world-bad-team"),
    pytest.param("--world", "AGENT a OWN KEEPER 0 0 0\n", "line 1: unknown role KEEPER",
                 id="world-unknown-role"),
    pytest.param("--world", "AGENT a OWN - 0 0 0\nAGENT a OPPONENT - 1 0 0\n",
                 "line 2: duplicate agent a", id="world-duplicate-agent"),
    pytest.param("--world", "BALL 0\n", "line 1: bad BALL record: 'BALL 0'",
                 id="world-bad-ball"),
    pytest.param("--world", "GOAL 4.5 0\n", "line 1: unknown record: 'GOAL 4.5 0'",
                 id="world-unknown-record"),
    pytest.param("--actions", "ACTION_ID: shoot\nARGS: T : ROLE\nARGS:\n",
                 "line 3: duplicate field ARGS", id="actions-duplicate-field"),
    pytest.param("--actions", "shoot\nACTION_ID: shoot\n",
                 "line 1: text outside a field: 'shoot'", id="actions-text-outside-field"),
    pytest.param("--actions", "DESCRIPTION: shoot\n", "line 1: action block missing ACTION_ID",
                 id="actions-missing-id"),
    pytest.param("--actions", "ACTION_ID: shoot\nARGS: TARGET\n",
                 "line 2: bad ARGS entry 'TARGET'", id="actions-bad-arg"),
    pytest.param("--actions", "ACTION_ID: shoot\nARGS: TARGET : PLACE\n",
                 "line 2: bad value domain 'PLACE'", id="actions-bad-value-domain"),
    pytest.param("--actions", "ACTION_ID: shoot\nARGS: T : ROLE, T : WAYPOINT\n",
                 "line 2: duplicate arg T", id="actions-duplicate-arg"),
    pytest.param("--plan", "JOIN { kick_to_goal STRIKER {} kick_to_goal JOLLY {} }\n",
                 "line 1, col 32: expected ',' or '}' in JOIN", id="plan-join-separator"),
    pytest.param("--plan", "{ kick_to_goal STRIKER {} }\n",
                 "line 1, col 1: expected an action id", id="plan-action-id"),
    pytest.param("--plan", "kick_to_goal {}\n", "line 1, col 14: expected an agent id",
                 id="plan-agent-id"),
    pytest.param("--plan", "move_to STRIKER {: CENTER_FIELD}\n",
                 "line 1, col 18: expected an argument key", id="plan-argument-key"),
    pytest.param("--plan", "move_to STRIKER {TARGET: ,}\n",
                 "line 1, col 26: expected an argument value", id="plan-argument-value"),
    pytest.param("--plan", "move_to STRIKER {TARGET: CENTER_FIELD LEFT_WING}\n",
                 "line 1, col 39: expected ',' or '}'", id="plan-argument-separator"),
    pytest.param("--plan", "move_to STRIKER {TARGET: foo}\n",
                 "move_to: TARGET='foo' is not a waypoint token", id="plan-waypoint-token"),
    pytest.param("--scenario", "SCENARIO:\nSTRIKER stands at CENTER_FIELD\n",
                 "unparseable scenario line: 'STRIKER stands at CENTER_FIELD'",
                 id="scenario-unparseable-line"),
    pytest.param("--scenario", "SCENARIO:\n\nSTRIKER is at CENTER_FIELD\n",
                 "SCENARIO block is empty", id="scenario-empty-block"),
    pytest.param("--scenario", "SCENARIO: STRIKER is at CENTER_FIELD\nBALL is at CENTER_FIELD\n",
                 "text after SCENARIO: on its line: 'SCENARIO: STRIKER is at CENTER_FIELD'",
                 id="scenario-text-on-header-line"),
]


@pytest.mark.parametrize("flag, text, message", MALFORMED)
def test_malformed_file_exit_two(tmp_path, ok, capsys, flag, text, message):
    bad = write(tmp_path / "bad.txt", text)
    assert main(INPUT_FILES[flag](bad, ok)) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not os.path.exists(ok["library"])


@settings(max_examples=200, deadline=None)
@given(text=mutated_corpus_texts())
def test_validate_malformed_plan_exit_code(tmp_path_factory, data_dir, text):
    """`validate` on a mutated corpus plan exits 0, 1 or 2, and at 2 says
    why in one `error:` line on stderr and prints nothing else; main lets
    no other exception out, so no traceback follows."""
    plan = write(tmp_path_factory.mktemp("plan") / "p.plan", text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--plan", plan,
                     "--domain", os.path.join(data_dir, "domain.txt"),
                     "--actions", os.path.join(data_dir, "actions.txt")])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


FULL_TEAM_WORLD = """\
# every role of the packaged domain, and two opponents
AGENT STRIKER OWN STRIKER 0.1 0.1 0.0
AGENT JOLLY OWN JOLLY 2.0 1.4 0.0
AGENT SUPPORTER OWN SUPPORTER -1.0 -1.0 0.0
AGENT DEFENDER OWN DEFENDER -2.5 1.5 0.0
AGENT GOALIE OWN GOALIE -4.2 0.0 0.0
AGENT O1 OPPONENT - 3.0 1.0 3.1
AGENT O2 OPPONENT - 4.2 0.0 3.1
BALL 0.2 0.1
"""
KICKOFF_FACTS = "# kickoff\nball_held_by(STRIKER)\nat(STRIKER,CENTER_FIELD)\n"


PACKAGED_DOMAIN_TEXT = read_text(os.path.join(DATA_DIR, "domain.txt"))
PACKAGED_ACTIONS_TEXT = read_text(os.path.join(DATA_DIR, "actions.txt"))
GOLDEN_DIR = os.path.join(DATA_DIR, "golden")
GOLDEN_TRANSCRIPT_TEXT = read_text(os.path.join(GOLDEN_DIR, "transcript.txt"))
LIBRARY_SCENARIOS = (
    "SCENARIO:\nSTRIKER is at CENTER_FIELD\nJOLLY is at FORWARD_LEFT\nBALL is at CENTER_FIELD",
    "SCENARIO:\nSTRIKER is at KICKING_POSITION\nBALL is at KICKING_POSITION",
)


def library_line(frame_id, plan, scenario=LIBRARY_SCENARIOS[0]):
    """One plan library record, as save_library writes it."""
    return json.dumps({"created_at": "1970-01-01T00:00:00Z", "frame_id": frame_id,
                       "plan": plan, "scenario": scenario}, sort_keys=True)


# Four corpus plans under two scenarios.
LIBRARY_TEXT = "".join(library_line(f"f{i}", plan, LIBRARY_SCENARIOS[i % 2]) + "\n"
                       for i, plan in enumerate(CORPUS_PLAN_TEXTS[:4]))
# Lines to insert into the stores: lines that are no record, and records
# with a taken key or a text that does not parse.
LIBRARY_LINE_INSERTS = COMMON_LINE_INSERTS + (
    "{}", "[]", "null", library_line("f0", "kick_to_goal STRIKER {}\n"),
    library_line("f9", "kick_to_goal STRIKER {"),
    library_line("f9", "kick_to_goal STRIKER {}\n", "SCENARIO:\nSTRIKER is at NOWHERE"),
    json.dumps({"created_at": 1, "frame_id": "f9", "plan": "", "scenario": ""}),
)
TRANSCRIPT_LINE_INSERTS = COMMON_LINE_INSERTS + (
    "{}", "[]", '{"fingerprint": "a"}', '{"fingerprint": "a", "response": 7}',
    '{"fingerprint": "a", "response": "SCENARIO:\\nSTRIKER is at CENTER_FIELD"}',
)


@st.composite
def mutated_store(draw, text, inserts, field):
    """The JSON Lines store `text` with, maybe, one record's `field` made a
    mutated corpus plan, then after one to six `mutated_lines` mutations."""
    records = [json.loads(line) for line in text.splitlines()]
    if draw(st.booleans()):
        records[draw(st.integers(0, len(records) - 1))][field] = draw(mutated_corpus_texts())
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return draw(mutated_lines(text, inserts, LINE_WORDS))


def argv_for(template, files):
    """`template` with each flag that `files` holds followed by its path."""
    return [arg for word in template
            for arg in ((word, files[word]) if word in files else (word,))]


SIMULATE = ("simulate", "--domain", "--actions", "--world", "--plan")
# case -> (the flag whose file is mutated, the mutated texts of that file,
# what reads that file alone, given its path and the packaged domain and
# schemas, and the argv template of argv_for).
FUZZED_FILES = {
    "--domain": ("--domain", mutated_lines(PACKAGED_DOMAIN_TEXT, DOMAIN_LINE_INSERTS, LINE_WORDS),
                 lambda path, domain, schemas: cp.parse_domain_file(read_text(path)),
                 SIMULATE),
    "--actions": ("--actions",
                  mutated_lines(PACKAGED_ACTIONS_TEXT, ACTION_LINE_INSERTS, LINE_WORDS),
                  lambda path, domain, schemas: cp.parse_action_file(read_text(path)),
                  SIMULATE),
    "--world": ("--world", mutated_lines(FULL_TEAM_WORLD, WORLD_LINE_INSERTS, LINE_WORDS),
                lambda path, domain, schemas: cp.parse_world_file(read_text(path), domain),
                SIMULATE),
    "--plan": ("--plan", mutated_corpus_texts(),
               lambda path, domain, schemas: cp.parse_plan(read_text(path), schemas,
                                                           domain.roles, domain.waypoints),
               SIMULATE),
    "--initial": ("--initial", mutated_lines(KICKOFF_FACTS, FACT_LINE_INSERTS, LINE_WORDS),
                  lambda path, domain, schemas: parse_facts_file(read_text(path)),
                  ("validate", "--domain", "--actions", "--initial", "--plan")),
    **{f"--library {name}": (
        "--library", mutated_store(LIBRARY_TEXT, LIBRARY_LINE_INSERTS, "plan"),
        lambda path, domain, schemas: cp.load_library(path, schemas, domain.roles, domain),
        (*command, "--domain", "--actions", "--library", *rest))
       for name, command, rest in [
           ("ls", ("library", "ls"), ()),
           ("select", ("library", "select"), ("--world",)),
           ("add", ("library", "add"), ("--plan", "--scenario", "--frame-id", "added")),
           ("evaluate", ("evaluate",), ("--scenarios",)),
       ]},
    # The transcript replays the golden frame only.
    "--transcript": ("--transcript",
                     mutated_store(GOLDEN_TRANSCRIPT_TEXT, TRANSCRIPT_LINE_INSERTS, "response"),
                     lambda path, domain, schemas: Transcript.load(path),
                     ("generate", "--domain", "--actions", "--transcript",
                      f"--world={os.path.join(GOLDEN_DIR, 'frame_0.world')}")),
}


@pytest.mark.parametrize("case", FUZZED_FILES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_input_file_exit_code(tmp_path_factory, data_dir, domain, schemas, case,
                                      data):
    """One mutated input file, every other valid: exit 0, 1 or 2, or 3 for
    `generate`, and main lets no exception out, so no traceback follows.
    When the file does not load on its own, main exits 2 with one line,
    `error: <that file>: <the loader's message>`, and prints nothing else;
    at any other exit 2 or 3 it prints one `error:` line only, or for
    `generate` one `FAILED at stage` line."""
    flag, strategy, load, template = FUZZED_FILES[case]
    text = data.draw(strategy, label="text")
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {"--domain": os.path.join(data_dir, "domain.txt"),
             "--actions": os.path.join(data_dir, "actions.txt"),
             "--world": write(tmp / "w.world", FULL_TEAM_WORLD),
             "--plan": os.path.join(CORPUS_DIR, "p20_full_team.plan"),
             "--initial": write(tmp / "kickoff.facts", KICKOFF_FACTS),
             "--library": write(tmp / "lib.jsonl", LIBRARY_TEXT),
             "--scenario": write(tmp / "s.scenario", LIBRARY_SCENARIOS[0] + "\n"),
             "--scenarios": os.path.join(GOLDEN_DIR, "scenarios"),
             "--transcript": os.path.join(GOLDEN_DIR, "transcript.txt")}
    path = files[flag] = write(tmp / "mutated.txt", text)
    try:
        load(path, domain, schemas)
        expected = None
    except errors.CoachPlanError as exc:
        expected = f"error: {path}: {exc}\n"
    argv = argv_for(template, files)
    generate = argv[0] == "generate"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}" + (", the file does not load" if expected else ""))
    if expected is not None:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", expected)
    assert code in ((0, 1, 2, 3) if generate else (0, 1, 2))
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "FAILED at stage ") if generate
                                         else "error: ")
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    elif code == 1 and generate:
        assert err.getvalue().startswith("FAILED at stage validation:\n")
    else:
        assert err.getvalue() == ""


# Every option string each subcommand accepts, and the required ones: a
# flag or subcommand added or removed shows here.
OPTIONS = {
    "generate": {"--actions", "--created-at", "--domain", "--frame-id", "--goal", "--k",
                 "--library", "--manifest", "--provider", "--seed", "--tactics",
                 "--transcript", "--world"},
    "validate": {"--actions", "--domain", "--format", "--initial", "--plan"},
    "simulate": {"--actions", "--domain", "--opponents", "--plan", "--seed", "--sim-config",
                 "--trace", "--trace-out", "--world"},
    "evaluate": {"--actions", "--domain", "--format", "--library", "--opponents",
                 "--scenarios", "--seed", "--sim-config"},
    "library ls": {"--actions", "--domain", "--library"},
    "library add": {"--actions", "--created-at", "--domain", "--frame-id", "--library",
                    "--plan", "--scenario"},
    "library select": {"--actions", "--domain", "--library", "--world"},
}
REQUIRED = {
    "generate": {"--actions", "--domain", "--world"},
    "validate": {"--actions", "--domain", "--plan"},
    "simulate": {"--actions", "--domain", "--plan", "--world"},
    "evaluate": {"--actions", "--domain", "--library", "--scenarios"},
    "library ls": {"--actions", "--domain", "--library"},
    "library add": {"--actions", "--domain", "--frame-id", "--library", "--plan",
                    "--scenario"},
    "library select": {"--actions", "--domain", "--library", "--world"},
}


def subcommand_parsers(parser, path=()):
    """(name, parser) for each leaf subcommand, `library ls` and so on."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from subcommand_parsers(sub, (*path, name))


def test_each_subcommand_accepts_the_same_options():
    options, required = {}, {}
    for name, parser in subcommand_parsers(build_parser()):
        flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        options[name] = {s for a in flags for s in a.option_strings}
        required[name] = {a.option_strings[0] for a in flags if a.required}
    assert options == OPTIONS
    assert required == REQUIRED


def test_readme_names_only_real_commands_and_flags():
    # The README outside its install section names every subcommand, and
    # every --flag it names is one that some subcommand accepts.
    readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme_path) as fh:
        readme = re.sub(r"\n## Install\n.*?(?=\n## )", "\n", fh.read(), flags=re.S)
    parsers = dict(subcommand_parsers(build_parser()))
    accepted = {s for p in parsers.values() for a in p._actions for s in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", readme)) - accepted == set()
    # A subcommand counts as named as `simulate`, `coachplan evaluate` or
    # `library ls|add|select`.
    unnamed = [name for name in parsers if not re.search(
        r"(?:`|coachplan )" + r" (?:[a-z-]+\|)*".join(map(re.escape, name.split())) + r"\b",
        readme)]
    assert unnamed == []


def test_readme_names_only_real_attributes():
    # A backticked name such as `library.evaluate`, `Domain.distance_rows`
    # or `refine.load_sync_examples()` whose head is `coachplan`, one of its
    # modules or a class of one names an attribute; `actions.txt` names a
    # file of the package data.
    package = os.path.dirname(os.path.abspath(cp.__file__))
    heads = {"coachplan": cp}
    for module in pkgutil.iter_modules([package]):
        heads[module.name] = importlib.import_module(f"coachplan.{module.name}")
    heads.update((name, value) for module in list(heads.values()) for name, value in
                  vars(module).items()
                  if isinstance(value, type) and value.__module__.startswith("coachplan"))
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        spans = re.findall(r"`([^`\n]+)`", fh.read())
    data = resources.files("coachplan.data")
    names = {m.group(0) for m in (re.match(r"(\w+)(?:\.\w+)+", span) for span in spans)
             if m and m.group(1) in heads and not data.joinpath(m.group(0)).is_file()}

    def resolves(name):
        head, *parts = name.split(".")
        value = heads[head]
        for part in parts:
            if not hasattr(value, part):
                return False
            value = getattr(value, part)
        return True

    assert {"library.evaluate", "Domain.distance_rows"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def test_package_raises_only_coachplan_errors():
    # main reports every CoachPlanError in one line with its exit code; any
    # other exception would end in a traceback.  A bare `raise` re-raises
    # the error at hand, and `entry` exits with main's code.
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.CoachPlanError)}
    package = os.path.dirname(os.path.abspath(cp.__file__))
    others = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        enclosing = {}  # raise node -> name of its innermost function
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name in allowed or (name, enclosing.get(node)) == ("SystemExit", "entry"):
                continue
            others.append(f"{os.path.basename(path)}:{node.lineno}: {name}")
    assert others == []


def test_cli_import_loads_no_third_party_modules():
    # A fresh interpreter without `site` (-S), so that nothing the
    # environment imports at startup hides what the package loads: every
    # module `import coachplan.cli` loads is the package's or the standard
    # library's, and packaged data is read without importlib.resources.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import sys; before = set(sys.modules); import coachplan.cli; "
        "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'coachplan'}), "
        "'importlib.resources' in sys.modules, 'coachplan' in new)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[] False True\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["generate", "simulate"])
def test_closed_stdout_ends_quietly(tmp_path, base, golden_dir, command, unbuffered):
    # A reader that closes stdout early, as `coachplan ... | head` does.
    # The pipe's read end is closed before the command starts, so every
    # write fails, whether stdout is buffered or not.
    world = os.path.join(golden_dir, "frame_0.world")
    if command == "generate":
        argv = ["generate", *base, "--world", world,
                "--transcript", os.path.join(golden_dir, "transcript.txt"),
                "--library", str(tmp_path / "lib.jsonl")]
    else:
        argv = ["simulate", *base, "--world", world, "--trace",
                "--plan", os.path.join(CORPUS_DIR, "p01_clear_shot.plan")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cp.__file__)))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "coachplan.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
