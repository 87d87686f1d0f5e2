import io
import json
import os
import subprocess
import sys
import urllib.request

import pytest

import coachplan as cp
from coachplan.cli import main
from coachplan.providers import ChatRequest, Transcript

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
            "error: move_to: TARGET='NOWHERE' is not a waypoint of the domain\n")
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
        # The validator accepts it; the simulator cannot run it as validated.
        plan = write(tmp_path / "p.plan",
                     "pass_the_ball JOLLY {SENDER: STRIKER, RECEIVER: JOLLY}\n")
        init = write(tmp_path / "init.facts", "ball_held_by(STRIKER)\n")
        assert main(["validate", "--plan", plan, "--initial", init,
                     "--format", "lines", *base]) == 0
        assert capsys.readouterr().out == "OK\n"
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
        assert err.startswith(f"error: line {line}: ")
        assert "Traceback" not in err

    def test_bad_waypoint_number(self, tmp_path, data_dir, plan, capsys):
        domain = write(tmp_path / "domain.txt", 'WAYPOINT A 1.2.3 0 "x"\n')
        code = main(["validate", "--plan", plan, "--domain", domain,
                     "--actions", os.path.join(data_dir, "actions.txt")])
        assert code == 2
        assert capsys.readouterr().err == "error: line 1: bad number '1.2.3'\n"

    def test_repeated_own_role(self, tmp_path, base, plan, capsys):
        world_text = ("AGENT a OWN STRIKER 0.0 0.0 0.0\n"
                      "AGENT b OWN STRIKER 3.0 1.0 0.0\n"
                      "BALL 0.0 0.0\n")
        assert self.simulate(tmp_path, base, plan, world_text) == 2
        assert capsys.readouterr().err == "error: line 2: duplicate own role STRIKER\n"

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
        assert capsys.readouterr().err.startswith("error: ")

    def test_sim_config_opponents_key(self, tmp_path, base, golden_dir, capsys):
        # The policy is chosen by --opponents only; the key is not dropped quietly.
        argv = ["simulate", *base, "--plan", os.path.join(CORPUS_DIR, "p04_join_move_pass.plan"),
                "--world", os.path.join(golden_dir, "scenarios", "scenario_1.world")]
        assert main([*argv, "--opponents", "NEAREST_INTERCEPT"]) == 0
        assert capsys.readouterr().out.startswith("success=False ")
        cfg = write(tmp_path / "sim.json", json.dumps({"opponents": "NEAREST_INTERCEPT"}))
        assert main([*argv, "--sim-config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown sim config key(s): opponents\n"

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

    def test_evaluate_empty_library_exit_two(self, tmp_path, base, golden_dir, capsys):
        assert main([
            "evaluate", *base, "--library", str(tmp_path / "none"),
            "--scenarios", os.path.join(golden_dir, "scenarios"),
        ]) == 2
        assert capsys.readouterr().err == "error: library is empty\n"

    def test_evaluate_empty_dir_exit_two(self, tmp_path, base, lib_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "evaluate", *base, "--library", lib_path, "--scenarios", str(empty),
        ]) == 2

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
        assert err.startswith("error: ")
        if bad == "directory":
            assert "Is a directory" in err
        else:
            assert err.startswith("error: line 2: ")
        if bad == "bad plan":
            assert f"frame_id 'f2' in {lib}: PlanSyntaxError: line 1, col 22: " in err

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


def test_ingest_actions_round_trip(tmp_path, base, data_dir, schemas):
    out = tmp_path / "emb.txt"
    assert main(["ingest-actions",
                 "--actions", os.path.join(data_dir, "actions.txt"),
                 "--out", str(out)]) == 0
    from coachplan.actions import MockEmbeddingProvider, RecordedEmbeddingProvider

    rec = RecordedEmbeddingProvider(out)
    mock = MockEmbeddingProvider()
    for schema in schemas.values():
        assert rec.embed(schema.description).vector == pytest.approx(
            mock.embed(schema.description).vector
        )


@pytest.mark.parametrize("value, message", [
    ("x1", "bad number 'x1'"),
    ("nan", "number must be finite, got 'nan'"),
])
def test_bad_recorded_embedding_exit_two(tmp_path, base, data_dir, golden_dir, capsys,
                                         value, message):
    out = tmp_path / "emb.txt"
    assert main(["ingest-actions", "--actions", os.path.join(data_dir, "actions.txt"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    key, _, *rest = lines[1].split()
    lines[1] = " ".join([key, value, *rest])
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["generate", *base, "--world", os.path.join(golden_dir, "frame_0.world"),
                 "--transcript", os.path.join(golden_dir, "transcript.txt"),
                 "--embeddings", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


def test_cli_import_loads_no_third_party_modules():
    # A fresh interpreter: this test process may have imported them already.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import sys, coachplan.cli; "
        "print(sorted(m for m in ('numpy', 'scipy', 'requests') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"
