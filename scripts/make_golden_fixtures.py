#!/usr/bin/env python3
"""Regenerate the bundled replay fixtures: the demo world, the recorded
chat transcript that drives `coachplan generate` offline, eight evaluation
worlds and the golden metrics report.

Run from the repository root:

    python3 scripts/make_golden_fixtures.py
"""
import contextlib
import io
import os
import sys
import tempfile
from importlib import resources

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

import coachplan as cp
from coachplan import cli
from coachplan.pipeline import run_generate

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "src", "coachplan", "data", "golden")

FRAME_WORLD = """\
AGENT STRIKER OWN STRIKER 0.1 0.1 0.0
AGENT JOLLY OWN JOLLY 2.0 1.4 0.0
AGENT O1 OPPONENT - 3.0 1.0 3.1
AGENT O2 OPPONENT - 4.2 0.0 3.1
BALL 0.2 0.1
"""

COACH_RESPONSE = """\
SCENARIO:
STRIKER is at CENTER_FIELD
JOLLY is at FORWARD_LEFT
OPPONENT_1 is at KICKING_POSITION
OPPONENT_2 is at OPPONENT_GOAL
BALL is at CENTER_FIELD

COACH ADVICE:
1. JOLLY moves to the favorable kicking position.
2. STRIKER passes the ball to JOLLY while JOLLY is moving.
3. JOLLY receives the ball at the kicking position.
4. JOLLY kicks the ball to the opponent goal."""

GROUNDING_RESPONSE = """\
move_to JOLLY {TARGET: KICKING_POSITION}
pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}
receive_ball JOLLY {SENDER: STRIKER}
kick_to_goal JOLLY {}"""

SYNC_RESPONSE = """\
JOIN {move_to JOLLY {TARGET: KICKING_POSITION},
      pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}}
receive_ball JOLLY {SENDER: STRIKER}
kick_to_goal JOLLY {}"""

# Eight evaluation worlds: offensive variations around the recorded frame.
# Two use generic agent ids to exercise role mapping at selection time.
EVAL_WORLDS = {
    "scenario_1.world": FRAME_WORLD,
    "scenario_2.world": """\
AGENT STRIKER OWN STRIKER 0.5 -0.3 0.0
AGENT JOLLY OWN JOLLY 2.4 1.2 0.0
AGENT O1 OPPONENT - 3.4 -0.8 3.1
BALL 0.6 -0.3
""",
    "scenario_3.world": """\
AGENT STRIKER OWN STRIKER -0.5 0.8 0.0
AGENT JOLLY OWN JOLLY 1.8 1.8 0.0
AGENT O1 OPPONENT - 2.8 0.5 3.1
AGENT O2 OPPONENT - 4.0 -0.5 3.1
BALL -0.4 0.8
""",
    "scenario_4.world": """\
AGENT STRIKER OWN STRIKER 1.0 0.0 0.0
AGENT JOLLY OWN JOLLY 3.0 0.4 0.0
BALL 1.1 0.0
""",
    "scenario_5.world": """\
AGENT r1 OWN STRIKER 0.2 0.0 0.0
AGENT r2 OWN JOLLY 2.1 1.6 0.0
AGENT O1 OPPONENT - 3.5 1.0 3.1
BALL 0.3 0.0
""",
    "scenario_6.world": """\
AGENT r1 OWN STRIKER -1.0 -0.5 0.0
AGENT r2 OWN JOLLY 1.5 1.0 0.0
AGENT O1 OPPONENT - 2.6 -1.2 3.1
BALL -0.9 -0.5
""",
    "scenario_7.world": """\
AGENT STRIKER OWN STRIKER 0.0 2.0 0.0
AGENT JOLLY OWN JOLLY 2.2 2.0 0.0
AGENT O1 OPPONENT - 3.8 0.3 3.1
BALL 0.1 2.0
""",
    "scenario_8.world": """\
AGENT STRIKER OWN STRIKER -2.0 0.0 0.0
AGENT JOLLY OWN JOLLY 0.5 1.0 0.0
AGENT O1 OPPONENT - 3.0 0.0 3.1
AGENT O2 OPPONENT - 4.3 0.4 3.1
BALL -1.9 0.0
""",
}


class ScriptedChat:
    """A chat provider that returns the given replies in order."""

    provider_id = "scripted"

    def __init__(self, replies):
        self.replies = iter(replies)

    def complete(self, request):
        return cp.ChatResponse(next(self.replies), self.provider_id)


def run_cli(*argv):
    """Run one `coachplan` command in this process; fail on a non-zero exit."""
    code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"coachplan {argv[0]} exited with {code}")


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    scen_dir = os.path.join(GOLDEN, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)

    domain = cp.parse_domain_file(
        resources.files("coachplan.data").joinpath("domain.txt").read_text()
    )
    schemas = cp.parse_action_file(
        resources.files("coachplan.data").joinpath("actions.txt").read_text()
    )

    with open(os.path.join(GOLDEN, "frame_0.world"), "w") as fh:
        fh.write(FRAME_WORLD)
    for name, text in EVAL_WORLDS.items():
        with open(os.path.join(scen_dir, name), "w") as fh:
            fh.write(text)

    # Run the generate pipeline on the frame with the three scripted
    # replies, recording the prompts it sends into the transcript.
    chat = cp.RecordingChatProvider(ScriptedChat([COACH_RESPONSE, GROUNDING_RESPONSE,
                                                  SYNC_RESPONSE]))
    run_generate(domain, schemas, cp.parse_world_file(FRAME_WORLD, domain), chat,
                 cp.MockEmbeddingProvider())
    chat.transcript.save(os.path.join(GOLDEN, "transcript.txt"))

    # Run the CLI commands in this process to produce the golden report.
    data_dir = os.path.dirname(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        lib_path = os.path.join(tmp, "library.jsonl")
        base = [
            "--domain", os.path.join(data_dir, "domain.txt"),
            "--actions", os.path.join(data_dir, "actions.txt"),
        ]
        run_cli("generate", *base, "--world", os.path.join(GOLDEN, "frame_0.world"),
                "--transcript", os.path.join(GOLDEN, "transcript.txt"),
                "--library", lib_path, "--frame-id", "frame_0")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run_cli("evaluate", *base, "--library", lib_path, "--scenarios", scen_dir)
    report = out.getvalue()
    with open(os.path.join(GOLDEN, "report.txt"), "w") as fh:
        fh.write(report)
    print(report, end="")
    print("golden fixtures written to", GOLDEN)


if __name__ == "__main__":
    main()
