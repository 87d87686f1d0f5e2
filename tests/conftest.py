import io
import json
import math
import os
import re
import socket
import urllib.request
from importlib import resources

import pytest
from hypothesis import strategies as st

import coachplan as cp
from coachplan.domain import BALL, UNMATCHED_PENALTY

HERE = os.path.dirname(__file__)
CORPUS_DIR = os.path.join(HERE, "corpus")

# Verbatim plan example used across parser tests: a pass followed by a JOIN
# that illegally contains two actions by the same agent.
SELF_JOIN_PLAN_TEXT = """\
pass_the_ball STRIKER {'SENDER': STRIKER, 'RECEIVER': JOLLY}
JOIN {pass_the_ball JOLLY {'SENDER': STRIKER, 'RECEIVER': JOLLY},
      kick_to_goal JOLLY {}}"""


@pytest.fixture(scope="session")
def domain():
    text = resources.files("coachplan.data").joinpath("domain.txt").read_text()
    return cp.parse_domain_file(text)


@pytest.fixture(scope="session")
def schemas():
    text = resources.files("coachplan.data").joinpath("actions.txt").read_text()
    return {s.action_id: s for s in cp.parse_action_file(text)}


@pytest.fixture(scope="session")
def roles(domain):
    return domain.roles


@pytest.fixture(scope="session")
def corpus_texts():
    return read_corpus_texts()


@pytest.fixture(scope="session")
def corpus_plans(corpus_texts, schemas, roles):
    return {
        name: cp.parse_plan(text, schemas, roles)
        for name, text in corpus_texts.items()
    }


@pytest.fixture(scope="session")
def golden_dir():
    return str(resources.files("coachplan.data").joinpath("golden"))


@pytest.fixture(scope="session")
def data_dir():
    return str(resources.files("coachplan.data"))


@pytest.fixture()
def urlopen(monkeypatch):
    """A fake `urllib.request.urlopen`: records each request in `calls` and
    answers with the next of `outcomes` (a JSON reply, or an exception to
    raise).  No socket is opened."""
    def refuse(*args, **kwargs):
        raise AssertionError("provider tests must not open sockets")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "getaddrinfo", refuse)
    monkeypatch.setenv("TEST_OPENAI_KEY", "sk-test")
    calls = []
    outcomes = []

    def fake(request, timeout):
        calls.append(request)
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return io.BytesIO(json.dumps(outcome).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake)
    return calls, outcomes


def reference_distance(a, b, domain):
    """scenario_distance by its definition, from waypoint coordinates: the
    distance over each shared subject plus UNMATCHED_PENALTY per subject in
    only one scenario, added one term at a time in a's subject order, then
    b's unmatched subjects in b's order."""
    pos_a = {s: domain.waypoint(t).position for s, t in a.assignments}
    pos_b = {s: domain.waypoint(t).position for s, t in b.assignments}
    total = 0.0
    for subject, (ax, ay) in pos_a.items():
        if subject in pos_b:
            bx, by = pos_b[subject]
            total += math.hypot(ax - bx, ay - by)
        else:
            total += UNMATCHED_PENALTY
    for subject in pos_b:
        if subject not in pos_a:
            total += UNMATCHED_PENALTY
    return total


def parseable_scenarios(domain):
    """Scenarios that parse_scenario_block reads back from their
    serialize_scenario text under `domain`: one to all of its roles,
    OPPONENT_i markers and BALL, each at a waypoint of the domain."""
    subjects = st.one_of(
        st.sampled_from([*domain.roles, BALL]),
        st.integers(1, 12).map(lambda i: f"OPPONENT_{i}"),
    )
    pairs = st.tuples(subjects, st.sampled_from(sorted(domain.waypoints)))
    return st.lists(pairs, min_size=1, unique_by=lambda pair: pair[0]).map(
        lambda pairs: cp.Scenario(tuple(pairs)))


MIRROR_TOKEN = re.compile(r"LEFT|RIGHT")


def mirror_plan_text(text):
    """The text with every LEFT waypoint token swapped for its RIGHT twin,
    and every RIGHT for its LEFT twin: the field's mirror in y."""
    return MIRROR_TOKEN.sub(lambda m: "RIGHT" if m.group() == "LEFT" else "LEFT", text)


def mirror_world(world):
    """The world reflected in y."""
    agents = {aid: (cp.Pose(pose.x, -pose.y), agent)
              for aid, (pose, agent) in world.agents.items()}
    return cp.WorldState(agents, (world.ball[0], -world.ball[1]))


def read_corpus_texts():
    """{file name: text} of the corpus plans, in name order."""
    texts = {}
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".plan"):
            with open(os.path.join(CORPUS_DIR, name)) as fh:
                texts[name] = fh.read()
    return texts


CORPUS_PLAN_TEXTS = tuple(read_corpus_texts().values())

# The lexical pieces of plan text, whitespace and comments included, so that
# joining them gives the text back.
PLAN_PIECE = re.compile(r"""\s+|[{}:,]|'[^'\n]*'|"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*|.""",
                        re.DOTALL)
PLAN_INSERTS = (" JOIN ", "{", "}", ",", ":", "'", '"', "#", " ", "\n")


@st.composite
def mutated_corpus_texts(draw):
    """A corpus plan's text after one to four token-level mutations: a token
    dropped, duplicated or swapped with another; JOIN, a brace, a comma, a
    colon, a quote, `#` or whitespace inserted; an argument key lower-cased."""
    pieces = PLAN_PIECE.findall(draw(st.sampled_from(CORPUS_PLAN_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        tokens = [i for i, piece in enumerate(pieces) if not piece.isspace()]
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "insert", "lower")))
        if op == "insert" or not tokens:
            pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(PLAN_INSERTS)))
            continue
        i = draw(st.sampled_from(tokens))
        if op == "drop":
            del pieces[i]
        elif op == "duplicate":
            pieces[i + 1:i + 1] = [" ", pieces[i]]
        elif op == "swap":
            j = draw(st.sampled_from(tokens))
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            keys = [k for k, after in zip(tokens, tokens[1:]) if pieces[after] == ":"]
            if keys:
                k = draw(st.sampled_from(keys))
                pieces[k] = pieces[k].lower()
    return "".join(pieces)


# Lines to insert into the line-oriented input files: blank, whitespace-only,
# comment and junk lines, then per format the records, fields or facts that
# its parser refuses (or accepts) in each of the ways it names.
COMMON_LINE_INSERTS = ("", " ", "\t ", "#", "# note", "  # indented note", "junk")
ACTION_LINE_INSERTS = COMMON_LINE_INSERTS + (
    "  continued text", "ACTION_ID: shoot", "ACTION_ID: Shoot", "ACTION_ID:",
    "ACTION_ID: move_to", "DESCRIPTION: x", "DESCRIPTION:", "ARGS: T : ROLE", "ARGS: T",
    "ARGS: T : PLACE", "ARGS: T : ROLE, T : WAYPOINT", "PRECONDITIONS: ball_held_by(AGENT)",
    "PRECONDITIONS: ball_held_by(?X)", "EFFECTS: at(AGENT,T)", "EFFECTS: at(AGENT)",
    "EFFECTS: fly(AGENT)", "EFFECTS: at(",
)
DOMAIN_LINE_INSERTS = COMMON_LINE_INSERTS + (
    'WAYPOINT A 0 0 "a"', 'WAYPOINT CENTER_FIELD 1 1 "again"', 'WAYPOINT A nan 0 "a"',
    'WAYPOINT A 1e308 -1e308 "far"', 'WAYPOINT a 0 0 "a"', "WAYPOINT A 0 0",
    'ROLE STRIKER "again" ACTIONS=move_to', 'ROLE KEEPER "k" ACTIONS=defend_goal,move_to',
    'ROLE K "k" ACTIONS=', "GOAL 4.5 0",
)
WORLD_LINE_INSERTS = COMMON_LINE_INSERTS + (
    "BALL 0 0", "BALL 1e308 -1e308", "BALL nan 0", "BALL 0", "AGENT O9 OPPONENT - 1 1 0",
    "AGENT O9 OPPONENT - 1e308 -inf 0", "AGENT STRIKER OWN STRIKER 0 0 0",
    "AGENT K OWN KEEPER 0 0 0", "AGENT J OWN JOLLY 0 0", "AGENT R REFEREE - 0 0 0",
    "GOAL 4.5 0",
)
FACT_LINE_INSERTS = COMMON_LINE_INSERTS + (
    "ball_held_by(JOLLY)", "ball_at(CENTER_FIELD)", "at(STRIKER,CENTER_FIELD)",
    "has_passed(STRIKER)", "!ball_at(CENTER_FIELD)", "at(STRIKER)", "fly(STRIKER)",
    "ball_at(",
)
# Words to put in place of a word of a line: numbers out of range or not
# numbers, and the keywords and names of the formats.
LINE_WORDS = ("nan", "inf", "-inf", "1e308", "-1e308", "1.2.3", "x", "-", "OWN", "OPPONENT",
              "STRIKER", "KEEPER", "AGENT", "BALL", "WAYPOINT", "ROLE", "ACTION_ID:", "ARGS:")


@st.composite
def mutated_lines(draw, text, inserts, words=()):
    """`text` after one to six line-level mutations: a line dropped,
    duplicated or swapped with another, one of `inserts` inserted, or, with
    `words`, one word of a line replaced by one of them.  The last line
    break is kept or dropped."""
    lines = text.splitlines()
    ops = ("drop", "duplicate", "swap", "insert") + (("word",) if words else ())
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(ops))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(inserts)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            pieces = re.split(r"(\s+)", lines[i])
            spots = [k for k, piece in enumerate(pieces) if piece and not piece.isspace()]
            if spots:
                pieces[draw(st.sampled_from(spots))] = draw(st.sampled_from(words))
                lines[i] = "".join(pieces)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))
