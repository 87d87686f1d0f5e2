"""The value records are tuples: each keeps its repr, equality, hash,
immutability and defaults, and the records on `domain.Record` keep their
constructor's check."""
import os
import subprocess
import sys

import pytest

import coachplan as cp
from coachplan import errors

DOMAIN = (
    {"CENTER_FIELD": cp.Waypoint("CENTER_FIELD", "the center spot", (0.0, 0.0))},
    {"STRIKER": cp.Role("STRIKER", "scores", frozenset({"kick_to_goal"}))},
)

ACTION = cp.GroundedAction("pass_the_ball", "STRIKER",
                           (("SENDER", "STRIKER"), ("RECEIVER", "JOLLY")))
ACTION_REPR = ("GroundedAction(action_id='pass_the_ball', agent_id='STRIKER', "
               "args=(('SENDER', 'STRIKER'), ('RECEIVER', 'JOLLY')))")

# (make, repr, hashable): `make` builds a fresh record, so the equality and
# hash checks compare two distinct objects holding equal values.
RECORDS = {
    "Pose": (lambda: cp.Pose(1.0, -2.5), "Pose(x=1.0, y=-2.5)", True),
    "Waypoint": (
        lambda: cp.Waypoint("CENTER_FIELD", "the center spot", (0.0, 0.0)),
        "Waypoint(token='CENTER_FIELD', description='the center spot', position=(0.0, 0.0))",
        True),
    "Role": (
        lambda: cp.Role("STRIKER", "scores", frozenset({"kick_to_goal"})),
        "Role(name='STRIKER', description='scores', allowed_actions=frozenset({'kick_to_goal'}))",
        True),
    "Predicate": (
        lambda: cp.Predicate("has_passed", ("STRIKER",), True),
        "Predicate(name='has_passed', args=('STRIKER',), negated=True)",
        True),
    "ActionSchema": (
        lambda: cp.ActionSchema(
            "kick_to_goal", "Kick the ball.", (("AGENT", "ROLE"),),
            (cp.Predicate("ball_held_by", ("?AGENT",)),),
            (cp.Predicate("ball_at", ("OPPONENT_GOAL",)),)),
        "ActionSchema(action_id='kick_to_goal', description='Kick the ball.', "
        "args=(('AGENT', 'ROLE'),), "
        "preconditions=(Predicate(name='ball_held_by', args=('?AGENT',), negated=False),), "
        "effects=(Predicate(name='ball_at', args=('OPPONENT_GOAL',), negated=False),))",
        True),
    "VectorIndex": (
        lambda: cp.VectorIndex((("kick_to_goal", cp.Embedding((1.0, 0.0), 2)),), {}),
        "VectorIndex(entries=(('kick_to_goal', Embedding(vector=(1.0, 0.0), dim=2)),), "
        "schemas={})",
        False),
    "Agent": (
        lambda: cp.Agent("STRIKER", "OWN"),
        "Agent(agent_id='STRIKER', team='OWN', role=None)",
        True),
    "WorldState": (
        lambda: cp.WorldState(
            {"STRIKER": (cp.Pose(1.0, 2.0), cp.Agent("STRIKER", "OWN", "STRIKER"))},
            (1.5, 2.0)),
        "WorldState(agents={'STRIKER': (Pose(x=1.0, y=2.0), "
        "Agent(agent_id='STRIKER', team='OWN', role='STRIKER'))}, ball=(1.5, 2.0))",
        False),
    "Tactics": (lambda: cp.Tactics(), "Tactics(text='')", True),
    "AggregateMetrics": (
        lambda: cp.AggregateMetrics(0.5, 1.25, None),
        "AggregateMetrics(success_rate=0.5, avg_passes=1.25, avg_scoring_time=None)",
        True),
    "GroundedAction": (lambda: cp.GroundedAction(*ACTION), ACTION_REPR, True),
    "PlanStep": (
        lambda: cp.PlanStep("SINGLE", (ACTION,)),
        f"PlanStep(kind='SINGLE', actions=({ACTION_REPR},))",
        True),
    "Plan": (
        lambda: cp.Plan((cp.PlanStep("SINGLE", (ACTION,)),)),
        f"Plan(steps=(PlanStep(kind='SINGLE', actions=({ACTION_REPR},)),))",
        True),
    "ChatResponse": (
        lambda: cp.ChatResponse("OK", "replay"),
        "ChatResponse(text='OK', provider_id='replay', latency=0.0)",
        True),
    "Violation": (
        lambda: cp.Violation(2, "PRECONDITION", "ball_held_by(JOLLY) does not hold"),
        "Violation(step_index=2, kind='PRECONDITION', "
        "message='ball_held_by(JOLLY) does not hold')",
        True),
    "ValidationReport": (
        lambda: cp.ValidationReport((cp.Violation(1, "SELF_JOIN", "x"),),
                                    frozenset({"at(STRIKER,CENTER)"})),
        "ValidationReport(violations=(Violation(step_index=1, kind='SELF_JOIN', "
        "message='x'),), final_state=frozenset({'at(STRIKER,CENTER)'}))",
        True),
    # On domain.Record; each repr is the one it had as a frozen dataclass.
    "Scenario": (
        lambda: cp.Scenario((("STRIKER", "CENTER_FIELD"), ("BALL", "CENTER_FIELD"))),
        "Scenario(assignments=(('STRIKER', 'CENTER_FIELD'), ('BALL', 'CENTER_FIELD')))",
        True),
    "PlanningGoal": (lambda: cp.PlanningGoal("Score a goal."),
                     "PlanningGoal(text='Score a goal.')", True),
    "Domain": (
        lambda: cp.Domain(*DOMAIN),
        "Domain(waypoints={'CENTER_FIELD': Waypoint(token='CENTER_FIELD', "
        "description='the center spot', position=(0.0, 0.0))}, roles={'STRIKER': "
        "Role(name='STRIKER', description='scores', allowed_actions=frozenset({'kick_to_goal'}))})",
        False),
    "Embedding": (lambda: cp.Embedding((1.0, 0.0), 2), "Embedding(vector=(1.0, 0.0), dim=2)",
                  True),
    "ChatRequest": (lambda: cp.ChatRequest("sys", "user"),
                    "ChatRequest(system_text='sys', user_text='user')", True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_record(name):
    make, text, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and a is not b
    assert isinstance(a, tuple) and a == tuple(a)
    if hashable:
        assert hash(a) == hash(b)
    else:  # a dict field, as before
        with pytest.raises(TypeError):
            hash(a)
    first = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        a.extra = None


def test_value_record_defaults():
    assert cp.Agent("STRIKER", "OWN").role is None
    assert cp.Tactics().text == ""
    assert cp.ChatResponse("OK", "replay").latency == 0.0
    assert cp.Predicate("at", ("STRIKER", "CENTER_FIELD")).negated is False


# name -> (fields that break its constructor's check, the error it raises).
CHECKED = {
    "Scenario": ({"assignments": (("BALL", "CENTER_FIELD"), ("BALL", "OUR_GOAL"))},
                 errors.DuplicateSubject),
    "PlanningGoal": ({"text": " "}, errors.EmptyInput),
    "ChatRequest": ({"user_text": "\udcff"}, errors.UnencodableText),
}


@pytest.mark.parametrize("name", CHECKED)
def test_replace_and_make_run_the_check(name):
    fields, error = CHECKED[name]
    record = RECORDS[name][0]()
    with pytest.raises(error):
        record._replace(**fields)
    with pytest.raises(error):
        type(record)._make(fields.get(f, getattr(record, f)) for f in record._fields)
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **fields})
    assert record._replace() == record


@pytest.mark.parametrize("name", ["Scenario", "PlanningGoal", "Domain", "Embedding",
                                  "ChatRequest"])
def test_frozen_record(name):
    record = RECORDS[name][0]()
    for attr in (record._fields[0], "extra"):
        with pytest.raises(errors.FrozenRecord, match=f"cannot assign to '{attr}' of a "
                           f"frozen {name}"):
            setattr(record, attr, None)
    assert isinstance(record, cp.domain.Record)
    # Only a record with cached values has an instance dict.
    assert hasattr(record, "__dict__") == (name in CACHED)


# name -> what reads its cached values, which live in the instance dict,
# out of repr and equality.
CACHED = {
    "Domain": lambda d: (d._token_ids, d._distance_table, d._ranked_waypoints),
    "Embedding": lambda e: e.norm,
    "ChatRequest": lambda r: r.fingerprint(),
}


@pytest.mark.parametrize("name", CACHED)
def test_cached_values_are_no_fields(name):
    make, text, _ = RECORDS[name]
    record = make()
    CACHED[name](record)
    assert vars(record) and repr(record) == text and record == make()


def test_cli_import_defines_five_dataclasses_and_loads_no_hashlib():
    # A fresh interpreter without `site` (-S): only `generate` hashes, so
    # the CLI imports hashlib (and OpenSSL) in the functions that hash, and
    # the dataclasses left are the ones whose readers need one.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import inspect, sys, coachplan.cli\n"
        "print('hashlib' in sys.modules, sorted(\n"
        "    c.__name__ for m in list(sys.modules.values()) if m.__name__.startswith('coachplan')\n"
        "    for c in vars(m).values() if inspect.isclass(c) and c.__module__ == m.__name__\n"
        "    and '__dataclass_fields__' in vars(c)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False ['FSMState', 'Library', 'MatchResult', 'PlanRecord', 'SimConfig']\n"
