"""Coach prompt assembly, response parsing and role retrieval.

The coach model performs two tasks in one call: describe the frame as a
SCENARIO block (role/ball to waypoint assignments) and emit free-form
high-level advice under a COACH ADVICE header.
"""
from __future__ import annotations

import math
import re
from importlib import resources

from .domain import BALL, OWN, Domain, Scenario, WorldState
from .errors import (
    CardinalityMismatch,
    MissingAdviceBlock,
    MissingScenarioBlock,
    UnknownSubject,
    UnknownWaypoint,
    UnresolvedPlaceholder,
)
from .providers import ChatRequest

SYSTEM_TEXT = "You are the coach of a robot soccer team playing in the RoboCup Standard Platform League."

ADVICE_HEADER = "COACH ADVICE:"

SCENARIO_EXAMPLE = """\
SCENARIO:
STRIKER is at CENTER_FIELD
JOLLY is at FORWARD_LEFT
OPPONENT_1 is at OPPONENT_PENALTY_MARK
BALL is at CENTER_FIELD"""

TACTICS_SENTENCE = "Your attitude is to perform the following tactics [TACTICS]"


_SLOT_RE = re.compile(r"\[[A-Z_]+\]")


def fill_template(name: str, slots: dict) -> str:
    """Load a packaged prompt template and replace its `[SLOT]`s in one pass.

    Only the template's own text is searched, so a value is inserted
    verbatim even if it names a slot (advice that mentions [ROLES], say).
    Brackets that are not slots (the coach skeleton's [ROLE_OWN_TEAM]) are
    shown to the model verbatim; a slot the template lacks raises
    UnresolvedPlaceholder."""
    text = resources.files("coachplan.data.templates").joinpath(name).read_text()
    for slot in slots:
        if slot not in text:
            raise UnresolvedPlaceholder(f"template {name} has no slot {slot}")
    return _SLOT_RE.sub(lambda m: slots.get(m.group(0), m.group(0)), text)


def describe_roles(domain: Domain) -> str:
    lines = []
    for role in domain.roles.values():
        actions = " and ".join(sorted(role.allowed_actions))
        lines.append(
            f"- {role.name}: {role.description} "
            f"Allowed actions: {actions}."
        )
    return "\n".join(lines)


def describe_waypoints(domain: Domain) -> str:
    return "\n".join(
        f"{w.token}: {w.description}" for w in domain.waypoints.values()
    )


def build_coach_prompt(domain: Domain, retrieved_actions, goal, tactics) -> ChatRequest:
    if not retrieved_actions:
        raise UnresolvedPlaceholder("no retrieved actions to fill [ACTIONS]")
    if tactics.text.strip():
        tactics_sentence = TACTICS_SENTENCE.replace("[TACTICS]", tactics.text.strip())
    else:
        tactics_sentence = ""
    slots = {
        "[SCENARIO_EXAMPLE]": SCENARIO_EXAMPLE,
        "[ROLES]": describe_roles(domain),
        "[WAYPOINTS]": describe_waypoints(domain),
        "[ACTIONS]": ", ".join(s.action_id for s in retrieved_actions),
        "[PLANNING_GOAL]": goal.text,
        "[TACTICS_SENTENCE]": tactics_sentence,
    }
    user_text = fill_template("coach.txt", slots)
    # Drop the blank line left behind when the tactics sentence is omitted.
    user_text = re.sub(r"\n{3,}", "\n\n", user_text.replace("\n\n\n", "\n\n"))
    return ChatRequest(system_text=SYSTEM_TEXT, user_text=user_text)


_ASSIGNMENT_RE = re.compile(r"(\S+)\s+is\s+at\s+(\w+)\s*\.?\s*$")
_HEADER_RE = re.compile(r"[A-Z][A-Z ]*:\s*$")
_OPPONENT_RE = re.compile(r"OPPONENT_\d+")


def parse_scenario_block(response_text: str, domain: Domain) -> Scenario:
    """Extract the SCENARIO block: lines between `SCENARIO:` and the next
    blank line or section header, each `<SUBJECT> is at <WAYPOINT>`."""
    lines = response_text.splitlines()
    try:
        start = next(
            i for i, ln in enumerate(lines) if ln.strip().startswith("SCENARIO:")
        )
    except StopIteration:
        raise MissingScenarioBlock("response has no SCENARIO: header") from None
    assignments = []
    for raw in lines[start + 1:]:
        line = raw.strip()
        if not line or _HEADER_RE.match(line):
            break
        m = _ASSIGNMENT_RE.match(line)
        if not m:
            raise MissingScenarioBlock(f"unparseable scenario line: {raw!r}")
        subject, token = m.groups()
        if (subject != BALL and subject not in domain.roles
                and not _OPPONENT_RE.fullmatch(subject)):
            raise UnknownSubject(subject)
        if token not in domain.waypoints:
            raise UnknownWaypoint(token)
        assignments.append((subject, token))
    if not assignments:
        raise MissingScenarioBlock("SCENARIO block is empty")
    return Scenario(tuple(assignments))


def parse_advice_block(response_text: str) -> str:
    idx = response_text.find(ADVICE_HEADER)
    if idx < 0:
        raise MissingAdviceBlock(f"response has no {ADVICE_HEADER!r} header")
    return response_text[idx + len(ADVICE_HEADER):].strip()


def retrieve_roles(world: WorldState, scenario: Scenario, domain: Domain) -> dict:
    """Map each own agent to a scenario role by minimum-cost one-to-one
    matching (cost: Euclidean distance agent -> role's assigned waypoint).

    Exact dynamic programme over subsets of roles, O(n^2 * 2^n) for n own
    agents.  Totals are compared exactly, as the unrounded sum of the
    `math.hypot` costs, so the result does not depend on summation order.
    Ties: among assignments of exactly equal total cost, the one whose role
    indices (in scenario order), read over the own agents in sorted id
    order, form the lexicographically smallest tuple wins.  So two roles on
    one waypoint go to the agents in id order, and two agents on one pose
    take the roles in scenario order.
    """
    own = sorted(
        (agent_id, pose)
        for agent_id, (pose, agent) in world.agents.items()
        if agent.team == OWN
    )
    role_slots = [
        (subject, domain.waypoint(token).position)
        for subject, token in scenario.assignments
        if subject in domain.roles
    ]
    if len(own) != len(role_slots):
        raise CardinalityMismatch(
            f"{len(own)} own agents vs {len(role_slots)} scenario roles"
        )
    # Every float is an integer over a power of two: scaling all costs to
    # the largest denominator makes their sums exact integers.
    ratios = [
        [math.hypot(pose.x - wx, pose.y - wy).as_integer_ratio()
         for _, (wx, wy) in role_slots]
        for _, pose in own
    ]
    scale = max((den for row in ratios for _, den in row), default=1)
    cost = [[num * (scale // den) for num, den in row] for row in ratios]
    # best[mask] = (total, roles) assigning the first popcount(mask) agents
    # to the roles in mask; (total, roles) tuples compare cost first, then
    # lexicographically, which is the tie rule above.
    n = len(own)
    full = (1 << n) - 1
    best = [None] * (full + 1)
    best[0] = (0, ())
    for mask in range(full):
        total, cols = best[mask]
        row = cost[len(cols)]
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                cand = (total + row[j], cols + (j,))
                if best[mask | bit] is None or cand < best[mask | bit]:
                    best[mask | bit] = cand
    _, cols = best[full]
    return {agent_id: role_slots[c][0] for (agent_id, _), c in zip(own, cols)}
