"""Coach prompt assembly, response parsing and role retrieval.

The coach model performs two tasks in one call: describe the frame as a
SCENARIO block (role/ball to waypoint assignments) and emit free-form
high-level advice under a COACH ADVICE header.
"""
from __future__ import annotations

import functools
import math
import os
import re

from .domain import BALL, DATA_DIR, OWN, Domain, Scenario, WorldState, read_text
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

TACTICS_SENTENCE = "Your attitude is to perform the following tactics [TACTICS]"


_SLOT_RE = re.compile(r"(\[[A-Z_]+\])")


@functools.cache
def _template_parts(name: str) -> tuple:
    """A packaged template, read and split at its `[SLOT]`s once per
    process: the text between slots at even positions, the slots at odd
    ones."""
    return tuple(_SLOT_RE.split(read_text(os.path.join(DATA_DIR, "templates", name))))


def fill_template(name: str, slots: dict) -> str:
    """Load a packaged prompt template and replace its `[SLOT]`s in one pass.

    Only the template's own text is searched, so a value is inserted
    verbatim even if it names a slot (advice that mentions [ROLES], say).
    A slot given no value (the coach skeleton's [ROLE_OWN_TEAM]) is shown
    to the model verbatim.  Each key must be one of the template's slots;
    any other key, even one that is other text of the template, raises
    UnresolvedPlaceholder."""
    parts = list(_template_parts(name))
    names = parts[1::2]
    for slot in slots:
        if slot not in names:
            raise UnresolvedPlaceholder(f"template {name} has no slot {slot}")
    parts[1::2] = [slots.get(slot, slot) for slot in names]
    return "".join(parts)


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
        "[ROLES]": describe_roles(domain),
        "[WAYPOINTS]": describe_waypoints(domain),
        "[ACTIONS]": ", ".join(s.action_id for s in retrieved_actions),
        "[PLANNING_GOAL]": goal.text,
        "[TACTICS_SENTENCE]": tactics_sentence,
    }
    user_text = fill_template("coach.txt", slots)
    # Collapse the blank lines an empty slot value leaves (a domain with no
    # ROLE line, say).  An omitted tactics sentence leaves one blank line,
    # which stays, so the packaged prompt has no run to collapse.
    if "\n\n\n" in user_text:
        user_text = re.sub(r"\n{3,}", "\n\n", user_text)
    return ChatRequest(system_text=SYSTEM_TEXT, user_text=user_text)


_ASSIGNMENT_RE = re.compile(r"(\S+)\s+is\s+at\s+(\w+)\s*\.?\s*$")
_HEADER_RE = re.compile(r"[A-Z][A-Z ]*:\s*$")
_OPPONENT_RE = re.compile(r"OPPONENT_\d+")


@functools.lru_cache(maxsize=4096)
def _scenario_line(raw: str):
    """The syntax of one line of a SCENARIO block, which no domain changes:
    None for the blank line or section header that ends the block, else
    (assignment, fixed) with one shared (subject, token) tuple per distinct
    line, and fixed true for a subject every domain knows (BALL or an
    OPPONENT_i marker).  An unparseable line raises each time it is read:
    lru_cache keeps no exception."""
    line = raw.strip()
    if not line or _HEADER_RE.match(line):
        return None
    m = _ASSIGNMENT_RE.match(line)
    if not m:
        raise MissingScenarioBlock(f"unparseable scenario line: {raw!r}")
    subject, token = m.groups()
    return (subject, token), subject == BALL or bool(_OPPONENT_RE.fullmatch(subject))


def parse_scenario_block(response_text: str, domain: Domain) -> Scenario:
    """Extract the SCENARIO block: lines between a `SCENARIO:` header line
    and the next blank line or section header, each `<SUBJECT> is at
    <WAYPOINT>`.  Text after `SCENARIO:` on the header line is refused."""
    lines = response_text.split("\n")
    try:
        start = next(
            i for i, ln in enumerate(lines) if ln.strip().startswith("SCENARIO:")
        )
    except StopIteration:
        raise MissingScenarioBlock("response has no SCENARIO: header") from None
    if lines[start].strip() != "SCENARIO:":
        raise MissingScenarioBlock(f"text after SCENARIO: on its line: {lines[start]!r}")
    assignments = []
    roles, waypoints = domain.roles, domain.waypoints
    for raw in lines[start + 1:]:
        parsed = _scenario_line(raw)
        if parsed is None:
            break
        assignment, fixed = parsed
        subject, token = assignment
        if not fixed and subject not in roles:
            raise UnknownSubject(subject)
        if token not in waypoints:
            raise UnknownWaypoint(token)
        assignments.append(assignment)
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
