"""Planning domain: waypoints, roles, agents, world state and scenarios.

The field is discretized into named waypoints; scenarios assign roles and
the ball to waypoints.  All types are immutable values, all operations pure.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (DuplicateSubject, EmptyDomain, EmptyInput, MissingRole, ParseError,
                     UnknownWaypoint)

# SPL field, origin at center: 9.0 m x 6.0 m, own goal at x = -4.5.
FIELD_X = 4.5
FIELD_Y = 3.0

# Half the width (m) of the opponent goal mouth on the line x = FIELD_X.
GOAL_HALF_WIDTH = 0.75

# Distance (m) within which an agent controls the ball: it holds the ball
# at the start of a match, takes a free ball and completes a pass.
CONTROL_RADIUS = 0.3

# Cost added per subject present in only one of two scenarios (half the
# field width, so role mismatches dominate small positional drifts).
UNMATCHED_PENALTY = 3.0

# The package's data files: the demo domain, actions.txt, sync_examples.txt
# and the prompt templates, read with read_text like any other input.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

TOKEN_RE = re.compile(r"[A-Z][A-Z0-9_]*$")

OWN = "OWN"
OPPONENT = "OPPONENT"
BALL = "BALL"


class Pose(NamedTuple):
    x: float
    y: float


class Waypoint(NamedTuple):
    token: str
    description: str
    position: tuple[float, float]


class Role(NamedTuple):
    name: str
    description: str
    allowed_actions: frozenset[str]


class Agent(NamedTuple):
    agent_id: str
    team: str  # OWN | OPPONENT
    role: str | None = None


class WorldState(NamedTuple):
    agents: dict  # agent_id -> (Pose, Agent)
    ball: tuple[float, float]


@dataclass(frozen=True)
class Scenario:
    """Ordered (subject, waypoint-token) assignments; subject is a role
    name, an OPPONENT_i marker, or BALL.  No subject appears twice."""

    assignments: tuple  # of (subject, token)

    def __post_init__(self):
        seen = set()
        for subject, _ in self.assignments:
            if subject in seen:
                raise DuplicateSubject(subject)
            seen.add(subject)


@dataclass(frozen=True)
class PlanningGoal:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise EmptyInput("planning goal must be non-empty")


class Tactics(NamedTuple):
    text: str = ""


@dataclass(frozen=True)
class Domain:
    waypoints: dict  # token -> Waypoint, insertion ordered
    roles: dict      # name -> Role, insertion ordered

    def waypoint(self, token: str) -> Waypoint:
        try:
            return self.waypoints[token]
        except KeyError:
            raise UnknownWaypoint(token) from None

    @cached_property
    def _token_ids(self) -> dict:
        """token -> its id: its place in domain order."""
        return {t: i for i, t in enumerate(self.waypoints)}

    @cached_property
    def _distance_table(self) -> list:
        """Waypoint distances by token id: table[j][i] is
        hypot(ax - bx, ay - by) for a the waypoint of id i, b that of id j."""
        positions = [w.position for w in self.waypoints.values()]
        return [[math.hypot(ax - bx, ay - by) for ax, ay in positions]
                for bx, by in positions]

    @cached_property
    def _ranked_waypoints(self) -> list:
        """(token, x, y) of every waypoint, in token order."""
        return [(t, *self.waypoints[t].position) for t in sorted(self.waypoints)]

    def distance_rows(self, b: Scenario) -> dict:
        """subject -> its row of the waypoint-distance table, a list indexed
        by token id: the query that scores the scenarios of a ScenarioIndex
        built under this domain against `b`."""
        table, ids = self._distance_table, self._token_ids
        try:
            return {subject: table[ids[token]] for subject, token in b.assignments}
        except KeyError as exc:
            raise UnknownWaypoint(exc.args[0]) from None


class ScenarioIndex:
    """A batch of scenarios coded once as integers, to score them against
    many queries: the nearest of them (select_plan) or the full distances
    of some of them (cluster_scenarios).

    Each subject gets a small id in first-seen batch order and each
    waypoint token its id in domain order.  A scenario becomes a tuple of
    (subject id, token id) pairs in assignment order, equal pairs shared,
    and the bitmask of its subject ids; scenarios are grouped by bitmask.
    The build codes every token in batch order, so an unknown waypoint
    anywhere raises UnknownWaypoint naming the first in batch order.  The
    index holds neither the scenarios nor the domain.

    A query is rows = domain.distance_rows(b) under the index's domain.
    Each sum, scenario_distance(a, b) for a scenario a of the batch, adds
    a's terms in assignment order (UNMATCHED_PENALTY where b lacks the
    subject), then one UNMATCHED_PENALTY per subject of b that a lacks."""

    def __init__(self, scenarios, domain: Domain):
        token_ids = domain._token_ids
        subject_ids = {}
        coded = {}  # (subject, token) -> ((subject id, token id), subject bit)
        records = []
        masks = []
        groups = {}  # bitmask -> [positions]
        for i, a in enumerate(scenarios):
            pairs = []
            mask = 0
            for assignment in a.assignments:
                code = coded.get(assignment)
                if code is None:
                    subject, token = assignment
                    t = token_ids.get(token)
                    if t is None:
                        raise UnknownWaypoint(token)
                    s = subject_ids.setdefault(subject, len(subject_ids))
                    code = coded[assignment] = ((s, t), 1 << s)
                pair, bit = code
                pairs.append(pair)
                mask |= bit
            records.append(tuple(pairs))
            masks.append(mask)
            groups.setdefault(mask, []).append(i)
        self._subject_ids = subject_ids
        self._records = records
        self._masks = masks
        self._groups = list(groups.items())
        # The row of a subject the query leaves unmatched.
        self._penalty_row = [UNMATCHED_PENALTY] * len(token_ids)

    def _query(self, rows: dict) -> tuple:
        """(by_id, mask, never) for a query's rows: by_id[s] is the row of
        subject id s, the penalty row where the query does not name it;
        mask holds the ids of the query's subjects; never counts the
        query's subjects that the batch never names."""
        penalty_row = self._penalty_row
        by_id = [penalty_row] * len(self._subject_ids)
        mask = 0
        never = 0
        ids = self._subject_ids
        for subject, row in rows.items():
            s = ids.get(subject)
            if s is None:
                never += 1
            else:
                by_id[s] = row
                mask |= 1 << s
        return by_id, mask, never

    def nearest(self, rows: dict) -> tuple:
        """(least distance, [positions at it, ascending]) over the batch:
        the least scenario_distance(a, b) of the batch and every position
        where it stands, compared exactly; an empty batch gives (math.inf, []).

        Every scenario of a group leaves the same subjects unmatched:
        popcount(mask ^ query mask) of the subjects both name, plus the
        query's subjects the batch never names.  Its computed sum is at
        least UNMATCHED_PENALTY times that count: each term is >= 0 (a hypot
        or UNMATCHED_PENALTY), rounded addition is monotone, and a sum of a
        few 3.0s is exact.  Groups are visited in ascending bound order and
        the scan stops at the first bound strictly above the best so far.

        A visited scenario adds its terms in the fixed order and is
        abandoned once its partial sum is strictly above the best: the
        partial sums never fall, so it could only have ended above it.  A
        partial sum equal to the best goes on, so ties stay ties."""
        by_id, query_mask, never = self._query(rows)
        bounds = []
        for g, (mask, _) in enumerate(self._groups):
            bounds.append((UNMATCHED_PENALTY * ((mask ^ query_mask).bit_count() + never),
                           g, (query_mask & ~mask).bit_count() + never))
        bounds.sort()
        groups, records = self._groups, self._records
        best = math.inf
        at = []
        for bound, g, trailing in bounds:
            if bound > best:
                break
            for i in groups[g][1]:
                total = 0.0
                for s, t in records[i]:
                    total += by_id[s][t]
                    if total > best:
                        break
                else:
                    for _ in range(trailing):
                        total += UNMATCHED_PENALTY
                        if total > best:
                            break
                    else:
                        if total < best:
                            best = total
                            at = [i]
                        elif total == best:
                            at.append(i)
        at.sort()
        return best, at

    def distances(self, rows: dict, positions) -> list:
        """[scenario_distance(batch[i], b) for i in positions]: full sums,
        never abandoned."""
        by_id, query_mask, never = self._query(rows)
        records, masks = self._records, self._masks
        out = []
        for i in positions:
            total = 0.0
            for s, t in records[i]:
                total += by_id[s][t]
            for _ in range((query_mask & ~masks[i]).bit_count() + never):
                total += UNMATCHED_PENALTY
            out.append(total)
        return out


def clamp_to_field(pos):
    """pos moved onto the field along each axis; pos itself if it is on."""
    x, y = pos
    if -FIELD_X <= x <= FIELD_X and -FIELD_Y <= y <= FIELD_Y:
        return pos
    return (max(-FIELD_X, min(FIELD_X, x)), max(-FIELD_Y, min(FIELD_Y, y)))


def ball_holder(world: WorldState) -> str | None:
    """Id of the own agent that holds the ball at kickoff: the nearest one
    within CONTROL_RADIUS, exact ties to the smallest agent id; None if no
    own agent is that close."""
    bx, by = world.ball
    d, holder = min(
        ((math.hypot(pose.x - bx, pose.y - by), agent_id)
         for agent_id, (pose, agent) in world.agents.items() if agent.team == OWN),
        default=(math.inf, None),
    )
    return holder if d <= CONTROL_RADIUS else None


def nearest_waypoint(pos: tuple[float, float], domain: Domain) -> str:
    """Token of the waypoint closest to pos; ties broken lexicographically."""
    if not domain.waypoints:
        raise EmptyDomain("no waypoints in domain")
    px, py = pos
    best = None
    best_d = None
    for token, wx, wy in domain._ranked_waypoints:
        d = math.hypot(px - wx, py - wy)
        if best_d is None or d < best_d:
            best, best_d = token, d
    return best


def opponent_markers(world: WorldState):
    """Opponent agents labeled OPPONENT_1..N in field order (x, then y,
    then agent id)."""
    opponents = [
        (pose, agent)
        for pose, agent in world.agents.values()
        if agent.team == OPPONENT
    ]
    opponents.sort(key=lambda pa: (pa[0].x, pa[0].y, pa[1].agent_id))
    return [
        (f"OPPONENT_{i + 1}", pose) for i, (pose, agent) in enumerate(opponents)
    ]


def scenario_from_world(world: WorldState, domain: Domain) -> Scenario:
    """Discretize a world state into a scenario: own roles first (in domain
    role order), then opponent markers, then BALL."""
    if not domain.waypoints:
        raise EmptyDomain("no waypoints in domain")
    by_role = {}
    for pose, agent in world.agents.values():
        if agent.team != OWN:
            continue
        if agent.role is None:
            raise MissingRole(f"own agent {agent.agent_id} has no role")
        by_role[agent.role] = pose
    assignments = []
    for name in domain.roles:
        if name in by_role:
            pose = by_role[name]
            assignments.append((name, nearest_waypoint((pose.x, pose.y), domain)))
    for marker, pose in opponent_markers(world):
        assignments.append((marker, nearest_waypoint((pose.x, pose.y), domain)))
    assignments.append((BALL, nearest_waypoint(world.ball, domain)))
    return Scenario(tuple(assignments))


def scenario_distance(a: Scenario, b: Scenario, domain: Domain) -> float:
    """Sum of waypoint distances over shared subjects plus a fixed penalty
    per unmatched subject, added in ScenarioIndex's order; b's unknown
    waypoint is named before a's.  Symmetric up to rounding (the two
    directions add in different orders); cluster_scenarios keeps both
    directions.  Not a metric (no triangle inequality)."""
    rows = domain.distance_rows(b)
    return ScenarioIndex((a,), domain).distances(rows, (0,))[0]


def serialize_scenario(scenario: Scenario) -> str:
    lines = ["SCENARIO:"]
    for subject, token in scenario.assignments:
        lines.append(f"{subject} is at {token}")
    return "\n".join(lines)


# --- file formats ----------------------------------------------------------

_WAYPOINT_RE = re.compile(
    r'WAYPOINT\s+([A-Z][A-Z0-9_]*)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+"([^"]*)"\s*$'
)
_ROLE_RE = re.compile(
    r'ROLE\s+([A-Z][A-Z0-9_]*)\s+"([^"]*)"\s+ACTIONS=(\w+(?:,\w+)*)\s*$'
)


def content_lines(text: str):
    """(line number, line, stripped line) for each line of a line-oriented
    input file that is neither blank nor a `#` comment.  A line ends only
    at a line feed, so line N is the one an editor shows."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line


def parse_domain_file(text: str) -> Domain:
    """Line-oriented domain file: WAYPOINT and ROLE records, # comments."""
    waypoints = {}
    roles = {}
    for lineno, raw, line in content_lines(text):
        if line.startswith("WAYPOINT"):
            m = _WAYPOINT_RE.match(line)
            if not m:
                raise ParseError(f"bad WAYPOINT record: {raw!r}", line=lineno)
            token, x, y, desc = m.groups()
            if token in waypoints:
                raise ParseError(f"duplicate waypoint {token}", line=lineno)
            waypoints[token] = Waypoint(
                token, desc, (parse_finite(x, lineno), parse_finite(y, lineno)))
        elif line.startswith("ROLE"):
            m = _ROLE_RE.match(line)
            if not m:
                raise ParseError(f"bad ROLE record: {raw!r}", line=lineno)
            name, desc, actions = m.groups()
            if name in roles:
                raise ParseError(f"duplicate role {name}", line=lineno)
            roles[name] = Role(name, desc, frozenset(actions.split(",")))
        else:
            raise ParseError(f"unknown record: {raw!r}", line=lineno)
    return Domain(waypoints, roles)


def read_text(path) -> str:
    """The text of the file `path`, which must be UTF-8 (ParseError if it is
    not), with each CR LF or lone CR read as a line feed.  Packaged data is
    read the same way, from DATA_DIR."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from None


def parse_finite(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"number must be finite, got {text!r}", line=lineno)
    return value


def parse_world_file(text: str, domain: Domain) -> WorldState:
    """World-state ingestion format (one line per entity):

    AGENT <id> <OWN|OPPONENT> <role|-> <x> <y> <theta>
    BALL <x> <y>

    Numbers must be finite, and no two OWN agents may share a role.  The
    point-mass simulator has no heading, so theta is checked and dropped.
    """
    agents = {}
    own_roles = set()
    ball = None
    for lineno, raw, line in content_lines(text):
        parts = line.split()
        if parts[0] == "AGENT":
            if len(parts) != 7:
                raise ParseError(f"bad AGENT record: {raw!r}", line=lineno)
            _, aid, team, role, x, y, theta = parts
            if team not in (OWN, OPPONENT):
                raise ParseError(f"bad team {team!r}", line=lineno)
            role_name = None if role == "-" else role
            if role_name is not None and role_name not in domain.roles:
                raise ParseError(f"unknown role {role_name}", line=lineno)
            if aid in agents:
                raise ParseError(f"duplicate agent {aid}", line=lineno)
            if team == OWN and role_name is not None:
                if role_name in own_roles:
                    raise ParseError(f"duplicate own role {role_name}", line=lineno)
                own_roles.add(role_name)
            x, y, _ = (parse_finite(v, lineno) for v in (x, y, theta))
            agents[aid] = (Pose(x, y), Agent(aid, team, role_name))
        elif parts[0] == "BALL":
            if len(parts) != 3:
                raise ParseError(f"bad BALL record: {raw!r}", line=lineno)
            ball = clamp_to_field(tuple(parse_finite(v, lineno) for v in parts[1:]))
        else:
            raise ParseError(f"unknown record: {raw!r}", line=lineno)
    if ball is None:
        raise ParseError("world file has no BALL record")
    return WorldState(agents, ball)
