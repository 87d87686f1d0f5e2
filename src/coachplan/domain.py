"""Planning domain: waypoints, roles, agents, world state and scenarios.

The field is discretized into named waypoints; scenarios assign roles and
the ball to waypoints.  All types are immutable values, all operations pure.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateSubject, EmptyDomain, MissingRole, ParseError, UnknownWaypoint

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

TOKEN_RE = re.compile(r"[A-Z][A-Z0-9_]*$")

OWN = "OWN"
OPPONENT = "OPPONENT"
BALL = "BALL"


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    elif theta > math.pi:
        theta -= 2.0 * math.pi
    return theta


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pose coordinates must be finite")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class Waypoint:
    token: str
    description: str
    position: tuple[float, float]

    def __post_init__(self):
        if not TOKEN_RE.match(self.token):
            raise ValueError(f"bad waypoint token: {self.token!r}")


@dataclass(frozen=True)
class Role:
    name: str
    description: str
    allowed_actions: frozenset[str]

    def __post_init__(self):
        if not self.allowed_actions:
            raise ValueError(f"role {self.name} has no allowed actions")


@dataclass(frozen=True)
class Agent:
    agent_id: str
    team: str  # OWN | OPPONENT
    role: str | None = None


@dataclass(frozen=True)
class WorldState:
    agents: dict  # agent_id -> (Pose, Agent)
    ball: tuple[float, float]
    timestamp: float = 0.0


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

    def subjects(self):
        return [s for s, _ in self.assignments]

    def waypoint_of(self, subject):
        for s, t in self.assignments:
            if s == subject:
                return t
        return None


@dataclass(frozen=True)
class PlanningGoal:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("planning goal must be non-empty")


@dataclass(frozen=True)
class Tactics:
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
    def _distance_table(self) -> dict:
        """token -> {token: metres}: table[b][a] is hypot(ax - bx, ay - by)."""
        positions = {t: w.position for t, w in self.waypoints.items()}
        return {
            b: {a: math.hypot(ax - bx, ay - by) for a, (ax, ay) in positions.items()}
            for b, (bx, by) in positions.items()
        }

    def distance_rows(self, b: Scenario) -> dict:
        """subject -> its row of the waypoint-distance table, for scoring
        many scenarios against `b` with distances_to."""
        table = self._distance_table
        try:
            return {subject: table[token] for subject, token in b.assignments}
        except KeyError as exc:
            raise UnknownWaypoint(exc.args[0]) from None

    def distances_to(self, rows: dict, scenarios) -> list:
        """[scenario_distance(a, b) for a in scenarios] for rows =
        distance_rows(b).  Each sum is added term by term in one fixed
        order: a's subjects, then one UNMATCHED_PENALTY per unmatched
        subject of b."""
        waypoints = self.waypoints
        row_of = rows.get
        n_rows = len(rows)
        distances = []
        for a in scenarios:
            total = 0.0
            matched = 0
            for subject, token in a.assignments:
                row = row_of(subject)
                if row is None:
                    if token not in waypoints:
                        raise UnknownWaypoint(token)
                    total += UNMATCHED_PENALTY
                else:
                    try:
                        total += row[token]
                    except KeyError:
                        raise UnknownWaypoint(token) from None
                    matched += 1
            for _ in range(n_rows - matched):
                total += UNMATCHED_PENALTY
            distances.append(total)
        return distances


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
    best = None
    best_d = None
    for token in sorted(domain.waypoints):
        wx, wy = domain.waypoints[token].position
        d = math.hypot(pos[0] - wx, pos[1] - wy)
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
    per unmatched subject.  Symmetric; not a metric (no triangle inequality).
    Scoring many scenarios against one `b`: build domain.distance_rows(b)
    once and pass them all to domain.distances_to."""
    return domain.distances_to(domain.distance_rows(b), (a,))[0]


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
    r'ROLE\s+([A-Z][A-Z0-9_]*)\s+"([^"]*)"\s+ACTIONS=([\w,]+)\s*$'
)


def parse_domain_file(text: str) -> Domain:
    """Line-oriented domain file: WAYPOINT and ROLE records, # comments."""
    waypoints = {}
    roles = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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

    Numbers must be finite, and no two OWN agents may share a role.
    """
    agents = {}
    own_roles = set()
    ball = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            agents[aid] = (
                Pose(*(parse_finite(v, lineno) for v in (x, y, theta))),
                Agent(aid, team, role_name),
            )
        elif parts[0] == "BALL":
            if len(parts) != 3:
                raise ParseError(f"bad BALL record: {raw!r}", line=lineno)
            ball = clamp_to_field(tuple(parse_finite(v, lineno) for v in parts[1:]))
        else:
            raise ParseError(f"unknown record: {raw!r}", line=lineno)
    if ball is None:
        raise ParseError("world file has no BALL record")
    return WorldState(agents, ball)
