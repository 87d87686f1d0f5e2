"""Deterministic plan execution in a 2D kinematic soccer simulation.

A synchronized plan compiles to one finite-state machine per agent; JOIN
steps become barriers.  The match loop is fixed-timestep, single-threaded
and fully deterministic given (world, config, opponent policy):
point-mass agents, a ball that is held, flying or free, no collision
physics beyond opponent ball-steal contact.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields

from .actions import INSTANT, KICK, MOVE, PASS, RECEIVE, classify, packaged_schemas
from .domain import (CONTROL_RADIUS, FIELD_X, GOAL_HALF_WIDTH, OWN, Domain, WorldState,
                     ball_holder, clamp_to_field)
from .errors import ConfigInvalid, EmptyInput, InvalidPlan
from .planlang import JOIN, Plan
from .refine import grounded_effects


# Most ticks one match may take (timeout / tick): ten times the default
# 2400, so no config can keep a match running for minutes.
MAX_TICKS = 24_000


@dataclass(frozen=True)
class SimConfig:
    """Speeds (m/s) and times (s); the field, goal and control radius are in `domain`."""

    walk_speed: float = 0.25
    pass_speed: float = 2.0
    kick_speed: float = 4.0
    tick: float = 0.05
    timeout: float = 120.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v)):
                raise ConfigInvalid(f"{f.name} must be a finite number, got {v!r}")
            if v <= 0:
                raise ConfigInvalid("all simulation parameters must be positive")
        if self.tick > 0.1:
            raise ConfigInvalid("tick must be <= 0.1 s")
        if self.timeout / self.tick > MAX_TICKS:
            raise ConfigInvalid(f"timeout / tick must be <= {MAX_TICKS} ticks, "
                                f"got {self.timeout / self.tick:.0f}")


@dataclass(frozen=True)
class FSMState:
    action_id: str
    kind: str  # an action kind from `actions`: MOVE | PASS | RECEIVE | KICK | INSTANT
    target: str | None = None  # the MOVE waypoint or the PASS receiver
    barrier_id: str | None = None


@dataclass(frozen=True)
class AgentFSM:
    agent_id: str
    states: tuple  # of FSMState


@dataclass(frozen=True)
class MatchResult:
    success: bool
    passes: int
    scoring_time: float | None
    trace: tuple  # of formatted event lines

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n"


@dataclass(frozen=True)
class AggregateMetrics:
    success_rate: float
    avg_passes: float
    avg_scoring_time: float | None


def compile_fsm(plan: Plan, schemas=None) -> dict:
    """One FSM per agent, actions in plan order; each JOIN contributes one
    barrier shared by exactly its members.  Agents absent from a step simply
    have no state for it.  Each state runs as the kind its action's schema
    gives (default: the packaged actions); InvalidPlan if there is none."""
    if schemas is None:
        schemas = packaged_schemas()
    fsms: dict[str, list] = {}
    for index, step in enumerate(plan.steps, start=1):
        if step.kind == JOIN:
            agents = step.agents()
            if len(set(agents)) != len(agents):
                raise InvalidPlan(f"step {index}: JOIN with duplicate agents")
            barrier = f"barrier_{index}"
        else:
            barrier = None
        for action in step.actions:
            state = _compile_state(index, action, schemas, barrier)
            fsms.setdefault(action.agent_id, []).append(state)
    if not fsms:
        raise InvalidPlan("plan has no actions")
    return {aid: AgentFSM(aid, tuple(states)) for aid, states in sorted(fsms.items())}


def _compile_state(index, action, schemas, barrier) -> FSMState:
    where = f"step {index}: {action.action_id} {action.agent_id}"
    kind = classify(schemas[action.action_id]) if action.action_id in schemas else None
    if kind is None:
        raise InvalidPlan(f"{where}: no schema whose effects fit one action kind")
    if kind not in (MOVE, PASS):
        return FSMState(action.action_id, kind, None, barrier)
    adds, _ = grounded_effects(action, schemas)
    senders = sorted(f.args[0] for f in adds if f.name == "has_passed")
    if kind == PASS and senders != [action.agent_id]:
        raise InvalidPlan(f"{where}: the pass is made by {', '.join(senders)}, "
                          "not the acting agent")
    target = next(f.args[-1] for f in adds if f.name in ("at", "ball_at"))
    return FSMState(action.action_id, kind, target, barrier)


# --- opponent policies -----------------------------------------------------

STATIC = "STATIC"
NEAREST_INTERCEPT = "NEAREST_INTERCEPT"


def make_opponent_policy(name: str = STATIC, seed: int = 0):
    """Opponent policy by name.  Both policies are deterministic, so `seed`
    currently has no effect; it is accepted for callers that pass one.
    Policies keep no state, so one object can serve any number of matches."""
    if name == STATIC:
        return _StaticPolicy()
    if name == NEAREST_INTERCEPT:
        return _InterceptPolicy()
    raise ConfigInvalid(f"unknown opponent policy {name!r}")


class _StaticPolicy:
    name = STATIC
    steals = False

    def move(self, pos, ball, config):
        return pos


class _InterceptPolicy:
    name = NEAREST_INTERCEPT
    steals = True

    def move(self, pos, ball, config):
        return _step_towards(pos, ball, config.walk_speed * config.tick)


# --- match loop ------------------------------------------------------------

def _step_towards(pos, target, step):
    dx, dy = target[0] - pos[0], target[1] - pos[1]
    dist = math.hypot(dx, dy)
    if dist <= step or dist == 0.0:
        return (target[0], target[1])
    return (pos[0] + dx / dist * step, pos[1] + dy / dist * step)


@dataclass
class _Ball:
    pos: tuple
    mode: str = "FREE"  # FREE | HELD | PASS | KICK (in flight, by the kind that launched it)
    holder: str | None = None
    receiver: str | None = None
    velocity: tuple = (0.0, 0.0)


# Ticks between two checks for a match whose state has stopped changing.
SETTLE_PERIOD = 16


class _Match:
    def __init__(self, fsms, world0: WorldState, domain: Domain,
                 config: SimConfig, opponent_policy):
        missing = [aid for aid in fsms if aid not in world0.agents]
        if missing:
            raise ConfigInvalid(f"world is missing plan agents: {missing}")
        self.states = {aid: fsms[aid].states for aid in sorted(fsms)}  # in id order
        # Each MOVE target's position, resolved once (UnknownWaypoint here).
        self.move_targets = {
            state.target: tuple(domain.waypoint(state.target).position)
            for states in self.states.values() for state in states if state.kind == MOVE
        }
        self.config = config
        self.policy = opponent_policy
        self.own = {}
        self.opponents = {}
        for agent_id, (pose, agent) in sorted(world0.agents.items()):
            if agent.team == OWN:
                self.own[agent_id] = (pose.x, pose.y)
            else:
                self.opponents[agent_id] = (pose.x, pose.y)
        holder = ball_holder(world0)
        self.ball = _Ball(world0.ball, "FREE" if holder is None else "HELD", holder)
        # Members per barrier, and members done at it so far.
        self.barrier_total = Counter(state.barrier_id for states in self.states.values()
                                     for state in states if state.barrier_id)
        self.barrier_done = Counter()
        # Run state: each agent's current state, and the agents whose
        # current state is done, or has launched the ball.
        self.cursor = dict.fromkeys(self.states, 0)
        self.done: set = set()
        self.launched: set = set()
        self.t = 0.0
        self.ticks = 0
        self.trace: list[str] = []
        self.passes = 0
        self.success = False
        self.scoring_time = None

    def _event(self, kind, agent, details=""):
        line = f"t={self.t:.2f} EVENT {kind} {agent}"
        if details:
            line += f" {details}"
        self.trace.append(line)

    def _holds_ball(self, agent_id):
        return self.ball.mode == "HELD" and self.ball.holder == agent_id

    # -- per-kind behavior; returns True when the action is finished.
    def _act(self, agent_id, state: FSMState):
        cfg = self.config
        kind = state.kind
        pos = self.own[agent_id]
        if kind == MOVE:
            target = self.move_targets[state.target]
            new_pos = clamp_to_field(_step_towards(pos, target, cfg.walk_speed * cfg.tick))
            self.own[agent_id] = new_pos
            if self._holds_ball(agent_id):
                self.ball.pos = new_pos
            return new_pos == target
        if kind == INSTANT:
            return True
        if kind == RECEIVE:
            if self._holds_ball(agent_id):
                return True
            if self.ball.mode == "FREE":
                self._try_take(agent_id)
            return self._holds_ball(agent_id)
        # PASS or KICK: get the ball, unless a flight of this kind is under
        # way (a launched one ends in _settle_flights).
        if not self._holds_ball(agent_id):
            if self.ball.mode != kind:
                self._chase_ball(agent_id)
            return False
        if kind == PASS:
            self.ball.mode = PASS
            self.ball.holder = None
            self.ball.receiver = state.target
            self.launched.add(agent_id)
            self._event("PASS_LAUNCH", agent_id, f"to={state.target}")
            return False
        goal = (FIELD_X, 0.0)
        dx, dy = goal[0] - self.ball.pos[0], goal[1] - self.ball.pos[1]
        dist = math.hypot(dx, dy)
        if dist == 0.0:
            return True
        self.ball.mode = KICK
        self.ball.holder = None
        self.ball.velocity = (dx / dist * cfg.kick_speed,
                              dy / dist * cfg.kick_speed)
        self.launched.add(agent_id)
        self._event("KICK", agent_id)
        return False

    def _chase_ball(self, agent_id):
        cfg = self.config
        pos = self.own[agent_id]
        self.own[agent_id] = clamp_to_field(
            _step_towards(pos, self.ball.pos, cfg.walk_speed * cfg.tick)
        )
        if self.ball.mode == "FREE":
            self._try_take(agent_id)

    def _try_take(self, agent_id):
        pos = self.own[agent_id]
        d = math.hypot(pos[0] - self.ball.pos[0], pos[1] - self.ball.pos[1])
        if d <= CONTROL_RADIUS:
            self.ball.mode = "HELD"
            self.ball.holder = agent_id
            self.ball.pos = pos

    def _update_ball(self):
        cfg = self.config
        ball = self.ball
        if ball.mode == "HELD" and ball.holder in self.own:
            ball.pos = self.own[ball.holder]
            return
        if ball.mode == "HELD" and ball.holder in self.opponents:
            ball.pos = self.opponents[ball.holder]
            return
        if ball.mode == "PASS":
            target = self.own.get(ball.receiver)
            if target is None:
                ball.mode = "FREE"
                return
            ball.pos = _step_towards(ball.pos, target, cfg.pass_speed * cfg.tick)
            d = math.hypot(ball.pos[0] - target[0], ball.pos[1] - target[1])
            if d <= CONTROL_RADIUS:
                ball.mode = "HELD"
                ball.holder = ball.receiver
                ball.receiver = None
                ball.pos = target
                self.passes += 1
                self._event("PASS_COMPLETE", ball.holder, f"passes={self.passes}")
            return
        if ball.mode == "KICK":
            new_pos = (ball.pos[0] + ball.velocity[0] * cfg.tick,
                       ball.pos[1] + ball.velocity[1] * cfg.tick)
            if new_pos[0] >= FIELD_X and abs(new_pos[1]) <= GOAL_HALF_WIDTH:
                ball.pos = clamp_to_field(new_pos)
                ball.mode = "FREE"
                ball.velocity = (0.0, 0.0)
                self.success = True
                self.scoring_time = self.t
                self._event("GOAL", "BALL",
                            f"x={ball.pos[0]:.3f} y={ball.pos[1]:.3f}")
                return
            clamped = clamp_to_field(new_pos)
            if clamped != new_pos:
                ball.pos = clamped
                ball.mode = "FREE"
                ball.velocity = (0.0, 0.0)
                self._event("BALL_STOPPED", "BALL",
                            f"x={ball.pos[0]:.3f} y={ball.pos[1]:.3f}")
            else:
                ball.pos = new_pos

    def _move_opponents(self):
        for oid in self.opponents:  # in id order
            self.opponents[oid] = clamp_to_field(
                self.policy.move(self.opponents[oid], self.ball.pos, self.config)
            )
            if self.policy.steals and self.ball.mode in ("FREE", "PASS", "KICK"):
                pos = self.opponents[oid]
                d = math.hypot(pos[0] - self.ball.pos[0], pos[1] - self.ball.pos[1])
                if d <= CONTROL_RADIUS:
                    self.ball.mode = "HELD"
                    self.ball.holder = oid
                    self.ball.receiver = None
                    self.ball.velocity = (0.0, 0.0)
                    self.ball.pos = pos
                    self._event("STEAL", oid)

    def _advance(self, aid):
        """Move past done states whose barriers (if any) have released.
        Returns the agent's current state, or None once its plan is over."""
        states = self.states[aid]
        while self.cursor[aid] < len(states):
            state = states[self.cursor[aid]]
            if aid not in self.done:
                return state
            barrier = state.barrier_id
            if barrier is not None and self.barrier_done[barrier] < self.barrier_total[barrier]:
                return state  # hold at the barrier
            self.cursor[aid] += 1
            self.done.discard(aid)
            self.launched.discard(aid)
        return None

    def _snapshot(self):
        """Everything a tick reads and writes, except the clock; the trace
        length stands for the events (and counts) a tick may log."""
        ball = self.ball
        return (tuple(self.own.values()), tuple(self.opponents.values()),
                ball.pos, ball.mode, ball.holder, ball.receiver, ball.velocity,
                tuple(self.cursor.values()), frozenset(self.done),
                frozenset(self.launched), tuple(self.barrier_done.items()),
                len(self.trace))

    def run(self) -> MatchResult:
        cfg = self.config
        before = settled = None
        while True:
            self.ticks += 1
            self.t = self.ticks * cfg.tick
            # A settled match would idle to the timeout, so it ends there now.
            if self.t > cfg.timeout or settled:
                self.t = round(cfg.timeout, 10)
                self._event("TIMEOUT", "MATCH")
                break
            for aid in self.states:
                state = self._advance(aid)
                if state is not None and aid not in self.done and self._act(aid, state):
                    self._finish(aid, state)
            self._move_opponents()
            self._update_ball()
            self._settle_flights()
            if self.success:
                break
            plan_live = any(self._advance(aid) is not None for aid in self.states)
            if not plan_live and self.ball.mode not in ("PASS", "KICK"):
                self._event("PLAN_DONE", "MATCH")
                break
            # The tick reads no clock, so a tick that changed nothing will
            # change nothing ever again.  Checked on two ticks in every
            # SETTLE_PERIOD, since a snapshot per tick costs more than it saves.
            phase = self.ticks % SETTLE_PERIOD
            if phase == 0:
                before = self._snapshot()
            elif phase == 1:
                settled = self._snapshot() == before
        return MatchResult(
            success=self.success,
            passes=self.passes,
            scoring_time=self.scoring_time,
            trace=tuple(self.trace),
        )

    def _settle_flights(self):
        """Complete pass/kick actions whose ball flight has resolved."""
        for aid in sorted(self.launched - self.done):
            state = self.states[aid][self.cursor[aid]]
            if state.kind == PASS:
                if self.ball.mode == "HELD" and self.ball.holder == state.target:
                    self._finish(aid, state)
            elif self.ball.mode == "FREE" and self.ball.velocity == (0.0, 0.0):
                self._finish(aid, state)  # KICK: scored or stopped

    def _finish(self, aid, state: FSMState):
        self.done.add(aid)
        self._event("ACTION_DONE", aid, state.action_id)
        if state.barrier_id is not None:
            self.barrier_done[state.barrier_id] += 1


def run_match(fsms, world0: WorldState, domain: Domain, config: SimConfig,
              opponent_policy=None) -> MatchResult:
    if opponent_policy is None:
        opponent_policy = make_opponent_policy(STATIC)
    return _Match(fsms, world0, domain, config, opponent_policy).run()


def aggregate(results) -> AggregateMetrics:
    results = list(results)
    if not results:
        raise EmptyInput("no match results to aggregate")
    successes = [r for r in results if r.success]
    avg_time = (
        sum(r.scoring_time for r in successes) / len(successes)
        if successes
        else None
    )
    return AggregateMetrics(
        success_rate=len(successes) / len(results),
        avg_passes=sum(r.passes for r in results) / len(results),
        avg_scoring_time=avg_time,
    )


def format_metrics_table(metrics: AggregateMetrics) -> str:
    time_cell = (
        f"{metrics.avg_scoring_time:.1f} sec."
        if metrics.avg_scoring_time is not None
        else "n/a"
    )
    rows = [
        ("Success Rate", f"{metrics.success_rate * 100:.0f}%"),
        ("Avg. no. of passes", f"{metrics.avg_passes:.2f}"),
        ("Avg. scoring time", time_cell),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"{label:<{width}} | {value}" for label, value in rows]
    return "\n".join(lines) + "\n"


def format_metrics_delimited(metrics: AggregateMetrics) -> str:
    time_cell = (
        f"{metrics.avg_scoring_time:.6g}"
        if metrics.avg_scoring_time is not None
        else ""
    )
    return (
        "success_rate\tavg_passes\tavg_scoring_time\n"
        + "\t".join([f"{metrics.success_rate:.6g}", f"{metrics.avg_passes:.6g}", time_cell])
        + "\n"
    )
