"""Deterministic plan execution in a 2D kinematic soccer simulation.

A synchronized plan compiles to one finite-state machine per agent; JOIN
steps become barriers.  The match loop is fixed-timestep, single-threaded
and fully deterministic given (world, config, opponent policy):
point-mass agents, a ball that is held, flying or free, no collision
physics beyond opponent ball-steal contact.

One tick runs, in this order: act (each agent in id order; a done agent
first moves past its action unless its JOIN barrier still holds), the
opponents (in id order), the ball (a flight that ends finishes its
launcher's pass or kick, right after its PASS_COMPLETE, GOAL or
BALL_STOPPED), the liveness pass and the idle exit.  The liveness pass
moves done agents past their actions in id order and stops at the first
agent whose plan is not over, so later agents move on only in the next
tick's act step.  Traces and tick counts depend on both facts.

The idle exit ends a match with a held ball in which no action can finish
any more: every agent that can still act is on a RECEIVE, PASS or KICK,
and none of them holds the ball.  It rests on one invariant: a held ball is
never taken (takes and steals need a free or flying ball), and its holder
acts only through its own plan, so an opponent that holds it keeps it.  A
policy that takes a held ball, or lets an opponent give it up, breaks it.
The exit logs the TIMEOUT on the next tick, at the timeout: the trace is
the one the idle ticks would have given.  A match that stalls otherwise,
on a loose ball that no one reaches or on a walker that stands still at
the edge of the field, runs every tick to its timeout, which MAX_TICKS
bounds.

A match jumps over the ticks in which only positions change
(`_Match._jump`): an own agent holds the ball or it flies, every agent that
acts walks a MOVE or waits (a RECEIVE, or a PASS or KICK of the flight's
kind, while the ball flies) and every done agent is held at a barrier.
Three facts make the jump equal to the ticks it skips.  A walker's step
reads only its own position and target, so each walker's path is stepped
on its own.  Opponents move before the ball, so they step toward the
holder's position of the same tick, or where the flying ball was at the
end of the tick before, and a pass steps toward its receiver's position
after the receiver's step.  A held ball is never stolen, and no flight
ends in a jumped tick, so no action finishes there and the liveness pass
moves no agent on.  The jump ends before the first tick in which a walker
would arrive or stand still, the ball would score, stop at the edge or
reach its receiver, an opponent would reach the flying ball, or that would
pass the timeout; the general tick runs that one.  A jumped tick logs
nothing, so traces and tick counts are unchanged.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

from .actions import INSTANT, KICK, MOVE, PASS, RECEIVE, packaged_schemas
from .domain import (CONTROL_RADIUS, FIELD_X, FIELD_Y, GOAL_HALF_WIDTH, OWN, Domain,
                     WorldState, ball_holder, clamp_to_field)
from .errors import ConfigInvalid, EmptyInput, InvalidPlan
from .planlang import JOIN, Plan
from .refine import ground_plan


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
class MatchResult:
    success: bool
    passes: int
    scoring_time: float | None
    trace: tuple  # of formatted event lines

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n"


class AggregateMetrics(NamedTuple):
    success_rate: float
    avg_passes: float
    avg_scoring_time: float | None


def compile_fsm(plan: Plan, schemas=None) -> dict:
    """{agent_id: tuple of FSMState}, in id order: one FSM per agent, actions
    in plan order; each JOIN contributes one barrier shared by exactly its
    members.  Agents absent from a step simply have no state for it.  Each
    state runs as the kind and target that `refine.ground_plan` reads from
    the schemas (default: the packaged actions); InvalidPlan on its first
    SELF_JOIN or UNRUNNABLE fault."""
    if schemas is None:
        schemas = packaged_schemas()
    fsms: dict[str, list] = {}
    for step in ground_plan(plan, schemas):
        if step.faults:
            raise InvalidPlan(f"step {step.index}: {step.faults[0].message}")
        barrier = f"barrier_{step.index}" if step.kind == JOIN else None
        for grounding in step.actions:
            action = grounding.action
            fsms.setdefault(action.agent_id, []).append(
                FSMState(action.action_id, grounding.kind, grounding.target, barrier))
    return {aid: tuple(states) for aid, states in sorted(fsms.items())}


def plan_agents(fsms) -> set:
    """The agents a compiled plan needs in its world: every acting agent
    and every pass receiver."""
    agents = set(fsms)
    agents.update(state.target for states in fsms.values() for state in states
                  if state.kind == PASS)
    return agents


# --- opponent policies -----------------------------------------------------

STATIC = "STATIC"
NEAREST_INTERCEPT = "NEAREST_INTERCEPT"


def make_opponent_policy(name: str = STATIC, seed: int = 0):
    """Opponent policy by name.  Both policies are deterministic, so `seed`
    currently has no effect; it is accepted for callers that pass one.
    Policies keep no state, so one object can serve any number of matches.
    A policy's `move` must be a pure function of `(pos, ball, config)`, and
    return `pos` when `moves` is false: the jump over walking and flight
    ticks calls it many ticks ahead, toward the holder's position in each
    tick or where the flying ball was a tick earlier, and not at all for a
    policy that neither moves nor steals."""
    if name == STATIC:
        return _StaticPolicy()
    if name == NEAREST_INTERCEPT:
        return _InterceptPolicy()
    raise ConfigInvalid(f"unknown opponent policy {name!r}")


class _StaticPolicy:
    moves = False
    steals = False

    def move(self, pos, ball, config):
        return pos


class _InterceptPolicy:
    moves = True
    steals = True

    def move(self, pos, ball, config):
        return _step_towards(pos, ball, config.walk_speed * config.tick)


# --- match loop ------------------------------------------------------------

def _step_towards(pos, target, step):
    dx, dy = target[0] - pos[0], target[1] - pos[1]
    dist = math.hypot(dx, dy)
    if dist <= step:
        return (target[0], target[1])
    return (pos[0] + dx / dist * step, pos[1] + dy / dist * step)


def _walk_path(pos, target, step, limit):
    """Yields the positions, at most `limit`, that a MOVE from `pos` takes
    toward `target`, each by _step_towards then clamp_to_field as in
    _Match._act, up to the step in which it would arrive or stand still."""
    x, y = pos
    tx, ty = target
    hypot = math.hypot
    for _ in range(limit):
        dx, dy = tx - x, ty - y
        dist = hypot(dx, dy)
        if dist <= step:
            break  # arrives (or, for a target off the field, reaches the edge)
        nx, ny = x + dx / dist * step, y + dy / dist * step
        if not (-FIELD_X <= nx <= FIELD_X and -FIELD_Y <= ny <= FIELD_Y):
            nx, ny = max(-FIELD_X, min(FIELD_X, nx)), max(-FIELD_Y, min(FIELD_Y, ny))
        if (nx == tx and ny == ty) or (nx == x and ny == y):
            break
        x, y = nx, ny
        yield (x, y)


class _Ball:
    __slots__ = ("pos", "mode", "holder", "receiver", "velocity", "launcher")

    def __init__(self, pos, holder):
        self.pos = pos
        # FREE | HELD | PASS | KICK (in flight, by the kind that launched it)
        self.mode = "FREE" if holder is None else "HELD"
        self.holder = holder  # the agent that holds it, else None
        self.receiver = None  # a flying pass's receiver
        self.velocity = (0.0, 0.0)  # a flying kick's
        # The own agent whose pass or kick has not finished: set at the
        # launch, cleared when the flight ends; a stolen flight keeps it.
        self.launcher = None

    def take(self, holder, pos):
        """The only way the ball becomes held: a free ball taken, a pass
        received, a steal."""
        self.mode = "HELD"
        self.holder = holder
        self.pos = pos
        self.receiver = None
        self.velocity = (0.0, 0.0)


def _coord(v: float) -> str:
    """A trace coordinate to three decimals, never `-0.000`."""
    text = f"{v:.3f}"
    return "0.000" if text == "-0.000" else text


class _Match:
    def __init__(self, fsms, world0: WorldState, domain: Domain,
                 config: SimConfig, opponent_policy):
        self.own = {}
        self.opponents = {}
        for agent_id, (pose, agent) in sorted(world0.agents.items()):
            if agent.team == OWN:
                self.own[agent_id] = (pose.x, pose.y)
            else:
                self.opponents[agent_id] = (pose.x, pose.y)
        self.states = dict(sorted(fsms.items()))  # in id order
        # The plan's agents must be own agents of the world; each MOVE
        # target's position is then resolved once (UnknownWaypoint here).
        missing = sorted(plan_agents(fsms) - self.own.keys())
        if missing:
            raise ConfigInvalid(f"world is missing plan agents: {missing}")
        self.move_targets = {state.target: tuple(domain.waypoint(state.target).position)
                             for states in self.states.values() for state in states
                             if state.kind == MOVE}
        self.config = config
        self.walk_step = config.walk_speed * config.tick
        self.pass_step = config.pass_speed * config.tick
        self.policy = opponent_policy
        # Opponents that neither move nor steal are only ever clamped onto
        # the field.  Nothing reads them before the first tick would, so
        # that is done here, once.
        self.opponents_act = opponent_policy.moves or opponent_policy.steals
        if not self.opponents_act:
            self.opponents = {oid: clamp_to_field(pos) for oid, pos in self.opponents.items()}
        self.ball = _Ball(world0.ball, ball_holder(world0))
        # Members per barrier not yet done at it; a barrier releases at 0.
        self.barrier_left = Counter(state.barrier_id for states in self.states.values()
                                    for state in states if state.barrier_id)
        # Run state: each agent's current state, and the agents whose
        # current state is done.
        self.cursor = dict.fromkeys(self.states, 0)
        self.done: set = set()
        self.t = 0.0
        self.ticks = 0
        # The last tick whose time (ticks * tick, as run() computes it) is
        # within the timeout.
        self.last_tick = int(config.timeout / config.tick) + 2
        while self.last_tick * config.tick > config.timeout:
            self.last_tick -= 1
        self.trace: list[str] = []
        self.passes = 0
        self.success = False
        self.scoring_time = None

    def _event(self, kind, agent, details=""):
        line = f"t={self.t:.2f} EVENT {kind} {agent}"
        if details:
            line += f" {details}"
        self.trace.append(line)

    # -- per-kind behavior; returns True when the action is finished.
    def _act(self, agent_id, state: FSMState):
        kind = state.kind
        ball = self.ball
        if kind == MOVE:
            target = self.move_targets[state.target]
            new_pos = clamp_to_field(_step_towards(self.own[agent_id], target, self.walk_step))
            self.own[agent_id] = new_pos
            if ball.mode == "HELD" and ball.holder == agent_id:
                ball.pos = new_pos
            return new_pos == target
        if kind == INSTANT:
            return True
        holds = ball.holder == agent_id
        if kind == RECEIVE:
            return holds or (ball.mode == "FREE" and self._try_take(agent_id))
        # PASS or KICK: get the ball, unless a flight of this kind is under
        # way (a launched one is finished by _update_ball as it ends).
        if not holds:
            if ball.mode != kind:
                self._chase_ball(agent_id)
            return False
        ball.mode, ball.holder, ball.launcher = kind, None, agent_id
        if kind == PASS:
            ball.receiver = state.target
            self._event("PASS_LAUNCH", agent_id, f"to={state.target}")
            return False
        goal = (FIELD_X, 0.0)
        dx, dy = goal[0] - ball.pos[0], goal[1] - ball.pos[1]
        dist = math.hypot(dx, dy)
        # A ball on the centre of the goal line goes straight in.
        ux, uy = (dx / dist, dy / dist) if dist else (1.0, 0.0)
        ball.velocity = (ux * self.config.kick_speed, uy * self.config.kick_speed)
        self._event("KICK", agent_id)
        return False

    def _chase_ball(self, agent_id):
        self.own[agent_id] = clamp_to_field(
            _step_towards(self.own[agent_id], self.ball.pos, self.walk_step)
        )
        if self.ball.mode == "FREE":
            self._try_take(agent_id)

    def _try_take(self, agent_id):
        """Take the free ball if it is within reach; True if taken."""
        pos = self.own[agent_id]
        ball = self.ball
        if math.hypot(pos[0] - ball.pos[0], pos[1] - ball.pos[1]) > CONTROL_RADIUS:
            return False
        ball.take(agent_id, pos)
        return True

    def _update_ball(self):
        """Moves the ball one tick.  A flight that ends finishes its
        launcher's pass or kick, right after the event that ends it."""
        ball = self.ball
        mode = ball.mode
        if mode == "FREE":
            return
        if mode == "HELD":
            if ball.holder in self.own:
                ball.pos = self.own[ball.holder]
            elif ball.holder in self.opponents:
                ball.pos = self.opponents[ball.holder]
            return
        if mode == "PASS":
            target = self.own[ball.receiver]
            ball.pos = _step_towards(ball.pos, target, self.pass_step)
            if math.hypot(ball.pos[0] - target[0], ball.pos[1] - target[1]) > CONTROL_RADIUS:
                return
            ball.take(ball.receiver, target)
            self.passes += 1
            self._event("PASS_COMPLETE", ball.holder, f"passes={self.passes}")
        else:  # KICK
            tick = self.config.tick
            new_pos = (ball.pos[0] + ball.velocity[0] * tick,
                       ball.pos[1] + ball.velocity[1] * tick)
            scored = new_pos[0] >= FIELD_X and abs(new_pos[1]) <= GOAL_HALF_WIDTH
            ball.pos = clamp_to_field(new_pos)
            if not scored and ball.pos == new_pos:
                return
            ball.mode = "FREE"
            ball.velocity = (0.0, 0.0)
            if scored:
                self.success = True
                self.scoring_time = self.t
            self._event("GOAL" if scored else "BALL_STOPPED", "BALL",
                        f"x={_coord(ball.pos[0])} y={_coord(ball.pos[1])}")
        self._finish(ball.launcher)
        ball.launcher = None

    def _move_opponents(self):
        ball, policy, config = self.ball, self.policy, self.config
        opponents = self.opponents
        for oid, pos in opponents.items():  # in id order
            pos = opponents[oid] = clamp_to_field(policy.move(pos, ball.pos, config))
            if policy.steals and ball.mode in ("FREE", "PASS", "KICK"):
                d = math.hypot(pos[0] - ball.pos[0], pos[1] - ball.pos[1])
                if d <= CONTROL_RADIUS:
                    ball.take(oid, pos)
                    self._event("STEAL", oid)

    def _advance(self, aid):
        """Move a done agent past done states whose barriers (if any) have
        released.  Returns the agent's current state, or None once its plan
        is over.  An agent not in `done` stays where it is."""
        states = self.states[aid]
        cursor, done = self.cursor, self.done
        while cursor[aid] < len(states):
            state = states[cursor[aid]]
            if aid not in done:
                return state
            barrier = state.barrier_id
            if barrier is not None and self.barrier_left[barrier]:
                return state  # hold at the barrier
            cursor[aid] += 1
            done.discard(aid)
        return None

    def run(self) -> MatchResult:
        tick, last_tick = self.config.tick, self.last_tick
        states, cursor, done, ball = self.states, self.cursor, self.done, self.ball
        advance, act, finish, jump = self._advance, self._act, self._finish, self._jump
        opponents = self.opponents
        idle = False
        while True:
            self.ticks += 1
            # An idle match would only idle to the timeout, so it ends there now.
            if self.ticks > last_tick or idle:
                self.t = round(self.config.timeout, 10)
                self._event("TIMEOUT", "MATCH")
                break
            self.t = self.ticks * tick
            # Only an agent in `done` can move its cursor; any other agent
            # acts on the state at its cursor, if its plan is not over.
            for aid, agent_states in states.items():
                if aid in done:
                    state = advance(aid)
                    if state is None or aid in done:
                        continue
                elif cursor[aid] < len(agent_states):
                    state = agent_states[cursor[aid]]
                else:
                    continue
                if act(aid, state):
                    finish(aid)
            if self.opponents_act:
                self._move_opponents()
            self._update_ball()
            if self.success:
                break
            # A flying ball's launcher is not done until its flight ends,
            # so a plan is live while the ball flies.
            if not self._plan_live():
                self._event("PLAN_DONE", "MATCH")
                break
            # A match with a held ball in which no action can finish any
            # more is idle; otherwise a flying ball, or one an own agent
            # holds, may start a run of ticks that can be jumped.
            if ball.mode == "HELD" and self._nothing_can_finish():
                idle = True
            elif ball.mode != "FREE" and ball.holder not in opponents:
                jump()
        return MatchResult(
            success=self.success,
            passes=self.passes,
            scoring_time=self.scoring_time,
            trace=tuple(self.trace),
        )

    def _jump(self):
        """Jump over the ticks ahead in which only positions change (see
        the module docstring); returns how many it ran.  Called after a tick
        that leaves the ball held by an own agent, or flying while its
        launcher waits for its flight to end."""
        ball = self.ball
        mode = ball.mode
        walkers = {}  # agent id -> MOVE target
        for aid, state in self._unblocked():
            if state is not None and state.kind == MOVE:
                walkers[aid] = self.move_targets[state.target]
            elif state is None or mode == "HELD" or state.kind not in (RECEIVE, mode):
                return 0
        own, step = self.own, self.walk_step
        left = self.last_tick - self.ticks
        paths = {}
        if mode != "HELD":
            # A pass flies toward its receiver's position after the
            # receiver's own step; the flight caps how far walkers look.
            receiver = ball.receiver
            if receiver in walkers:
                targets, walk = itertools.tee(
                    _walk_path(own[receiver], walkers.pop(receiver), step, left))
            else:
                targets, walk = itertools.repeat(own.get(receiver), left), None
            flight = self._flight_path(targets)
            left = len(flight)
            if not left:
                return 0
            if walk is not None:
                paths[receiver] = list(itertools.islice(walk, left))
        # The nearest walker first: each path caps how far the next one looks.
        for aid in sorted(walkers, key=lambda aid: math.dist(own[aid], walkers[aid])):
            path = paths[aid] = list(_walk_path(own[aid], walkers[aid], step, left))
            if not path:
                return 0
            left = len(path)
        moved = {}
        if self.opponents_act:
            # Opponents move before the ball: toward its holder's position
            # of the same tick, or where it flew to in the tick before.
            if mode == "HELD":
                targets = paths.get(ball.holder) or (ball.pos,) * left
            else:
                targets = (ball.pos, *flight)
            move, config = self.policy.move, self.config
            steals = self.policy.steals and mode != "HELD"
            for oid, pos in self.opponents.items():
                path = moved[oid] = []
                for target in targets[:left]:
                    pos = clamp_to_field(move(pos, target, config))
                    if steals and math.hypot(pos[0] - target[0],
                                             pos[1] - target[1]) <= CONTROL_RADIUS:
                        break  # the general tick steals the ball
                    path.append(pos)
                left = len(path)
            if not left:
                return 0
        for aid, path in paths.items():
            own[aid] = path[left - 1]
        for oid, path in moved.items():
            self.opponents[oid] = path[left - 1]
        ball.pos = own[ball.holder] if mode == "HELD" else flight[left - 1]
        self.ticks += left
        return left

    def _flight_path(self, targets):
        """The flying ball's positions, one per tick ahead, at most one per
        target (a pass's receiver position in that tick; a kick reads none),
        each by the floats of _update_ball, up to the tick in which it would
        score, stop at the edge or come within CONTROL_RADIUS of its receiver."""
        ball = self.ball
        path = []
        if ball.mode == PASS:
            pos = ball.pos
            for target in targets:
                pos = _step_towards(pos, target, self.pass_step)
                if math.hypot(pos[0] - target[0], pos[1] - target[1]) <= CONTROL_RADIUS:
                    break
                path.append(pos)
            return path
        (x, y), (vx, vy), tick = ball.pos, ball.velocity, self.config.tick
        for _ in targets:
            x, y = x + vx * tick, y + vy * tick
            if not (-FIELD_X <= x < FIELD_X and -FIELD_Y <= y <= FIELD_Y):
                break  # a kick scores or stops only at x >= FIELD_X or off the field
            path.append((x, y))
        return path

    def _plan_live(self):
        """True while some agent's plan is not over.  On the way, done agents
        move past their actions, in id order, up to the first live agent."""
        for aid, states in self.states.items():
            if aid in self.done:
                if self._advance(aid) is not None:
                    return True
            elif self.cursor[aid] < len(states):
                return True
        return False

    def _nothing_can_finish(self):
        """True when no action can finish any more, so the match would
        idle to the timeout: the idle exit, whose invariant the module
        docstring gives.  Called with the ball held, by an opponent or by
        one of our agents: true when every agent that can still act is on
        a RECEIVE, PASS or KICK and none of them holds the ball.  A holder
        of ours cannot act either: its plan is over, or it is held at a
        barrier that no agent left can release.  Reads the run state only;
        it moves no cursor."""
        holder = self.ball.holder
        return all(state is not None and state.kind in (RECEIVE, PASS, KICK)
                   and aid != holder for aid, state in self._unblocked())

    def _unblocked(self):
        """(agent id, state at its cursor) for each agent whose plan is not
        over and that is not held at a barrier that has not released, in id
        order; the state is None for a done agent, which moves on next tick."""
        barrier_left = self.barrier_left
        for aid, states in self.states.items():
            cursor = self.cursor[aid]
            if cursor == len(states):
                continue  # plan over
            state = states[cursor]
            if aid not in self.done:
                yield aid, state
            elif state.barrier_id is None or not barrier_left[state.barrier_id]:
                yield aid, None

    def _finish(self, aid):
        """Marks the agent's current state done."""
        state = self.states[aid][self.cursor[aid]]
        self.done.add(aid)
        self._event("ACTION_DONE", aid, state.action_id)
        if state.barrier_id is not None:
            self.barrier_left[state.barrier_id] -= 1


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
    avg_time = None
    if successes:
        # A left fold in result order: sum() compensates from Python 3.12.
        total = 0.0
        for r in successes:
            total += r.scoring_time
        avg_time = total / len(successes)
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
