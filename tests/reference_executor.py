"""The simulator's match loop in its plainest form: every tick runs in
full, with no early exit and no jump, up to a goal, the end of every plan
or the timeout.  It keeps the run state its own way: the set of agents
that launched the ball, and the members done at each barrier, where
`coachplan.executor._Match` keeps the ball's launcher and counts each
barrier down.  `tests/test_executor.py` compares `_Match` against it:
every `MatchResult` must be equal, and every tick count too once `_Match`'s
idle exit is turned off."""
from __future__ import annotations

import math
from collections import Counter

from coachplan.actions import INSTANT, KICK, MOVE, PASS, RECEIVE
from coachplan.domain import (CONTROL_RADIUS, FIELD_X, GOAL_HALF_WIDTH, OWN, Domain,
                              WorldState, ball_holder, clamp_to_field)
from coachplan.errors import ConfigInvalid
from coachplan.executor import FSMState, MatchResult, SimConfig


def _step_towards(pos, target, step):
    dx, dy = target[0] - pos[0], target[1] - pos[1]
    dist = math.hypot(dx, dy)
    if dist <= step or dist == 0.0:
        return (target[0], target[1])
    return (pos[0] + dx / dist * step, pos[1] + dy / dist * step)


class _Ball:
    __slots__ = ("pos", "mode", "holder", "receiver", "velocity")

    def __init__(self, pos, mode, holder):
        self.pos = pos
        self.mode = mode  # FREE | HELD | PASS | KICK (in flight, by the kind that launched it)
        self.holder = holder
        self.receiver = None
        self.velocity = (0.0, 0.0)


def _coord(v: float) -> str:
    """A trace coordinate to three decimals, never `-0.000`."""
    text = f"{v:.3f}"
    return "0.000" if text == "-0.000" else text


class ReferenceMatch:
    def __init__(self, fsms, world0: WorldState, domain: Domain,
                 config: SimConfig, opponent_policy):
        missing = [aid for aid in fsms if aid not in world0.agents]
        if missing:
            raise ConfigInvalid(f"world is missing plan agents: {missing}")
        self.states = {aid: fsms[aid] for aid in sorted(fsms)}  # in id order
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
        # A ball on the centre of the goal line goes straight in.
        ux, uy = (dx / dist, dy / dist) if dist else (1.0, 0.0)
        self.ball.mode = KICK
        self.ball.holder = None
        self.ball.velocity = (ux * cfg.kick_speed, uy * cfg.kick_speed)
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
                            f"x={_coord(ball.pos[0])} y={_coord(ball.pos[1])}")
                return
            clamped = clamp_to_field(new_pos)
            if clamped != new_pos:
                ball.pos = clamped
                ball.mode = "FREE"
                ball.velocity = (0.0, 0.0)
                self._event("BALL_STOPPED", "BALL",
                            f"x={_coord(ball.pos[0])} y={_coord(ball.pos[1])}")
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

    def run(self) -> MatchResult:
        cfg = self.config
        while True:
            self.ticks += 1
            self.t = self.ticks * cfg.tick
            if self.t > cfg.timeout:
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
