import contextlib
import dataclasses
import glob
import hashlib
import itertools
import math
import os
import random
import re
from collections import Counter
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

import coachplan as cp
from coachplan.actions import INSTANT, KICK, MOVE, PASS, RECEIVE
from coachplan.domain import (CONTROL_RADIUS, FIELD_X, FIELD_Y, OPPONENT, OWN, ball_holder,
                              clamp_to_field)
from coachplan.errors import ConfigInvalid, EmptyInput, InvalidPlan, UnknownWaypoint
from coachplan.executor import (
    MAX_TICKS,
    NEAREST_INTERCEPT,
    STATIC,
    FSMState,
    AggregateMetrics,
    _Match,
    _step_towards,
    _walk_path,
    aggregate,
    compile_fsm,
    format_metrics_delimited,
    format_metrics_table,
    make_opponent_policy,
    run_match,
)
from coachplan.planlang import JOIN, SINGLE

from conftest import SELF_JOIN_PLAN_TEXT, mirror_plan_text, mirror_world
from reference_executor import ReferenceMatch

CLEAR_SHOT_WORLD = """\
AGENT STRIKER OWN STRIKER 3.2 0.0 0.0
BALL 3.3 0.0
"""

PASS_KICK_WORLD = """\
AGENT STRIKER OWN STRIKER 0.1 0.1 0.0
AGENT JOLLY OWN JOLLY 3.2 0.0 0.0
BALL 0.2 0.1
"""

PASS_KICK_PLAN = """\
pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}
receive_ball JOLLY {SENDER: STRIKER}
kick_to_goal JOLLY {}
"""


def parse(text, schemas, roles):
    return cp.parse_plan(text, schemas, roles)


class TestSimConfig:
    def test_defaults(self):
        cfg = cp.SimConfig()
        assert cfg.walk_speed == 0.25
        assert cfg.tick == 0.05
        assert cfg.timeout == 120.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigInvalid):
            cp.SimConfig(walk_speed=0.0)

    def test_rejects_coarse_tick(self):
        with pytest.raises(ConfigInvalid):
            cp.SimConfig(tick=0.5)

    def test_fields(self):
        # The field, the goal and the control radius are fixed in `domain`.
        assert [f.name for f in dataclasses.fields(cp.SimConfig)] == [
            "walk_speed", "pass_speed", "kick_speed", "tick", "timeout"]

    def test_tick_budget(self):
        with pytest.raises(ConfigInvalid, match="timeout / tick"):
            cp.SimConfig(tick=1e-6)
        with pytest.raises(ConfigInvalid, match="timeout / tick"):
            cp.SimConfig(timeout=MAX_TICKS * 0.05 + 1.0)
        assert cp.SimConfig(tick=0.03, timeout=120.0).timeout == 120.0
        assert cp.SimConfig(timeout=MAX_TICKS * 0.05).tick == 0.05


class TestCompileFsm:
    def test_one_fsm_per_agent(self, schemas, roles):
        plan = parse(PASS_KICK_PLAN, schemas, roles)
        fsms = compile_fsm(plan)
        assert sorted(fsms) == ["JOLLY", "STRIKER"]
        assert len(fsms["STRIKER"]) == 1
        assert len(fsms["JOLLY"]) == 2

    def test_join_becomes_shared_barrier(self, schemas, roles):
        plan = parse(
            "JOIN {move_to JOLLY {TARGET: KICKING_POSITION},\n"
            "      move_to SUPPORTER {TARGET: LEFT_WING}}",
            schemas, roles,
        )
        fsms = compile_fsm(plan)
        barriers = {states[0].barrier_id for states in fsms.values()}
        assert barriers == {"barrier_1"}

    def test_single_has_no_barrier(self, schemas, roles):
        plan = parse("kick_to_goal STRIKER {}", schemas, roles)
        fsms = compile_fsm(plan)
        assert fsms["STRIKER"][0].barrier_id is None

    def test_self_join_rejected(self, schemas, roles):
        plan = parse(SELF_JOIN_PLAN_TEXT, schemas, roles)
        with pytest.raises(InvalidPlan, match="^step 2: JOIN contains multiple actions by JOLLY$"):
            compile_fsm(plan)

    def test_states_carry_kind_and_target(self, schemas, roles):
        plan = parse(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "move_to STRIKER {TARGET: LEFT_WING}\n"
            "align_to_goal JOLLY {}\n"
            "kick_to_goal JOLLY {}\n"
            "defend_goal GOALIE {}",
            schemas, roles,
        )
        fsms = compile_fsm(plan, schemas)
        assert [(st.kind, st.target) for st in fsms["STRIKER"]] == [
            (PASS, "JOLLY"), (MOVE, "LEFT_WING")]
        assert [(st.kind, st.target) for st in fsms["JOLLY"]] == [
            (RECEIVE, None), (INSTANT, None), (KICK, None)]
        # defend_goal's waypoint comes from its effect at(AGENT,OUR_GOAL).
        assert fsms["GOALIE"][0].target == "OUR_GOAL"

    def test_fsm_is_immutable(self, schemas, roles):
        fsms = compile_fsm(parse(PASS_KICK_PLAN, schemas, roles))
        assert all(type(states) is tuple for states in fsms.values())
        with pytest.raises(dataclasses.FrozenInstanceError):
            fsms["JOLLY"][0].target = "STRIKER"

    def test_pass_by_another_agent_rejected(self, schemas, roles):
        # JOLLY cannot pass a ball STRIKER holds.
        plan = parse("pass_the_ball JOLLY {SENDER: STRIKER, RECEIVER: JOLLY}",
                     schemas, roles)
        with pytest.raises(InvalidPlan, match="made by STRIKER"):
            compile_fsm(plan)

    def test_unclassifiable_action_rejected(self, roles):
        custom = {s.action_id: s for s in cp.parse_action_file(
            "ACTION_ID: move_to\nARGS: TARGET : WAYPOINT\n"
            "EFFECTS: at(AGENT,TARGET), ball_at(TARGET)\n")}
        plan = parse("move_to STRIKER {TARGET: LEFT_WING}", custom, roles)
        with pytest.raises(InvalidPlan, match="fit one action kind"):
            compile_fsm(plan, custom)

    def test_action_missing_from_schemas_rejected(self, schemas, roles):
        plan = parse("kick_to_goal STRIKER {}", schemas, roles)
        with pytest.raises(InvalidPlan):
            compile_fsm(plan, {})


class TestRunMatch:
    def test_clear_shot_scores(self, domain, schemas, roles):
        world = cp.parse_world_file(CLEAR_SHOT_WORLD, domain)
        plan = parse("kick_to_goal STRIKER {}", schemas, roles)
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        assert result.success
        # 1.2 m to the goal line at 4 m/s, quantized to 0.05 s ticks, with
        # the kick launched on the first tick.
        assert result.scoring_time == pytest.approx(0.25, abs=0.051)
        assert result.passes == 0
        assert any("GOAL" in line for line in result.trace)

    def test_pass_then_kick(self, domain, schemas, roles):
        world = cp.parse_world_file(PASS_KICK_WORLD, domain)
        plan = parse(PASS_KICK_PLAN, schemas, roles)
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        assert result.success
        assert result.passes == 1
        joined = "\n".join(result.trace)
        assert "PASS_LAUNCH" in joined and "PASS_COMPLETE" in joined

    def test_deterministic_traces(self, domain, schemas, roles):
        world = cp.parse_world_file(PASS_KICK_WORLD, domain)
        plan = parse(PASS_KICK_PLAN, schemas, roles)
        a = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        b = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        assert a.trace == b.trace
        assert (a.success, a.passes, a.scoring_time) == (
            b.success, b.passes, b.scoring_time
        )

    def test_compiled_plan_is_reusable(self, domain, schemas, roles):
        # The match owns its run state, so a second run starts from the top.
        world = cp.parse_world_file(PASS_KICK_WORLD, domain)
        fsms = compile_fsm(parse(PASS_KICK_PLAN, schemas, roles))
        first = run_match(fsms, world, domain, cp.SimConfig())
        assert first.passes == 1
        assert run_match(fsms, world, domain, cp.SimConfig()) == first

    def test_trace_timestamps_monotone(self, domain, schemas, roles):
        world = cp.parse_world_file(PASS_KICK_WORLD, domain)
        plan = parse(PASS_KICK_PLAN, schemas, roles)
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        times = [float(line.split()[0].split("=")[1]) for line in result.trace]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_timeout(self, domain, schemas, roles):
        # A move that can never finish within a tiny timeout budget.
        world = cp.parse_world_file(
            "AGENT JOLLY OWN JOLLY -4.0 -2.5 0.0\nBALL 4.0 2.5\n", domain
        )
        plan = parse("move_to JOLLY {TARGET: OPPONENT_GOAL}", schemas, roles)
        config = cp.SimConfig(timeout=1.0)
        result = run_match(compile_fsm(plan), world, domain, config)
        assert not result.success
        assert result.scoring_time is None
        assert "TIMEOUT" in result.trace[-1]

    def test_join_waits_for_both(self, domain, schemas, roles):
        # JOLLY walks far while STRIKER aligns instantly; the barrier holds
        # the kick until JOLLY arrives.
        plan = parse(
            "JOIN {move_to JOLLY {TARGET: KICKING_POSITION},\n"
            "      align_to_goal STRIKER {}}\n"
            "kick_to_goal STRIKER {}",
            schemas, roles,
        )
        world = cp.parse_world_file(
            "AGENT STRIKER OWN STRIKER 3.0 0.0 0.0\n"
            "AGENT JOLLY OWN JOLLY 0.0 1.0 0.0\n"
            "BALL 3.1 0.0\n",
            domain,
        )
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        assert result.success
        joined = result.trace
        jolly_done = next(
            i for i, ln in enumerate(joined)
            if "ACTION_DONE JOLLY move_to" in ln
        )
        kick = next(i for i, ln in enumerate(joined) if "KICK STRIKER" in ln)
        assert kick > jolly_done

    def test_missing_plan_agent(self, domain, schemas, roles):
        world = cp.parse_world_file("BALL 0.0 0.0\n", domain)
        plan = parse("kick_to_goal STRIKER {}", schemas, roles)
        with pytest.raises(ConfigInvalid):
            run_match(compile_fsm(plan), world, domain, cp.SimConfig())

    @pytest.mark.parametrize("world_text, plan_text, missing", [
        # A pass to an absent receiver used to relaunch until the timeout.
        (PASS_KICK_WORLD, "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: SUPPORTER}",
         "SUPPORTER"),
        # A plan agent that the world has only as an opponent.
        ("AGENT STRIKER OPPONENT - 3.2 0.0 0.0\nBALL 3.3 0.0\n", "kick_to_goal STRIKER {}",
         "STRIKER"),
    ], ids=["receiver", "opponent"])
    def test_plan_agents_must_be_own_agents(self, domain, schemas, roles, world_text,
                                            plan_text, missing):
        world = cp.parse_world_file(world_text, domain)
        plan = parse(plan_text, schemas, roles)
        with pytest.raises(ConfigInvalid, match=rf"missing plan agents: \['{missing}'\]$"):
            run_match(compile_fsm(plan), world, domain, cp.SimConfig())

    def test_kick_from_goal_line_centre_scores(self, domain, schemas, roles, golden_dir):
        with open(os.path.join(golden_dir, "frame_0.world")) as fh:
            world = cp.parse_world_file(fh.read(), domain)
        plan = parse("dribble_to STRIKER {TARGET: OPPONENT_GOAL}\nkick_to_goal STRIKER {}",
                     schemas, roles)
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig())
        assert result.success and result.scoring_time == pytest.approx(17.70)
        assert result.trace[-3:] == ("t=17.70 EVENT KICK STRIKER",
                                     "t=17.70 EVENT GOAL BALL x=4.500 y=0.000",
                                     "t=17.70 EVENT ACTION_DONE STRIKER kick_to_goal")

    def test_goal_near_the_centre_line_prints_no_negative_zero(self, domain, schemas, roles):
        # The flight ends a hair below y = 0; the trace prints 0.000 for it,
        # as for a kick that ends a hair above.
        world = cp.parse_world_file("AGENT STRIKER OWN STRIKER 2.1 -1.0 0.0\n"
                                    "BALL 2.1 -1.0\n", domain)
        result = run_match(compile_fsm(parse("kick_to_goal STRIKER {}", schemas, roles)),
                           world, domain, cp.SimConfig())
        assert result.trace == ("t=0.05 EVENT KICK STRIKER",
                                "t=0.65 EVENT GOAL BALL x=4.500 y=0.000",
                                "t=0.65 EVENT ACTION_DONE STRIKER kick_to_goal")

    def test_unknown_waypoint_before_first_tick(self, domain, schemas, roles):
        world = cp.parse_world_file(PASS_KICK_WORLD, domain)
        fsms = compile_fsm(parse("move_to JOLLY {TARGET: NOWHERE}", schemas, roles))
        with pytest.raises(UnknownWaypoint):
            _Match(fsms, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))

    def test_intercept_policy_can_steal(self, domain, schemas, roles):
        # An opponent parked on the pass lane steals a slow rolling ball.
        world = cp.parse_world_file(
            "AGENT STRIKER OWN STRIKER 0.0 0.0 0.0\n"
            "AGENT JOLLY OWN JOLLY 4.0 2.0 0.0\n"
            "AGENT O1 OPPONENT - 2.0 1.0 3.1\n"
            "BALL 0.1 0.0\n",
            domain,
        )
        plan = parse(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "kick_to_goal JOLLY {}",
            schemas, roles,
        )
        policy = make_opponent_policy(NEAREST_INTERCEPT, seed=0)
        result = run_match(compile_fsm(plan), world, domain, cp.SimConfig(), policy)
        assert any("STEAL O1" in line for line in result.trace)
        assert not result.success

    def test_static_policy_never_moves(self):
        policy = make_opponent_policy(STATIC)
        assert policy.move((1.0, 2.0), (0.0, 0.0), cp.SimConfig()) == (1.0, 2.0)

    def test_unknown_policy(self):
        with pytest.raises(ConfigInvalid):
            make_opponent_policy("RANDOM_WALK")


class TestMetrics:
    def make(self, success, passes, t):
        return cp.MatchResult(success, passes, t, ())

    def test_aggregate(self):
        results = [self.make(True, 2, 10.0), self.make(False, 1, None)]
        metrics = aggregate(results)
        assert metrics.success_rate == 0.5
        assert metrics.avg_passes == 1.5
        assert metrics.avg_scoring_time == 10.0

    def test_aggregate_adds_scoring_times_left_to_right(self):
        # 0.1 + 0.2 + 0.3 left to right; a compensated sum gives 0.6 and a
        # mean of 0.19999999999999998.
        results = [self.make(True, 0, t) for t in (0.1, 0.2, 0.3)]
        assert aggregate(results).avg_scoring_time == 0.20000000000000004

    def test_aggregate_no_success(self):
        metrics = aggregate([self.make(False, 0, None)])
        assert metrics.avg_scoring_time is None

    def test_aggregate_empty(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_table_format(self):
        metrics = AggregateMetrics(0.9, 4.0 / 3.0, 29.7)
        table = format_metrics_table(metrics)
        assert table == (
            "Success Rate       | 90%\n"
            "Avg. no. of passes | 1.33\n"
            "Avg. scoring time  | 29.7 sec.\n"
        )

    def test_table_no_success(self):
        table = format_metrics_table(AggregateMetrics(0.0, 0.0, None))
        assert "n/a" in table

    def test_delimited_format(self):
        out = format_metrics_delimited(AggregateMetrics(1.0, 2.0, 7.9))
        header, row = out.splitlines()
        assert header.split("\t") == ["success_rate", "avg_passes", "avg_scoring_time"]
        assert row.split("\t") == ["1", "2", "7.9"]


# --- simulator properties: corpus plans x generated worlds x both policies ---

POINTS = st.tuples(st.floats(-FIELD_X, FIELD_X), st.floats(-FIELD_Y, FIELD_Y))
# Agents may start up to 1 m off the field (parse_world_file clamps only
# the ball); the simulator clamps them as they move.
AGENT_POINTS = st.one_of(
    POINTS, st.tuples(st.floats(-FIELD_X - 1, FIELD_X + 1), st.floats(-FIELD_Y - 1, FIELD_Y + 1)))
TRACE_TIME = re.compile(r"t=(\d+\.\d\d) EVENT ")


@contextlib.contextmanager
def without_idle_exit():
    """Matches in this block never take the idle exit: one that can only
    idle runs every tick to its timeout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_nothing_can_finish", lambda self: False)
        yield mp


@contextlib.contextmanager
def without_jump():
    """Matches in this block run every tick as a general tick: no walking
    or flight tick is jumped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_jump", lambda self: 0)
        yield mp


@contextlib.contextmanager
def counting_jumps():
    """Yields a Counter of the ticks the jump runs in this block, by the
    ball's mode when it runs: HELD (walking ticks), PASS or KICK."""
    jumped = Counter()
    jump = _Match._jump

    def counted(self):
        mode = self.ball.mode
        ran = jump(self)
        jumped[mode] += ran
        return ran

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_jump", counted)
        yield jumped


@st.composite
def full_team_worlds(draw, roles):
    """Every role present (so any corpus plan runs), up to three opponents,
    and the ball either loose or at one own agent (clamped onto the field,
    as parse_world_file would)."""
    agents = {}
    for role in roles:
        x, y = draw(AGENT_POINTS)
        agents[role] = (cp.Pose(x, y), cp.Agent(role, OWN, role))
    for i in range(draw(st.integers(0, 3))):
        x, y = draw(AGENT_POINTS)
        agents[f"O{i}"] = (cp.Pose(x, y), cp.Agent(f"O{i}", OPPONENT))
    holder = draw(st.sampled_from([None, *roles]))
    if holder is None:
        ball = draw(POINTS)
    else:
        pose = agents[holder][0]
        ball = clamp_to_field((pose.x, pose.y))
    return cp.WorldState(agents, ball)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]),
       tick=st.sampled_from([0.05, 0.1, 0.03]),
       timeout=st.sampled_from([1.0, 12.5, 120.0]))
def test_match_invariants(domain, corpus_plans, data, policy_name, tick, timeout):
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    config = cp.SimConfig(tick=tick, timeout=timeout)
    match = _Match(compile_fsm(plan), world, domain, config,
                   make_opponent_policy(policy_name))
    result = match.run()

    assert match.ticks <= config.timeout / config.tick + 1
    times = [float(TRACE_TIME.match(line).group(1)) for line in result.trace]
    assert all(t <= config.timeout for t in times)
    assert times == sorted(times)
    assert result.passes == sum(" EVENT PASS_COMPLETE " in line for line in result.trace)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]),
       tick=st.sampled_from([0.03, 0.05, 0.1]),
       timeout=st.sampled_from([1.0, 12.5, 120.0]))
def test_match_equals_reference_loop(domain, corpus_plans, data, policy_name, tick, timeout):
    # The every-tick loop in reference_executor.py is the reference for the
    # optimised one: every result must be equal, and every tick count too
    # once the idle exit (the reference has no early exit) is off, with the
    # jump over walking and flight ticks and without it.
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    config = cp.SimConfig(tick=tick, timeout=timeout)
    fsms = compile_fsm(plan)
    reference = ReferenceMatch(fsms, world, domain, config, make_opponent_policy(policy_name))
    expected = reference.run()
    assert _Match(fsms, world, domain, config, make_opponent_policy(policy_name)).run() == expected
    with without_idle_exit():
        match = _Match(fsms, world, domain, config, make_opponent_policy(policy_name))
        assert match.run() == expected
        with without_jump():
            stepped = _Match(fsms, world, domain, config, make_opponent_policy(policy_name))
            assert stepped.run() == expected
    assert match.ticks == stepped.ticks == reference.ticks


def one_step(actions):
    return cp.PlanStep(JOIN if len(actions) > 1 else SINGLE, actions)


@st.composite
def valid_plans(draw, schemas, roles, tokens, initial):
    """One to five steps that validate from `initial`, built one action at a
    time: each step holds one to three actions by distinct agents, and each
    action is drawn, by id, then agent and arguments, from those that keep
    the step valid in the state the steps before it leave."""
    state, steps = initial, []
    for _ in range(draw(st.integers(1, 5))):
        actions = ()
        for _ in range(draw(st.integers(1, 3))):
            options = {}
            for action_id, schema in sorted(schemas.items()):
                names = [name for name, _ in schema.args]
                domains = [tokens if value_domain == "WAYPOINT" else roles
                           for _, value_domain in schema.args]
                for agent in roles:
                    for values in itertools.product(*domains):
                        step = actions + (cp.GroundedAction(action_id, agent,
                                                            tuple(zip(names, values))),)
                        if cp.validate_plan(cp.Plan((one_step(step),)), schemas, state).ok:
                            options.setdefault(action_id, []).append(step[-1])
            actions += (draw(st.sampled_from(options[draw(st.sampled_from(sorted(options)))])),)
        steps.append(one_step(actions))
        state = cp.validate_plan(cp.Plan(steps[-1:]), schemas, state).final_state
    return cp.Plan(tuple(steps))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_valid_plan_runs_to_its_end(domain, schemas, data):
    # The replay differential, after VAL (Howey, Long & Fox, ICTAI 2004): a
    # plan that validates from a world's own facts runs every action of
    # every agent against STATIC, unless a goal ends the match first. The
    # timeout is long enough that walking time cannot end such a plan.
    roles = sorted(domain.roles)
    world = data.draw(full_team_worlds(roles), label="world")
    initial = cp.initial_state_from_world(world, domain)
    plan = data.draw(valid_plans(schemas, roles, sorted(domain.waypoints), initial), label="plan")
    assert cp.validate_plan(plan, schemas, initial).ok
    fsms = compile_fsm(plan, schemas)
    result = run_match(fsms, world, domain, cp.SimConfig(timeout=1000.0))
    for state in (state for states in fsms.values() for state in states):
        event(state.kind)
    if any(" EVENT GOAL " in line for line in result.trace):
        event("scored")
        return
    done = Counter(line.split()[3] for line in result.trace if " EVENT ACTION_DONE " in line)
    assert done == {aid: len(states) for aid, states in fsms.items()}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]))
def test_policy_object_is_reusable(domain, corpus_plans, data, policy_name):
    # One policy object serves many matches (as in library.evaluate).
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    worlds = data.draw(st.lists(full_team_worlds(list(domain.roles)), min_size=2, max_size=2))
    config = cp.SimConfig(timeout=12.5)
    shared = make_opponent_policy(policy_name)
    for world in worlds + worlds:
        fresh = run_match(compile_fsm(plan), world, domain, config,
                          make_opponent_policy(policy_name))
        assert run_match(compile_fsm(plan), world, domain, config, shared) == fresh


# --- pinned behaviour: every runnable corpus x golden-world x policy match ---

# sha256 over the traces of the 140 runnable matches (20 corpus plans x the
# 8 golden scenario worlds plus frame_0 x both policies; a plan whose agents
# a world lacks is skipped).  Any change to what the simulator does moves it.
TRACE_DIGEST = "d3006552a2750df512c2b29385c03d247c45ea33de99a8fd0133287d47a56976"


def test_corpus_traces_pinned(domain, corpus_plans, golden_dir):
    paths = sorted(glob.glob(os.path.join(golden_dir, "scenarios", "*.world")))
    paths.append(os.path.join(golden_dir, "frame_0.world"))
    worlds = []
    for path in paths:
        with open(path) as fh:
            worlds.append((os.path.basename(path), cp.parse_world_file(fh.read(), domain)))
    digest = hashlib.sha256()
    runnable = 0
    for name, plan in sorted(corpus_plans.items()):
        for world_name, world in worlds:
            for policy_name in (STATIC, NEAREST_INTERCEPT):
                try:
                    result = run_match(compile_fsm(plan), world, domain, cp.SimConfig(),
                                       make_opponent_policy(policy_name))
                except ConfigInvalid:
                    continue
                runnable += 1
                digest.update(f"{name} {world_name} {policy_name}\n".encode())
                digest.update(result.trace_text().encode())
    assert runnable == 140
    assert digest.hexdigest() == TRACE_DIGEST


# sha256 over the traces of 20 corpus plans x 50 worlds from `seeded_worlds`
# x both policies (2000 matches, every one runnable).  It covers far more
# steals, passes and JOIN barriers than TRACE_DIGEST's golden worlds; any
# change to what the simulator does moves it.
SEEDED_TRACE_DIGEST = "38f0e38c9fcd704b515577757ccca53d1e11afd55e222f25f4d38bba51e296c9"


def seeded_worlds(roles, count, seed):
    """`count` full-team worlds from random.Random(seed): every role, zero to
    three opponents, agents up to 0.5 m off the field, and the ball at one
    own agent (onto the field) or loose.  Opponents are often put near the
    ball or on the way to the goal, so that NEAREST_INTERCEPT steals."""
    rng = random.Random(seed)

    def point(margin=0.5):
        return (rng.uniform(-FIELD_X - margin, FIELD_X + margin),
                rng.uniform(-FIELD_Y - margin, FIELD_Y + margin))

    worlds = []
    for _ in range(count):
        agents = {}
        for role in sorted(roles):
            x, y = point()
            agents[role] = (cp.Pose(x, y), cp.Agent(role, OWN, role))
        holder = rng.choice([None, *sorted(roles)])
        if holder is None:
            ball = point(0.0)
        else:
            pose = agents[holder][0]
            ball = clamp_to_field((pose.x, pose.y))
        for i in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                anchor = rng.choice([ball, (FIELD_X, 0.0)])
                x, y = anchor[0] + rng.uniform(-1.5, 0.5), anchor[1] + rng.uniform(-1.0, 1.0)
            else:
                x, y = point()
            agents[f"O{i}"] = (cp.Pose(x, y), cp.Agent(f"O{i}", OPPONENT))
        worlds.append(cp.WorldState(agents, ball))
    return worlds


def test_seeded_traces_pinned(domain, corpus_plans):
    worlds = seeded_worlds(domain.roles, 50, seed=13)
    digest = hashlib.sha256()
    events = {}
    timed_out = 0
    for name, plan in sorted(corpus_plans.items()):
        fsms = compile_fsm(plan)
        for w, world in enumerate(worlds):
            for policy_name in (STATIC, NEAREST_INTERCEPT):
                match = _Match(fsms, world, domain, cp.SimConfig(),
                               make_opponent_policy(policy_name))
                result = match.run()
                timed_out += match.ticks > match.last_tick
                digest.update(f"{name} {w} {policy_name}\n".encode())
                digest.update(result.trace_text().encode())
                for line in result.trace:
                    kind = line.split()[2]
                    events[kind] = events.get(kind, 0) + 1
    barriers = sum(state.barrier_id is not None for plan in corpus_plans.values()
                   for states in compile_fsm(plan).values() for state in states)
    # What the digest covers: the plans hold JOIN barriers, and every way a
    # match or a flight can end happens.
    assert barriers > 0
    assert all(events.get(kind) for kind in ("STEAL", "PASS_COMPLETE", "GOAL",
                                             "BALL_STOPPED", "PLAN_DONE", "TIMEOUT")), events
    assert digest.hexdigest() == SEEDED_TRACE_DIGEST
    # Every match these worlds stall ends by the idle exit: none runs every
    # tick to its timeout.
    assert timed_out == 0


def test_a_flying_ball_keeps_the_plan_live(domain, corpus_plans):
    # The match loop logs PLAN_DONE on the liveness pass alone, with no test
    # of the ball: a launcher is not done until its flight ends, so while
    # the ball flies the plan is live.  The liveness pass is checked right
    # where the loop runs it, after the ball's update; running it once more
    # there moves no agent, so the traces stay SEEDED_TRACE_DIGEST's.
    update_ball = _Match._update_ball
    flights = 0

    def checked(match):
        nonlocal flights
        update_ball(match)
        if match.ball.mode in (PASS, KICK):
            flights += 1
            assert match.ball.launcher is not None
            assert match.ball.launcher not in match.done
            assert match._plan_live()

    worlds = seeded_worlds(domain.roles, 50, seed=13)
    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_update_ball", checked)
        for name, plan in sorted(corpus_plans.items()):
            fsms = compile_fsm(plan)
            for w, world in enumerate(worlds):
                for policy_name in (STATIC, NEAREST_INTERCEPT):
                    result = run_match(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(policy_name))
                    digest.update(f"{name} {w} {policy_name}\n".encode())
                    digest.update(result.trace_text().encode())
    assert flights > 0
    assert digest.hexdigest() == SEEDED_TRACE_DIGEST


# --- a match with a held ball that can only idle ends at once, with the
# --- trace it would have had; a stalled walker runs to its timeout

def run_every_tick(*args):
    with without_idle_exit(), without_jump():
        return run_match(*args)


def match_state(match):
    """The state a tick reads and writes, of a `_Match` or a `ReferenceMatch`:
    positions, the ball, the run state, the trace length and the ticks run.
    The run state is what both keep: the unfinished launcher (the
    reference's `launched - done`, `_Match`'s `ball.launcher`) and the
    members done at each barrier (`_Match` counts down from the totals)."""
    ball = match.ball
    if isinstance(match, ReferenceMatch):
        unfinished = match.launched - match.done
        barrier_done = match.barrier_done
    else:
        unfinished = {ball.launcher} - {None}
        totals = Counter(state.barrier_id for states in match.states.values()
                         for state in states if state.barrier_id)
        barrier_done = totals - match.barrier_left
    return (match.own, match.opponents, ball.pos, ball.mode, ball.holder, ball.receiver,
            ball.velocity, match.cursor, match.done, unfinished, barrier_done,
            len(match.trace), match.ticks)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]))
def test_idle_exit_changes_nothing(domain, corpus_plans, data, policy_name):
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    args = (compile_fsm(plan), world, domain, cp.SimConfig(),
            make_opponent_policy(policy_name))
    result = run_match(*args)
    with without_idle_exit():
        assert run_match(*args) == result


def test_walking_opponent_is_not_settled(domain, schemas, roles):
    # JOLLY waits for a pass that never comes while O1 walks 265 ticks to
    # the loose ball: only the opponent moves until the steal.
    world = cp.parse_world_file(
        "AGENT JOLLY OWN JOLLY -4.0 0.0 0.0\n"
        "AGENT O1 OPPONENT - 3.0 2.0 0.0\n"
        "BALL 0.0 0.0\n", domain)
    fsms = compile_fsm(parse("receive_ball JOLLY {SENDER: STRIKER}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(), make_opponent_policy(NEAREST_INTERCEPT))
    result = run_match(*args)
    assert [line.split()[2] for line in result.trace] == ["STEAL", "TIMEOUT"]
    assert run_every_tick(*args) == result


def test_liveness_pass_stops_at_first_live_agent(domain, schemas, roles):
    # JOLLY reaches CENTER_FIELD on tick 16.  The liveness pass stops at
    # DEFENDER (waiting for a pass that never comes), so JOLLY moves on to
    # its receive only on tick 17; with the timeout on tick 16, it is still
    # done at its move when the match ends.  The match then stalls, as
    # STRIKER keeps the ball: the idle exit ends it on tick 18, where the
    # reference runs every tick to the timeout.
    world = cp.parse_world_file(
        "AGENT DEFENDER OWN DEFENDER -3.0 0.0 0.0\n"
        "AGENT JOLLY OWN JOLLY -0.195 0.0 0.0\n"
        "AGENT STRIKER OWN STRIKER -1.0 -1.0 0.0\n"
        "BALL -1.0 -1.0\n", domain)
    fsms = compile_fsm(parse("receive_ball DEFENDER {SENDER: STRIKER}\n"
                             "move_to JOLLY {TARGET: CENTER_FIELD}\n"
                             "receive_ball JOLLY {SENDER: STRIKER}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
    match, reference = _Match(*args), ReferenceMatch(*args)
    result = match.run()
    assert result.trace == ("t=0.80 EVENT ACTION_DONE JOLLY move_to",
                            "t=120.00 EVENT TIMEOUT MATCH")
    assert result == reference.run()
    assert (match.ticks, reference.ticks) == (18, 2401)
    short = _Match(fsms, world, domain, cp.SimConfig(timeout=0.8), make_opponent_policy(STATIC))
    assert short.run().trace == ("t=0.80 EVENT ACTION_DONE JOLLY move_to",
                                 "t=0.80 EVENT TIMEOUT MATCH")
    assert (short.cursor["JOLLY"], "JOLLY" in short.done) == (0, True)


def test_stalled_static_match_ends_at_once(domain, schemas, roles):
    # DEFENDER waits for a pass that never comes while STRIKER keeps the
    # ball and nothing moves: the match ends on its second tick, with the
    # TIMEOUT at the timeout and the state the reference reaches by running
    # every tick up to the tick after the last.
    world = cp.parse_world_file(
        "AGENT DEFENDER OWN DEFENDER -3.0 0.0 0.0\n"
        "AGENT STRIKER OWN STRIKER -1.0 -1.0 0.0\n"
        "AGENT O1 OPPONENT - 1.0 0.0 0.0\n"
        "BALL -1.0 -1.0\n", domain)
    fsms = compile_fsm(parse("receive_ball DEFENDER {SENDER: STRIKER}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(tick=0.03, timeout=12.5),
            make_opponent_policy(STATIC))
    match, reference = _Match(*args), ReferenceMatch(*args)
    result = match.run()
    assert result.trace == ("t=12.50 EVENT TIMEOUT MATCH",)
    assert result == reference.run()
    assert (match.ticks, reference.ticks) == (2, match.last_tick + 1) == (2, 417)
    assert match_state(match)[:-1] == match_state(reference)[:-1]


def test_passer_chasing_a_ball_a_finished_teammate_keeps_ends_at_once(domain, schemas,
                                                                      roles):
    # STRIKER keeps the ball once its one action is done on tick 1; JOLLY
    # chases it to pass to DEFENDER, who waits, but a held ball is never
    # taken.  The liveness pass stops at DEFENDER, so STRIKER's plan is over
    # only on tick 2; nothing can finish then, and the match ends on tick 3.
    world = cp.parse_world_file(
        "AGENT DEFENDER OWN DEFENDER -3.0 0.0 0.0\n"
        "AGENT JOLLY OWN JOLLY 1.0 1.0 0.0\n"
        "AGENT STRIKER OWN STRIKER -1.0 -1.0 0.0\n"
        "BALL -1.0 -1.0\n", domain)
    fsms = compile_fsm(parse("align_to_goal STRIKER {}\n"
                             "pass_the_ball JOLLY {SENDER: JOLLY, RECEIVER: DEFENDER}\n"
                             "receive_ball DEFENDER {SENDER: JOLLY}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
    match = _Match(*args)
    result = match.run()
    assert result.trace == ("t=0.05 EVENT ACTION_DONE STRIKER align_to_goal",
                            "t=120.00 EVENT TIMEOUT MATCH")
    assert match.ticks == 3
    assert run_every_tick(*args) == result
    reference = ReferenceMatch(*args)
    assert reference.run() == result
    assert reference.ticks == 2401


def test_settled_intercept_match_ends_early(domain, corpus_plans, golden_dir):
    # JOLLY's kick is stolen at t=7.50; nothing happens after that, so the
    # match stops within a few ticks instead of running 2250 idle ones.
    with open(os.path.join(golden_dir, "scenarios", "scenario_1.world")) as fh:
        world = cp.parse_world_file(fh.read(), domain)
    match = _Match(compile_fsm(corpus_plans["p04_join_move_pass.plan"]), world, domain,
                   cp.SimConfig(), make_opponent_policy(NEAREST_INTERCEPT))
    result = match.run()
    assert result.trace[-2:] == ("t=7.50 EVENT STEAL O1", "t=120.00 EVENT TIMEOUT MATCH")
    assert match.ticks < 400


def test_stolen_kick_ends_the_match(domain, schemas, roles):
    # O1 steals STRIKER's kick at t=1.20, 5 m from both kickers: without
    # the idle exit the match would run every tick to the
    # timeout, though nothing is logged after the steal.
    world = cp.parse_world_file(
        "AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\n"
        "AGENT JOLLY OWN JOLLY -4.0 2.5 0.0\n"
        "AGENT O1 OPPONENT - 1.0 0.0 0.0\n"
        "BALL -4.0 0.0\n", domain)
    fsms = compile_fsm(parse("kick_to_goal STRIKER {}\nkick_to_goal JOLLY {}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(), make_opponent_policy(NEAREST_INTERCEPT))
    match = _Match(*args)
    result = match.run()
    assert result.trace == ("t=0.05 EVENT KICK STRIKER", "t=1.20 EVENT STEAL O1",
                            "t=120.00 EVENT TIMEOUT MATCH")
    assert match.ticks <= 24 + 2  # the steal is on tick 24
    assert run_every_tick(*args) == result
    reference = ReferenceMatch(*args)
    assert reference.run() == result
    assert reference.ticks == 2401


def test_barrier_released_after_a_steal_lets_its_members_move_on(domain, schemas, roles):
    # O1 steals STRIKER's kick at t=1.20 and DEFENDER waits for a pass that
    # can never come.  JOLLY's walk still ends at t=4.05 and releases the
    # JOIN with SUPPORTER, but DEFENDER stops the liveness pass, so JOLLY
    # stays done at a released barrier until the next tick, where it aligns.
    world = cp.parse_world_file(
        "AGENT DEFENDER OWN DEFENDER -3.0 -2.0 0.0\n"
        "AGENT JOLLY OWN JOLLY 0.0 1.0 0.0\n"
        "AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\n"
        "AGENT SUPPORTER OWN SUPPORTER 0.0 2.2 0.0\n"
        "AGENT O1 OPPONENT - 1.0 0.0 0.0\n"
        "BALL -4.0 0.0\n", domain)
    fsms = compile_fsm(parse("kick_to_goal STRIKER {}\n"
                             "receive_ball DEFENDER {SENDER: STRIKER}\n"
                             "JOIN {move_to JOLLY {TARGET: CENTER_FIELD},\n"
                             "      move_to SUPPORTER {TARGET: LEFT_WING}}\n"
                             "align_to_goal JOLLY {}", schemas, roles))
    args = (fsms, world, domain, cp.SimConfig(), make_opponent_policy(NEAREST_INTERCEPT))
    match = _Match(*args)
    result = match.run()
    assert result.trace == ("t=0.05 EVENT KICK STRIKER",
                            "t=0.05 EVENT ACTION_DONE SUPPORTER move_to",
                            "t=1.20 EVENT STEAL O1",
                            "t=4.05 EVENT ACTION_DONE JOLLY move_to",
                            "t=4.10 EVENT ACTION_DONE JOLLY align_to_goal",
                            "t=120.00 EVENT TIMEOUT MATCH")
    assert match.ticks == 84
    assert run_every_tick(*args) == result


# --- a match jumps over its walking ticks, with the floats of the general tick ---

# Walk, pass and kick speeds (m/s): the defaults, and a set in which a
# receiver can outrun a pass and a kick can overshoot the goal line beside
# the post.
SPEEDS = [(0.25, 2.0, 4.0), (1.0, 0.2, 10.0)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]),
       tick=st.sampled_from([0.03, 0.05, 0.1]),
       timeout=st.sampled_from([1.0, 12.5, 120.0]),
       speeds=st.sampled_from(SPEEDS))
def test_walk_jump_changes_nothing(domain, corpus_plans, data, policy_name, tick, timeout,
                                   speeds):
    # The jump over walking and flight ticks changes no result and no final
    # state, tick count included.
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    walk, pass_, kick = speeds
    config = cp.SimConfig(walk_speed=walk, pass_speed=pass_, kick_speed=kick, tick=tick,
                          timeout=timeout)
    args = (compile_fsm(plan), world, domain, config, make_opponent_policy(policy_name))
    with counting_jumps() as jumped:
        match = _Match(*args)
        result = match.run()
    for mode in sorted(jumped):
        event(f"{policy_name}: jumped {mode} ticks")
    with without_jump():
        stepped = _Match(*args)
        assert stepped.run() == result
    assert match_state(match) == match_state(stepped)


def run_jumped(*args):
    """(match, result, jumped) for a match that must equal the same match
    stepped tick by tick and the reference loop, in result and final state
    (tick count included, so the idle exit is off in all three,
    and the result must be the same with it on); `jumped` is the jumped
    run's `counting_jumps` Counter."""
    with without_idle_exit(), counting_jumps() as jumped:
        match = _Match(*args)
        result = match.run()
    assert run_match(*args) == result
    with without_idle_exit(), without_jump():
        stepped = _Match(*args)
        assert stepped.run() == result
    reference = ReferenceMatch(*args)
    assert reference.run() == result
    assert match_state(match) == match_state(stepped) == match_state(reference)
    return match, result, jumped


@pytest.mark.parametrize("x, last_walk", [("0.0", 360), ("-0.1", 368)])
def test_walker_stalled_on_the_goal_line(schemas, x, last_walk):
    # FAR lies past the goal line: STRIKER dribbles onto the line and then
    # stands still, so the match stalls and runs every tick to the timeout.
    # The jump runs every walking tick from tick 2 to `last_walk`; the
    # stand-still ticks after it run one by one.
    text = resources.files("coachplan.data").joinpath("domain.txt").read_text()
    domain = cp.parse_domain_file(text + 'WAYPOINT FAR 6.0 0.0 "Past the goal line."\n')
    world = cp.parse_world_file(f"AGENT STRIKER OWN STRIKER {x} 0.0 0.0\nBALL {x} 0.0\n",
                                domain)
    fsms = compile_fsm(parse("dribble_to STRIKER {TARGET: FAR}", schemas, domain.roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(STATIC))
    assert result.trace == ("t=120.00 EVENT TIMEOUT MATCH",)
    assert match.ticks == 2401
    assert jumped["HELD"] == last_walk - 1


def test_walk_path_stops_before_an_arrival_from_past_one_step():
    # The step lands on the target from a hair more than one step away; the
    # general tick finishes the MOVE there, so the jump ends before it.
    pos, target, step = (2.198919494082024, 1.5124532127164527), (2.2, 1.5), 0.25 * 0.05
    assert math.hypot(target[0] - pos[0], target[1] - pos[1]) > step
    assert clamp_to_field(_step_towards(pos, target, step)) == target
    assert list(_walk_path(pos, target, step, 10)) == []


def test_walk_while_a_join_member_waits(domain, schemas, roles):
    # STRIKER aligns on tick 1 and waits at the barrier while JOLLY walks
    # to KICKING_POSITION; JOLLY's arrival releases the kick in that tick.
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER 3.0 0.0 0.0\n"
                                "AGENT JOLLY OWN JOLLY 0.0 1.0 0.0\n"
                                "BALL 3.1 0.0\n", domain)
    fsms = compile_fsm(parse("JOIN {move_to JOLLY {TARGET: KICKING_POSITION},\n"
                             "      align_to_goal STRIKER {}}\n"
                             "kick_to_goal STRIKER {}", schemas, roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(STATIC))
    assert result.trace == ("t=0.05 EVENT ACTION_DONE STRIKER align_to_goal",
                            "t=13.45 EVENT ACTION_DONE JOLLY move_to",
                            "t=13.45 EVENT KICK STRIKER",
                            "t=13.80 EVENT GOAL BALL x=4.500 y=0.000",
                            "t=13.80 EVENT ACTION_DONE STRIKER kick_to_goal")
    assert match.ticks == 276
    assert jumped["HELD"] == 267


def test_walk_after_a_pass_while_the_passer_waits(domain, corpus_plans, golden_dir):
    # STRIKER's pass reaches JOLLY at t=1.00.  STRIKER, done and still
    # counted as the launcher, waits at the JOIN barrier while JOLLY walks
    # the ball to KICKING_POSITION.
    with open(os.path.join(golden_dir, "frame_0.world")) as fh:
        world = cp.parse_world_file(fh.read(), domain)
    match, result, jumped = run_jumped(compile_fsm(corpus_plans["p04_join_move_pass.plan"]),
                                       world, domain, cp.SimConfig(),
                                       make_opponent_policy(STATIC))
    assert result.trace == ("t=0.05 EVENT PASS_LAUNCH STRIKER to=JOLLY",
                            "t=1.00 EVENT PASS_COMPLETE JOLLY passes=1",
                            "t=1.00 EVENT ACTION_DONE STRIKER pass_the_ball",
                            "t=7.40 EVENT ACTION_DONE JOLLY move_to",
                            "t=7.45 EVENT ACTION_DONE JOLLY receive_ball",
                            "t=7.50 EVENT KICK JOLLY",
                            "t=7.80 EVENT GOAL BALL x=4.500 y=0.000",
                            "t=7.80 EVENT ACTION_DONE JOLLY kick_to_goal")
    assert match.ticks == 156
    assert jumped["HELD"] == 127


def test_walk_cut_by_the_timeout(domain, schemas, roles):
    # The dribble needs 680 ticks; the 1 s timeout allows 20.
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -4.0 -2.5 0.0\n"
                                "BALL -4.0 -2.5\n", domain)
    fsms = compile_fsm(parse("dribble_to STRIKER {TARGET: OPPONENT_GOAL}", schemas, roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(timeout=1.0),
                                       make_opponent_policy(STATIC))
    assert result.trace == ("t=1.00 EVENT TIMEOUT MATCH",)
    assert match.ticks == 21
    assert jumped["HELD"] == 19


def test_intercepting_opponents_follow_a_dribbling_holder(domain, schemas, roles):
    # O1 and O2 close in on STRIKER's ball and trail it to the goal line,
    # O1 within the control radius; a held ball is never stolen.
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -3.0 0.0 0.0\n"
                                "AGENT O1 OPPONENT - 1.0 1.0 0.0\n"
                                "AGENT O2 OPPONENT - 1.0 -1.5 0.0\n"
                                "BALL -3.0 0.0\n", domain)
    fsms = compile_fsm(parse("dribble_to STRIKER {TARGET: OPPONENT_GOAL}", schemas, roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(NEAREST_INTERCEPT))
    assert result.trace == ("t=30.00 EVENT ACTION_DONE STRIKER dribble_to",
                            "t=30.00 EVENT PLAN_DONE MATCH")
    assert match.ticks == 600
    assert jumped["HELD"] == 598
    assert math.dist(match.opponents["O1"], match.ball.pos) < CONTROL_RADIUS


def test_a_long_walk_makes_few_act_calls(domain, schemas, roles):
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\n"
                                "BALL -4.0 0.0\n", domain)
    fsms = compile_fsm(parse("dribble_to STRIKER {TARGET: OPPONENT_GOAL}", schemas, roles))
    calls = []
    act = _Match._act
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_act", lambda self, *args: calls.append(args) or act(self, *args))
        match = _Match(fsms, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
        match.run()
    assert match.ticks > 200
    assert len(calls) <= 3



# --- and over its flight ticks, with the floats of _update_ball ---

def test_pass_to_a_receiver_walking_during_the_flight(domain, schemas, roles):
    # JOLLY walks to FORWARD_LEFT while STRIKER's pass flies after it; the
    # ball steps toward where JOLLY is after JOLLY's step in each tick.
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -3.0 0.0 0.0\n"
                                "AGENT JOLLY OWN JOLLY 1.0 -1.0 0.0\n"
                                "BALL -3.0 0.0\n", domain)
    fsms = compile_fsm(parse("JOIN {pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY},\n"
                             "      move_to JOLLY {TARGET: FORWARD_LEFT}}\n"
                             "receive_ball JOLLY {SENDER: STRIKER}\n"
                             "kick_to_goal JOLLY {}", schemas, roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(STATIC))
    assert result.trace == ("t=0.05 EVENT PASS_LAUNCH STRIKER to=JOLLY",
                            "t=2.00 EVENT PASS_COMPLETE JOLLY passes=1",
                            "t=2.00 EVENT ACTION_DONE STRIKER pass_the_ball",
                            "t=11.10 EVENT ACTION_DONE JOLLY move_to",
                            "t=11.15 EVENT ACTION_DONE JOLLY receive_ball",
                            "t=11.20 EVENT KICK JOLLY",
                            "t=11.85 EVENT GOAL BALL x=4.500 y=-0.030",
                            "t=11.85 EVENT ACTION_DONE JOLLY kick_to_goal")
    assert match.ticks == 237
    assert jumped == {"PASS": 38, "HELD": 181, "KICK": 12}


@pytest.mark.parametrize("world_text, plan_text, config, trace, kick_jumped", [
    # STRIKER, 0.1 m behind the goal line, brings the ball there by
    # aligning; the kick's first step crosses the line beside the goal's
    # centre without scoring (a goal is scored only by a tick's end
    # position), and it flies on to the touchline.
    ("AGENT STRIKER OWN STRIKER 4.6 0.1 0.0\nBALL 4.5 0.1\n",
     "align_to_goal STRIKER {}\nkick_to_goal STRIKER {}", cp.SimConfig(),
     ("t=0.05 EVENT ACTION_DONE STRIKER align_to_goal",
      "t=0.10 EVENT KICK STRIKER",
      "t=1.15 EVENT BALL_STOPPED BALL x=1.489 y=-3.000",
      "t=1.15 EVENT ACTION_DONE STRIKER kick_to_goal",
      "t=1.15 EVENT PLAN_DONE MATCH"), 20),
    # A fast kick overshoots the goal line beside the post.
    ("AGENT STRIKER OWN STRIKER 3.5 2.9 0.0\nBALL 3.5 2.9\n", "kick_to_goal STRIKER {}",
     cp.SimConfig(kick_speed=10.0, tick=0.1),
     ("t=0.10 EVENT KICK STRIKER",
      "t=0.40 EVENT BALL_STOPPED BALL x=4.500 y=-0.881",
      "t=0.40 EVENT ACTION_DONE STRIKER kick_to_goal",
      "t=0.40 EVENT PLAN_DONE MATCH"), 2),
], ids=["touchline", "goal-line"])
def test_kick_stopped_at_the_edge(domain, schemas, roles, world_text, plan_text, config,
                                  trace, kick_jumped):
    world = cp.parse_world_file(world_text, domain)
    match, result, jumped = run_jumped(compile_fsm(parse(plan_text, schemas, roles)), world,
                                       domain, config, make_opponent_policy(STATIC))
    assert result.trace == trace
    assert jumped["KICK"] == kick_jumped


@pytest.mark.parametrize("world_text, plan_text, trace, mode, flown", [
    # O1 closes on the pass lane and takes the ball under way to JOLLY.
    ("AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\nAGENT JOLLY OWN JOLLY 2.0 0.0 0.0\n"
     "AGENT O1 OPPONENT - -1.0 0.35 0.0\nBALL -4.0 0.0\n",
     "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
     "receive_ball JOLLY {SENDER: STRIKER}",
     ("t=0.05 EVENT PASS_LAUNCH STRIKER to=JOLLY", "t=1.35 EVENT STEAL O1",
      "t=120.00 EVENT TIMEOUT MATCH"), "PASS", 25),
    # O1 walks into the kick's path and takes it, 5 m from both kickers.
    ("AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\nAGENT JOLLY OWN JOLLY -4.0 2.5 0.0\n"
     "AGENT O1 OPPONENT - 1.0 0.0 0.0\nBALL -4.0 0.0\n",
     "kick_to_goal STRIKER {}\nkick_to_goal JOLLY {}",
     ("t=0.05 EVENT KICK STRIKER", "t=1.20 EVENT STEAL O1",
      "t=120.00 EVENT TIMEOUT MATCH"), "KICK", 22),
], ids=["pass", "kick"])
def test_flight_stolen_mid_flight(domain, schemas, roles, world_text, plan_text, trace, mode,
                                  flown):
    # Opponents move before the ball, toward where it was at the end of
    # the tick before; the jump ends before the tick of the steal.
    world = cp.parse_world_file(world_text, domain)
    match, result, jumped = run_jumped(compile_fsm(parse(plan_text, schemas, roles)), world,
                                       domain, cp.SimConfig(),
                                       make_opponent_policy(NEAREST_INTERCEPT))
    assert result.trace == trace
    assert jumped == {mode: flown}


@pytest.mark.parametrize("plan_text, launch", [
    ("kick_to_goal STRIKER {}", "t=0.05 EVENT KICK STRIKER"),
    ("pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}",
     "t=0.05 EVENT PASS_LAUNCH STRIKER to=JOLLY"),
], ids=["kick", "pass"])
def test_flight_cut_by_the_timeout(domain, schemas, roles, plan_text, launch):
    # Neither the 8.5 m kick nor the 7 m pass lands within the 1 s timeout.
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\n"
                                "AGENT JOLLY OWN JOLLY 3.0 0.0 0.0\n"
                                "BALL -4.0 0.0\n", domain)
    match, result, jumped = run_jumped(compile_fsm(parse(plan_text, schemas, roles)), world,
                                       domain, cp.SimConfig(timeout=1.0),
                                       make_opponent_policy(STATIC))
    assert result.trace == (launch, "t=1.00 EVENT TIMEOUT MATCH")
    assert match.ticks == 21
    assert sum(jumped.values()) == 19


def test_kick_from_the_centre_of_the_goal_line(domain, schemas, roles, golden_dir):
    # STRIKER dribbles onto the goal line's centre, where the kick has no
    # direction of its own and goes straight in, in its launch tick.
    with open(os.path.join(golden_dir, "frame_0.world")) as fh:
        world = cp.parse_world_file(fh.read(), domain)
    fsms = compile_fsm(parse("dribble_to STRIKER {TARGET: OPPONENT_GOAL}\n"
                             "kick_to_goal STRIKER {}", schemas, roles))
    match, result, jumped = run_jumped(fsms, world, domain, cp.SimConfig(),
                                       make_opponent_policy(STATIC))
    assert result.trace[-3:] == ("t=17.70 EVENT KICK STRIKER",
                                 "t=17.70 EVENT GOAL BALL x=4.500 y=0.000",
                                 "t=17.70 EVENT ACTION_DONE STRIKER kick_to_goal")
    assert match.ticks == 354
    assert jumped["KICK"] == 0


def test_a_long_kick_makes_few_ball_updates(domain, schemas, roles):
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER -4.0 0.0 0.0\n"
                                "BALL -4.0 0.0\n", domain)
    fsms = compile_fsm(parse("kick_to_goal STRIKER {}", schemas, roles))
    calls = []
    update = _Match._update_ball
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Match, "_update_ball", lambda self: calls.append(self.t) or update(self))
        match = _Match(fsms, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
        result = match.run()
    assert result.success and match.ticks == 43
    assert len(calls) <= 3

# --- the field is mirror-symmetric about y = 0, and so are matches and reports ---

TRACE_Y = re.compile(r"y=(-?\d+\.\d{3})")


def mirror_trace(trace):
    """The trace with every `y=` value negated (a zero prints as 0.000)."""
    return tuple(TRACE_Y.sub(lambda m: f"y={-float(m.group(1)) + 0.0:.3f}", line)
                 for line in trace)


def test_waypoints_are_mirror_symmetric(domain):
    # The premise of the mirror relation: each LEFT waypoint's RIGHT twin
    # lies at -y, and every other waypoint lies on y = 0.
    for token, waypoint in domain.waypoints.items():
        x, y = waypoint.position
        assert tuple(domain.waypoint(mirror_plan_text(token)).position) == (x, -y)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]))
def test_mirrored_match_is_the_mirror_image(domain, schemas, roles, corpus_texts, data,
                                            policy_name):
    # Reflecting the world in y and swapping LEFT and RIGHT in the plan
    # reflects the match: negation is exact in every step, distance and
    # clamp the simulator computes, so outcomes, traces and the final
    # positions agree exactly.
    text = corpus_texts[data.draw(st.sampled_from(sorted(corpus_texts)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    policy = make_opponent_policy(policy_name)
    match = _Match(compile_fsm(parse(text, schemas, roles)), world, domain,
                   cp.SimConfig(), policy)
    mirrored = _Match(compile_fsm(parse(mirror_plan_text(text), schemas, roles)),
                      mirror_world(world), domain, cp.SimConfig(), policy)
    result, image = match.run(), mirrored.run()
    assert (image.success, image.passes, image.scoring_time) == (
        result.success, result.passes, result.scoring_time)
    assert image.trace == mirror_trace(result.trace)
    assert mirrored.own == {aid: (x, -y) for aid, (x, y) in match.own.items()}
    assert mirrored.opponents == {oid: (x, -y) for oid, (x, y) in match.opponents.items()}
    ball_x, ball_y = match.ball.pos
    assert (mirrored.ball.pos, mirrored.ticks) == ((ball_x, -ball_y), match.ticks)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mirrored_world_gives_the_mirrored_report(domain, schemas, roles, corpus_texts, data):
    # The validator sees the same mirror: a world reflected in y seeds the
    # mirrored facts, so the mirrored plan has the same violations at the
    # same steps, with LEFT and RIGHT swapped in their messages, and the
    # mirrored final state.  Negation changes no waypoint distance, and on
    # y = 0, where a LEFT waypoint and its RIGHT twin tie, a waypoint on
    # y = 0 is always nearer.  The one exception is an exact tie of two
    # nearest waypoints, which nearest_waypoint breaks by token order, and
    # token order is no mirror: at (-3.6, 1.1) OUR_LEFT_DEFENSE and
    # OUR_PENALTY_MARK tie, and OUR_PENALTY_MARK < OUR_RIGHT_DEFENSE.
    text = corpus_texts[data.draw(st.sampled_from(sorted(corpus_texts)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    points = [world.ball] + [(pose.x, pose.y) for pose, _ in world.agents.values()]
    assume(not any(nearest_waypoints_tie(point, domain) for point in points))
    report = cp.validate_plan(parse(text, schemas, roles), schemas,
                              cp.initial_state_from_world(world, domain))
    image = cp.validate_plan(parse(mirror_plan_text(text), schemas, roles), schemas,
                             cp.initial_state_from_world(mirror_world(world), domain))
    assert [(v.step_index, v.kind, v.message) for v in image.violations] == [
        (v.step_index, v.kind, mirror_plan_text(v.message)) for v in report.violations]
    assert ({str(fact) for fact in image.final_state}
            == {mirror_plan_text(str(fact)) for fact in report.final_state})


def nearest_waypoints_tie(point, domain):
    """True when two waypoints are exactly as near to `point`, by the
    distance nearest_waypoint computes, as the nearest one."""
    x, y = point
    first, second = sorted(math.hypot(x - wx, y - wy)
                           for wx, wy in (w.position for w in domain.waypoints.values()))[:2]
    return first == second


def test_a_waypoint_tie_breaks_the_mirror(domain):
    # The exception test_mirrored_world_gives_the_mirrored_report leaves out.
    assert nearest_waypoints_tie((-3.6, 1.1), domain)
    assert cp.nearest_waypoint((-3.6, 1.1), domain) == "OUR_LEFT_DEFENSE"
    assert cp.nearest_waypoint((-3.6, -1.1), domain) == "OUR_PENALTY_MARK"


# --- metamorphic relations: renaming the own agents, and a time shift ---

def rename_own_agents(fsms, world, names):
    """The compiled plan and the world with each own agent renamed as
    `names` says: the plan's keys and PASS targets, and the world's ids."""
    fsms = {names[aid]: tuple(dataclasses.replace(state, target=names[state.target])
                              if state.kind == PASS else state for state in states)
            for aid, states in fsms.items()}
    agents = {}
    for aid, (pose, agent) in world.agents.items():
        if agent.team == OWN:
            aid = names[aid]
            agent = agent._replace(agent_id=aid)
        agents[aid] = (pose, agent)
    return fsms, cp.WorldState(agents, world.ball)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]))
def test_renamed_agents_play_the_same_match(domain, corpus_plans, data, policy_name):
    # Renaming the own agents in the plan and in the world, in an order-
    # preserving way, changes nothing but the names in the trace.  The order
    # must be kept: agent id order decides same-tick events (see
    # test_id_order_decides_a_join_release_in_the_same_tick).
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    own = sorted(aid for aid, (_, agent) in world.agents.items() if agent.team == OWN)
    names = {aid: f"A{i}_{aid}" for i, aid in enumerate(own)}
    fsms = compile_fsm(plan)
    result = run_match(fsms, world, domain, cp.SimConfig(), make_opponent_policy(policy_name))
    renamed = run_match(*rename_own_agents(fsms, world, names), domain, cp.SimConfig(),
                        make_opponent_policy(policy_name))
    back = {new: old for old, new in names.items()}
    name = re.compile(r"\b(" + "|".join(back) + r")\b")
    trace = tuple(name.sub(lambda m: back[m.group()], line) for line in renamed.trace)
    assert dataclasses.replace(renamed, trace=trace) == result


def test_id_order_decides_a_join_release_in_the_same_tick(domain, schemas, roles):
    # The exception test_renamed_agents_play_the_same_match leaves out: a
    # JOIN member that waits at the barrier moves on in the tick that
    # releases it only if it comes after the releasing member in id order.
    # Here STRIKER aligns at once and waits for JOLLY's walk; renamed
    # A_STRIKER, it comes first and kicks one tick later.
    plan = parse("JOIN {align_to_goal STRIKER {},\n"
                 "      move_to JOLLY {TARGET: KICKING_POSITION}}\n"
                 "kick_to_goal STRIKER {}", schemas, roles)
    world = cp.parse_world_file("AGENT STRIKER OWN STRIKER 2.0 0.0 0.0\n"
                                "AGENT JOLLY OWN JOLLY 2.2 1.0 0.0\n"
                                "BALL 2.0 0.0\n", domain)
    fsms = compile_fsm(plan)
    result = run_match(fsms, world, domain, cp.SimConfig())
    renamed = run_match(*rename_own_agents(fsms, world, {"STRIKER": "A_STRIKER",
                                                          "JOLLY": "B_JOLLY"}),
                        domain, cp.SimConfig())
    assert result.trace == (
        "t=0.05 EVENT ACTION_DONE STRIKER align_to_goal",
        "t=5.70 EVENT ACTION_DONE JOLLY move_to",
        "t=5.70 EVENT KICK STRIKER",
        "t=6.30 EVENT GOAL BALL x=4.500 y=0.000",
        "t=6.30 EVENT ACTION_DONE STRIKER kick_to_goal",
    )
    assert renamed.trace == (
        "t=0.05 EVENT ACTION_DONE A_STRIKER align_to_goal",
        "t=5.70 EVENT ACTION_DONE B_JOLLY move_to",
        "t=5.75 EVENT KICK A_STRIKER",
        "t=6.35 EVENT GOAL BALL x=4.500 y=0.000",
        "t=6.35 EVENT ACTION_DONE A_STRIKER kick_to_goal",
    )


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_prefixed_instant_step_delays_the_goal_one_tick(domain, corpus_plans, data):
    # Against STATIC opponents, nothing moves until an own agent acts, so
    # prefixing every agent's plan with one INSTANT state at one shared
    # barrier delays the whole match by one tick: the agents finish it in
    # the first tick and start the plan in the second.  The exception is a
    # held ball off its holder's position: it moves onto the holder at the
    # end of the first tick, so a pass or kick in that tick starts from the
    # world file's ball position and one a tick later from the holder's.
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    holder = ball_holder(world)
    assume(holder is None or world.agents[holder][0] == tuple(world.ball))
    fsms = compile_fsm(plan)
    wait = FSMState("wait", INSTANT, None, "barrier_0")
    config = cp.SimConfig()
    result = run_match(fsms, world, domain, config)
    later = run_match({aid: (wait, *states) for aid, states in fsms.items()}, world, domain,
                      config)
    assert (later.success, later.passes) == (result.success, result.passes)
    if result.success:
        assert later.scoring_time == (round(result.scoring_time / config.tick) + 1) * config.tick
