import dataclasses
import glob
import hashlib
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import coachplan as cp
from coachplan.actions import INSTANT, KICK, MOVE, PASS, RECEIVE
from coachplan.domain import FIELD_X, FIELD_Y, OPPONENT, OWN
from coachplan.errors import ConfigInvalid, EmptyInput, InvalidPlan, UnknownWaypoint
from coachplan.executor import (
    MAX_TICKS,
    NEAREST_INTERCEPT,
    STATIC,
    AggregateMetrics,
    _Match,
    aggregate,
    compile_fsm,
    format_metrics_delimited,
    format_metrics_table,
    make_opponent_policy,
    run_match,
)

from conftest import SELF_JOIN_PLAN_TEXT

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
        assert len(fsms["STRIKER"].states) == 1
        assert len(fsms["JOLLY"].states) == 2

    def test_join_becomes_shared_barrier(self, schemas, roles):
        plan = parse(
            "JOIN {move_to JOLLY {TARGET: KICKING_POSITION},\n"
            "      move_to SUPPORTER {TARGET: LEFT_WING}}",
            schemas, roles,
        )
        fsms = compile_fsm(plan)
        barriers = {fsm.states[0].barrier_id for fsm in fsms.values()}
        assert barriers == {"barrier_1"}

    def test_single_has_no_barrier(self, schemas, roles):
        plan = parse("kick_to_goal STRIKER {}", schemas, roles)
        fsms = compile_fsm(plan)
        assert fsms["STRIKER"].states[0].barrier_id is None

    def test_self_join_rejected(self, schemas, roles):
        plan = parse(SELF_JOIN_PLAN_TEXT, schemas, roles)
        with pytest.raises(InvalidPlan):
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
        assert [(st.kind, st.target) for st in fsms["STRIKER"].states] == [
            (PASS, "JOLLY"), (MOVE, "LEFT_WING")]
        assert [(st.kind, st.target) for st in fsms["JOLLY"].states] == [
            (RECEIVE, None), (INSTANT, None), (KICK, None)]
        # defend_goal's waypoint comes from its effect at(AGENT,OUR_GOAL).
        assert fsms["GOALIE"].states[0].target == "OUR_GOAL"

    def test_fsm_is_immutable(self, schemas, roles):
        fsm = compile_fsm(parse(PASS_KICK_PLAN, schemas, roles))["JOLLY"]
        assert [f.name for f in dataclasses.fields(fsm)] == ["agent_id", "states"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            fsm.states = ()

    def test_pass_by_another_agent_rejected(self, schemas, roles):
        # Validates (the effects only name SENDER), but JOLLY cannot pass a
        # ball STRIKER holds.
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
TRACE_TIME = re.compile(r"t=(\d+\.\d\d) EVENT ")


@st.composite
def full_team_worlds(draw, roles):
    """Every role on the field (so any corpus plan runs), up to three
    opponents, and the ball either loose or at one own agent."""
    agents = {}
    for role in roles:
        x, y = draw(POINTS)
        agents[role] = (cp.Pose(x, y), cp.Agent(role, OWN, role))
    for i in range(draw(st.integers(0, 3))):
        x, y = draw(POINTS)
        agents[f"O{i}"] = (cp.Pose(x, y), cp.Agent(f"O{i}", OPPONENT))
    holder = draw(st.sampled_from([None, *roles]))
    if holder is None:
        ball = draw(POINTS)
    else:
        pose = agents[holder][0]
        ball = (pose.x, pose.y)
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


# --- settled matches end at once, with the trace they would have had ---

def run_every_tick(*args):
    with pytest.MonkeyPatch.context() as mp:
        # No two snapshots compare equal, so the match runs every tick.
        mp.setattr(_Match, "_snapshot", lambda self: object())
        return run_match(*args)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), policy_name=st.sampled_from([STATIC, NEAREST_INTERCEPT]))
def test_settled_exit_changes_nothing(domain, corpus_plans, data, policy_name):
    plan = corpus_plans[data.draw(st.sampled_from(sorted(corpus_plans)), label="plan")]
    world = data.draw(full_team_worlds(list(domain.roles)), label="world")
    fsms = compile_fsm(plan)
    policy = make_opponent_policy(policy_name)
    result = run_match(fsms, world, domain, cp.SimConfig(), policy)
    assert run_every_tick(fsms, world, domain, cp.SimConfig(), policy) == result


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
