import ast
import os
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan import refine
from coachplan.actions import KICK, PASS, Predicate
from coachplan.errors import InvalidInputPlan, InvalidPlan, ParseError, UnresolvedPlaceholder
from coachplan.planlang import JOIN, SINGLE
from coachplan.refine import (
    EFFECT_CONFLICT,
    _slot,
    PRECONDITION,
    SELF_JOIN,
    UNRUNNABLE,
    apply_effects,
    auto_parallelize,
    build_grounding_prompt,
    build_sync_prompt,
    initial_state_from_world,
    load_sync_examples,
    parse_facts_file,
)

import strips_oracle
from conftest import SELF_JOIN_PLAN_TEXT

HELD = frozenset({Predicate("ball_held_by", ("STRIKER",))})


def kinds(report):
    return [(v.step_index, v.kind) for v in report.violations]


class TestValidatePlan:
    def test_valid_pass_and_kick(self, schemas, roles):
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "kick_to_goal JOLLY {}",
            schemas, roles,
        )
        report = cp.validate_plan(plan, schemas, HELD)
        assert report.ok
        assert report.serialize() == "OK\n"

    def test_precondition_violation(self, schemas, roles):
        plan = cp.parse_plan("kick_to_goal JOLLY {}", schemas, roles)
        report = cp.validate_plan(plan, schemas, HELD)
        assert kinds(report) == [(1, PRECONDITION)]
        assert "STEP 1: [PRECONDITION]" in report.serialize()

    def test_kick_after_pass_breaks_its_preconditions(self, schemas, roles):
        # A striker that already passed may not kick: the schema's
        # preconditions say so, one line per broken fact.
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "kick_to_goal STRIKER {}",
            schemas, roles,
        )
        assert cp.validate_plan(plan, schemas, HELD).serialize() == (
            "STEP 3: [PRECONDITION] kick_to_goal STRIKER: requires ball_held_by(STRIKER)\n"
            "STEP 3: [PRECONDITION] kick_to_goal STRIKER: requires !has_passed(STRIKER)\n")

    def test_custom_kick_after_a_pass_validates_and_scores(self, schemas, domain):
        # `shoot` is a KICK with no preconditions, so the pass rule is the
        # action file's to state: the validator accepts the plan the
        # simulator scores with.
        custom = dict(schemas, **{s.action_id: s for s in cp.parse_action_file(
            "ACTION_ID: shoot\nEFFECTS: ball_at(OPPONENT_GOAL)\n")})
        roles = {"STRIKER": cp.Role("STRIKER", "", frozenset({"pass_the_ball", "shoot"}))}
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: STRIKER}\n"
            "shoot STRIKER {}", custom, roles)
        world = cp.parse_world_file("AGENT STRIKER OWN STRIKER 2.0 0.0 0.0\nBALL 2.1 0.0\n",
                                    domain)
        report = cp.validate_plan(plan, custom, initial_state_from_world(world, domain))
        assert report.serialize() == "OK\n"
        result = cp.run_match(cp.compile_fsm(plan, custom), world, domain, cp.SimConfig())
        assert result.success and round(result.scoring_time, 2) == 0.70

    def test_receive_clears_has_passed(self, schemas, roles):
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "pass_the_ball JOLLY {SENDER: JOLLY, RECEIVER: STRIKER}\n"
            "receive_ball STRIKER {SENDER: JOLLY}\n"
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}",
            schemas, roles,
        )
        # The striker received the ball back, so its pass flag was cleared.
        assert cp.validate_plan(plan, schemas, HELD).ok

    def test_self_join_flagged_once(self, schemas, roles):
        plan = cp.parse_plan(SELF_JOIN_PLAN_TEXT, schemas, roles)
        report = cp.validate_plan(plan, schemas, HELD)
        self_joins = [v for v in report.violations if v.kind == SELF_JOIN]
        assert len(self_joins) == 1
        assert self_joins[0].step_index == 2

    def test_join_preconditions_use_pre_state(self, schemas, roles):
        # Within one JOIN, the pass does not enable the parallel receive.
        plan = cp.parse_plan(
            "JOIN {pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY},\n"
            "      receive_ball JOLLY {SENDER: STRIKER}}",
            schemas, roles,
        )
        report = cp.validate_plan(plan, schemas, HELD)
        assert (1, PRECONDITION) in kinds(report)

    def test_join_effect_conflict(self, schemas, roles):
        # The pass adds ball_at(JOLLY) while the parallel receive deletes it.
        plan = cp.parse_plan(
            "JOIN {pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY},\n"
            "      receive_ball JOLLY {SENDER: STRIKER}}",
            schemas, roles,
        )
        report = cp.validate_plan(plan, schemas, HELD)
        assert any(k == EFFECT_CONFLICT for _, k in kinds(report))

    def test_effect_conflict_is_join_only(self):
        # A SINGLE step runs through the JOIN loop, but only a JOIN is
        # checked for effects that add and delete one fact.
        toggle, = cp.parse_action_file(
            "ACTION_ID: toggle\nARGS: TARGET : WAYPOINT\n"
            "EFFECTS: at(AGENT,TARGET), !at(AGENT,TARGET)\n")
        acts = [cp.GroundedAction("toggle", agent, (("TARGET", "CENTER_FIELD"),))
                for agent in ("STRIKER", "JOLLY")]
        schemas = {"toggle": toggle}
        single = cp.Plan((cp.PlanStep(SINGLE, acts[:1]),))
        join = cp.Plan((cp.PlanStep(JOIN, tuple(acts)),))
        assert cp.validate_plan(single, schemas, frozenset()).ok
        assert kinds(cp.validate_plan(join, schemas, frozenset())) == [(1, EFFECT_CONFLICT)]

    def test_collects_all_violations(self, schemas, roles):
        plan = cp.parse_plan(
            "kick_to_goal STRIKER {}\nkick_to_goal JOLLY {}", schemas, roles
        )
        report = cp.validate_plan(plan, schemas, frozenset())
        assert (1, PRECONDITION) in kinds(report)
        assert (2, PRECONDITION) in kinds(report)

    def test_empty_plan_steps_ok(self, schemas):
        report = cp.validate_plan(cp.Plan(()), schemas, HELD)
        assert report.ok and report.final_state == HELD


def role_facts(roles):
    """Any set of `ball_held_by`, `ball_at` and `has_passed` facts over `roles`."""
    return st.frozensets(st.sampled_from(
        [Predicate(name, (role,)) for role in roles
         for name in ("ball_held_by", "ball_at", "has_passed")]))


# An action whose effects fit no kind: it moves the agent and the ball.
TELEPORT = ("ACTION_ID: teleport\nARGS: TARGET : WAYPOINT\n"
            "EFFECTS: at(AGENT,TARGET), ball_at(TARGET)\n")


@st.composite
def any_plans(draw, schemas, roles, tokens):
    """One to four steps of SINGLEs and JOINs of two or three actions, by
    any roles, with any argument values; an action id may also be one that
    `schemas` lacks."""
    def action(agent):
        action_id = draw(st.sampled_from([*sorted(schemas), "no_such_action"]))
        schema = schemas.get(action_id)
        args = tuple((name, draw(st.sampled_from(tokens if value_domain == "WAYPOINT" else roles)))
                     for name, value_domain in (schema.args if schema else ()))
        return cp.GroundedAction(action_id, agent, args)

    steps = []
    for agents in draw(st.lists(st.lists(st.sampled_from(roles), min_size=1, max_size=3),
                                min_size=1, max_size=4)):
        steps.append(cp.PlanStep(JOIN if len(agents) > 1 else SINGLE,
                                 tuple(action(agent) for agent in agents)))
    return cp.Plan(tuple(steps))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validator_reports_what_compile_fsm_refuses(domain, schemas, data):
    """compile_fsm raises InvalidPlan exactly when the validator reports a
    SELF_JOIN or an UNRUNNABLE violation, and names the first one, from any
    initial facts, over the packaged schemas plus an unclassifiable action.
    Left out: the simulator's refusal of a plan whose agents the world lacks
    (`world is missing plan agents`), which needs a world that neither the
    validator nor compile_fsm sees."""
    custom = {**schemas, "teleport": cp.parse_action_file(TELEPORT)[0]}
    roles = sorted(domain.roles)
    plan = data.draw(any_plans(custom, roles, sorted(domain.waypoints)), label="plan")
    initial = data.draw(role_facts(roles), label="initial")
    report = cp.validate_plan(plan, custom, initial)
    faults = [v for v in report.violations if v.kind in (SELF_JOIN, UNRUNNABLE)]
    if not faults:
        cp.compile_fsm(plan, custom)
        return
    first = faults[0]
    reason = f"step {first.step_index}: {first.message}"
    with pytest.raises(InvalidPlan, match=f"^{re.escape(reason)}$"):
        cp.compile_fsm(plan, custom)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_pass_or_kick_after_a_pass_is_refused_by_its_own_action(domain, schemas, data):
    """Over the packaged schemas, from any initial facts: an agent that
    holds `has_passed` before a step and passes or kicks in it gets a
    violation naming that action at that step, a `!has_passed`
    precondition or an UNRUNNABLE pass by another sender. So the pass rule
    needs no check of its own."""
    roles = sorted(domain.roles)
    plan = data.draw(any_plans(schemas, roles, sorted(domain.waypoints)), label="plan")
    initial = data.draw(role_facts(roles), label="initial")
    named = {(v.step_index, v.message.partition(":")[0])
             for v in cp.validate_plan(plan, schemas, initial).violations}
    for step in refine.ground_plan(plan, schemas):
        before = cp.validate_plan(cp.Plan(plan.steps[:step.index - 1]), schemas, initial)
        for grounding in step.actions:
            action = grounding.action
            if (grounding.kind in (PASS, KICK)
                    and Predicate("has_passed", (action.agent_id,)) in before.final_state):
                assert (step.index, f"{action.action_id} {action.agent_id}") in named


def violation_kinds(module):
    """The names a module binds at its top level to their own text, such as
    `PRECONDITION = "PRECONDITION"`."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)
            and node.value.value == target.id}


def test_readme_and_oracle_name_every_violation_kind():
    kinds = violation_kinds(refine)
    assert kinds == {PRECONDITION, SELF_JOIN, EFFECT_CONFLICT, UNRUNNABLE}
    assert violation_kinds(strips_oracle) == kinds
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    assert {kind for kind in kinds if f"`{kind}`" not in readme} == set()


class TestFunctionalSlots:
    def test_at_displaces_same_agent(self):
        state = frozenset({Predicate("at", ("JOLLY", "CENTER_FIELD"))})
        out = apply_effects(state, {Predicate("at", ("JOLLY", "LEFT_WING"))}, set())
        assert out == frozenset({Predicate("at", ("JOLLY", "LEFT_WING"))})

    def test_at_keeps_other_agents(self):
        state = frozenset({Predicate("at", ("STRIKER", "CENTER_FIELD"))})
        out = apply_effects(state, {Predicate("at", ("JOLLY", "LEFT_WING"))}, set())
        assert len(out) == 2

    def test_single_ball_fact(self):
        state = frozenset({Predicate("ball_held_by", ("STRIKER",))})
        out = apply_effects(state, {Predicate("ball_at", ("JOLLY",))}, set())
        assert out == frozenset({Predicate("ball_at", ("JOLLY",))})

    def test_never_two_ball_facts(self, schemas, roles, corpus_plans):
        for plan in corpus_plans.values():
            report = cp.validate_plan(plan, schemas, HELD)
            ball_facts = [
                f for f in report.final_state
                if f.name in ("ball_at", "ball_held_by")
            ]
            assert len(ball_facts) <= 1


def reference_apply_effects(state, adds, deletes):
    """The oracle for apply_effects: the state less the deletes, then each
    add in `str` order, clearing its slot first."""
    facts = set(state) - set(deletes)
    for fact in sorted(adds, key=str):
        slot = _slot(fact)
        facts = {f for f in facts if _slot(f) != slot}
        facts.add(fact)
    return frozenset(facts)


# Few names and arguments, so that facts share slots: two `at` facts of one
# agent, two ball facts, and "A,B", whose fact prints as a two-argument one.
FACTS = st.builds(Predicate, st.sampled_from(("at", "ball_at", "ball_held_by", "has_passed")),
                  st.lists(st.sampled_from(("JOLLY", "STRIKER", "LEFT_WING", "A,B", "A", "B")),
                           min_size=1, max_size=2).map(tuple))


@st.composite
def effect_cases(draw):
    """(state, adds, deletes); the deletes are drawn partly from the state
    and the adds."""
    state = draw(st.frozensets(FACTS, max_size=6))
    adds = draw(st.sets(FACTS, max_size=4))
    pool = sorted(state | adds, key=repr)
    deletes = draw(st.sets(st.sampled_from(pool) | FACTS if pool else FACTS, max_size=4))
    return state, adds, deletes


AT_JOLLY_WING = Predicate("at", ("JOLLY", "LEFT_WING"))
AT_JOLLY_CENTER = Predicate("at", ("JOLLY", "CENTER_FIELD"))
AT_STRIKER_WING = Predicate("at", ("STRIKER", "LEFT_WING"))


@pytest.mark.parametrize("state, adds, deletes", [
    # Two facts in one slot of the state, which no add touches: both stay.
    (frozenset({AT_JOLLY_WING, AT_JOLLY_CENTER}), {AT_STRIKER_WING}, set()),
    # Two adds to one slot: the later in str order stays.
    (frozenset({AT_STRIKER_WING}), {AT_JOLLY_WING, AT_JOLLY_CENTER}, set()),
    # A delete that is also an add: the add stays.
    (frozenset({AT_JOLLY_CENTER}), {AT_JOLLY_WING}, {AT_JOLLY_WING, AT_STRIKER_WING}),
])
def test_apply_effects_named_cases(state, adds, deletes):
    assert apply_effects(state, adds, deletes) == reference_apply_effects(state, adds, deletes)


@settings(max_examples=500)
@given(effect_cases())
def test_apply_effects_matches_reference(case):
    state, adds, deletes = case
    out = apply_effects(state, adds, deletes)
    assert isinstance(out, frozenset)
    assert out == reference_apply_effects(state, adds, deletes)


class TestInitialState:
    def test_holder_within_radius(self, domain):
        world = cp.parse_world_file(
            "AGENT s OWN STRIKER 0.1 0.0 0.0\nBALL 0.2 0.0\n", domain
        )
        state = initial_state_from_world(world, domain)
        assert Predicate("ball_held_by", ("STRIKER",)) in state
        assert Predicate("at", ("STRIKER", "CENTER_FIELD")) in state

    def test_free_ball(self, domain):
        world = cp.parse_world_file(
            "AGENT s OWN STRIKER -2.0 0.0 0.0\nBALL 3.1 0.0\n", domain
        )
        state = initial_state_from_world(world, domain)
        assert Predicate("ball_at", ("KICKING_POSITION",)) in state

    @pytest.mark.parametrize("kicker, scores", [("JOLLY", True), ("STRIKER", False)])
    def test_tie_agrees_with_simulator(self, domain, schemas, roles, kicker, scores):
        # Both own agents are exactly 0.2 m from the ball: STRIKER comes first
        # in the file, JOLLY first by agent id, and the id decides.
        world = cp.parse_world_file(
            "AGENT STRIKER OWN STRIKER 3.2 0.2 0.0\n"
            "AGENT JOLLY OWN JOLLY 3.2 -0.2 0.0\n"
            "BALL 3.2 0.0\n", domain
        )
        plan = cp.parse_plan(f"kick_to_goal {kicker} {{}}\n", schemas, roles)
        report = cp.validate_plan(plan, schemas, initial_state_from_world(world, domain))
        result = cp.run_match(cp.compile_fsm(plan), world, domain, cp.SimConfig())
        assert report.ok is scores
        assert result.success is scores

    def test_holder_without_role(self, domain, schemas, roles):
        # The ball belongs to an agent that runs no plan: no ball fact at all.
        world = cp.parse_world_file(
            "AGENT a OWN - 0.1 0.0 0.0\nAGENT STRIKER OWN STRIKER 0.2 0.0 0.0\nBALL 0.0 0.0\n",
            domain,
        )
        state = initial_state_from_world(world, domain)
        assert not [f for f in state if f.name in ("ball_at", "ball_held_by")]
        plan = cp.parse_plan("kick_to_goal STRIKER {}\n", schemas, roles)
        assert not cp.validate_plan(plan, schemas, state).ok
        result = cp.run_match(cp.compile_fsm(plan), world, domain, cp.SimConfig())
        assert not result.success


class TestParseFactsFile:
    def test_happy_path(self):
        facts = parse_facts_file("# init\nball_held_by(STRIKER)\nat(JOLLY,LEFT_WING)\n")
        assert Predicate("at", ("JOLLY", "LEFT_WING")) in facts

    def test_rejects_negated(self):
        with pytest.raises(ParseError):
            parse_facts_file("!has_passed(STRIKER)")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_facts_file("ball is over there")


class TestAutoParallelize:
    def test_merges_independent_moves(self, schemas, roles):
        plan = cp.parse_plan(
            "move_to JOLLY {TARGET: FORWARD_LEFT}\n"
            "move_to SUPPORTER {TARGET: LEFT_WING}",
            schemas, roles,
        )
        out = auto_parallelize(plan, schemas)
        assert [s.kind for s in out.steps] == [JOIN]
        assert out.steps[0].agents() == ["JOLLY", "SUPPORTER"]

    def test_keeps_ball_chain_sequential(self, schemas, roles):
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "kick_to_goal JOLLY {}",
            schemas, roles,
        )
        out = auto_parallelize(plan, schemas, HELD)
        assert [s.kind for s in out.steps] == [SINGLE, SINGLE, SINGLE]

    def test_same_agent_never_merged(self, schemas, roles):
        plan = cp.parse_plan(
            "move_to JOLLY {TARGET: FORWARD_LEFT}\n"
            "move_to JOLLY {TARGET: KICKING_POSITION}",
            schemas, roles,
        )
        out = auto_parallelize(plan, schemas)
        assert [s.kind for s in out.steps] == [SINGLE, SINGLE]

    def test_existing_joins_pass_through(self, schemas, roles):
        text = (
            "JOIN {move_to JOLLY {TARGET: FORWARD_LEFT},\n"
            "      move_to SUPPORTER {TARGET: LEFT_WING}}\n"
            "kick_to_goal STRIKER {}"
        )
        plan = cp.parse_plan(text, schemas, roles)
        out = auto_parallelize(plan, schemas)
        assert out.steps[0] == plan.steps[0]

    def test_rejects_invalid_input(self, schemas, roles):
        plan = cp.parse_plan("kick_to_goal JOLLY {}", schemas, roles)
        with pytest.raises(InvalidInputPlan):
            auto_parallelize(plan, schemas, HELD)

    def test_rejects_join_with_duplicate_agents(self, schemas, roles):
        plan = cp.parse_plan(SELF_JOIN_PLAN_TEXT, schemas, roles)
        with pytest.raises(InvalidInputPlan, match=re.escape(
                "input STEP 2: [SELF_JOIN] JOIN contains multiple actions by JOLLY")):
            auto_parallelize(plan, schemas)

    def test_rejects_unrunnable_action(self, schemas, roles):
        plan = cp.parse_plan("pass_the_ball JOLLY {SENDER: STRIKER, RECEIVER: JOLLY}",
                             schemas, roles)
        with pytest.raises(InvalidInputPlan, match=r"^input STEP 1: \[UNRUNNABLE\] "):
            auto_parallelize(plan, schemas)

    def test_grounds_each_action_once(self, corpus_plans, schemas, monkeypatch):
        # With initial facts too: the validation reads the same grounding.
        calls = []
        ground = refine._ground_action
        monkeypatch.setattr(refine, "_ground_action",
                            lambda *args: calls.append(args) or ground(*args))
        plan = corpus_plans["p03_pass_receive_shoot.plan"]
        for initial in (None, HELD):
            calls.clear()
            auto_parallelize(plan, schemas, initial)
            assert len(calls) == 3

    def test_per_agent_order_preserved(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            out = auto_parallelize(plan, schemas)
            before_all = [a for step in plan.steps for a in step.actions]
            after_all = [a for step in out.steps for a in step.actions]
            for agent in {a.agent_id for a in before_all}:
                before = [a for a in before_all if a.agent_id == agent]
                after = [a for a in after_all if a.agent_id == agent]
                assert before == after, name

    def test_output_still_validates(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            out = auto_parallelize(plan, schemas, HELD)
            assert cp.validate_plan(out, schemas, HELD).ok, name

    def test_idempotent(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            once = auto_parallelize(plan, schemas)
            assert auto_parallelize(once, schemas) == once, name


class TestGroundingMemo:
    """`_ground_action` is memoized by the value of the whole action and
    schema, so an edited schema never reads another's grounding."""

    def test_equal_action_and_schema_share_one_grounding(self, schemas):
        action = cp.GroundedAction("move_to", "JOLLY", (("TARGET", "LEFT_WING"),))
        target = "_".join(["LEFT", "WING"])  # equal to the action's, not the same object
        copy = cp.GroundedAction("move_to", "JOLLY", tuple([("TARGET", target)]))
        schema = schemas["move_to"]
        assert refine._ground_action(action, schema) is refine._ground_action(
            copy, schema._replace())

    def test_adds_and_deletes_are_frozensets(self, corpus_plans, schemas):
        for plan in corpus_plans.values():
            for step in refine.ground_plan(plan, schemas):
                for grounding in step.actions:
                    assert type(grounding.adds) is frozenset
                    assert type(grounding.deletes) is frozenset
        grounding, _ = refine._ground_action(cp.GroundedAction("fly", "JOLLY", ()), None)
        assert type(grounding.adds) is type(grounding.deletes) is frozenset

    def test_a_schema_with_the_same_id_gets_its_own_grounding(self, schemas, roles):
        plan = cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)
        packaged = schemas["kick_to_goal"]
        edited = cp.parse_action_file(
            "ACTION_ID: kick_to_goal\nARGS:\n"
            "PRECONDITIONS: ball_held_by(AGENT), at(AGENT,KICKING_POSITION)\n"
            "EFFECTS: !ball_held_by(AGENT), !has_passed(AGENT), ball_at(OPPONENT_GOAL)\n")[0]
        by_preconditions = {**schemas, "kick_to_goal": packaged._replace(
            preconditions=edited.preconditions)}
        by_effects = {**schemas, "kick_to_goal": packaged._replace(effects=edited.effects)}

        def grounding(schemas):
            step, = refine.ground_plan(plan, schemas)
            return step.actions[0]

        for _ in range(2):  # each schema after the others, twice over
            assert grounding(schemas).preconditions == (
                Predicate("ball_held_by", ("STRIKER",)),
                Predicate("has_passed", ("STRIKER",), True))
            assert grounding(schemas).deletes == {Predicate("ball_held_by", ("STRIKER",))}
            assert grounding(by_preconditions).preconditions == (
                Predicate("ball_held_by", ("STRIKER",)),
                Predicate("at", ("STRIKER", "KICKING_POSITION")))
            assert grounding(by_effects).deletes == {Predicate("ball_held_by", ("STRIKER",)),
                                                     Predicate("has_passed", ("STRIKER",))}
            assert cp.validate_plan(plan, schemas, HELD).ok
            report = cp.validate_plan(plan, by_preconditions, HELD)
            assert report.serialize() == (
                "STEP 1: [PRECONDITION] kick_to_goal STRIKER: "
                "requires at(STRIKER,KICKING_POSITION)\n")


class TestPrompts:
    def test_grounding_prompt_filled(self, domain, schemas):
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        req = build_grounding_prompt(
            domain, list(schemas.values()), scenario, "1. STRIKER kicks."
        )
        assert "[ACTIONS]" not in req.user_text
        assert "STRIKER is at CENTER_FIELD" in req.user_text
        assert "1. STRIKER kicks." in req.user_text

    def test_grounding_advice_may_name_a_slot(self, domain, schemas):
        # Model output that names a template slot is inserted verbatim.
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        advice = "1. STRIKER checks the [ROLES] list, then kicks."
        req = build_grounding_prompt(domain, list(schemas.values()), scenario, advice)
        assert req.user_text.count("[ROLES]") == 1
        assert advice in req.user_text

    def test_grounding_prompt_reads_the_edited_schema(self, domain, schemas):
        # A schema edited after its text went into one prompt shows its
        # new text in the next prompt.
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        packaged = list(schemas.values())
        before = build_grounding_prompt(domain, packaged, scenario, "1. STRIKER kicks.")
        edited = [s._replace(description="Shoot hard at the far post.")
                  if s.action_id == "kick_to_goal" else s for s in packaged]
        after = build_grounding_prompt(domain, edited, scenario, "1. STRIKER kicks.")
        old = f"DESCRIPTION: {schemas['kick_to_goal'].description}\n"
        assert old in before.user_text and old not in after.user_text
        assert "DESCRIPTION: Shoot hard at the far post.\n" in after.user_text
        assert after.user_text.replace("Shoot hard at the far post.",
                                       schemas["kick_to_goal"].description) == before.user_text

    def test_grounding_requires_advice(self, domain, schemas):
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        with pytest.raises(UnresolvedPlaceholder):
            build_grounding_prompt(domain, list(schemas.values()), scenario, "  ")

    def test_sync_examples_load(self):
        positive, negatives = load_sync_examples()
        assert positive and "JOIN" in positive
        assert len(negatives) >= 2
        assert all(reason for reason, _ in negatives)

    def test_packaged_sync_examples_one_positive_two_negatives(self):
        # The synchronizer prompt takes its examples from this file alone;
        # a second POSITIVE block would silently replace the first.
        text = resources.files("coachplan.data").joinpath("sync_examples.txt").read_text()
        lines = text.splitlines()
        assert sum(ln.startswith("POSITIVE:") for ln in lines) == 1
        assert sum(ln.startswith("NEGATIVE:") for ln in lines) >= 2

    def test_sync_prompt_filled(self):
        positive, negatives = load_sync_examples()
        req = build_sync_prompt("kick_to_goal STRIKER {}", positive, negatives)
        assert "[PLAN]" not in req.user_text
        assert "kick_to_goal STRIKER {}" in req.user_text
