import pytest

import coachplan as cp
from coachplan.actions import Predicate
from coachplan.errors import InvalidInputPlan, ParseError, UnresolvedPlaceholder
from coachplan.planlang import JOIN, SINGLE
from coachplan.refine import (
    EFFECT_CONFLICT,
    PASS_CONSTRAINT,
    PRECONDITION,
    SELF_JOIN,
    apply_effects,
    auto_parallelize,
    build_grounding_prompt,
    build_sync_prompt,
    initial_state_from_world,
    load_sync_examples,
    parse_facts_file,
)

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

    def test_pass_constraint(self, schemas, roles):
        # A striker that already passed may not pass or kick again.
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
            "receive_ball JOLLY {SENDER: STRIKER}\n"
            "kick_to_goal STRIKER {}",
            schemas, roles,
        )
        report = cp.validate_plan(plan, schemas, HELD)
        # Step 3 breaks both the symbolic preconditions and the constraint.
        assert (3, PASS_CONSTRAINT) in kinds(report)
        assert (3, PRECONDITION) in kinds(report)

    def test_pass_constraint_follows_the_kind(self, schemas, domain):
        # `shoot` is a KICK by its effect, whatever its id says.
        custom = dict(schemas, **{s.action_id: s for s in cp.parse_action_file(
            "ACTION_ID: shoot\nEFFECTS: ball_at(OPPONENT_GOAL)\n")})
        roles = {"STRIKER": cp.Role("STRIKER", "", frozenset({"pass_the_ball", "shoot"}))}
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: STRIKER}\n"
            "shoot STRIKER {}", custom, roles)
        report = cp.validate_plan(plan, custom, HELD)
        assert kinds(report) == [(2, PASS_CONSTRAINT)]

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

    def test_per_agent_order_preserved(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            out = auto_parallelize(plan, schemas)
            for agent in {a.agent_id for a in plan.grounded_actions()}:
                before = [a for a in plan.grounded_actions() if a.agent_id == agent]
                after = [a for a in out.grounded_actions() if a.agent_id == agent]
                assert before == after, name

    def test_output_still_validates(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            out = auto_parallelize(plan, schemas, HELD)
            assert cp.validate_plan(out, schemas, HELD).ok, name

    def test_idempotent(self, corpus_plans, schemas):
        for name, plan in corpus_plans.items():
            once = auto_parallelize(plan, schemas)
            assert auto_parallelize(once, schemas) == once, name


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

    def test_grounding_requires_advice(self, domain, schemas):
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        with pytest.raises(UnresolvedPlaceholder):
            build_grounding_prompt(domain, list(schemas.values()), scenario, "  ")

    def test_sync_examples_load(self):
        positive, negatives = load_sync_examples()
        assert positive and "JOIN" in positive
        assert len(negatives) >= 2
        assert all(reason for reason, _ in negatives)

    def test_sync_prompt_needs_negatives(self):
        with pytest.raises(UnresolvedPlaceholder):
            build_sync_prompt("kick_to_goal STRIKER {}", "positive", [("r", "x")])

    def test_sync_prompt_filled(self):
        positive, negatives = load_sync_examples()
        req = build_sync_prompt("kick_to_goal STRIKER {}", positive, negatives)
        assert "[PLAN]" not in req.user_text
        assert "kick_to_goal STRIKER {}" in req.user_text
