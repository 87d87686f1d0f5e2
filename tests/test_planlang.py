import pytest

import coachplan as cp
from coachplan.errors import (
    ArgMismatch,
    DisallowedAction,
    EmptyPlan,
    PlanSyntaxError,
    UnknownAction,
    UnknownAgent,
    UnknownWaypoint,
)
from coachplan.planlang import JOIN, SINGLE

from conftest import SELF_JOIN_PLAN_TEXT


class TestParsePlan:
    def test_single_action(self, schemas, roles):
        plan = cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.kind == SINGLE
        assert step.actions[0] == cp.GroundedAction("kick_to_goal", "STRIKER", ())

    def test_args_in_schema_order(self, schemas, roles):
        # Keys given out of declaration order still normalize.
        plan = cp.parse_plan(
            "pass_the_ball STRIKER {RECEIVER: JOLLY, SENDER: STRIKER}",
            schemas, roles,
        )
        action = plan.steps[0].actions[0]
        assert action.args == (("SENDER", "STRIKER"), ("RECEIVER", "JOLLY"))

    def test_quotes_optional_and_equivalent(self, schemas, roles):
        quoted = "move_to JOLLY {'TARGET': 'KICKING_POSITION'}"
        bare = "move_to JOLLY {TARGET: KICKING_POSITION}"
        assert cp.parse_plan(quoted, schemas, roles) == cp.parse_plan(bare, schemas, roles)

    def test_comments_and_blank_lines(self, schemas, roles):
        text = "# header\n\nkick_to_goal STRIKER {} # trailing\n\n"
        plan = cp.parse_plan(text, schemas, roles)
        assert len(plan.steps) == 1

    def test_multi_line_join(self, schemas, roles):
        text = (
            "JOIN {move_to JOLLY {TARGET: KICKING_POSITION},\n"
            "      pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}}"
        )
        plan = cp.parse_plan(text, schemas, roles)
        assert plan.steps[0].kind == JOIN
        assert plan.steps[0].agents() == ["JOLLY", "STRIKER"]

    def test_self_join_parses(self, schemas, roles):
        plan = cp.parse_plan(SELF_JOIN_PLAN_TEXT, schemas, roles)
        assert [s.kind for s in plan.steps] == [SINGLE, JOIN]
        join = plan.steps[1]
        assert join.agents() == ["JOLLY", "JOLLY"]
        assert [a.action_id for a in join.actions] == ["pass_the_ball", "kick_to_goal"]

    def test_empty_text(self, schemas, roles):
        with pytest.raises(EmptyPlan):
            cp.parse_plan("  \n# only a comment\n", schemas, roles)

    def test_unknown_action(self, schemas, roles):
        with pytest.raises(UnknownAction):
            cp.parse_plan("teleport STRIKER {}", schemas, roles)

    def test_unknown_agent(self, schemas, roles):
        with pytest.raises(UnknownAgent):
            cp.parse_plan("kick_to_goal REFEREE {}", schemas, roles)

    def test_disallowed_action(self, schemas, roles):
        # The goalie's role does not include kicking at the opponent goal.
        with pytest.raises(DisallowedAction):
            cp.parse_plan("kick_to_goal GOALIE {}", schemas, roles)

    def test_missing_arg(self, schemas, roles):
        with pytest.raises(ArgMismatch):
            cp.parse_plan("pass_the_ball STRIKER {SENDER: STRIKER}", schemas, roles)

    def test_extra_arg(self, schemas, roles):
        with pytest.raises(ArgMismatch):
            cp.parse_plan("kick_to_goal STRIKER {POWER: MAX}", schemas, roles)

    def test_duplicate_arg(self, schemas, roles):
        with pytest.raises(ArgMismatch):
            cp.parse_plan(
                "move_to JOLLY {TARGET: CENTER_FIELD, TARGET: LEFT_WING}",
                schemas, roles,
            )

    def test_role_valued_arg_checked(self, schemas, roles):
        with pytest.raises(ArgMismatch):
            cp.parse_plan(
                "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: NOBODY}",
                schemas, roles,
            )

    def test_waypoint_arg_checked_against_domain(self, domain, schemas, roles):
        text = "move_to STRIKER {TARGET: NOWHERE}"
        # Without the domain's waypoints only the token shape is checked.
        assert cp.parse_plan(text, schemas, roles).steps[0].actions[0].args == (
            ("TARGET", "NOWHERE"),)
        with pytest.raises(UnknownWaypoint, match="NOWHERE"):
            cp.parse_plan(text, schemas, roles, domain.waypoints)
        plan = cp.parse_plan("move_to STRIKER {TARGET: CENTER_FIELD}", schemas, roles,
                             domain.waypoints)
        assert plan.steps[0].actions[0].args == (("TARGET", "CENTER_FIELD"),)

    def test_nested_join(self, schemas, roles):
        text = "JOIN {kick_to_goal STRIKER {}, JOIN {kick_to_goal JOLLY {}}}"
        with pytest.raises(PlanSyntaxError) as exc:
            cp.parse_plan(text, schemas, roles)
        assert "nested" in str(exc.value)

    def test_join_needs_two_actions(self, schemas, roles):
        with pytest.raises(PlanSyntaxError):
            cp.parse_plan("JOIN {kick_to_goal STRIKER {}}", schemas, roles)

    def test_syntax_error_position(self, schemas, roles):
        text = "kick_to_goal STRIKER {}\nmove_to JOLLY TARGET: CENTER_FIELD}"
        with pytest.raises(PlanSyntaxError) as exc:
            cp.parse_plan(text, schemas, roles)
        assert exc.value.line == 2

    def test_unterminated_quote(self, schemas, roles):
        with pytest.raises(PlanSyntaxError):
            cp.parse_plan("move_to JOLLY {'TARGET: CENTER_FIELD}", schemas, roles)


class TestSerialize:
    def test_round_trip_simple(self, schemas, roles):
        text = "pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}\n"
        plan = cp.parse_plan(text, schemas, roles)
        assert cp.serialize_plan(plan) == text

    def test_round_trip_fixed_point(self, corpus_plans, schemas, roles):
        for name, plan in corpus_plans.items():
            text = cp.serialize_plan(plan)
            again = cp.parse_plan(text, schemas, roles)
            assert again == plan, name
            assert cp.serialize_plan(again) == text, name

    def test_join_layout(self, schemas, roles):
        plan = cp.parse_plan(
            "JOIN {kick_to_goal STRIKER {}, move_to JOLLY {TARGET: LEFT_WING}}",
            schemas, roles,
        )
        text = cp.serialize_plan(plan)
        assert text == (
            "JOIN {kick_to_goal STRIKER {},\n"
            "      move_to JOLLY {TARGET: LEFT_WING}}\n"
        )


def test_grounded_actions_flattening(corpus_plans):
    for plan in corpus_plans.values():
        flat = plan.grounded_actions()
        assert len(flat) == sum(len(s.actions) for s in plan.steps)
