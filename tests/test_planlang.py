import re

import pytest
from hypothesis import given, settings, strategies as st

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
from coachplan.planlang import JOIN, SINGLE, _tokenize

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


def char_by_char_tokenize(text):
    """The oracle for _tokenize: it walks each line one character at a time
    and returns (kind, value, line, column) tuples."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch in "{}:,":
                tokens.append(("PUNCT", ch, lineno, col + 1))
                col += 1
                continue
            if ch in "'\"":
                end = line.find(ch, col + 1)
                if end < 0:
                    raise PlanSyntaxError("unterminated quote", lineno, col + 1)
                tokens.append(("IDENT", line[col + 1:end], lineno, col + 1))
                col = end + 1
                continue
            m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", line[col:])
            if not m:
                raise PlanSyntaxError(f"unexpected character {ch!r}", lineno, col + 1)
            tokens.append(("IDENT", m.group(0), lineno, col + 1))
            col += m.end()
    return tokens


# Plan characters, quotes, comments, and whitespace and line breaks beyond
# ASCII: \x0b, \x0c, \x1c and \x85 end a line for splitlines, \xa0 and
# \u3000 are spaces, \x1f is a space that ends no line.
PLAN_CHARS = "aZ_9{}:,'\"# \t\n\r\x0b\x0c\x1c\x1f\x85\u2028\xa0\u3000.-\xe9"
PLAN_PIECES = ["move_to", "STRIKER", "JOIN", "{", "}", ":", ",", "'", '"', "'A B'",
               " ", "\t", "#", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", "\xa0",
               "x1", "_", "9", "-"]


def outcome(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except PlanSyntaxError as exc:
        return (str(exc), exc.line, exc.column)


@settings(max_examples=500)
@given(st.one_of(
    st.text(PLAN_CHARS, max_size=40),
    st.lists(st.sampled_from(PLAN_PIECES), max_size=25).map("".join),
))
def test_tokenizer_matches_char_by_char_oracle(text):
    assert outcome(_tokenize, text) == outcome(char_by_char_tokenize, text)


@pytest.mark.parametrize("text, error", [
    ("move_to 'JOLLY", ("line 1, col 9: unterminated quote", 1, 9)),
    ("a\x85\xa0b 'x#y'", ("line 2, col 4: unterminated quote", 2, 4)),
    ("a\u2028 -", ("line 2, col 2: unexpected character '-'", 2, 2)),
    ("\x1f\xe9", ("line 1, col 2: unexpected character '\xe9'", 1, 2)),
])
def test_tokenizer_errors(text, error):
    assert outcome(_tokenize, text) == error
