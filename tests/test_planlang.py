import re
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan.errors import (
    ArgMismatch,
    CoachPlanError,
    DisallowedAction,
    EmptyPlan,
    PlanSyntaxError,
    UnknownAction,
    UnknownAgent,
    UnknownWaypoint,
)
from coachplan.domain import TOKEN_RE
from coachplan.planlang import JOIN, SINGLE, _tokenize

from conftest import SELF_JOIN_PLAN_TEXT, mutated_corpus_texts


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
    and returns (kind, value, line, column) tuples.  A line ends only at a
    line feed."""
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


# Plan characters, quotes, comments, line feeds, and whitespace beyond
# ASCII: \r, \x0b, \x0c, \x1c, \x1f, \x85, \u2028, \xa0 and \u3000 are
# spaces inside a line (str.splitlines would end a line at the first six
# but \x1f, \xa0 and \u3000).
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
    ("a\x85\xa0b 'x#y'", ("line 1, col 6: unterminated quote", 1, 6)),
    ("a\u2028 -", ("line 1, col 4: unexpected character '-'", 1, 4)),
    ("\x1f\xe9", ("line 1, col 2: unexpected character '\xe9'", 1, 2)),
    ("a\x0c\nb\x1c\n\u2028-", ("line 3, col 2: unexpected character '-'", 3, 2)),
])
def test_tokenizer_errors(text, error):
    assert outcome(_tokenize, text) == error


# --- the parser against an earlier one -------------------------------------

class ReferenceToken(NamedTuple):
    kind: str  # IDENT | PUNCT
    value: str
    line: int
    column: int


REFERENCE_SCANNER = re.compile(r"""
    (?P<SPACE>\s+)
  | (?P<PUNCT>[{}:,])
  | (?P<QUOTED>'[^']*'|"[^"]*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ERROR>.)
""", re.VERBOSE | re.DOTALL)


def reference_tokenize(text):
    """The oracle for _tokenize as an earlier parser had it: one token object
    per token, whitespace runs matched and skipped."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for m in REFERENCE_SCANNER.finditer(raw.split("#", 1)[0]):
            kind = m.lastgroup
            if kind == "SPACE":
                continue
            value = m.group()
            if kind == "QUOTED":
                tokens.append(ReferenceToken("IDENT", value[1:-1], lineno, m.start() + 1))
            elif kind == "ERROR":
                message = ("unterminated quote" if value in "'\""
                           else f"unexpected character {value!r}")
                raise PlanSyntaxError(message, lineno, m.start() + 1)
            else:
                tokens.append(ReferenceToken(kind, value, lineno, m.start() + 1))
    return tokens


class ReferenceParser:
    """The oracle for planlang._parse: a recursive-descent parser with a
    method call per token read."""

    def __init__(self, tokens, schemas, roles, waypoints):
        self.tokens = tokens
        self.pos = 0
        self.schemas = schemas
        self.roles = roles
        self.waypoints = waypoints

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise PlanSyntaxError(
                "unexpected end of input",
                last.line if last else 1,
                last.column if last else 1,
            )
        self.pos += 1
        return tok

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "PUNCT" or tok.value != value:
            raise PlanSyntaxError(f"expected {value!r}", tok.line, tok.column)
        return tok

    def parse_plan(self):
        steps = []
        while self.peek() is not None:
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value == "JOIN":
                steps.append(self.parse_join())
            else:
                steps.append(cp.PlanStep(SINGLE, (self.parse_action(),)))
        return cp.Plan(tuple(steps))

    def parse_join(self):
        self.next()  # JOIN keyword
        self.expect_punct("{")
        actions = [self.parse_action()]
        while True:
            tok = self.next()
            if tok.kind == "PUNCT" and tok.value == ",":
                actions.append(self.parse_action())
            elif tok.kind == "PUNCT" and tok.value == "}":
                break
            else:
                raise PlanSyntaxError("expected ',' or '}' in JOIN", tok.line, tok.column)
        if len(actions) < 2:
            raise PlanSyntaxError(
                "JOIN needs at least two actions",
                self.tokens[self.pos - 1].line,
                self.tokens[self.pos - 1].column,
            )
        return cp.PlanStep(JOIN, tuple(actions))

    def parse_action(self):
        tok = self.next()
        if tok.kind != "IDENT":
            raise PlanSyntaxError("expected an action id", tok.line, tok.column)
        if tok.value == "JOIN":
            raise PlanSyntaxError("nested JOIN blocks are not allowed", tok.line, tok.column)
        action_id = tok.value
        if action_id not in self.schemas:
            raise UnknownAction(action_id)
        schema = self.schemas[action_id]
        agent_tok = self.next()
        if agent_tok.kind != "IDENT":
            raise PlanSyntaxError("expected an agent id", agent_tok.line, agent_tok.column)
        agent_id = agent_tok.value
        if agent_id not in self.roles:
            raise UnknownAgent(agent_id)
        if action_id not in self.roles[agent_id].allowed_actions:
            raise DisallowedAction(f"role {agent_id} may not perform {action_id}")
        self.expect_punct("{")
        given = {}
        tok = self.peek()
        if tok is not None and tok.kind == "PUNCT" and tok.value == "}":
            self.next()
        else:
            while True:
                key_tok = self.next()
                if key_tok.kind != "IDENT":
                    raise PlanSyntaxError("expected an argument key", key_tok.line, key_tok.column)
                self.expect_punct(":")
                val_tok = self.next()
                if val_tok.kind != "IDENT":
                    raise PlanSyntaxError("expected an argument value", val_tok.line, val_tok.column)
                key = key_tok.value.upper()
                if key in given:
                    raise ArgMismatch(f"duplicate argument {key} for {action_id}")
                given[key] = val_tok.value
                tok = self.next()
                if tok.kind == "PUNCT" and tok.value == "}":
                    break
                if not (tok.kind == "PUNCT" and tok.value == ","):
                    raise PlanSyntaxError("expected ',' or '}'", tok.line, tok.column)
        return cp.GroundedAction(action_id, agent_id, self.check_args(schema, given))

    def check_args(self, schema, given):
        declared = schema.arg_names()
        missing = [n for n in declared if n not in given]
        extra = [k for k in given if k not in declared]
        if missing or extra:
            raise ArgMismatch(
                f"{schema.action_id}: missing args {missing}, unexpected args {extra}"
            )
        args = []
        for name, value_domain in schema.args:
            value = given[name]
            if value_domain in ("ROLE", "AGENT"):
                if value not in self.roles:
                    raise ArgMismatch(
                        f"{schema.action_id}: {name}={value!r} is not a known role"
                    )
            elif value_domain == "WAYPOINT":
                if not TOKEN_RE.match(value):
                    raise ArgMismatch(
                        f"{schema.action_id}: {name}={value!r} is not a waypoint token"
                    )
                if self.waypoints is not None and value not in self.waypoints:
                    raise UnknownWaypoint(
                        f"{schema.action_id}: {name}={value!r} is not a waypoint of the domain"
                    )
            args.append((name, value))
        return tuple(args)


def reference_parse_plan(text, schemas, roles, waypoints=None):
    tokens = reference_tokenize(text)
    if not tokens:
        raise EmptyPlan("plan text contains no steps")
    return ReferenceParser(tokens, schemas, roles, waypoints).parse_plan()


def parse_outcome(parse, text, schemas, roles, waypoints):
    """The plan, or the error's type, message, line and column.  Any error
    that is no CoachPlanError escapes, which fails the test."""
    try:
        return parse(text, schemas, roles, waypoints)
    except CoachPlanError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def test_corpus_parses_as_the_reference_parser_has_it(corpus_texts, domain, schemas, roles):
    for name, text in corpus_texts.items():
        for waypoints in (None, domain.waypoints):
            assert (parse_outcome(cp.parse_plan, text, schemas, roles, waypoints)
                    == parse_outcome(reference_parse_plan, text, schemas, roles, waypoints)), name


@settings(max_examples=400, deadline=None)
@given(text=mutated_corpus_texts(), with_waypoints=st.booleans())
def test_mutated_plans_parse_as_the_reference_parser_has_it(domain, schemas, roles, text,
                                                            with_waypoints):
    """The same Plan, or the same error type, message, line and column, as
    the reference, with and without the domain's waypoints; and nothing but
    a CoachPlanError is raised."""
    waypoints = domain.waypoints if with_waypoints else None
    assert (parse_outcome(cp.parse_plan, text, schemas, roles, waypoints)
            == parse_outcome(reference_parse_plan, text, schemas, roles, waypoints))


@pytest.mark.parametrize("text, error", [
    ("kick_to_goal", "line 1, col 1: unexpected end of input"),
    ("pass_the_ball STRIKER {SENDER", "line 1, col 24: unexpected end of input"),
    ("pass_the_ball STRIKER {SENDER: STRIKER,", "line 1, col 39: unexpected end of input"),
    ("JOIN {kick_to_goal STRIKER {},\n", "line 1, col 30: unexpected end of input"),
    ("JOIN {kick_to_goal STRIKER {} kick_to_goal JOLLY {}}",
     "line 1, col 31: expected ',' or '}' in JOIN"),
    ("JOIN {kick_to_goal STRIKER {}}", "line 1, col 30: JOIN needs at least two actions"),
    ("JOIN kick_to_goal STRIKER {}", "line 1, col 6: expected '{'"),
    ("kick_to_goal STRIKER }", "line 1, col 22: expected '{'"),
    ("move_to JOLLY {TARGET CENTER_FIELD}", "line 1, col 23: expected ':'"),
    ("move_to JOLLY {TARGET: }", "line 1, col 24: expected an argument value"),
    ("move_to JOLLY {, TARGET: X}", "line 1, col 16: expected an argument key"),
    ("move_to JOLLY {TARGET: X; }", "line 1, col 25: unexpected character ';'"),
    ("move_to JOLLY {TARGET: X Y}", "line 1, col 26: expected ',' or '}'"),
    ("{ kick_to_goal STRIKER {}", "line 1, col 1: expected an action id"),
    ("kick_to_goal { }", "line 1, col 14: expected an agent id"),
])
def test_syntax_error_positions(schemas, roles, text, error):
    with pytest.raises(PlanSyntaxError) as exc:
        cp.parse_plan(text, schemas, roles)
    assert str(exc.value) == error
    assert parse_outcome(reference_parse_plan, text, schemas, roles, None)[1] == error


def test_trailing_whitespace_is_scanned_once(schemas, roles):
    # A scanner that searched on from each position of a trailing run of
    # whitespace would take more than 10 s here; one pass takes well under 1 ms.
    text = "kick_to_goal STRIKER {}" + " \t" * 10_000 + "\n"
    start = time.perf_counter()
    plan = cp.parse_plan(text, schemas, roles)
    assert time.perf_counter() - start < 1.0
    assert plan == cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)
