"""The grounded multi-agent plan language.

Surface syntax, one step per line (JOIN blocks may span lines):

    pass_the_ball STRIKER {'SENDER': STRIKER, 'RECEIVER': JOLLY}
    JOIN {pass_the_ball JOLLY {...}, kick_to_goal JOLLY {}}

Quotes around argument keys/values are optional and keys are upper-cased on
parse.  `#` starts a comment.  A JOIN with duplicate agents parses (so that
model output can be inspected) and is flagged by plan validation.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .domain import TOKEN_RE
from .errors import (
    ArgMismatch,
    DisallowedAction,
    EmptyPlan,
    PlanSyntaxError,
    UnknownAction,
    UnknownAgent,
    UnknownWaypoint,
)

SINGLE = "SINGLE"
JOIN = "JOIN"


class GroundedAction(NamedTuple):
    action_id: str
    agent_id: str  # an own-team role name
    args: tuple  # of (ARG_NAME, value), in schema order


class PlanStep(NamedTuple):
    kind: str  # SINGLE | JOIN
    actions: tuple  # of GroundedAction

    def agents(self):
        return [a.agent_id for a in self.actions]


class Plan(NamedTuple):
    steps: tuple  # of PlanStep


# --- tokenizer -------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # IDENT | PUNCT
    value: str
    line: int
    column: int


# One alternative per token class; ERROR takes any character no other
# alternative starts with, so the matches tile the line.
_SCANNER = re.compile(r"""
    (?P<SPACE>\s+)
  | (?P<PUNCT>[{}:,])
  | (?P<QUOTED>'[^']*'|"[^"]*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ERROR>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for m in _SCANNER.finditer(raw.split("#", 1)[0]):
            kind = m.lastgroup
            if kind == "SPACE":
                continue
            value = m.group()
            if kind == "QUOTED":
                tokens.append(_Token("IDENT", value[1:-1], lineno, m.start() + 1))
            elif kind == "ERROR":
                message = ("unterminated quote" if value in "'\""
                           else f"unexpected character {value!r}")
                raise PlanSyntaxError(message, lineno, m.start() + 1)
            else:
                tokens.append(_Token(kind, value, lineno, m.start() + 1))
    return tokens


class _Parser:
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
                steps.append(PlanStep(SINGLE, (self.parse_action(),)))
        return Plan(tuple(steps))

    def parse_join(self):
        self.next()  # JOIN keyword
        self.expect_punct("{")
        actions = [self.parse_action(in_join=True)]
        while True:
            tok = self.next()
            if tok.kind == "PUNCT" and tok.value == ",":
                actions.append(self.parse_action(in_join=True))
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
        return PlanStep(JOIN, tuple(actions))

    def parse_action(self, in_join=False):
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
        args = self._check_args(schema, agent_id, given)
        return GroundedAction(action_id, agent_id, args)

    def _check_args(self, schema, agent_id, given):
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


def parse_plan(text: str, schemas: dict, roles: dict, waypoints=None) -> Plan:
    """Parse plan text against known action schemas and roles, and, when
    `waypoints` (the domain's tokens) is given, WAYPOINT values against it."""
    tokens = _tokenize(text)
    if not tokens:
        raise EmptyPlan("plan text contains no steps")
    return _Parser(tokens, schemas, roles, waypoints).parse_plan()


def serialize_action(action: GroundedAction) -> str:
    inner = ", ".join(f"{k}: {v}" for k, v in action.args)
    return f"{action.action_id} {action.agent_id} {{{inner}}}"


def serialize_plan(plan: Plan) -> str:
    lines = []
    for step in plan.steps:
        if step.kind == SINGLE:
            lines.append(serialize_action(step.actions[0]))
        else:
            body = ",\n      ".join(serialize_action(a) for a in step.actions)
            lines.append(f"JOIN {{{body}}}")
    return "\n".join(lines) + "\n"
