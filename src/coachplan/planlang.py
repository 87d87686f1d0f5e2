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

# Each match is the whitespace before a token, then one token class; ERROR
# takes any other non-space character, so the matches tile a line without
# trailing whitespace.  (Trailing whitespace would fail a search at each of
# its positions: quadratic in its length.)
_SCANNER = re.compile(r"""\s*(?:
    (?P<PUNCT>[{}:,])
  | (?P<QUOTED>'[^']*'|"[^"]*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ERROR>\S))""", re.VERBOSE)


def _tokenize(text: str):
    """A list of plain (kind, value, line, column) tuples, kind IDENT or
    PUNCT; a quoted word is an IDENT without its quotes."""
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        for m in _SCANNER.finditer(raw.split("#", 1)[0].rstrip()):
            kind = m.lastgroup
            value = m[kind]
            if kind == "QUOTED":
                tokens.append(("IDENT", value[1:-1], lineno, m.start(kind) + 1))
            elif kind == "ERROR":
                message = ("unterminated quote" if value in "'\""
                           else f"unexpected character {value!r}")
                raise PlanSyntaxError(message, lineno, m.start(kind) + 1)
            else:
                tokens.append((kind, value, lineno, m.start(kind) + 1))
    return tokens


# --- parser ----------------------------------------------------------------

def _unexpected(kind, message):
    """What a PlanSyntaxError at a token of `kind` says: `message`, or at the
    end marker (kind None) that the input ended early."""
    return message if kind else "unexpected end of input"


def _parse(tokens, schemas, roles, waypoints):
    """The Plan of `tokens`: a non-empty `_tokenize` list, then an end marker
    `(None, None, line, column)` at the last token's position."""
    steps = []
    join = None  # the actions of the open JOIN block
    end = len(tokens) - 1
    i = 0
    while join is not None or i < end:
        kind, action_id, line, column = tokens[i]
        if join is None and kind == "IDENT" and action_id == JOIN:
            kind, value, line, column = tokens[i + 1]
            if kind != "PUNCT" or value != "{":
                raise PlanSyntaxError(_unexpected(kind, "expected '{'"), line, column)
            join = []
            i += 2
            kind, action_id, line, column = tokens[i]
        # One action: ACTION_ID AGENT_ID {KEY: VALUE, ...}
        if kind != "IDENT":
            raise PlanSyntaxError(_unexpected(kind, "expected an action id"), line, column)
        if action_id == JOIN:
            raise PlanSyntaxError("nested JOIN blocks are not allowed", line, column)
        schema = schemas.get(action_id)
        if schema is None:
            raise UnknownAction(action_id)
        kind, agent_id, line, column = tokens[i + 1]
        if kind != "IDENT":
            raise PlanSyntaxError(_unexpected(kind, "expected an agent id"), line, column)
        role = roles.get(agent_id)
        if role is None:
            raise UnknownAgent(agent_id)
        if action_id not in role.allowed_actions:
            raise DisallowedAction(f"role {agent_id} may not perform {action_id}")
        kind, value, line, column = tokens[i + 2]
        if kind != "PUNCT" or value != "{":
            raise PlanSyntaxError(_unexpected(kind, "expected '{'"), line, column)
        kind, key, line, column = tokens[i + 3]
        i += 4
        given = {}
        if kind != "PUNCT" or key != "}":
            while True:
                if kind != "IDENT":
                    raise PlanSyntaxError(_unexpected(kind, "expected an argument key"),
                                          line, column)
                kind, value, line, column = tokens[i]
                if kind != "PUNCT" or value != ":":
                    raise PlanSyntaxError(_unexpected(kind, "expected ':'"), line, column)
                kind, value, line, column = tokens[i + 1]
                if kind != "IDENT":
                    raise PlanSyntaxError(_unexpected(kind, "expected an argument value"),
                                          line, column)
                key = key.upper()
                if key in given:
                    raise ArgMismatch(f"duplicate argument {key} for {action_id}")
                given[key] = value
                kind, value, line, column = tokens[i + 2]
                i += 3
                if kind == "PUNCT" and value == "}":
                    break
                if kind != "PUNCT" or value != ",":
                    raise PlanSyntaxError(_unexpected(kind, "expected ',' or '}'"),
                                          line, column)
                kind, key, line, column = tokens[i]
                i += 1
        action = GroundedAction(action_id, agent_id,
                                _check_args(schema, given, roles, waypoints))
        if join is None:
            steps.append(PlanStep(SINGLE, (action,)))
            continue
        join.append(action)
        kind, value, line, column = tokens[i]
        i += 1
        if kind == "PUNCT" and value == "}":
            if len(join) < 2:
                raise PlanSyntaxError("JOIN needs at least two actions", line, column)
            steps.append(PlanStep(JOIN, tuple(join)))
            join = None
        elif kind != "PUNCT" or value != ",":
            raise PlanSyntaxError(_unexpected(kind, "expected ',' or '}' in JOIN"),
                                  line, column)
    return Plan(tuple(steps))


def _check_args(schema, given, roles, waypoints):
    """The (name, value) pairs of `given` in schema order, each value checked
    against its value domain."""
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
            if value not in roles:
                raise ArgMismatch(
                    f"{schema.action_id}: {name}={value!r} is not a known role"
                )
        elif value_domain == "WAYPOINT":
            if not TOKEN_RE.match(value):
                raise ArgMismatch(
                    f"{schema.action_id}: {name}={value!r} is not a waypoint token"
                )
            if waypoints is not None and value not in waypoints:
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
    _, _, line, column = tokens[-1]
    tokens.append((None, None, line, column))
    return _parse(tokens, schemas, roles, waypoints)


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
