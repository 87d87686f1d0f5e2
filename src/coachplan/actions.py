"""STRIPS-like action schemas, embeddings and exact k-NN retrieval.

Action definitions are parsed from a blank-line-separated text format,
embedded by `MockEmbeddingProvider`, and retrieved by cosine similarity
with a full scan (stores hold tens of actions; no ANN structure).
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import re
from types import MappingProxyType
from typing import NamedTuple

from .domain import DATA_DIR, Record, read_text
from .errors import (
    ConfigInvalid,
    DimMismatch,
    DuplicateActionId,
    EmptyIndex,
    ParseError,
    UndeclaredVariable,
    ZeroVector,
)

# Closed predicate vocabulary: name -> arity.
PREDICATES = {
    "at": 2,
    "ball_at": 1,
    "ball_held_by": 1,
    "has_passed": 1,
    "aligned_to_goal": 1,
}

VALUE_DOMAINS = ("ROLE", "WAYPOINT", "AGENT", "FREE_TEXT")

# The implicit acting-agent variable, usable without declaration.
ACTING_AGENT = "AGENT"

# Action kinds: what an action does on the field, read from its add effects.
KICK = "KICK"        # ball_at(OPPONENT_GOAL)
PASS = "PASS"        # ball_at(X) and has_passed(.)
RECEIVE = "RECEIVE"  # ball_held_by(AGENT)
MOVE = "MOVE"        # at(AGENT,T)
INSTANT = "INSTANT"  # no position or ball fact


class Predicate(NamedTuple):
    name: str
    args: tuple
    negated: bool = False

    def __str__(self):
        prefix = "!" if self.negated else ""
        return f"{prefix}{self.name}({','.join(self.args)})"


class ActionSchema(NamedTuple):
    action_id: str
    description: str
    args: tuple  # of (arg_name, value_domain)
    preconditions: tuple  # of Predicate
    effects: tuple  # of Predicate

    def arg_names(self):
        return [name for name, _ in self.args]


class Embedding(Record, NamedTuple("Embedding", [("vector", tuple), ("dim", int)])):
    @functools.cached_property
    def scaled(self) -> tuple:
        """The vector times the power of two that brings its largest
        component into [0.5, 1).  Exact for normal floats, so the cosine
        keeps every bit, and it keeps squares of tiny vectors (1e-158, say)
        out of underflow."""
        top = max(map(abs, self.vector), default=0.0)
        shift = -math.frexp(top)[1]
        return tuple(math.ldexp(v, shift) for v in self.vector)

    @functools.cached_property
    def norm(self) -> float:
        """The Euclidean norm of `scaled`: its squares added left to right,
        as cosine_similarity adds its products."""
        total = 0.0
        for x in self.scaled:
            total += x * x
        return math.sqrt(total)


class VectorIndex(NamedTuple):
    entries: tuple  # of (action_id, Embedding)
    schemas: dict  # action_id -> ActionSchema


# --- parsing ---------------------------------------------------------------

_PRED_TEXT = r"(!?)(\w+)\(([^)]*)\)"
_PRED_RE = re.compile(_PRED_TEXT)
# A PRECONDITIONS or EFFECTS field: predicates separated by commas.
_PRED_LIST_RE = re.compile(rf"{_PRED_TEXT}(?:\s*,\s*{_PRED_TEXT})*")
# The first line of a field of an action block.
_FIELD_RE = re.compile(r"(ACTION_ID|DESCRIPTION|ARGS|PRECONDITIONS|EFFECTS):(.*)$")


def parse_predicate(text: str, lineno: int) -> Predicate:
    """One predicate of the closed vocabulary, `!` for a negated one;
    ParseError, at line `lineno`, for any other text."""
    m = _PRED_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad predicate syntax: {text!r}", line=lineno)
    neg, name, argstr = m.groups()
    if name not in PREDICATES:
        raise ParseError(f"unknown predicate {name!r}", line=lineno)
    args = tuple(a.strip() for a in argstr.split(",")) if argstr.strip() else ()
    if len(args) != PREDICATES[name]:
        raise ParseError(f"{name} expects {PREDICATES[name]} args, got {len(args)}",
                         line=lineno)
    return Predicate(name, args, negated=bool(neg))


def _parse_predicates(value, lineno, declared):
    preds = []
    if not value:
        return ()
    if not _PRED_LIST_RE.fullmatch(value):
        raise ParseError(f"bad predicate list: {value!r}", line=lineno)
    for m in _PRED_RE.finditer(value):
        pred = parse_predicate(m.group(), lineno)
        for term in pred.args:
            # `?X` marks an explicit variable, which must be declared.
            if term.startswith("?") and term[1:] not in declared:
                raise UndeclaredVariable(
                    f"variable {term} not declared in ARGS", line=lineno
                )
        preds.append(pred)
    return tuple(preds)


def parse_action_file(text: str) -> list:
    """Parse blank-line-separated action blocks into schemas (file order).
    `#` lines are comments; a block of comments only is skipped."""
    schemas = []
    seen = set()
    numbered = enumerate(text.split("\n"), start=1)
    for blank, block in itertools.groupby(numbered, key=lambda item: not item[1].strip()):
        if blank:
            continue
        block = [(ln, raw.strip()) for ln, raw in block]
        start_line = block[0][0]
        fields = {}
        current = None
        for ln, line in block:
            if line.startswith("#"):
                continue
            m = _FIELD_RE.match(line)
            if m:
                current = m.group(1)
                if current in fields:
                    raise ParseError(f"duplicate field {current}", line=ln)
                fields[current] = (ln, m.group(2).strip())
            elif current is not None:
                prev_ln, prev = fields[current]
                fields[current] = (prev_ln, (prev + " " + line).strip())
            else:
                raise ParseError(f"text outside a field: {line!r}", line=ln)
        if not fields:
            continue
        if "ACTION_ID" not in fields:
            raise ParseError("action block missing ACTION_ID", line=start_line)
        id_ln, action_id = fields["ACTION_ID"]
        if not re.fullmatch(r"[a-z][a-z0-9_]*", action_id):
            raise ParseError(f"bad action id {action_id!r}", line=id_ln)
        if action_id in seen:
            raise DuplicateActionId(action_id, line=id_ln)
        seen.add(action_id)
        args = []
        args_ln, args_text = fields.get("ARGS", (start_line, ""))
        if args_text:
            for pair in args_text.split(","):
                if ":" not in pair:
                    raise ParseError(f"bad ARGS entry {pair!r}", line=args_ln)
                name, dom = (p.strip() for p in pair.split(":", 1))
                if dom not in VALUE_DOMAINS:
                    raise ParseError(f"bad value domain {dom!r}", line=args_ln)
                if name in (n for n, _ in args):
                    raise ParseError(f"duplicate arg {name}", line=args_ln)
                args.append((name, dom))
        declared = {name for name, _ in args} | {ACTING_AGENT}
        pre_ln, pre_text = fields.get("PRECONDITIONS", (start_line, ""))
        eff_ln, eff_text = fields.get("EFFECTS", (start_line, ""))
        schemas.append(
            ActionSchema(
                action_id=action_id,
                description=fields.get("DESCRIPTION", (start_line, ""))[1],
                args=tuple(args),
                preconditions=_parse_predicates(pre_text, pre_ln, declared),
                effects=_parse_predicates(eff_text, eff_ln, declared),
            )
        )
    return schemas


def classify(schema: ActionSchema) -> str | None:
    """The kind of an action, from its schema's add effects; None when they
    fit no single kind (two position or ball facts, a ball moved to a
    waypoint without a pass, another agent moved, ...)."""
    adds = [p for p in schema.effects if not p.negated]
    placed = [(p.name, p.args[0].lstrip("?")) for p in adds
              if p.name in ("at", "ball_at", "ball_held_by")]
    passes = any(p.name == "has_passed" for p in adds)
    if not placed:
        return INSTANT
    if placed == [("at", ACTING_AGENT)]:
        return MOVE
    if placed == [("ball_held_by", ACTING_AGENT)]:
        return RECEIVE
    if placed == [("ball_at", "OPPONENT_GOAL")]:
        return None if passes else KICK
    if len(placed) == 1 and placed[0][0] == "ball_at" and passes:
        return PASS
    return None


@functools.cache
def packaged_schemas():
    """The packaged `actions.txt`, parsed once: action_id -> ActionSchema."""
    text = read_text(os.path.join(DATA_DIR, "actions.txt"))
    return MappingProxyType({s.action_id: s for s in parse_action_file(text)})


@functools.lru_cache(maxsize=256)  # per distinct schema, rendered into every grounding prompt
def serialize_action(schema: ActionSchema) -> str:
    lines = [
        f"ACTION_ID: {schema.action_id}",
        f"DESCRIPTION: {schema.description}",
        "ARGS: " + ", ".join(f"{n} : {d}" for n, d in schema.args),
        "PRECONDITIONS: " + ", ".join(str(p) for p in schema.preconditions),
        "EFFECTS: " + ", ".join(str(p) for p in schema.effects),
    ]
    return "\n".join(lines)


def serialize_actions(schemas) -> str:
    return "\n\n".join(serialize_action(s) for s in schemas) + "\n"


# --- embedding providers ---------------------------------------------------

class MockEmbeddingProvider:
    """The deterministic token-hash bag-of-words embedding of every run.

    Each token contributes a hash-derived continuous weight to one of `dim`
    buckets, so distinct texts essentially never collide exactly.  Each
    distinct text is embedded once per provider: the provider keeps the
    (frozen) Embedding it returned, one per text, for its own lifetime.
    """

    dim = 16

    def __init__(self):
        self._embedded = {}

    def embed(self, text: str):
        emb = self._embedded.get(text)
        if emb is None:
            emb = self._embedded[text] = self._embed(text)
        return emb

    def _embed(self, text):
        import hashlib  # here: only a call that hashes loads OpenSSL
        vec = [0.0] * self.dim
        for token in re.findall(r"[a-z0-9_]+", text.lower()):
            h = hashlib.sha256(token.encode()).digest()
            idx = h[0] % self.dim
            sign = 1.0 if h[1] % 2 else -1.0
            vec[idx] += sign * (1.0 + h[2] / 255.0)
        if all(v == 0.0 for v in vec):
            vec[0] = 1.0
        return Embedding(tuple(vec), self.dim)


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """The cosine of the two power-of-two-scaled vectors; each embedding
    scales itself and takes its norm once, on first use.  The products are
    added left to right on every Python version: sum() compensates from
    Python 3.12, which moves the last bit of some cosines."""
    if a.dim != b.dim:
        raise DimMismatch(f"{a.dim} != {b.dim}")
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    dot = 0.0
    for x, y in zip(a.scaled, b.scaled):
        dot += x * y
    return dot / (na * nb)


def build_index(schemas, provider) -> VectorIndex:
    entries = []
    for schema in schemas:
        entries.append((schema.action_id, provider.embed(schema.description)))
    return VectorIndex(tuple(entries), {s.action_id: s for s in schemas})


def retrieve_actions(query: str, index: VectorIndex, provider, k: int = 8):
    """The k schemas most cosine-similar to the query, descending; ties
    broken lexicographically by action id.  Exact full scan."""
    if k < 0:
        raise ConfigInvalid(f"k must be >= 0, got {k}")
    if k == 0:
        return []
    if not index.entries:
        raise EmptyIndex("cannot retrieve from an empty index")
    q = provider.embed(query)
    scored = [
        (cosine_similarity(q, emb), action_id)
        for action_id, emb in index.entries
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [index.schemas[action_id] for _, action_id in scored[:k]]
