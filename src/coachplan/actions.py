"""STRIPS-like action schemas, embeddings and exact k-NN retrieval.

Action definitions are parsed from a blank-line-separated text format,
embedded through a pluggable provider, and retrieved by cosine similarity
with a full scan (stores hold tens of actions; no ANN structure).
"""
from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

from .domain import parse_finite
from .errors import (
    ConfigInvalid,
    DimMismatch,
    DuplicateActionId,
    EmptyIndex,
    ParseError,
    ProviderError,
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


@dataclass(frozen=True)
class Predicate:
    name: str
    args: tuple
    negated: bool = False

    def __post_init__(self):
        if self.name not in PREDICATES:
            raise ValueError(f"unknown predicate {self.name!r}")
        if len(self.args) != PREDICATES[self.name]:
            raise ValueError(
                f"{self.name} expects {PREDICATES[self.name]} args, got {len(self.args)}"
            )

    def __str__(self):
        prefix = "!" if self.negated else ""
        return f"{prefix}{self.name}({','.join(self.args)})"


@dataclass(frozen=True)
class ActionSchema:
    action_id: str
    description: str
    args: tuple  # of (arg_name, value_domain)
    preconditions: tuple  # of Predicate
    effects: tuple  # of Predicate

    def arg_names(self):
        return [name for name, _ in self.args]


@dataclass(frozen=True)
class Embedding:
    vector: tuple
    dim: int

    def __post_init__(self):
        if len(self.vector) != self.dim:
            raise ValueError("vector length does not match dim")
        if any(not math.isfinite(v) for v in self.vector):
            raise ValueError("embedding contains NaN/Inf")


@dataclass(frozen=True)
class VectorIndex:
    entries: tuple  # of (action_id, Embedding)
    dim: int
    schemas: dict  # action_id -> ActionSchema


# --- parsing ---------------------------------------------------------------

_PRED_RE = re.compile(r"(!?)(\w+)\(([^)]*)\)")


def parse_predicate(text: str) -> Predicate:
    m = _PRED_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad predicate syntax: {text!r}")
    neg, name, argstr = m.groups()
    args = tuple(a.strip() for a in argstr.split(",")) if argstr.strip() else ()
    return Predicate(name, args, negated=bool(neg))


def _parse_predicates(value, lineno, declared):
    preds = []
    if not value.strip():
        return ()
    for chunk in re.findall(r"!?\w+\([^)]*\)", value):
        try:
            pred = parse_predicate(chunk)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        for term in pred.args:
            # `?X` marks an explicit variable, which must be declared.
            if term.startswith("?") and term[1:] not in declared:
                raise UndeclaredVariable(
                    f"variable {term} not declared in ARGS", line=lineno
                )
        preds.append(pred)
    return tuple(preds)


def parse_action_file(text: str) -> list:
    """Parse blank-line-separated action blocks into schemas (file order)."""
    schemas = []
    seen = set()
    block = []
    start_line = 1

    def flush(block_lines, lineno):
        block_lines = [(ln, line) for ln, line in block_lines if not line.startswith("#")]
        if not block_lines:
            return
        fields = {}
        current = None
        for ln, line in block_lines:
            m = re.match(r"(ACTION_ID|DESCRIPTION|ARGS|PRECONDITIONS|EFFECTS):(.*)$", line)
            if m:
                current = m.group(1)
                if current in fields:
                    raise ParseError(f"duplicate field {current}", line=ln)
                fields[current] = (ln, m.group(2).strip())
            elif current is not None:
                prev_ln, prev = fields[current]
                fields[current] = (prev_ln, (prev + " " + line.strip()).strip())
            else:
                raise ParseError(f"text outside a field: {line!r}", line=ln)
        if "ACTION_ID" not in fields:
            raise ParseError("action block missing ACTION_ID", line=lineno)
        action_id = fields["ACTION_ID"][1]
        if not re.fullmatch(r"[a-z][a-z0-9_]*", action_id):
            raise ParseError(f"bad action id {action_id!r}", line=fields["ACTION_ID"][0])
        if action_id in seen:
            raise DuplicateActionId(action_id, line=fields["ACTION_ID"][0])
        seen.add(action_id)
        description = fields.get("DESCRIPTION", (lineno, ""))[1]
        args = []
        args_ln, args_text = fields.get("ARGS", (lineno, ""))
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
        pre_ln, pre_text = fields.get("PRECONDITIONS", (lineno, ""))
        eff_ln, eff_text = fields.get("EFFECTS", (lineno, ""))
        schemas.append(
            ActionSchema(
                action_id=action_id,
                description=description,
                args=tuple(args),
                preconditions=_parse_predicates(pre_text, pre_ln, declared),
                effects=_parse_predicates(eff_text, eff_ln, declared),
            )
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            if block:
                flush(block, start_line)
                block = []
        else:
            if not block:
                start_line = lineno
            block.append((lineno, line.strip()))
    if block:
        flush(block, start_line)
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
    text = resources.files("coachplan.data").joinpath("actions.txt").read_text()
    return MappingProxyType({s.action_id: s for s in parse_action_file(text)})


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
    """Deterministic token-hash bag-of-words embedding for tests.

    Each token contributes a hash-derived continuous weight to one of `dim`
    buckets, so distinct texts essentially never collide exactly.
    """

    def __init__(self, dim: int = 16):
        self.dim = dim

    def embed(self, text: str):
        vec = [0.0] * self.dim
        for token in re.findall(r"[a-z0-9_]+", text.lower()):
            h = hashlib.sha256(token.encode()).digest()
            idx = h[0] % self.dim
            sign = 1.0 if h[1] % 2 else -1.0
            vec[idx] += sign * (1.0 + h[2] / 255.0)
        if all(v == 0.0 for v in vec):
            vec[0] = 1.0
        return Embedding(tuple(vec), self.dim)


class RecordedEmbeddingProvider:
    """Replays embeddings recorded on disk, keyed by sha256 of the text.

    File format: `<key> <v1> <v2> ... <vdim>` per line.
    """

    def __init__(self, path):
        self.vectors = {}
        self.dim = None
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                vec = tuple(parse_finite(v, lineno) for v in parts[1:])
                if self.dim is None:
                    self.dim = len(vec)
                elif len(vec) != self.dim:
                    raise ProviderError("inconsistent embedding dims in recording")
                self.vectors[parts[0]] = vec
        if self.dim is None:
            raise ProviderError(f"no embeddings recorded in {path}")

    @staticmethod
    def key_for(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def embed(self, text: str):
        key = self.key_for(text)
        if key not in self.vectors:
            raise ProviderError(f"no recorded embedding for key {key}")
        return Embedding(self.vectors[key], self.dim)


def _power_of_two_scaled(vector):
    """The vector times the power of two that brings its largest component
    into [0.5, 1).  Exact for normal floats, so the cosine keeps every bit,
    and it keeps squares of tiny vectors (1e-158, say) out of underflow."""
    top = max(map(abs, vector), default=0.0)
    shift = -math.frexp(top)[1]
    return [math.ldexp(v, shift) for v in vector]


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    if a.dim != b.dim:
        raise DimMismatch(f"{a.dim} != {b.dim}")
    va, vb = _power_of_two_scaled(a.vector), _power_of_two_scaled(b.vector)
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(y * y for y in vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    return dot / (na * nb)


def build_index(schemas, provider) -> VectorIndex:
    entries = []
    dim = None
    for schema in schemas:
        emb = provider.embed(schema.description)
        if dim is None:
            dim = emb.dim
        elif emb.dim != dim:
            raise DimMismatch("provider changed dimension mid-build")
        entries.append((schema.action_id, emb))
    return VectorIndex(tuple(entries), dim or 0, {s.action_id: s for s in schemas})


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
