import math
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan.actions import (
    ACTING_AGENT,
    INSTANT,
    KICK,
    MOVE,
    PASS,
    RECEIVE,
    VALUE_DOMAINS,
    ActionSchema,
    MockEmbeddingProvider,
    _parse_predicates,
    classify,
    packaged_schemas,
    parse_predicate,
    serialize_action,
    serialize_actions,
)
from coachplan.errors import (
    DimMismatch,
    DuplicateActionId,
    EmptyIndex,
    ParseError,
    UndeclaredVariable,
    ZeroVector,
)
from coachplan.domain import DATA_DIR, read_text
from coachplan.pipeline import DEFAULT_GOAL, retrieval_query

from conftest import ACTION_LINE_INSERTS, mutated_lines

SAMPLE = """\
ACTION_ID: pass_the_ball
DESCRIPTION: Pass the ball to a teammate.
ARGS: SENDER : ROLE, RECEIVER : ROLE
PRECONDITIONS: ball_held_by(SENDER), !has_passed(SENDER)
EFFECTS: !ball_held_by(SENDER), ball_at(RECEIVER), has_passed(SENDER)
"""


class TestParseActionFile:
    def test_sample_block(self):
        (schema,) = cp.parse_action_file(SAMPLE)
        assert schema.action_id == "pass_the_ball"
        assert schema.args == (("SENDER", "ROLE"), ("RECEIVER", "ROLE"))
        assert len(schema.preconditions) == 2
        assert schema.preconditions[1].negated
        assert len(schema.effects) == 3

    def test_round_trip(self, schemas):
        text = serialize_actions(list(schemas.values()))
        again = cp.parse_action_file(text)
        assert {s.action_id: s for s in again} == schemas

    def test_schema_text_follows_the_content_not_the_id(self):
        # serialize_action keeps each schema's text: two schemas with one
        # action id but other descriptions or effects each get their own.
        (schema,) = cp.parse_action_file(SAMPLE)
        redescribed = schema._replace(description="Lob the ball to a teammate.")
        reeffected = schema._replace(effects=schema.effects[:2])
        texts = [serialize_action(s) for s in (schema, redescribed, reeffected, schema)]
        assert "DESCRIPTION: Pass the ball to a teammate." in texts[0]
        assert "DESCRIPTION: Lob the ball to a teammate." in texts[1]
        assert texts[2].endswith("EFFECTS: !ball_held_by(SENDER), ball_at(RECEIVER)")
        assert texts[0].endswith("has_passed(SENDER)") and texts[3] == texts[0]
        assert len(set(texts)) == 3

    def test_duplicate_id(self):
        with pytest.raises(DuplicateActionId):
            cp.parse_action_file(SAMPLE + "\n" + SAMPLE)

    def test_bad_predicate_arity(self):
        bad = SAMPLE.replace("ball_held_by(SENDER)", "ball_held_by(SENDER,X)", 1)
        with pytest.raises(ParseError):
            cp.parse_action_file(bad)

    def test_unknown_predicate(self):
        bad = SAMPLE.replace("ball_held_by", "holds", 1)
        with pytest.raises(ParseError):
            cp.parse_action_file(bad)

    def test_undeclared_variable(self):
        bad = SAMPLE.replace("ball_held_by(SENDER)", "ball_held_by(?X)", 1)
        with pytest.raises(UndeclaredVariable):
            cp.parse_action_file(bad)

    def test_error_carries_line_number(self):
        bad = "ACTION_ID: BadName\n"
        with pytest.raises(ParseError) as exc:
            cp.parse_action_file(bad)
        assert exc.value.line == 1

    def test_comments_between_blocks(self, schemas):
        text = "# preamble\n\n" + SAMPLE
        (schema,) = cp.parse_action_file(text)
        assert schema.action_id == "pass_the_ball"

    def test_default_library(self, schemas):
        assert "move_to" in schemas
        assert "kick_to_goal" in schemas
        kick = schemas["kick_to_goal"]
        assert any(p.name == "ball_held_by" for p in kick.preconditions)

    def test_field_continued_on_the_next_line(self):
        # A line that starts no field continues the one above it.
        one_line = cp.parse_action_file(SAMPLE)
        wrapped = SAMPLE.replace("PRECONDITIONS: ball_held_by(SENDER),",
                                 "PRECONDITIONS: ball_held_by(SENDER),\n  ", 1)
        assert wrapped.count("\n") == SAMPLE.count("\n") + 1
        assert cp.parse_action_file(wrapped) == one_line

    @pytest.mark.parametrize("field, value", [
        ("PRECONDITIONS", "ball_held_by AGENT"),
        ("EFFECTS", "ball_at(OPPONENT_GOAL) junk"),
        ("EFFECTS", "!ball_held_by(AGENT) ball_at(OPPONENT_GOAL)"),
    ])
    def test_field_holds_only_predicates(self, field, value):
        # Text that is no predicate fails the parse; it is not dropped.
        text = f"ACTION_ID: shoot\n{field}: {value}\n"
        with pytest.raises(ParseError, match="bad predicate list") as exc:
            cp.parse_action_file(text)
        assert exc.value.line == 2


def test_parse_predicate_negation():
    pred = parse_predicate("!has_passed(STRIKER)", 1)
    assert pred.negated and pred.args == ("STRIKER",)
    assert str(pred) == "!has_passed(STRIKER)"


class TestCosine:
    def test_identical(self):
        e = cp.Embedding((1.0, 2.0, 3.0), 3)
        assert cp.cosine_similarity(e, e) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = cp.Embedding((1.0, 0.0), 2)
        b = cp.Embedding((0.0, 1.0), 2)
        assert cp.cosine_similarity(a, b) == pytest.approx(0.0)

    def test_opposite(self):
        a = cp.Embedding((2.0, -1.0), 2)
        b = cp.Embedding((-2.0, 1.0), 2)
        assert cp.cosine_similarity(a, b) == pytest.approx(-1.0)

    def test_zero_vector(self):
        a = cp.Embedding((0.0, 0.0), 2)
        b = cp.Embedding((1.0, 0.0), 2)
        with pytest.raises(ZeroVector):
            cp.cosine_similarity(a, b)

    def test_dim_mismatch(self):
        a = cp.Embedding((1.0,), 1)
        b = cp.Embedding((1.0, 0.0), 2)
        with pytest.raises(DimMismatch):
            cp.cosine_similarity(a, b)

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.floats(0.01, 100.0),
    )
    def test_scale_invariance(self, vec, scale):
        if all(v == 0 for v in vec):
            return
        a = cp.Embedding(tuple(vec), 4)
        b = cp.Embedding(tuple(v * scale for v in vec), 4)
        if math.sqrt(sum(v * v for v in b.vector)) == 0.0:
            return
        assert cp.cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_vectors(self):
        # Squaring 2.76e-158 underflows into subnormals; the cosine of a
        # vector with half of itself must still be 1.
        a = cp.Embedding((0.0, 0.0, 0.0, 2.762167180876126e-158), 4)
        b = cp.Embedding(tuple(v * 0.5 for v in a.vector), 4)
        assert cp.cosine_similarity(a, b) == 1.0

    def test_bounds(self):
        rng = random.Random(2)
        for _ in range(100):
            a = cp.Embedding(tuple(rng.uniform(-1, 1) for _ in range(8)), 8)
            b = cp.Embedding(tuple(rng.uniform(-1, 1) for _ in range(8)), 8)
            assert -1.0 - 1e-9 <= cp.cosine_similarity(a, b) <= 1.0 + 1e-9

    def test_sums_left_to_right_on_every_python(self):
        # Added left to right, the products 0.1, 0.2 and 0.3 round to
        # 0.6000000000000001; a compensated sum gives 0.6.
        a = cp.Embedding((0.1, 0.2, 0.3), 3)
        b = cp.Embedding((1.0, 1.0, 1.0), 3)
        assert cp.cosine_similarity(a, b) == 0.9258200997725515
        assert a.norm == 0.7483314773547883

    def test_golden_retrieval_scores(self, domain):
        # The golden query's cosine with each packaged action, bit for bit.
        provider = MockEmbeddingProvider()
        query = provider.embed(retrieval_query(DEFAULT_GOAL, domain))
        scores = {s.action_id: cp.cosine_similarity(query, provider.embed(s.description)).hex()
                  for s in packaged_schemas().values()}
        assert scores == {
            "move_to": "0x1.5d952d4321e46p-2",
            "pass_the_ball": "-0x1.261d455feafd5p-5",
            "receive_ball": "-0x1.d5b6b729a0ecap-3",
            "kick_to_goal": "0x1.76f24d37f7786p-3",
            "align_to_goal": "0x1.12bfb703de386p-2",
            "dribble_to": "0x1.883ba955d14adp-2",
            "defend_goal": "0x1.8c88ebe799ec4p-2",
            "mark_opponent": "-0x1.2f603270c341ep-2",
        }


def _reference_cosine(u, v):
    """The cosine from the raw vectors: each one times the power of two that
    brings its largest component into [0.5, 1), then the dot product and
    the two norms as sums of products added left to right in component
    order."""
    def scaled(w):
        shift = -math.frexp(max(abs(x) for x in w))[1]
        return [math.ldexp(x, shift) for x in w]

    def dot(p, q):
        total = 0.0
        for x, y in zip(p, q):
            total += x * y
        return total

    su, sv = scaled(u), scaled(v)
    return dot(su, sv) / (math.sqrt(dot(su, su)) * math.sqrt(dot(sv, sv)))


# Components from tiny (squares underflow) to huge (squares overflow): a
# magnitude shared by the vector times a mantissa, or any finite float.
_MAGNITUDES = st.sampled_from([1e-158, 2.762167180876126e-158, 1e-3, 1.0, 1e150, 1e300])
_MANTISSAS = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _vector_pairs(draw):
    dim = draw(st.integers(1, 12))
    pair = []
    for _ in range(2):
        if draw(st.booleans()):
            scale = draw(_MAGNITUDES)
            vec = [m * scale for m in draw(st.lists(_MANTISSAS, min_size=dim, max_size=dim))]
        else:
            vec = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=dim, max_size=dim))
        if not any(vec):
            vec[draw(st.integers(0, dim - 1))] = draw(_MAGNITUDES)
        pair.append(tuple(vec))
    return dim, pair[0], pair[1]


class TestCachedCosine:
    @given(_vector_pairs())
    def test_bit_identical_to_reference(self, case):
        dim, u, v = case
        got = cp.cosine_similarity(cp.Embedding(u, dim), cp.Embedding(v, dim))
        assert got.hex() == _reference_cosine(u, v).hex()

    @given(_vector_pairs())
    def test_warm_embeddings_match_fresh_copies(self, case):
        dim, u, v = case
        a, b = cp.Embedding(u, dim), cp.Embedding(v, dim)
        cp.cosine_similarity(a, b)  # a and b keep their scaled vectors and norms
        for x, y in [(a, b), (b, a), (a, cp.Embedding(v, dim)), (cp.Embedding(u, dim), b)]:
            fresh = cp.cosine_similarity(cp.Embedding(x.vector, dim), cp.Embedding(y.vector, dim))
            assert cp.cosine_similarity(x, y).hex() == fresh.hex()

    def test_dim_mismatch_before_zero_vector(self):
        with pytest.raises(DimMismatch):
            cp.cosine_similarity(cp.Embedding((0.0,), 1), cp.Embedding((0.0, 0.0), 2))

    @given(st.lists(st.text(max_size=30), max_size=12))
    def test_memoizing_provider_matches_fresh(self, texts):
        shared = MockEmbeddingProvider()
        for text in texts + texts:
            emb = shared.embed(text)
            assert emb == MockEmbeddingProvider().embed(text)
            assert shared.embed(text) is emb


class TestRetrieve:
    def test_k_zero(self, schemas):
        provider = MockEmbeddingProvider()
        index = cp.build_index(list(schemas.values()), provider)
        assert cp.retrieve_actions("anything", index, provider, k=0) == []

    def test_k_exceeds_store(self, schemas):
        provider = MockEmbeddingProvider()
        index = cp.build_index(list(schemas.values()), provider)
        out = cp.retrieve_actions("kick the ball", index, provider, k=999)
        assert len(out) == len(schemas)
        assert len({s.action_id for s in out}) == len(schemas)

    def test_empty_index(self):
        provider = MockEmbeddingProvider()
        index = cp.build_index([], provider)
        with pytest.raises(EmptyIndex):
            cp.retrieve_actions("x", index, provider, k=1)

    def test_exact_description_ranks_first(self, schemas):
        provider = MockEmbeddingProvider()
        index = cp.build_index(list(schemas.values()), provider)
        target = schemas["kick_to_goal"]
        out = cp.retrieve_actions(target.description, index, provider, k=1)
        assert out[0].action_id == "kick_to_goal"

    def test_tie_break_lexicographic(self):
        provider = MockEmbeddingProvider()
        # Same description text embeds identically, so similarity ties.
        mk = lambda aid: cp.ActionSchema(aid, "identical text", (), (), ())
        index = cp.build_index([mk("zeta"), mk("alpha")], provider)
        out = cp.retrieve_actions("identical text", index, provider, k=2)
        assert [s.action_id for s in out] == ["alpha", "zeta"]

    def test_deterministic(self, schemas):
        provider = MockEmbeddingProvider()
        index = cp.build_index(list(schemas.values()), provider)
        a = cp.retrieve_actions("score a goal", index, provider, k=5)
        b = cp.retrieve_actions("score a goal", index, provider, k=5)
        assert [s.action_id for s in a] == [s.action_id for s in b]


class TestProviders:
    def test_mock_is_deterministic(self):
        p = MockEmbeddingProvider()
        assert p.embed("kick the ball") == p.embed("kick the ball")

    def test_mock_never_zero(self):
        p = MockEmbeddingProvider()
        assert any(v != 0.0 for v in p.embed("").vector)


# --- action kinds, read from the schemas' add effects ----------------------

def one_schema(effects, args=""):
    text = f"ACTION_ID: custom\nARGS: {args}\nEFFECTS: {effects}\n"
    return cp.parse_action_file(text)[0]


def test_packaged_action_kinds(schemas):
    assert {aid: classify(s) for aid, s in schemas.items()} == {
        "move_to": MOVE,
        "pass_the_ball": PASS,
        "receive_ball": RECEIVE,
        "kick_to_goal": KICK,
        "align_to_goal": INSTANT,
        "dribble_to": MOVE,
        "defend_goal": MOVE,
        "mark_opponent": MOVE,
    }


@pytest.mark.parametrize("effects, args, kind", [
    ("ball_at(OPPONENT_GOAL)", "", KICK),
    ("!ball_held_by(AGENT), ball_at(OPPONENT_GOAL)", "", KICK),
    ("ball_at(R), has_passed(AGENT)", "R : ROLE", PASS),
    ("ball_held_by(?AGENT)", "", RECEIVE),
    ("at(AGENT,T)", "T : WAYPOINT", MOVE),
    ("at(AGENT,LEFT_WING), aligned_to_goal(AGENT)", "", MOVE),
    ("", "", INSTANT),
    ("aligned_to_goal(AGENT), !at(AGENT,OUR_GOAL)", "", INSTANT),
    # Fit no single kind:
    ("at(AGENT,T), ball_at(T)", "T : WAYPOINT", None),
    ("ball_at(T)", "T : WAYPOINT", None),
    ("ball_at(OPPONENT_GOAL), has_passed(AGENT)", "", None),
    ("at(R,T)", "R : ROLE, T : WAYPOINT", None),
    ("ball_held_by(R)", "R : ROLE", None),
])
def test_classify(effects, args, kind):
    assert classify(one_schema(effects, args)) == kind


def test_packaged_schemas_parsed_once(schemas):
    assert packaged_schemas() is packaged_schemas()
    assert dict(packaged_schemas()) == schemas
    with pytest.raises(TypeError):
        packaged_schemas()["shoot"] = None


# --- parse_action_file against the block walker it replaced ----------------

def oracle_parse_action_file(text):
    """The oracle for parse_action_file, as an earlier version had it: the
    lines of each block gathered in a list by hand, and each block parsed
    by a nested `flush`, called at each blank line and at the end."""
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


PACKAGED_ACTIONS_TEXT = read_text(os.path.join(DATA_DIR, "actions.txt"))


def parse_outcome(parse, text):
    """The schemas parse gives for text, or its error's type, message and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def test_packaged_actions_match_the_oracle():
    assert cp.parse_action_file(PACKAGED_ACTIONS_TEXT) == oracle_parse_action_file(
        PACKAGED_ACTIONS_TEXT)


@settings(max_examples=500, deadline=None)
@given(text=mutated_lines(PACKAGED_ACTIONS_TEXT, ACTION_LINE_INSERTS))
def test_parse_action_file_matches_the_oracle(text):
    """Lines of the packaged actions.txt dropped, duplicated or swapped, and
    blank, whitespace-only, comment, junk and field lines inserted: the same
    schemas, or the same error type, message and line."""
    assert parse_outcome(cp.parse_action_file, text) == parse_outcome(
        oracle_parse_action_file, text)
