import itertools
import math
import random
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan.actions import MockEmbeddingProvider
from coachplan.coach import (
    ADVICE_HEADER,
    SYSTEM_TEXT,
    TACTICS_SENTENCE,
    build_coach_prompt,
    describe_roles,
    describe_waypoints,
    fill_template,
    parse_advice_block,
    parse_scenario_block,
    retrieve_roles,
)
from coachplan.domain import BALL, OWN, serialize_scenario
from coachplan.errors import (
    CardinalityMismatch,
    DuplicateSubject,
    MissingAdviceBlock,
    MissingScenarioBlock,
    UnknownSubject,
    UnknownWaypoint,
    UnresolvedPlaceholder,
)

from conftest import parseable_scenarios

GOAL = cp.PlanningGoal("The own team should score a goal in the opponent's goal.")

RESPONSE = """\
SCENARIO:
STRIKER is at CENTER_FIELD
JOLLY is at FORWARD_LEFT
OPPONENT_1 is at KICKING_POSITION
BALL is at CENTER_FIELD

COACH ADVICE:
1. JOLLY moves to the kicking position.
2. STRIKER passes the ball to JOLLY."""


def retrieved(schemas):
    return list(schemas.values())


class TestBuildCoachPrompt:
    def test_slots_filled(self, domain, schemas):
        req = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics())
        assert req.system_text == SYSTEM_TEXT
        for slot in ("[ROLES]", "[WAYPOINTS]", "[ACTIONS]", "[PLANNING_GOAL]",
                     "[TACTICS_SENTENCE]", "[SCENARIO_EXAMPLE]"):
            assert slot not in req.user_text
        assert GOAL.text in req.user_text
        assert "STRIKER" in req.user_text
        assert "move_to" in req.user_text

    def test_tactics_included_when_set(self, domain, schemas):
        tactics = cp.Tactics("play on the wings")
        req = build_coach_prompt(domain, retrieved(schemas), GOAL, tactics)
        assert "play on the wings" in req.user_text

    def test_tactics_omitted_when_empty(self, domain, schemas):
        req = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics())
        assert "tactics" not in req.user_text.lower()
        assert "\n\n\n" not in req.user_text

    def test_empty_retrieval_rejected(self, domain):
        with pytest.raises(UnresolvedPlaceholder):
            build_coach_prompt(domain, [], GOAL, cp.Tactics())

    def test_fingerprint_stable_and_sensitive(self, domain, schemas):
        a = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics())
        b = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics())
        c = build_coach_prompt(domain, retrieved(schemas),
                               cp.PlanningGoal("keep possession"), cp.Tactics())
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


    def test_tactics_sentence_left_out_keeps_one_blank_line(self, domain, schemas):
        req = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics())
        assert f"objective {GOAL.text}\n\nRespect the sequential" in req.user_text

    @pytest.mark.parametrize("drop_roles, tactics", [
        (True, ""),
        (False, "press high\n\n\n\nthen play on the wings"),
        (True, "\n\n\npress high"),
    ])
    def test_blank_line_runs_collapse(self, domain, schemas, drop_roles, tactics):
        # A domain file with no ROLE line leaves [ROLES] empty, and tactics
        # may carry their own blank lines: both leave runs of newlines that
        # the builder folds to one blank line, as an unconditional sweep does.
        if drop_roles:
            text = resources.files("coachplan.data").joinpath("domain.txt").read_text()
            domain = cp.parse_domain_file("\n".join(
                line for line in text.splitlines() if not line.startswith("ROLE")))
        req = build_coach_prompt(domain, retrieved(schemas), GOAL, cp.Tactics(tactics))
        assert req.user_text == swept_coach_text(domain, retrieved(schemas), GOAL,
                                                 cp.Tactics(tactics))
        assert "\n\n\n" not in req.user_text


def swept_coach_text(domain, retrieved_actions, goal, tactics):
    """The coach prompt's text as filled by `oracle_fill`, then swept for
    runs of blank lines whether or not it holds one."""
    sentence = (TACTICS_SENTENCE.replace("[TACTICS]", tactics.text.strip())
                if tactics.text.strip() else "")
    text = oracle_fill("coach.txt", {
        "[ROLES]": describe_roles(domain),
        "[WAYPOINTS]": describe_waypoints(domain),
        "[ACTIONS]": ", ".join(s.action_id for s in retrieved_actions),
        "[PLANNING_GOAL]": goal.text,
        "[TACTICS_SENTENCE]": sentence,
    })
    return re.sub(r"\n{3,}", "\n\n", text)


def oracle_fill(name, slots):
    """The oracle for fill_template: one regex substitution over the
    template's text, a callback looking up each `[SLOT]` it meets.  Every
    key must be one of the template's slots."""
    text = resources.files("coachplan.data.templates").joinpath(name).read_text()
    for slot in slots:
        if slot not in template_slots(name):
            raise UnresolvedPlaceholder(f"template {name} has no slot {slot}")
    return re.sub(r"\[[A-Z_]+\]", lambda m: slots.get(m.group(0), m.group(0)), text)


def template_slots(name):
    text = resources.files("coachplan.data.templates").joinpath(name).read_text()
    return sorted(set(re.findall(r"\[[A-Z_]+\]", text)))


TEMPLATES = ("coach.txt", "grounding.txt", "sync.txt")
ALL_SLOTS = sorted({slot for name in TEMPLATES for slot in template_slots(name)})
# Slot values: other slot names, regex replacement escapes, stray brackets,
# line breaks and the empty string.
SLOT_VALUE_PIECES = ALL_SLOTS + ["\\1", "\\g<0>", "\\", "[", "]", "[]", "[a]",
                                 "\n", "\n\n\n", "", "x", " ", "$1", "\u00e9"]
# Keys that are not slots of the template at hand, besides the other
# templates' slots: names no template has, and template text that is no slot.
NOT_SLOTS = ["[NOT_A_SLOT]", "SCENARIO:", "[a]"]


def fill_outcome(fill, name, slots):
    try:
        return fill(name, slots)
    except UnresolvedPlaceholder as exc:
        return ("UnresolvedPlaceholder", str(exc))


@settings(max_examples=300)
@given(name=st.sampled_from(TEMPLATES), data=st.data())
def test_fill_template_matches_substitution_oracle(name, data):
    value = st.lists(st.sampled_from(SLOT_VALUE_PIECES), max_size=6).map("".join)
    slots = data.draw(st.dictionaries(st.sampled_from(template_slots(name)), value))
    extra = data.draw(st.one_of(st.none(), st.none(), st.sampled_from(
        [s for s in ALL_SLOTS if s not in template_slots(name)] + NOT_SLOTS)))
    if extra is not None:
        slots[extra] = data.draw(value)
    assert fill_outcome(fill_template, name, slots) == fill_outcome(oracle_fill, name, slots)


def test_fill_template_values_kept_verbatim():
    # One pass over the template: a value that names a slot, earlier or
    # later in the template, is inserted as it is.
    text = fill_template("sync.txt", {
        "[PLAN]": "kick [NEGATIVE_EXAMPLES]", "[POSITIVE_EXAMPLE]": "[PLAN]",
        "[NEGATIVE_EXAMPLES]": "n",
    })
    assert text.count("[PLAN]") == 1
    assert "kick [NEGATIVE_EXAMPLES]" in text
    assert "\nn\n" in text


def test_fill_template_key_that_is_template_text_but_no_slot():
    # `SCENARIO:` is text of the coach template, but no `[SLOT]` of it.
    assert "SCENARIO:" in resources.files("coachplan.data.templates").joinpath(
        "coach.txt").read_text()
    with pytest.raises(UnresolvedPlaceholder, match="template coach.txt has no slot SCENARIO:"):
        fill_template("coach.txt", {"SCENARIO:": "x"})


def test_fill_template_slot_missing_from_template():
    with pytest.raises(UnresolvedPlaceholder, match=r"\[ADVICE\]"):
        fill_template("sync.txt", {
            "[PLAN]": "kick", "[POSITIVE_EXAMPLE]": "p", "[NEGATIVE_EXAMPLES]": "n",
            "[ADVICE]": "a",
        })


class TestParseScenarioBlock:
    def test_happy_path(self, domain):
        scenario = parse_scenario_block(RESPONSE, domain)
        assert scenario.assignments == (
            ("STRIKER", "CENTER_FIELD"),
            ("JOLLY", "FORWARD_LEFT"),
            ("OPPONENT_1", "KICKING_POSITION"),
            (BALL, "CENTER_FIELD"),
        )

    def test_missing_header(self, domain):
        with pytest.raises(MissingScenarioBlock):
            parse_scenario_block("COACH ADVICE:\n1. do stuff", domain)

    def test_unknown_subject(self, domain):
        with pytest.raises(UnknownSubject):
            parse_scenario_block("SCENARIO:\nREFEREE is at CENTER_FIELD", domain)

    def test_unknown_waypoint(self, domain):
        with pytest.raises(UnknownWaypoint):
            parse_scenario_block("SCENARIO:\nSTRIKER is at MOON", domain)

    def test_duplicate_subject(self, domain):
        text = "SCENARIO:\nSTRIKER is at CENTER_FIELD\nSTRIKER is at LEFT_WING"
        with pytest.raises(DuplicateSubject):
            parse_scenario_block(text, domain)

    def test_trailing_period_tolerated(self, domain):
        scenario = parse_scenario_block("SCENARIO:\nBALL is at CENTER_FIELD.", domain)
        assert scenario.assignments == ((BALL, "CENTER_FIELD"),)

    def test_stops_at_next_header(self, domain):
        scenario = parse_scenario_block(RESPONSE.replace("\n\n", "\n"), domain)
        assert len(scenario.assignments) == 4


    def test_text_after_the_header_is_refused(self, domain):
        # At one time STRIKER was dropped without an error.
        text = "SCENARIO: STRIKER is at CENTER_FIELD\nBALL is at CENTER_FIELD"
        with pytest.raises(MissingScenarioBlock) as exc:
            parse_scenario_block(text, domain)
        assert str(exc.value) == (
            "text after SCENARIO: on its line: 'SCENARIO: STRIKER is at CENTER_FIELD'")

    def test_header_alone_on_its_line(self, domain):
        scenario = parse_scenario_block("  SCENARIO:  \nBALL is at CENTER_FIELD", domain)
        assert scenario.assignments == ((BALL, "CENTER_FIELD"),)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_round_trips_serialize_scenario(self, domain, data):
        scenario = data.draw(parseable_scenarios(domain))
        text = serialize_scenario(scenario)
        # The second parse reads every line from the cache.
        assert parse_scenario_block(text, domain) == scenario
        assert parse_scenario_block(text, domain) == scenario

    def test_each_domain_checks_the_same_line(self, domain):
        # One line, parsed under a domain that knows its subject and then
        # under one that does not: the cached syntax holds no domain result.
        other = cp.parse_domain_file(
            'WAYPOINT CENTER_FIELD 0.0 0.0 "The center."\n'
            'ROLE WINGER "A winger." ACTIONS=move_to\n')
        text = "SCENARIO:\nSTRIKER is at CENTER_FIELD"
        for _ in range(2):
            assert parse_scenario_block(text, domain).assignments == (
                ("STRIKER", "CENTER_FIELD"),)
            with pytest.raises(UnknownSubject, match="^STRIKER$"):
                parse_scenario_block(text, other)
        with pytest.raises(UnknownWaypoint, match="^FORWARD_LEFT$"):
            parse_scenario_block("SCENARIO:\nBALL is at FORWARD_LEFT", other)
        with pytest.raises(UnknownSubject, match="^WINGER$"):
            parse_scenario_block("SCENARIO:\nWINGER is at CENTER_FIELD", domain)
        assert parse_scenario_block("SCENARIO:\nWINGER is at CENTER_FIELD", other) \
            .assignments == (("WINGER", "CENTER_FIELD"),)

    def test_a_bad_line_fails_every_time(self, domain):
        text = "SCENARIO:\nSTRIKER stands at CENTER_FIELD"
        for _ in range(3):
            with pytest.raises(MissingScenarioBlock) as exc:
                parse_scenario_block(text, domain)
            assert str(exc.value) == (
                "unparseable scenario line: 'STRIKER stands at CENTER_FIELD'")


class TestParseAdviceBlock:
    def test_happy_path(self):
        advice = parse_advice_block(RESPONSE)
        assert advice.startswith("1. JOLLY moves")
        assert advice.endswith("passes the ball to JOLLY.")

    def test_missing_header(self):
        with pytest.raises(MissingAdviceBlock):
            parse_advice_block("SCENARIO:\nBALL is at CENTER_FIELD")

    def test_header_constant(self):
        assert ADVICE_HEADER == "COACH ADVICE:"


def make_world(entries, ball=(0.0, 0.0)):
    agents = {}
    for aid, team, x, y in entries:
        agents[aid] = (cp.Pose(x, y), cp.Agent(aid, team, None))
    return cp.WorldState(agents, ball)


class TestRetrieveRoles:
    def test_obvious_assignment(self, domain):
        scenario = cp.Scenario((
            ("STRIKER", "KICKING_POSITION"),
            ("GOALIE", "OUR_GOAL"),
            (BALL, "CENTER_FIELD"),
        ))
        world = make_world([("a", OWN, 3.1, 0.0), ("b", OWN, -4.3, 0.1)])
        mapping = retrieve_roles(world, scenario, domain)
        assert mapping == {"a": "STRIKER", "b": "GOALIE"}

    def test_opponents_ignored(self, domain):
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        world = make_world([("a", OWN, 0.0, 0.0), ("o", "OPPONENT", 1.0, 1.0)])
        assert retrieve_roles(world, scenario, domain) == {"a": "STRIKER"}

    def test_cardinality_mismatch(self, domain):
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        world = make_world([("a", OWN, 0.0, 0.0), ("b", OWN, 1.0, 0.0)])
        with pytest.raises(CardinalityMismatch):
            retrieve_roles(world, scenario, domain)

    def test_matches_exhaustive_argmin(self, domain):
        rng = random.Random(31)
        role_names = list(domain.roles)
        tokens = sorted(domain.waypoints)
        for _ in range(30):
            n = rng.randint(1, 5)
            chosen = rng.sample(role_names, n)
            scenario = cp.Scenario(tuple((r, rng.choice(tokens)) for r in chosen))
            world = make_world(
                [(f"a{i}", OWN, rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
                 for i in range(n)]
            )
            mapping = retrieve_roles(world, scenario, domain)

            own = sorted((aid, pose) for aid, (pose, ag) in world.agents.items())
            slots = [(s, domain.waypoint(t).position) for s, t in scenario.assignments]
            best_cost = None
            for perm in itertools.permutations(range(n)):
                cost = sum(
                    math.hypot(own[i][1].x - slots[perm[i]][1][0],
                               own[i][1].y - slots[perm[i]][1][1])
                    for i in range(n)
                )
                if best_cost is None or cost < best_cost - 1e-12:
                    best_cost = cost
            got_cost = sum(
                math.hypot(pose.x - dict(slots)[mapping[aid]][0],
                           pose.y - dict(slots)[mapping[aid]][1])
                for aid, pose in own
            )
            assert got_cost == pytest.approx(best_cost)

    def test_tie_two_roles_on_one_waypoint(self, domain):
        # Equal totals either way: roles go to agents in scenario order.
        world = make_world([("a", OWN, 1.0, 1.0), ("b", OWN, -2.0, 0.5)])
        for first, second in (("STRIKER", "JOLLY"), ("JOLLY", "STRIKER")):
            scenario = cp.Scenario(((first, "CENTER_FIELD"), (second, "CENTER_FIELD")))
            assert retrieve_roles(world, scenario, domain) == {"a": first, "b": second}

    def test_tie_two_agents_on_one_pose(self, domain):
        # The first agent in id order takes the first role in scenario order,
        # even when the second role's waypoint is nearer.
        world = make_world([("b", OWN, 3.0, 0.0), ("a", OWN, 3.0, 0.0)])
        scenario = cp.Scenario((("GOALIE", "OUR_GOAL"), ("STRIKER", "KICKING_POSITION")))
        assert retrieve_roles(world, scenario, domain) == {"a": "GOALIE", "b": "STRIKER"}

    def test_tie_rule_matches_exhaustive_on_grid(self, domain):
        # Agents on waypoints and shared waypoints make many exact ties; the
        # reference sums each permutation exactly and takes the smallest
        # (total, role indices) in sorted agent order.
        rng = random.Random(7)
        role_names = list(domain.roles)
        spots = sorted(w.position for w in domain.waypoints.values())[:5]
        tokens = [t for t, w in domain.waypoints.items() if w.position in spots]
        for _ in range(200):
            n = rng.randint(2, 5)
            scenario = cp.Scenario(
                tuple((r, rng.choice(tokens)) for r in rng.sample(role_names, n))
            )
            world = make_world(
                [(f"a{i}", OWN, *rng.choice(spots)) for i in range(n)]
            )
            own = sorted((aid, pose) for aid, (pose, _) in world.agents.items())
            slots = [(s, domain.waypoint(t).position) for s, t in scenario.assignments]
            _, perm = min(
                (sum(Fraction(math.hypot(own[i][1].x - slots[j][1][0],
                                         own[i][1].y - slots[j][1][1]))
                     for i, j in enumerate(perm)), perm)
                for perm in itertools.permutations(range(n))
            )
            expected = {own[i][0]: slots[j][0] for i, j in enumerate(perm)}
            assert retrieve_roles(world, scenario, domain) == expected
