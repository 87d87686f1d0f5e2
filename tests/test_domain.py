import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan.domain import BALL, OWN, UNMATCHED_PENALTY, ScenarioIndex, ball_holder
from coachplan.errors import (
    DuplicateSubject,
    EmptyDomain,
    MissingRole,
    ParseError,
    UnknownWaypoint,
)

from conftest import reference_distance


def make_world(domain, entries, ball):
    agents = {}
    for aid, team, role, x, y in entries:
        agents[aid] = (cp.Pose(x, y), cp.Agent(aid, team, role))
    return cp.WorldState(agents, ball)


class TestNearestWaypoint:
    def test_exact_position(self, domain):
        pos = domain.waypoints["OUR_GOAL"].position
        assert cp.nearest_waypoint(pos, domain) == "OUR_GOAL"

    def test_lexicographic_tie_break(self):
        domain = cp.Domain(
            {
                "A_POST": cp.Waypoint("A_POST", "a", (1.0, 0.0)),
                "B_POST": cp.Waypoint("B_POST", "b", (-1.0, 0.0)),
            },
            {},
        )
        assert cp.nearest_waypoint((0.0, 0.0), domain) == "A_POST"

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            cp.nearest_waypoint((0.0, 0.0), cp.Domain({}, {}))

    def test_matches_brute_force(self, domain):
        rng = random.Random(7)
        for _ in range(200):
            pos = (rng.uniform(-4.5, 4.5), rng.uniform(-3.0, 3.0))
            expected = min(
                sorted(domain.waypoints),
                key=lambda t: (
                    math.dist(pos, domain.waypoints[t].position),
                    t,
                ),
            )
            assert cp.nearest_waypoint(pos, domain) == expected

    def test_translation_invariance(self, domain):
        rng = random.Random(3)
        for _ in range(50):
            pos = (rng.uniform(-4, 4), rng.uniform(-2, 2))
            dx, dy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            shifted = cp.Domain(
                {
                    t: cp.Waypoint(t, w.description, (w.position[0] + dx, w.position[1] + dy))
                    for t, w in domain.waypoints.items()
                },
                domain.roles,
            )
            assert cp.nearest_waypoint(pos, domain) == cp.nearest_waypoint(
                (pos[0] + dx, pos[1] + dy), shifted
            )

    def test_every_waypoint_maps_to_itself(self, domain):
        for token, w in domain.waypoints.items():
            assert cp.nearest_waypoint(w.position, domain) == token


class TestScenarioFromWorld:
    def test_coincident_positions(self, domain):
        pos = domain.waypoints["KICKING_POSITION"].position
        world = make_world(domain, [("s", OWN, "STRIKER", *pos)], pos)
        scenario = cp.scenario_from_world(world, domain)
        assert ("STRIKER", "KICKING_POSITION") in scenario.assignments
        assert dict(scenario.assignments)[BALL] == "KICKING_POSITION"

    def test_no_opponents(self, domain):
        world = make_world(domain, [("s", OWN, "STRIKER", 0.0, 0.0)], (0.0, 0.0))
        scenario = cp.scenario_from_world(world, domain)
        assert [s for s, _ in scenario.assignments] == ["STRIKER", BALL]

    def test_missing_role(self, domain):
        world = make_world(domain, [("s", OWN, None, 0.0, 0.0)], (0.0, 0.0))
        with pytest.raises(MissingRole):
            cp.scenario_from_world(world, domain)

    def test_idempotent(self, domain):
        world = make_world(
            domain,
            [("s", OWN, "STRIKER", 1.0, 0.4), ("o", "OPPONENT", None, 3.0, 0.0)],
            (1.1, 0.4),
        )
        assert cp.scenario_from_world(world, domain) == cp.scenario_from_world(world, domain)

    def test_5v5_matches_brute_force(self, domain):
        rng = random.Random(11)
        role_names = list(domain.roles)
        for _ in range(20):
            entries = []
            for i, role in enumerate(role_names):
                entries.append((f"r{i}", OWN, role, rng.uniform(-4, 4), rng.uniform(-2.5, 2.5)))
            for i in range(5):
                entries.append((f"o{i}", "OPPONENT", None, rng.uniform(-4, 4), rng.uniform(-2.5, 2.5)))
            ball = (rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
            world = make_world(domain, entries, ball)
            scenario = cp.scenario_from_world(world, domain)
            positions = {aid: (x, y) for aid, _, _, x, y in entries}
            # brute force per subject
            for subject, token in scenario.assignments:
                if subject in domain.roles:
                    aid = next(e[0] for e in entries if e[2] == subject)
                    pos = positions[aid]
                elif subject == BALL:
                    pos = ball
                else:
                    continue
                best = min(
                    sorted(domain.waypoints),
                    key=lambda t: (math.dist(pos, domain.waypoints[t].position), t),
                )
                assert token == best


class TestScenarioDistance:
    def test_identity(self, domain):
        s = cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "CENTER_FIELD")))
        assert cp.scenario_distance(s, s, domain) == 0.0

    def test_single_term(self, domain):
        # CENTER_FIELD and LEFT_WING are 2.2 m apart
        a = cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "CENTER_FIELD")))
        b = cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "LEFT_WING")))
        assert cp.scenario_distance(a, b, domain) == pytest.approx(2.2)

    def test_unmatched_penalty(self, domain):
        a = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        b = cp.Scenario((("JOLLY", "CENTER_FIELD"),))
        assert cp.scenario_distance(a, b, domain) == pytest.approx(2 * UNMATCHED_PENALTY)

    def test_unknown_waypoint(self, domain):
        a = cp.Scenario((("STRIKER", "NOWHERE"),))
        with pytest.raises(UnknownWaypoint):
            cp.scenario_distance(a, a, domain)

    def test_symmetric_only_up_to_rounding(self, domain):
        # The two directions add the same terms in different orders.
        a = cp.Scenario((("STRIKER", "OPPONENT_PENALTY_MARK"), ("OPPONENT_1", "OUR_LEFT_DEFENSE"),
                         (BALL, "CENTER_FIELD")))
        b = cp.Scenario((("STRIKER", "OUR_LEFT_DEFENSE"), (BALL, "KICKING_POSITION")))
        ab, ba = cp.scenario_distance(a, b, domain), cp.scenario_distance(b, a, domain)
        assert (ab, ba) == (reference_distance(a, b, domain), reference_distance(b, a, domain))
        assert ab != ba
        assert ab == pytest.approx(ba)

    def test_symmetry_and_recomputation(self, domain):
        rng = random.Random(5)
        tokens = sorted(domain.waypoints)
        subjects = list(domain.roles) + ["OPPONENT_1", "OPPONENT_2", BALL]
        for _ in range(100):
            def random_scenario():
                chosen = rng.sample(subjects, rng.randint(1, len(subjects)))
                return cp.Scenario(tuple((s, rng.choice(tokens)) for s in chosen))

            a, b = random_scenario(), random_scenario()
            d = cp.scenario_distance(a, b, domain)
            assert d == pytest.approx(cp.scenario_distance(b, a, domain))
            # independent recomputation by definition
            pos = lambda t: domain.waypoints[t].position
            da = dict(a.assignments)
            db = dict(b.assignments)
            expected = 0.0
            for s in set(da) | set(db):
                if s in da and s in db:
                    expected += math.dist(pos(da[s]), pos(db[s]))
                else:
                    expected += UNMATCHED_PENALTY
            assert d == pytest.approx(expected)


@pytest.mark.parametrize("assignments", [
    (("STRIKER", "OUR_GOAL"), ("STRIKER", "CENTER_FIELD")),
    ((BALL, "OUR_GOAL"), ("STRIKER", "OUR_GOAL"), (BALL, "OUR_GOAL")),
])
def test_scenario_refuses_repeated_subject(assignments):
    # Read two ways, a repeated subject meant two things: the last for the
    # distance, and a SCENARIO block that parse_scenario_block refuses.
    with pytest.raises(DuplicateSubject, match=assignments[0][0]):
        cp.Scenario(assignments)


SUBJECTS = ["STRIKER", "JOLLY", "SUPPORTER", "DEFENDER", "GOALIE",
            "OPPONENT_1", "OPPONENT_2", "OPPONENT_3", BALL]


def scenarios(tokens, min_size=0, max_size=None, subjects=SUBJECTS):
    return st.lists(
        st.tuples(st.sampled_from(subjects), st.sampled_from(tokens)),
        min_size=min_size, max_size=max_size, unique_by=lambda pair: pair[0],
    ).map(lambda pairs: cp.Scenario(tuple(pairs)))


def near_scenarios(b, tokens):
    """Scenarios whose assignments are drawn from b's own and from random
    ones."""
    pairs = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(tokens))
    if b.assignments:
        pairs = st.one_of(st.sampled_from(b.assignments), pairs)
    return st.lists(pairs, unique_by=lambda pair: pair[0]).map(
        lambda pairs: cp.Scenario(tuple(pairs)))


def zero_term_scenarios(b, tokens):
    """Scenarios whose subjects shared with b stand on b's own waypoints:
    every matched term is 0.0, so each sum equals its group's bound."""
    own = dict(b.assignments)
    others = [s for s in SUBJECTS if s not in own]
    pairs = [st.sampled_from(b.assignments)] if own else []
    if others:
        pairs.append(st.tuples(st.sampled_from(others), st.sampled_from(tokens)))
    return st.lists(st.one_of(pairs), unique_by=lambda pair: pair[0]).map(
        lambda pairs: cp.Scenario(tuple(pairs)))


def reordered(scenario):
    """The same assignments in some order: the same subjects, but another
    group of the index when the order differs."""
    return st.permutations(scenario.assignments).map(lambda pairs: cp.Scenario(tuple(pairs)))


class TestDistanceKernel:
    """scenario_distance and ScenarioIndex.nearest and .distances against
    reference_distance, computed from the waypoint coordinates in the same
    addition order, compared exactly."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_equals_reference_exactly(self, domain, data):
        tokens = sorted(domain.waypoints)
        a, b = data.draw(scenarios(tokens)), data.draw(scenarios(tokens))
        batch = data.draw(st.lists(scenarios(tokens), max_size=6))
        assert cp.scenario_distance(a, b, domain) == reference_distance(a, b, domain)
        assert cp.scenario_distance(b, a, domain) == reference_distance(b, a, domain)
        assert ScenarioIndex(batch, domain).distances(domain.distance_rows(b),
                                                      range(len(batch))) == [
            reference_distance(s, b, domain) for s in batch
        ]

    @settings(max_examples=200)
    @given(data=st.data())
    def test_nearest_is_the_argmin_of_reference_distance(self, domain, data):
        tokens = sorted(domain.waypoints)
        b = data.draw(scenarios(tokens))
        # Scenarios that share some of b's own assignments (0.0 terms, so
        # partial sums sit right at the best), scenarios whose sums equal
        # their group's bound, b itself (distance 0.0) and repeats drawn
        # from a small pool force exact ties; reordered copies put the same
        # subjects in separate groups.
        pool = data.draw(st.lists(
            st.one_of(near_scenarios(b, tokens), zero_term_scenarios(b, tokens)),
            min_size=1, max_size=4)) + [b]
        pool += [data.draw(reordered(a)) for a in pool]
        batch = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        rows = domain.distance_rows(b)
        ds = [reference_distance(a, b, domain) for a in batch]
        least = min(ds, default=math.inf)
        assert ScenarioIndex(batch, domain).nearest(rows) == (
            least, [i for i, d in enumerate(ds) if d == least])

    @settings(max_examples=200)
    @given(data=st.data())
    def test_index_distances_equal_reference_distance(self, domain, data):
        tokens = sorted(domain.waypoints)
        # OPPONENT_4 only the query may name and OPPONENT_5 only the batch.
        b = data.draw(scenarios(tokens, subjects=SUBJECTS + ["OPPONENT_4"]))
        own = {subject for subject, _ in b.assignments}
        batch = data.draw(st.lists(st.one_of(
            scenarios(tokens, subjects=SUBJECTS + ["OPPONENT_5"]),
            scenarios(tokens, 1, 1),
            # Every subject on both sides unmatched.
            scenarios(tokens, subjects=[s for s in SUBJECTS + ["OPPONENT_5"] if s not in own]),
        ), max_size=8))
        positions = data.draw(st.lists(st.integers(0, len(batch) - 1), max_size=12)
                              if batch else st.just([]))
        rows = domain.distance_rows(b)
        ds = [reference_distance(a, b, domain) for a in batch]
        assert ScenarioIndex(batch, domain).distances(rows, positions) == [
            ds[i] for i in positions
        ]

    def test_ties_across_groups_at_their_bound(self, domain):
        b = cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "CENTER_FIELD")))
        batch = [
            cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "CENTER_FIELD"),
                         ("JOLLY", "LEFT_WING"))),
            cp.Scenario(((BALL, "CENTER_FIELD"), ("STRIKER", "CENTER_FIELD"),
                         ("OPPONENT_1", "OUR_GOAL"))),
            # Group 0's subjects in another order: a group of its own.
            cp.Scenario(((BALL, "CENTER_FIELD"), ("STRIKER", "CENTER_FIELD"),
                         ("JOLLY", "LEFT_WING"))),
            cp.Scenario((("STRIKER", "LEFT_WING"), (BALL, "CENTER_FIELD"),
                         ("JOLLY", "LEFT_WING"))),
            # b's BALL is unmatched: a trailing penalty.
            cp.Scenario((("STRIKER", "CENTER_FIELD"),)),
        ]
        rows = domain.distance_rows(b)
        assert [reference_distance(a, b, domain) for a in batch[:3]] == [UNMATCHED_PENALTY] * 3
        assert ScenarioIndex(batch, domain).nearest(rows) == (UNMATCHED_PENALTY, [0, 1, 2, 4])

    def test_rows_serve_many_scenarios(self, domain):
        rng = random.Random(11)
        tokens = sorted(domain.waypoints)

        def random_scenario():
            chosen = rng.sample(SUBJECTS, rng.randint(0, len(SUBJECTS)))
            return cp.Scenario(tuple((s, rng.choice(tokens)) for s in chosen))

        b = random_scenario()
        batch = [random_scenario() for _ in range(200)]
        assert ScenarioIndex(batch, domain).distances(domain.distance_rows(b),
                                                      range(200)) == [
            reference_distance(a, b, domain) for a in batch
        ]

    def test_penalties_added_one_at_a_time(self, domain):
        # b's eight unmatched penalties, added as one product, round to a
        # float one ulp away.
        a = cp.Scenario((("OPPONENT_2", "LEFT_WING"),))
        b = cp.Scenario((
            ("JOLLY", "OPPONENT_PENALTY_MARK"), (BALL, "OUR_GOAL"), ("GOALIE", "RIGHT_WING"),
            ("OPPONENT_2", "FORWARD_LEFT"), ("OPPONENT_3", "OUR_RIGHT_DEFENSE"),
            ("OPPONENT_1", "FORWARD_RIGHT"), ("DEFENDER", "OUR_GOAL"),
            ("SUPPORTER", "CENTER_FIELD"), ("STRIKER", "KICKING_POSITION"),
        ))
        d = cp.scenario_distance(a, b, domain)
        shared = cp.scenario_distance(a, cp.Scenario(b.assignments[3:4]), domain)
        assert d == reference_distance(a, b, domain)
        assert d != shared + 8 * UNMATCHED_PENALTY

    @settings(max_examples=100)
    @given(data=st.data(), side=st.sampled_from(["a", "b"]))
    def test_unknown_waypoint_on_either_side(self, domain, data, side):
        tokens = sorted(domain.waypoints)
        a, b = data.draw(scenarios(tokens, 1)), data.draw(scenarios(tokens, 1))
        target = a if side == "a" else b
        i = data.draw(st.integers(0, len(target.assignments) - 1))
        pairs = list(target.assignments)
        pairs[i] = (pairs[i][0], "NOWHERE")
        if side == "a":
            a = cp.Scenario(tuple(pairs))
        else:
            b = cp.Scenario(tuple(pairs))
        with pytest.raises(UnknownWaypoint):
            reference_distance(a, b, domain)
        with pytest.raises(UnknownWaypoint, match="NOWHERE"):
            cp.scenario_distance(a, b, domain)
        # In a batch, the bad scenario may stand at any position.
        batch = data.draw(st.lists(scenarios(tokens), max_size=4))
        batch.insert(data.draw(st.integers(0, len(batch))), a)
        with pytest.raises(UnknownWaypoint, match="NOWHERE"):
            ScenarioIndex(batch, domain).distances(domain.distance_rows(b), range(len(batch)))
        with pytest.raises(UnknownWaypoint, match="NOWHERE"):
            ScenarioIndex(batch, domain).nearest(domain.distance_rows(b))

    def test_index_raises_the_first_unknown_waypoint_in_batch_order(self, domain):
        batch = [
            cp.Scenario((("STRIKER", "CENTER_FIELD"),)),
            cp.Scenario((("STRIKER", "CENTER_FIELD"), (BALL, "NOWHERE_B"))),
            cp.Scenario((("STRIKER", "NOWHERE_A"),)),
        ]
        b = cp.Scenario((("STRIKER", "CENTER_FIELD"),))
        with pytest.raises(UnknownWaypoint, match="NOWHERE_B"):
            [reference_distance(a, b, domain) for a in batch]
        with pytest.raises(UnknownWaypoint, match="NOWHERE_B"):
            ScenarioIndex(batch, domain)


class TestFileFormats:
    def test_domain_file_round_trip_fields(self, domain):
        assert domain.waypoints["OUR_GOAL"].description == "Our team's goal area."
        assert domain.roles["STRIKER"].allowed_actions >= {"pass_the_ball", "kick_to_goal"}

    def test_bad_domain_record(self):
        with pytest.raises(ParseError):
            cp.parse_domain_file("WAYPOINT lower 0 0 \"x\"")

    @pytest.mark.parametrize("actions", [",,", "move_to,,kick_to_goal", "move_to,", ",move_to"])
    def test_role_actions_need_names(self, actions):
        with pytest.raises(ParseError, match="bad ROLE record"):
            cp.parse_domain_file(f'ROLE S "s" ACTIONS={actions}\n')

    def test_world_file(self, domain):
        world = cp.parse_world_file(
            "AGENT s OWN STRIKER 1.0 0.5 0.2\nAGENT o OPPONENT - 2.0 0.0 3.0\nBALL 1.0 0.6\n",
            domain,
        )
        assert world.agents["s"][1].role == "STRIKER"
        assert world.agents["o"][1].team == "OPPONENT"
        assert world.ball == (1.0, 0.6)

    def test_world_ball_clamped(self, domain):
        world = cp.parse_world_file("BALL 99 -99\n", domain)
        assert world.ball == (4.5, -3.0)

    def test_ball_holder(self, domain):
        text = ("AGENT o OPPONENT - 0.0 0.05 0.0\nAGENT b OWN JOLLY 0.0 -0.25 0.0\n"
                "AGENT a OWN STRIKER 0.0 0.25 0.0\nBALL 0.0 0.0\n")
        # Opponents never hold the ball at kickoff; a tie goes to the smaller id.
        assert ball_holder(cp.parse_world_file(text, domain)) == "a"
        far = cp.parse_world_file(text.replace("0.25", "0.31"), domain)
        assert ball_holder(far) is None

    def test_world_missing_ball(self, domain):
        with pytest.raises(ParseError):
            cp.parse_world_file("AGENT s OWN STRIKER 0 0 0\n", domain)

    def test_world_role_repeated_across_teams(self, domain):
        # Only own roles must be unique; opponents may carry any labels.
        world = cp.parse_world_file(
            "AGENT s OWN STRIKER 0 0 0\n"
            "AGENT o1 OPPONENT STRIKER 1 0 0\nAGENT o2 OPPONENT STRIKER 2 0 0\n"
            "BALL 0 0\n",
            domain,
        )
        assert len(world.agents) == 3


@given(st.lists(st.sampled_from(["STRIKER", "JOLLY", "GOALIE", BALL]), unique=True, min_size=1))
def test_serialize_scenario_header(subjects):
    scenario = cp.Scenario(tuple((s, "CENTER_FIELD") for s in subjects))
    text = cp.serialize_scenario(scenario)
    assert text.startswith("SCENARIO:")
    assert len(text.splitlines()) == 1 + len(subjects)
