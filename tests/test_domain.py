import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import coachplan as cp
from coachplan.domain import BALL, OWN, UNMATCHED_PENALTY, ball_holder, normalize_angle
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


@given(st.floats(-50, 50, allow_nan=False))
def test_normalize_angle_range(theta):
    out = normalize_angle(theta)
    assert -math.pi < out <= math.pi


def test_pose_rejects_nonfinite():
    with pytest.raises(ValueError):
        cp.Pose(float("nan"), 0.0)


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
        assert scenario.waypoint_of(BALL) == "KICKING_POSITION"

    def test_no_opponents(self, domain):
        world = make_world(domain, [("s", OWN, "STRIKER", 0.0, 0.0)], (0.0, 0.0))
        scenario = cp.scenario_from_world(world, domain)
        assert scenario.subjects() == ["STRIKER", BALL]

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
    # Read three ways, a repeated subject meant three things: the first for
    # waypoint_of, the last for the distance, and a SCENARIO block that
    # parse_scenario_block refuses.
    with pytest.raises(DuplicateSubject, match=assignments[0][0]):
        cp.Scenario(assignments)


SUBJECTS = ["STRIKER", "JOLLY", "SUPPORTER", "DEFENDER", "GOALIE",
            "OPPONENT_1", "OPPONENT_2", "OPPONENT_3", BALL]


def scenarios(tokens, min_size=0):
    return st.lists(
        st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(tokens)),
        min_size=min_size, unique_by=lambda pair: pair[0],
    ).map(lambda pairs: cp.Scenario(tuple(pairs)))


class TestDistanceKernel:
    """scenario_distance and the batched distances_to against a reference
    computed from the waypoint coordinates in the same addition order,
    compared exactly."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_equals_reference_exactly(self, domain, data):
        tokens = sorted(domain.waypoints)
        a, b = data.draw(scenarios(tokens)), data.draw(scenarios(tokens))
        batch = data.draw(st.lists(scenarios(tokens), max_size=6))
        assert cp.scenario_distance(a, b, domain) == reference_distance(a, b, domain)
        assert cp.scenario_distance(b, a, domain) == reference_distance(b, a, domain)
        assert domain.distances_to(domain.distance_rows(b), batch) == [
            reference_distance(s, b, domain) for s in batch
        ]

    def test_rows_serve_many_scenarios(self, domain):
        rng = random.Random(11)
        tokens = sorted(domain.waypoints)

        def random_scenario():
            chosen = rng.sample(SUBJECTS, rng.randint(0, len(SUBJECTS)))
            return cp.Scenario(tuple((s, rng.choice(tokens)) for s in chosen))

        b = random_scenario()
        batch = [random_scenario() for _ in range(200)]
        assert domain.distances_to(domain.distance_rows(b), batch) == [
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
            domain.distances_to(domain.distance_rows(b), batch)


class TestFileFormats:
    def test_domain_file_round_trip_fields(self, domain):
        assert domain.waypoints["OUR_GOAL"].description == "Our team's goal area."
        assert domain.roles["STRIKER"].allowed_actions >= {"pass_the_ball", "kick_to_goal"}

    def test_bad_domain_record(self):
        with pytest.raises(ParseError):
            cp.parse_domain_file("WAYPOINT lower 0 0 \"x\"")

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
