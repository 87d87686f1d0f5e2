import collections
import gc
import glob
import math
import os
import random
import weakref
from importlib import resources

import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import coachplan as cp
from coachplan import library as planlib
from coachplan.domain import BALL, OPPONENT, OWN, ScenarioIndex
from coachplan.errors import (
    DuplicateFrameId,
    EmptyDomain,
    EmptyLibrary,
    KTooLarge,
    MalformedRecord,
    MissingRole,
    MissingScenarioBlock,
    PlanSyntaxError,
    UnknownWaypoint,
)
from coachplan.executor import (
    STATIC,
    aggregate,
    format_metrics_table,
    make_opponent_policy,
)
from coachplan.library import cluster_scenarios, evaluate
from coachplan.pipeline import make_record, run_generate

from conftest import mirror_plan_text, mirror_world, parseable_scenarios, reference_distance


def record(plan, scenario, frame_id, created_at="2024-01-01T00:00:00Z"):
    return cp.PlanRecord(plan, scenario, frame_id, created_at)


@pytest.fixture()
def kick_plan(schemas, roles):
    return cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)


def world_at(domain, x, y):
    text = f"AGENT s OWN STRIKER {x} {y} 0.0\nBALL {x} {y}\n"
    return cp.parse_world_file(text, domain)


def scenario_at(token):
    return cp.Scenario((("STRIKER", token), (BALL, token)))


class TestAdd:
    def test_append_preserves_order(self, kick_plan):
        lib = cp.new_library()
        lib = cp.add(lib, record(kick_plan, scenario_at("CENTER_FIELD"), "f1"))
        lib = cp.add(lib, record(kick_plan, scenario_at("LEFT_WING"), "f2"))
        assert lib.frame_ids() == ["f1", "f2"]

    def test_duplicate_frame_id(self, kick_plan):
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("CENTER_FIELD"), "f1"))
        with pytest.raises(DuplicateFrameId):
            cp.add(lib, record(kick_plan, scenario_at("LEFT_WING"), "f1"))


class TestLibraryValue:
    """A Library is a frozen value of its records: its index, once built,
    changes none of that."""

    def test_repr_equality_hash_and_frozen(self):
        a, b = cp.Library(()), cp.Library(records=())
        assert repr(a) == "Library(records=())"
        assert a == b and a is not b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.records = ()
        with pytest.raises(AttributeError):
            a.extra = None

    def test_equal_after_one_builds_its_index(self, domain, kick_plan):
        records = (record(kick_plan, scenario_at("OUR_GOAL"), "back"),
                   record(kick_plan, scenario_at("KICKING_POSITION"), "front"))
        a, b = cp.Library(records), cp.Library(records)
        before = hash(a)
        assert cp.select_plan(a, world_at(domain, 3.1, 0.1), domain).frame_id == "front"
        assert a._index and not b._index
        assert a == b and hash(a) == hash(b) == before
        assert repr(a) == repr(b)


class TestSelectPlan:
    def test_empty_library(self, domain):
        with pytest.raises(EmptyLibrary):
            cp.select_plan(cp.new_library(), world_at(domain, 0, 0), domain)

    def test_picks_nearest(self, domain, kick_plan):
        lib = cp.new_library()
        lib = cp.add(lib, record(kick_plan, scenario_at("OUR_GOAL"), "back"))
        lib = cp.add(lib, record(kick_plan, scenario_at("KICKING_POSITION"), "front"))
        assert cp.select_plan(lib, world_at(domain, 3.1, 0.1), domain).frame_id == "front"
        assert cp.select_plan(lib, world_at(domain, -4.2, 0.0), domain).frame_id == "back"

    def test_tie_breaks_on_created_at_then_frame_id(self, domain, kick_plan):
        scen = scenario_at("CENTER_FIELD")
        lib = cp.new_library()
        lib = cp.add(lib, record(kick_plan, scen, "zz", "2024-01-02T00:00:00Z"))
        lib = cp.add(lib, record(kick_plan, scen, "aa", "2024-01-01T00:00:00Z"))
        assert cp.select_plan(lib, world_at(domain, 0, 0), domain).frame_id == "aa"
        lib2 = cp.new_library()
        lib2 = cp.add(lib2, record(kick_plan, scen, "zz"))
        lib2 = cp.add(lib2, record(kick_plan, scen, "aa"))
        assert cp.select_plan(lib2, world_at(domain, 0, 0), domain).frame_id == "aa"

    def test_matches_brute_force(self, domain, kick_plan):
        rng = random.Random(17)
        tokens = sorted(domain.waypoints)
        lib = cp.new_library()
        for i in range(40):
            lib = cp.add(lib, record(kick_plan, scenario_at(rng.choice(tokens)), f"f{i:02d}"))
        for _ in range(25):
            world = world_at(domain, rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
            current = cp.scenario_from_world(world, domain)
            expected = min(
                lib.records,
                key=lambda r: (
                    cp.scenario_distance(r.scenario, current, domain),
                    r.created_at,
                    r.frame_id,
                ),
            )
            assert cp.select_plan(lib, world, domain).frame_id == expected.frame_id

    @pytest.mark.parametrize("bad", [0, 5, 11, "past the abandon point"])
    def test_unknown_waypoint_in_any_record_raises(self, domain, kick_plan, bad):
        tokens = sorted(domain.waypoints)
        scenarios = [scenario_at("NOWHERE" if i == bad else tokens[i]) for i in range(12)]
        if bad == "past the abandon point":
            # The first record is the query's own scenario (distance 0); the
            # last is 4.5 m off on its first subject, so its sum passes the
            # best before its bad token is reached.
            scenarios[0] = scenario_at("CENTER_FIELD")
            scenarios[-1] = cp.Scenario((("STRIKER", "OUR_GOAL"), (BALL, "NOWHERE")))
        lib = cp.Library(tuple(
            record(kick_plan, s, f"f{i:02d}") for i, s in enumerate(scenarios)
        ))
        with pytest.raises(UnknownWaypoint, match="NOWHERE"):
            cp.select_plan(lib, world_at(domain, 0, 0), domain)

    def test_world_errors_come_before_unknown_waypoints(self, domain, kick_plan):
        lib = cp.Library((record(kick_plan, scenario_at("NOWHERE"), "bad"),))
        roleless = cp.parse_world_file("AGENT s OWN - 0 0 0\nBALL 0 0\n", domain)
        with pytest.raises(MissingRole):
            cp.select_plan(lib, roleless, domain)
        with pytest.raises(EmptyDomain):
            cp.select_plan(lib, world_at(domain, 0, 0), cp.Domain({}, domain.roles))


# Mirror-image waypoints: from a query on the x axis, LEFT_WING and
# RIGHT_WING (and each left/right pair) are exactly equally far.
TIE_TOKENS = ["CENTER_FIELD", "LEFT_WING", "RIGHT_WING", "FORWARD_LEFT", "FORWARD_RIGHT",
              "OUR_LEFT_DEFENSE", "OUR_RIGHT_DEFENSE", "KICKING_POSITION"]
TIE_SUBJECTS = ["STRIKER", "JOLLY", "OPPONENT_1", BALL]


def tie_library(rng, plan, n):
    """n records drawn from a pool of a few scenarios and two dates, with
    frame ids in shuffled order: many exact distance and date ties."""
    pool = []
    for _ in range(rng.randint(2, 6)):
        chosen = rng.sample(TIE_SUBJECTS, rng.randint(1, len(TIE_SUBJECTS)))
        pool.append(cp.Scenario(tuple((s, rng.choice(TIE_TOKENS)) for s in chosen)))
    ids = [f"f{i:03d}" for i in range(n)]
    rng.shuffle(ids)
    return cp.Library(tuple(
        record(plan, rng.choice(pool), fid, rng.choice(["2024-01-01", "2024-01-02"]))
        for fid in ids
    ))


class TestSelectPlanDifferential:
    def test_equals_brute_force_argmin(self, domain, kick_plan):
        rng = random.Random(23)
        positions = [domain.waypoints[t].position for t in TIE_TOKENS]
        distance_ties = date_ties = 0
        for _ in range(40):
            lib = tie_library(rng, kick_plan, rng.randint(1, 40))
            for _ in range(5):
                (sx, sy), (jx, jy), (ox, oy), (bx, by) = (rng.choice(positions)
                                                          for _ in range(4))
                text = f"AGENT s OWN STRIKER {sx} {sy} 0\nBALL {bx} {by}\n"
                if rng.random() < 0.5:
                    text += f"AGENT j OWN JOLLY {jx} {jy} 0\n"
                if rng.random() < 0.5:
                    text += f"AGENT o OPPONENT - {ox} {oy} 0\n"
                world = cp.parse_world_file(text, domain)
                current = cp.scenario_from_world(world, domain)
                keys = sorted(
                    (reference_distance(r.scenario, current, domain), r.created_at, r.frame_id)
                    for r in lib.records
                )
                assert cp.select_plan(lib, world, domain).frame_id == keys[0][2]
                if len(keys) > 1 and keys[1][0] == keys[0][0]:
                    distance_ties += 1
                    date_ties += keys[1][1] == keys[0][1]
        assert distance_ties > 50 and date_ties > 20

    def test_thousand_records_equal_brute_force_argmin(self, domain, kick_plan):
        # Varied role sets, 0-3 opponents (numbered in field order, as
        # scenario_from_world numbers them) and five dates; one record in
        # five repeats an earlier scenario.  Half the queries stand on a
        # record's own waypoints, so the best is 0.0 and often tied.
        rng = random.Random(31)
        tokens = sorted(domain.waypoints)
        position = {t: domain.waypoints[t].position for t in tokens}
        dates = [f"2024-01-0{d}" for d in range(1, 6)]

        def random_scenario():
            roles = [r for r in domain.roles if rng.random() < 0.5] or ["STRIKER"]
            opponents = sorted((rng.choice(tokens) for _ in range(rng.randint(0, 3))),
                               key=position.__getitem__)
            return cp.Scenario(tuple(
                [(r, rng.choice(tokens)) for r in roles]
                + [(f"OPPONENT_{i}", t) for i, t in enumerate(opponents, 1)]
                + [(BALL, rng.choice(tokens))]
            ))

        scenarios = []
        for _ in range(1000):
            repeat = scenarios and rng.random() < 0.2
            scenarios.append(rng.choice(scenarios) if repeat else random_scenario())
        ids = [f"r{i:04d}" for i in range(1000)]
        rng.shuffle(ids)
        lib = cp.Library(tuple(
            record(kick_plan, s, fid, rng.choice(dates)) for s, fid in zip(scenarios, ids)
        ))

        def world_text(scenario):
            lines = []
            for subject, token in scenario.assignments:
                x, y = position[token]
                if subject == BALL:
                    lines.append(f"BALL {x} {y}")
                elif subject.startswith("OPPONENT_"):
                    lines.append(f"AGENT {subject.lower()} OPPONENT - {x} {y} 0")
                else:
                    lines.append(f"AGENT {subject.lower()} OWN {subject} {x} {y} 0")
            return "\n".join(lines) + "\n"

        exact = distance_ties = 0
        for q in range(40):
            source = rng.choice(scenarios) if q % 2 else random_scenario()
            world = cp.parse_world_file(world_text(source), domain)
            current = cp.scenario_from_world(world, domain)
            keys = sorted(
                (reference_distance(r.scenario, current, domain), r.created_at, r.frame_id)
                for r in lib.records
            )
            assert cp.select_plan(lib, world, domain).frame_id == keys[0][2]
            exact += keys[0][0] == 0.0
            distance_ties += keys[1][0] == keys[0][0]
        assert exact >= 20 and distance_ties > 5


# --- the selector respects the field's mirror in y ---

def mirror_scenario(scenario):
    return cp.Scenario(tuple((subject, mirror_plan_text(token))
                             for subject, token in scenario.assignments))


@st.composite
def mirror_worlds(draw, domain):
    """Some of the domain's roles, up to three opponents and the ball, each
    on a waypoint, on a 0.1 m grid or anywhere on the field."""
    points = st.one_of(
        st.sampled_from([w.position for w in domain.waypoints.values()]),
        st.tuples(st.integers(-45, 45), st.integers(-30, 30)).map(
            lambda p: (p[0] / 10, p[1] / 10)),
        st.tuples(st.floats(-4.5, 4.5), st.floats(-3.0, 3.0)))
    agents = {}
    for role in draw(st.lists(st.sampled_from(sorted(domain.roles)), unique=True)):
        x, y = draw(points)
        agents[role] = (cp.Pose(x, y), cp.Agent(role, OWN, role))
    for i in range(draw(st.integers(0, 3))):
        x, y = draw(points)
        agents[f"O{i}"] = (cp.Pose(x, y), cp.Agent(f"O{i}", OPPONENT))
    return cp.WorldState(agents, draw(points))


def has_a_nearest_waypoint(pos, domain):
    """True unless two waypoints tie exactly as the nearest to `pos`."""
    first, second = sorted(math.hypot(pos[0] - x, pos[1] - y)
                           for x, y in (w.position for w in domain.waypoints.values()))[:2]
    return first < second


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mirrored_world_selects_the_mirrored_record(domain, schemas, roles, corpus_texts,
                                                    data):
    # A world reflected in y selects, from a library whose every scenario
    # and plan has LEFT and RIGHT swapped, the mirror of the record the
    # world selects.  Negation changes no waypoint distance, so every
    # record's distance and every tie is the same.  Two exceptions are left
    # out: opponents with equal x, which opponent_markers numbers by y, and
    # an exact tie of two nearest waypoints, which nearest_waypoint breaks
    # by token order.
    world = data.draw(mirror_worlds(domain), label="world")
    opponents = [pose.x for pose, agent in world.agents.values() if agent.team == OPPONENT]
    assume(len(set(opponents)) == len(opponents))
    assume(all(has_a_nearest_waypoint(pos, domain) for pos in
               [world.ball, *((pose.x, pose.y) for pose, _ in world.agents.values())]))
    names = data.draw(st.lists(st.sampled_from(sorted(corpus_texts)), min_size=1,
                               max_size=30), label="plans")
    tokens = data.draw(st.lists(st.sampled_from(sorted(domain.waypoints)), min_size=1,
                                max_size=6, unique=True), label="tokens")
    records, images = [], []
    for i, name in enumerate(names):
        subjects = data.draw(st.lists(
            st.sampled_from([*domain.roles, "OPPONENT_1", "OPPONENT_2", BALL]),
            min_size=1, unique=True))
        scenario = cp.Scenario(tuple((s, data.draw(st.sampled_from(tokens))) for s in subjects))
        created_at = data.draw(st.sampled_from(["2024-01-01", "2024-01-02"]))
        text = corpus_texts[name]
        records.append(record(cp.parse_plan(text, schemas, roles), scenario, f"f{i:02d}",
                              created_at))
        images.append(record(cp.parse_plan(mirror_plan_text(text), schemas, roles),
                             mirror_scenario(scenario), f"f{i:02d}", created_at))
    library, mirrored = cp.Library(tuple(records)), cp.Library(tuple(images))
    chosen = records.index(cp.select_plan(library, world, domain))
    assert cp.select_plan(mirrored, mirror_world(world), domain) is images[chosen]


def brute_force_select(library, world, domain):
    """A fresh argmin over reference_distance: the least distance, then the
    earliest created_at, then frame_id."""
    current = cp.scenario_from_world(world, domain)
    ds = [reference_distance(r.scenario, current, domain) for r in library.records]
    return min(zip(ds, library.records),
               key=lambda dr: (dr[0], dr[1].created_at, dr[1].frame_id))[1]


def count_index_builds(monkeypatch):
    """The batch size of each ScenarioIndex a library builds."""
    built = []

    def counting(scenarios, domain):
        built.append(len(scenarios))
        return ScenarioIndex(scenarios, domain)

    monkeypatch.setattr("coachplan.library.ScenarioIndex", counting)
    return built


def memo_worlds(rng, domain, n):
    """n worlds with a STRIKER, an opponent, the ball and sometimes a JOLLY,
    each on a waypoint."""
    positions = [w.position for w in domain.waypoints.values()]
    worlds = []
    for _ in range(n):
        (sx, sy), (jx, jy), (ox, oy), (bx, by) = (rng.choice(positions) for _ in range(4))
        text = f"AGENT s OWN STRIKER {sx} {sy} 0\nAGENT o OPPONENT - {ox} {oy} 0\nBALL {bx} {by}\n"
        if rng.random() < 0.5:
            text += f"AGENT j OWN JOLLY {jx} {jy} 0\n"
        worlds.append(cp.parse_world_file(text, domain))
    return worlds


class TestSelectMemo:
    """Each library builds its scenario index on its first select under a
    Domain object and keeps it; every answer equals a fresh brute-force
    argmin, whatever was selected before."""

    @staticmethod
    def selects(library, worlds, domain):
        """select_plan's frame ids, each checked against the brute force."""
        answers = []
        for world in worlds:
            chosen = cp.select_plan(library, world, domain)
            assert chosen is brute_force_select(library, world, domain)
            answers.append(chosen.frame_id)
        return answers

    def test_library_a_then_b_then_a(self, domain, kick_plan, monkeypatch):
        rng = random.Random(41)
        worlds = memo_worlds(rng, domain, 20)
        a = varied_library(rng, kick_plan, domain, 60)
        b = varied_library(rng, kick_plan, domain, 60)
        built = count_index_builds(monkeypatch)
        first = self.selects(a, worlds, domain)
        assert self.selects(b, worlds, domain) != first
        assert self.selects(a, worlds, domain) == first
        assert built == [60, 60]

    def test_library_grown_by_add(self, domain, kick_plan, monkeypatch):
        rng = random.Random(43)
        worlds = memo_worlds(rng, domain, 10)
        lib = varied_library(rng, kick_plan, domain, 40)
        built = count_index_builds(monkeypatch)
        self.selects(lib, worlds, domain)
        # The new record holds the first world's own scenario: distance 0.
        grown = cp.add(lib, record(kick_plan, cp.scenario_from_world(worlds[0], domain), "new"))
        assert self.selects(grown, worlds, domain)[0] == "new"
        assert built == [40, 41]

    def test_same_records_under_a_second_domain(self, domain, kick_plan, monkeypatch):
        text = resources.files("coachplan.data").joinpath("domain.txt").read_text()
        second = cp.parse_domain_file(text)
        rng = random.Random(45)
        worlds = memo_worlds(rng, domain, 10)
        lib = varied_library(rng, kick_plan, domain, 40)
        built = count_index_builds(monkeypatch)
        assert self.selects(lib, worlds, domain) == self.selects(lib, worlds, second)
        assert built == [40, 40]
        self.selects(lib, worlds, second)
        assert built == [40, 40]
        self.selects(lib, worlds, domain)
        assert built == [40, 40, 40]

    def test_dropped_library_replaced_by_as_many_new_records(self, domain, kick_plan,
                                                             monkeypatch):
        rng = random.Random(47)
        worlds = memo_worlds(rng, domain, 20)
        built = count_index_builds(monkeypatch)
        module_state = dict(vars(planlib))
        lib = varied_library(rng, kick_plan, domain, 60)
        first = self.selects(lib, worlds, domain)
        probe = weakref.ref(lib.records[0])
        del lib
        gc.collect()
        # The index lived and died with its library; the module kept nothing.
        assert probe() is None and vars(planlib) == module_state
        # The new records may take the dropped ones' addresses.
        lib = varied_library(rng, kick_plan, domain, 60)
        assert self.selects(lib, worlds, domain) != first
        assert built == [60, 60]

    def test_failed_build_raises_every_call_and_stores_nothing(self, domain, kick_plan,
                                                               monkeypatch):
        rng = random.Random(49)
        worlds = memo_worlds(rng, domain, 10)
        good = varied_library(rng, kick_plan, domain, 30)
        built = count_index_builds(monkeypatch)
        self.selects(good, worlds[:1], domain)
        bad = cp.Library(good.records[:-1] + (record(kick_plan, scenario_at("NOWHERE"), "x"),))
        for _ in range(2):
            with pytest.raises(UnknownWaypoint, match="NOWHERE"):
                cp.select_plan(bad, worlds[0], domain)
            assert bad._index == []
        assert built == [30, 30, 30]
        self.selects(good, worlds, domain)
        assert built == [30, 30, 30]


def oracle_cluster_scenarios(library, k, domain):
    """cluster_scenarios written plainly, over a (frame_id, frame_id)-keyed
    dict of reference distances: the same seeding, tie rules and summation
    order, kept as the oracle for the table-driven version."""
    records = library.records
    if k < 1 or k > len(records):
        raise KTooLarge(f"k={k} with {len(records)} records")
    dist = {
        (a.frame_id, b.frame_id): reference_distance(a.scenario, b.scenario, domain)
        for a in records
        for b in records
    }
    by_id = {r.frame_id: r for r in records}
    medoids = [min(r.frame_id for r in records)]
    while len(medoids) < k:
        spread, best = max(
            (min(dist[(r.frame_id, m)] for m in medoids), r.frame_id)
            for r in records
            if r.frame_id not in medoids
        )
        if spread == 0.0:
            raise KTooLarge("fewer than k distinct scenarios")
        medoids.append(best)

    def assign(medoid_ids):
        clusters = {m: [] for m in medoid_ids}
        for r in records:
            nearest = min(sorted(medoid_ids), key=lambda m: (dist[(r.frame_id, m)], m))
            clusters[nearest].append(r.frame_id)
        return clusters

    while True:
        clusters = assign(medoids)
        new_medoids = []
        for m in medoids:
            members = clusters[m]

            def cost(c):
                # A left fold in member order, as sum() compensates from 3.12.
                total = 0.0
                for o in members:
                    total += dist[(c, o)]
                return total

            new_medoids.append(min(sorted(members), key=lambda c: (cost(c), c)))
        if set(new_medoids) == set(medoids):
            break
        medoids = new_medoids
    clusters = assign(medoids)
    return [(by_id[m], sorted(clusters[m])) for m in sorted(medoids)]


def varied_library(rng, plan, domain, n):
    """n records with random subject sets on random waypoints, frame ids in
    shuffled order."""
    tokens = sorted(domain.waypoints)
    subjects = list(domain.roles) + ["OPPONENT_1", "OPPONENT_2", BALL]
    ids = [f"r{i:03d}" for i in range(n)]
    rng.shuffle(ids)
    return cp.Library(tuple(
        record(plan, cp.Scenario(tuple(
            (s, rng.choice(tokens))
            for s in rng.sample(subjects, rng.randint(1, len(subjects))))), fid)
        for fid in ids
    ))


class TestClusterDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_oracle(self, domain, kick_plan, seed):
        rng = random.Random(seed)
        # n = 150 has clusters that change between iterations.
        for n, ks in ((12, (1, 2, 3, 5, 8)), (60, (1, 2, 3, 5, 8)), (150, (8,))):
            if seed % 2:
                lib = tie_library(rng, kick_plan, n)
            else:
                lib = varied_library(rng, kick_plan, domain, n)
            for k in ks:
                def outcome(cluster):
                    try:
                        return [(m.frame_id, ms) for m, ms in cluster(lib, k, domain)]
                    except KTooLarge:
                        return KTooLarge

                assert outcome(cluster_scenarios) == outcome(oracle_cluster_scenarios)


class TestEvaluate:
    def test_golden_report(self, domain, schemas, golden_dir):
        # The golden frame's plan over the eight scenario worlds, without the CLI.
        def world(path):
            with open(path) as fh:
                return cp.parse_world_file(fh.read(), domain)

        transcript = cp.Transcript.load(os.path.join(golden_dir, "transcript.txt"))
        _, plan, scenario = run_generate(
            domain, list(schemas.values()), world(os.path.join(golden_dir, "frame_0.world")),
            cp.ReplayChatProvider(transcript), cp.MockEmbeddingProvider(),
        )
        lib = cp.add(cp.new_library(),
                     make_record(plan, scenario, "frame_0", "1970-01-01T00:00:00Z"))
        paths = sorted(glob.glob(os.path.join(golden_dir, "scenarios", "*.world")))
        policy = make_opponent_policy(STATIC)
        results = [evaluate(lib, world(p), domain, cp.SimConfig(), policy) for p in paths]
        assert len(results) == 8
        with open(os.path.join(golden_dir, "report.txt")) as fh:
            assert format_metrics_table(aggregate(results)) == fh.read()

    def test_builds_the_index_once(self, domain, kick_plan, monkeypatch):
        lib = cp.new_library()
        for token in ("KICKING_POSITION", "OUR_GOAL"):
            lib = cp.add(lib, record(kick_plan, scenario_at(token), token))
        built = count_index_builds(monkeypatch)
        worlds = [world_at(domain, *domain.waypoints[t].position)
                  for t in ("KICKING_POSITION", "OUR_GOAL", "KICKING_POSITION", "OUR_GOAL")]
        for world in worlds:
            evaluate(lib, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
        assert built == [2]

    def test_renames_agents_to_plan_roles(self, domain, kick_plan):
        # The world's striker is called s; the plan names it STRIKER.
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("KICKING_POSITION"), "f"))
        result = evaluate(lib, world_at(domain, 3.2, 0.0), domain, cp.SimConfig(),
                          make_opponent_policy(STATIC))
        assert result.success

    def test_renames_a_world_lacking_only_the_pass_receiver(self, domain, schemas, roles):
        # STRIKER acts and passes to JOLLY, which has no action of its own.
        # A world naming its striker STRIKER and its jolly r2 lacks only the
        # receiver; it is renamed like one that lacks both.
        plan = cp.parse_plan("pass_the_ball STRIKER {SENDER: STRIKER, RECEIVER: JOLLY}",
                             schemas, roles)
        scenario = cp.Scenario((("STRIKER", "CENTER_FIELD"), ("JOLLY", "FORWARD_LEFT"),
                                (BALL, "CENTER_FIELD")))
        lib = cp.add(cp.new_library(), record(plan, scenario, "f"))
        for striker in ("STRIKER", "r1"):
            world = cp.parse_world_file(
                f"AGENT {striker} OWN STRIKER 0.0 0.0 0.0\n"
                "AGENT r2 OWN JOLLY 2.0 1.5 0.0\nBALL 0.1 0.0\n", domain)
            result = evaluate(lib, world, domain, cp.SimConfig(), make_opponent_policy(STATIC))
            assert result.passes == 1
            assert "EVENT PASS_COMPLETE JOLLY passes=1" in result.trace_text()

    def test_empty_library(self, domain):
        with pytest.raises(EmptyLibrary):
            evaluate(cp.new_library(), world_at(domain, 0, 0), domain, cp.SimConfig(),
                     make_opponent_policy(STATIC))


class TestCluster:
    def test_scores_only_read_pairs_each_once(self, domain, kick_plan, monkeypatch):
        lib = varied_library(random.Random(150), kick_plan, domain, 150)
        position = {id(r.scenario): i for i, r in enumerate(lib.records)}
        owners = {}  # id(rows) -> (position of their scenario, rows), kept alive
        scored = collections.Counter()  # (c, o): scenario c scored against o's rows
        real_rows, real_distances = cp.Domain.distance_rows, ScenarioIndex.distances

        def distance_rows(self, b):
            rows = real_rows(self, b)
            owners[id(rows)] = (position[id(b)], rows)
            return rows

        def distances(self, rows, positions):
            positions = list(positions)
            o = owners[id(rows)][0]
            scored.update((c, o) for c in positions)
            return real_distances(self, rows, positions)

        monkeypatch.setattr(cp.Domain, "distance_rows", distance_rows)
        monkeypatch.setattr(ScenarioIndex, "distances", distances)
        clusters = cluster_scenarios(lib, 8, domain)
        assert len(clusters) == 8
        assert max(scored.values()) == 1
        assert sum(scored.values()) < 150 * 150

    @pytest.mark.parametrize("bad", [0, 5, 11])
    @pytest.mark.parametrize("k", [1, 3])
    def test_unknown_waypoint_raises_anywhere(self, domain, kick_plan, bad, k):
        # f00 is the first medoid; a bad token anywhere fails the index build.
        tokens = sorted(domain.waypoints)
        lib = cp.Library(tuple(
            record(kick_plan, scenario_at("NOWHERE" if i == bad else tokens[i]), f"f{i:02d}")
            for i in range(12)
        ))
        with pytest.raises(UnknownWaypoint):
            cluster_scenarios(lib, k, domain)

    @pytest.mark.parametrize("first_medoid_token", ["NOWHERE", "OUR_GOAL"])
    def test_names_the_first_unknown_waypoint_in_record_order_as_select_does(
            self, domain, kick_plan, first_medoid_token):
        # f0 is the first medoid; f9, before it in record order, is bad.
        lib = cp.Library((
            record(kick_plan, scenario_at("CENTER_FIELD"), "f5"),
            record(kick_plan, cp.Scenario((("STRIKER", "OUR_GOAL"), (BALL, "ELSEWHERE"))),
                   "f9"),
            record(kick_plan, scenario_at(first_medoid_token), "f0"),
        ))
        with pytest.raises(UnknownWaypoint, match="ELSEWHERE"):
            cp.select_plan(lib, world_at(domain, 0, 0), domain)
        with pytest.raises(UnknownWaypoint, match="ELSEWHERE"):
            cluster_scenarios(lib, 2, domain)

    def test_random_unknown_waypoints_named_as_select_names_them(self, domain, kick_plan):
        rng = random.Random(17)
        tokens = sorted(domain.waypoints) + ["NOWHERE_1", "NOWHERE_2", "NOWHERE_3"]
        for _ in range(60):
            scenarios = [cp.Scenario(tuple((s, rng.choice(tokens)) for s in
                                           rng.sample(TIE_SUBJECTS, rng.randint(1, 4))))
                         for _ in range(rng.randint(1, 12))]
            bad = [t for s in scenarios for _, t in s.assignments if t not in domain.waypoints]
            if not bad:
                continue
            ids = [f"f{i:02d}" for i in range(len(scenarios))]
            rng.shuffle(ids)
            lib = cp.Library(tuple(record(kick_plan, s, fid) for s, fid in zip(scenarios, ids)))
            with pytest.raises(UnknownWaypoint) as selected:
                cp.select_plan(lib, world_at(domain, 0, 0), domain)
            with pytest.raises(UnknownWaypoint) as clustered:
                cluster_scenarios(lib, 1, domain)
            assert str(selected.value) == str(clustered.value) == str(UnknownWaypoint(bad[0]))

    def test_shares_the_library_index_with_select(self, domain, kick_plan, monkeypatch):
        # One index per library: select builds it and clustering reuses it;
        # a copy of the records clustered alone builds its own, once.
        lib = varied_library(random.Random(7), kick_plan, domain, 40)
        copy = cp.Library(lib.records)
        built = count_index_builds(monkeypatch)
        cp.select_plan(lib, world_at(domain, 0.0, 0.0), domain)
        clusters = [cluster_scenarios(x, 3, domain) for x in (lib, lib, copy, copy)]
        assert all(c == clusters[0] for c in clusters)
        assert built == [40, 40]

    def test_k_bounds(self, domain, kick_plan):
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("CENTER_FIELD"), "f1"))
        with pytest.raises(KTooLarge):
            cluster_scenarios(lib, 2, domain)
        with pytest.raises(KTooLarge):
            cluster_scenarios(lib, 0, domain)

    def test_k_exceeds_distinct_scenarios(self, domain, kick_plan):
        lib = cp.new_library()
        for i, token in enumerate(["CENTER_FIELD", "CENTER_FIELD", "OUR_GOAL"]):
            lib = cp.add(lib, record(kick_plan, scenario_at(token), f"f{i}"))
        with pytest.raises(KTooLarge):
            cluster_scenarios(lib, 3, domain)
        clusters = cluster_scenarios(lib, 2, domain)
        assert [(m.frame_id, ms) for m, ms in clusters] == [
            ("f0", ["f0", "f1"]), ("f2", ["f2"]),
        ]

    def test_k_equals_n(self, domain, kick_plan):
        lib = cp.new_library()
        for i, token in enumerate(["OUR_GOAL", "CENTER_FIELD", "OPPONENT_GOAL"]):
            lib = cp.add(lib, record(kick_plan, scenario_at(token), f"f{i}"))
        clusters = cluster_scenarios(lib, 3, domain)
        assert sorted(m.frame_id for m, _ in clusters) == ["f0", "f1", "f2"]
        assert all(members == [m.frame_id] for m, members in clusters)

    def test_separated_groups_recovered(self, domain, kick_plan):
        # Two tight groups at opposite ends of the field.
        lib = cp.new_library()
        back = ["OUR_GOAL", "OUR_PENALTY_MARK", "OUR_LEFT_DEFENSE"]
        front = ["OPPONENT_GOAL", "OPPONENT_PENALTY_MARK", "KICKING_POSITION"]
        for i, token in enumerate(back):
            lib = cp.add(lib, record(kick_plan, scenario_at(token), f"back{i}"))
        for i, token in enumerate(front):
            lib = cp.add(lib, record(kick_plan, scenario_at(token), f"front{i}"))
        clusters = cluster_scenarios(lib, 2, domain)
        memberships = sorted(tuple(members) for _, members in clusters)
        assert memberships == [
            ("back0", "back1", "back2"),
            ("front0", "front1", "front2"),
        ]

    def test_deterministic(self, domain, kick_plan):
        rng = random.Random(9)
        tokens = sorted(domain.waypoints)
        lib = cp.new_library()
        for i in range(12):
            lib = cp.add(lib, record(kick_plan, scenario_at(rng.choice(tokens)), f"f{i:02d}"))
        a = cluster_scenarios(lib, 3, domain)
        b = cluster_scenarios(lib, 3, domain)
        assert [(m.frame_id, tuple(ms)) for m, ms in a] == [
            (m.frame_id, tuple(ms)) for m, ms in b
        ]

    def test_partition(self, domain, kick_plan):
        rng = random.Random(4)
        tokens = sorted(domain.waypoints)
        lib = cp.new_library()
        for i in range(10):
            lib = cp.add(lib, record(kick_plan, scenario_at(rng.choice(tokens)), f"f{i}"))
        clusters = cluster_scenarios(lib, 4, domain)
        all_members = sorted(fid for _, members in clusters for fid in members)
        assert all_members == sorted(lib.frame_ids())


class TestPersistence:
    def test_round_trip(self, tmp_path, domain, schemas, roles, corpus_plans):
        lib = cp.new_library()
        names = sorted(corpus_plans)[:5]
        tokens = ["OUR_GOAL", "CENTER_FIELD", "LEFT_WING", "RIGHT_WING", "OPPONENT_GOAL"]
        for name, token in zip(names, tokens):
            lib = cp.add(lib, record(corpus_plans[name], scenario_at(token), name))
        path = tmp_path / "lib"
        cp.save_library(lib, path)
        again = cp.load_library(path, schemas, roles, domain)
        assert again == lib

    def test_missing_directory_is_empty(self, tmp_path, domain, schemas, roles):
        lib = cp.load_library(tmp_path / "nope", schemas, roles, domain)
        assert lib == cp.new_library()

    def test_save_empty(self, tmp_path, domain, schemas, roles):
        path = tmp_path / "lib"
        cp.save_library(cp.new_library(), path)
        assert cp.load_library(path, schemas, roles, domain) == cp.new_library()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.text(), st.text()), max_size=4,
                    unique_by=lambda pair: pair[0]))
    @example([("a\tb", "t\n1"), ("../x", ""), ("\n", "\r"), ("", "\t")])
    def test_any_frame_id_round_trips(self, tmp_path_factory, domain, schemas, roles, ids):
        kick_plan = cp.parse_plan("kick_to_goal STRIKER {}", schemas, roles)
        lib = cp.new_library()
        for frame_id, created_at in ids:
            lib = cp.add(lib, record(kick_plan, scenario_at("CENTER_FIELD"), frame_id,
                                     created_at))
        directory = tmp_path_factory.getbasetemp() / "any_frame_id"
        directory.mkdir(exist_ok=True)
        cp.save_library(lib, directory / "lib.jsonl")
        assert cp.load_library(directory / "lib.jsonl", schemas, roles, domain) == lib
        assert sorted(p.name for p in directory.iterdir()) == ["lib.jsonl"]

    def test_one_json_object_per_line(self, tmp_path, kick_plan):
        path = tmp_path / "lib.jsonl"
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("CENTER_FIELD"), "f"))
        cp.save_library(lib, path)
        assert path.read_text() == json.dumps({
            "created_at": "2024-01-01T00:00:00Z",
            "frame_id": "f",
            "plan": "kick_to_goal STRIKER {}\n",
            "scenario": "SCENARIO:\nSTRIKER is at CENTER_FIELD\nBALL is at CENTER_FIELD",
        }) + "\n"

    def test_failed_save_keeps_the_old_file(self, tmp_path, domain, schemas, roles,
                                            kick_plan):
        path = tmp_path / "lib.jsonl"
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("CENTER_FIELD"), "f"))
        cp.save_library(lib, path)
        broken = cp.add(lib, record(None, scenario_at("CENTER_FIELD"), "g"))
        with pytest.raises(AttributeError):
            cp.save_library(broken, path)
        assert cp.load_library(path, schemas, roles, domain) == lib
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib.jsonl"]

    @pytest.mark.parametrize("lines, line", [
        (["not json"], 1),
        (["{}"], 1),
        (["GOOD", '{"frame_id": "g", "created_at": "t", "plan": "", "scenario": 1}'], 2),
        (["GOOD", '{"frame_id": "g", "created_at": "t", "plan": "", "scenario": "",'
                  ' "extra": ""}'], 2),
        (["GOOD", "GOOD"], 2),
        (["GOOD", ""], 2),
    ])
    def test_malformed_line(self, tmp_path, domain, schemas, roles, kick_plan, lines, line):
        path = tmp_path / "lib.jsonl"
        lib = cp.add(cp.new_library(), record(kick_plan, scenario_at("CENTER_FIELD"), "f"))
        cp.save_library(lib, path)
        good = path.read_text().rstrip("\n")
        path.write_text("".join((good if ln == "GOOD" else ln) + "\n" for ln in lines))
        with pytest.raises(MalformedRecord) as exc:
            cp.load_library(path, schemas, roles, domain)
        assert exc.value.line == line

    def test_stored_texts_are_checked(self, tmp_path, domain, schemas, roles):
        path = tmp_path / "lib.jsonl"
        path.write_text(json.dumps({
            "created_at": "t", "frame_id": "f",
            "plan": "move_to STRIKER {TARGET: NOWHERE}\n",
            "scenario": "SCENARIO:\nSTRIKER is at CENTER_FIELD",
        }) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            cp.load_library(path, schemas, roles, domain)
        assert isinstance(exc.value.__cause__, UnknownWaypoint)

    @pytest.mark.parametrize("field, text, error", [
        ("plan", "kick_to_goal STRIKER {", PlanSyntaxError),
        ("scenario", "SCENARIO:\nSTRIKER is at NOWHERE", UnknownWaypoint),
    ])
    def test_bad_text_names_its_first_record(self, tmp_path, domain, schemas, roles,
                                             kick_plan, field, text, error):
        # The bad text repeats on lines 3 and 5; the error names line 3 and
        # its frame id (the CLI adds the file).
        path = tmp_path / "lib.jsonl"
        lib = cp.new_library()
        for i in range(5):
            lib = cp.add(lib, record(kick_plan, scenario_at("CENTER_FIELD"), f"f{i + 1}"))
        cp.save_library(lib, path)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        lines[2][field] = lines[4][field] = text
        path.write_text("".join(json.dumps(ln) + "\n" for ln in lines))
        with pytest.raises(MalformedRecord) as exc:
            cp.load_library(path, schemas, roles, domain)
        assert exc.value.line == 3
        assert isinstance(exc.value.__cause__, error)
        message = str(exc.value)
        assert message.startswith("line 3: ")
        assert f"bad {field} text of frame_id 'f3': {error.__name__}: " in message
        assert str(exc.value.__cause__) in message

    def test_a_shared_bad_scenario_line_names_its_first_record_on_every_load(
            self, tmp_path, domain, schemas, roles, kick_plan):
        # Records 2 and 4 hold the same unparseable line; each load names
        # line 2 and its frame id, with the parser's error as the cause.
        path = tmp_path / "lib.jsonl"
        lib = cp.new_library()
        for i in range(5):
            lib = cp.add(lib, record(kick_plan, scenario_at("CENTER_FIELD"), f"f{i + 1}"))
        cp.save_library(lib, path)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        lines[1]["scenario"] = lines[3]["scenario"] = (
            "SCENARIO:\nSTRIKER stands at CENTER_FIELD\nBALL is at CENTER_FIELD")
        path.write_text("".join(json.dumps(ln) + "\n" for ln in lines))
        for _ in range(2):
            with pytest.raises(MalformedRecord) as exc:
                cp.load_library(path, schemas, roles, domain)
            assert exc.value.line == 2
            assert isinstance(exc.value.__cause__, MissingScenarioBlock)
            assert str(exc.value) == (
                "line 2: bad scenario text of frame_id 'f2': MissingScenarioBlock: "
                "unparseable scenario line: 'STRIKER stands at CENTER_FIELD'")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_scenarios_round_trip(self, tmp_path_factory, domain, schemas, roles,
                                      corpus_plans, data):
        drawn = data.draw(st.lists(
            st.tuples(parseable_scenarios(domain), st.sampled_from(sorted(corpus_plans))),
            max_size=8))
        lib = cp.new_library()
        for i, (s, name) in enumerate(drawn):
            lib = cp.add(lib, record(corpus_plans[name], s, f"f{i}"))
        path = tmp_path_factory.getbasetemp() / "any_scenarios.jsonl"
        cp.save_library(lib, path)
        assert cp.load_library(path, schemas, roles, domain) == lib

    def test_repeated_plan_texts_are_parsed_once(self, tmp_path, domain, schemas, roles,
                                                 corpus_plans):
        # 60 records over 4 distinct plans: each loaded record equals a
        # per-record parse, equal texts share one Plan, and selection and
        # clustering on the loaded library agree with the references.
        rng = random.Random(31)
        tokens = sorted(domain.waypoints)
        subjects = list(domain.roles) + ["OPPONENT_1", "OPPONENT_2", BALL]
        plans = [corpus_plans[name] for name in sorted(corpus_plans)[:4]]
        lib = cp.new_library()
        for i in range(60):
            scenario = cp.Scenario(tuple(
                (s, rng.choice(tokens))
                for s in rng.sample(subjects, rng.randint(1, len(subjects)))))
            lib = cp.add(lib, record(rng.choice(plans), scenario, f"f{i:02d}"))
        path = tmp_path / "lib.jsonl"
        cp.save_library(lib, path)
        loaded = cp.load_library(path, schemas, roles, domain)
        texts = [json.loads(ln)["plan"] for ln in path.read_text().splitlines()]
        assert loaded == lib
        assert [r.plan for r in loaded.records] == [
            cp.parse_plan(text, schemas, roles, domain.waypoints) for text in texts
        ]
        shared = {}
        for text, r in zip(texts, loaded.records):
            assert shared.setdefault(text, r.plan) is r.plan
        assert len(shared) == 4
        for _ in range(20):
            world = world_at(domain, rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
            current = cp.scenario_from_world(world, domain)
            expected = min(
                (reference_distance(r.scenario, current, domain), r.created_at, r.frame_id)
                for r in loaded.records
            )
            assert cp.select_plan(loaded, world, domain).frame_id == expected[2]
        for k in (1, 3, 8):
            assert ([(m.frame_id, ms) for m, ms in cluster_scenarios(loaded, k, domain)]
                    == [(m.frame_id, ms) for m, ms in oracle_cluster_scenarios(loaded, k, domain)])
