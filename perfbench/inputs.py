"""Seeded inputs for every workload, written as the files the program reads.

`prepare(workload, seed, size, workdir)` writes the workload's input files
under `workdir` and an `expect.json` that holds what the correctness checks
need (world specs, scripted plans and scenarios).  The same seed always gives
the same files.  Everything here runs before the workload process starts, so
none of it is timed.
"""
from __future__ import annotations

import json
import os
import random

import checks

# Sizes of one round of each workload.  "tiny" is for the benchmark's own test.
SIZES = {
    "full": {"match_worlds": 10, "frames": 40, "library": 1000, "queries": 50,
             "cluster_size": 150, "cluster_slices": 3, "cluster_k": 8},
    "tiny": {"match_worlds": 2, "frames": 3, "library": 40, "queries": 5,
             "cluster_size": 20, "cluster_slices": 2, "cluster_k": 8},
}

# Match worlds jitter a fixed set of formations, so every seed gives new
# worlds with the same mix of quick goals, steals and timeouts.
FORMATION_SEED = 2406_18285
MATCH_JITTER = 0.05

ROLES = ("STRIKER", "JOLLY", "SUPPORTER", "DEFENDER", "GOALIE")
CREATED_AT = tuple(f"2024-06-{day:02d}T12:00:00Z" for day in range(1, 6))


def _r3(v):
    """Round to the 3 decimals the world file holds, so checks and program
    see the same floats."""
    return float(f"{v:.3f}")


def world_spec(own, opponents, ball):
    """own: {role: (x, y)}; opponents: [(x, y)]; ball: (x, y)."""
    agents = [[role, "OWN", role, _r3(x), _r3(y)] for role, (x, y) in own.items()]
    agents += [[f"O{i + 1}", "OPPONENT", None, _r3(x), _r3(y)]
               for i, (x, y) in enumerate(opponents)]
    return {"agents": agents, "ball": [_r3(ball[0]), _r3(ball[1])]}


def world_text(spec):
    lines = [
        f"AGENT {aid} {team} {role or '-'} {x:.3f} {y:.3f} {0.0 if team == 'OWN' else 3.1}"
        for aid, team, role, x, y in spec["agents"]
    ]
    lines.append(f"BALL {spec['ball'][0]:.3f} {spec['ball'][1]:.3f}")
    return "\n".join(lines) + "\n"


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# --- match worlds --------------------------------------------------------

def _formations(count):
    rng = random.Random(FORMATION_SEED)
    out = []
    for i in range(count):
        bx, by = rng.uniform(-2.5, 2.0), rng.uniform(-2.0, 2.0)
        own = {
            "STRIKER": (bx - 0.1, by),
            "JOLLY": (rng.uniform(0.5, 3.5), rng.uniform(-2.5, 2.5)),
            "SUPPORTER": (rng.uniform(-1.5, 2.0), rng.uniform(-2.5, 2.5)),
            "DEFENDER": (rng.uniform(-3.5, -1.0), rng.uniform(-2.0, 2.0)),
            "GOALIE": (rng.uniform(-4.4, -3.8), rng.uniform(-0.6, 0.6)),
        }
        opponents = [(rng.uniform(1.0, 4.3), rng.uniform(-2.5, 2.5))
                     for _ in range(1 + i % 3)]
        out.append((own, opponents, (bx, by)))
    return out


def match_worlds(seed, count):
    """Full-team worlds: five own roles, 1-3 opponents, STRIKER on the ball."""
    rng = random.Random(seed)

    def jit(p):
        return (p[0] + rng.uniform(-MATCH_JITTER, MATCH_JITTER),
                p[1] + rng.uniform(-MATCH_JITTER, MATCH_JITTER))

    return [
        world_spec({r: jit(p) for r, p in own.items()}, [jit(p) for p in opps], jit(ball))
        for own, opps, ball in _formations(count)
    ]


# --- random worlds for frames, library records and queries ---------------

def _point(rng):
    return (rng.uniform(-4.3, 4.3), rng.uniform(-2.8, 2.8))


def random_world(rng, roles, n_opponents, holder=None):
    """A world with the given own roles.  With a holder, the ball sits within
    0.15 m of it and every other own agent is more than 0.6 m away."""
    while True:
        own = {role: _point(rng) for role in roles}
        if holder is None:
            ball = _point(rng)
            break
        hx, hy = own[holder]
        ball = (max(-4.4, min(4.4, hx + rng.uniform(-0.1, 0.1))),
                max(-2.9, min(2.9, hy + rng.uniform(-0.1, 0.1))))
        if all(checks.dist(p, ball) > 0.6 for r, p in own.items() if r != holder):
            break
    return world_spec(own, [_point(rng) for _ in range(n_opponents)], ball)


def _random_roles(rng):
    return [r for r in ROLES if r == "STRIKER" or rng.random() < 0.6]


# --- scripted replay frames ----------------------------------------------

def _plan_templates(holder, other):
    """(grounding text, synchronized text) pairs, valid when `holder` holds
    the ball and nobody has passed yet."""
    mover = "dribble_to" if holder == "STRIKER" else "move_to"
    pass_ho = f"pass_the_ball {holder} {{SENDER: {holder}, RECEIVER: {other}}}"
    pass_oh = f"pass_the_ball {other} {{SENDER: {other}, RECEIVER: {holder}}}"
    return [
        (f"kick_to_goal {holder} {{}}", f"kick_to_goal {holder} {{}}"),
        (f"{mover} {holder} {{TARGET: KICKING_POSITION}}\nkick_to_goal {holder} {{}}",
         f"{mover} {holder} {{TARGET: KICKING_POSITION}}\nkick_to_goal {holder} {{}}"),
        (f"move_to {other} {{TARGET: KICKING_POSITION}}\n{pass_ho}\n"
         f"receive_ball {other} {{SENDER: {holder}}}\nkick_to_goal {other} {{}}",
         f"JOIN {{move_to {other} {{TARGET: KICKING_POSITION}},\n      {pass_ho}}}\n"
         f"receive_ball {other} {{SENDER: {holder}}}\nkick_to_goal {other} {{}}"),
        (f"{pass_ho}\nreceive_ball {other} {{SENDER: {holder}}}\n{pass_oh}\n"
         f"receive_ball {holder} {{SENDER: {other}}}\nkick_to_goal {holder} {{}}",
         f"{pass_ho}\nreceive_ball {other} {{SENDER: {holder}}}\n{pass_oh}\n"
         f"receive_ball {holder} {{SENDER: {other}}}\nkick_to_goal {holder} {{}}"),
        ("mark_opponent DEFENDER {TARGET: OUR_LEFT_DEFENSE}\ndefend_goal GOALIE {}\n"
         f"kick_to_goal {holder} {{}}",
         "JOIN {mark_opponent DEFENDER {TARGET: OUR_LEFT_DEFENSE},\n"
         f"      defend_goal GOALIE {{}}}}\nkick_to_goal {holder} {{}}"),
    ]


def _scripted_frame(rng, domain_spec):
    holder = rng.choice(("STRIKER", "JOLLY"))
    other = "JOLLY" if holder == "STRIKER" else "STRIKER"
    spec = random_world(rng, ROLES, rng.randint(1, 3), holder=holder)
    scenario = checks.scenario_of(spec, domain_spec)
    grounding, synced = rng.choice(_plan_templates(holder, other))
    advice = (f"1. {holder} controls the ball.\n"
              f"2. The team attacks through {rng.choice(domain_spec['waypoint_order'])}.")
    coach = ("SCENARIO:\n"
             + "\n".join(f"{s} is at {t}" for s, t in scenario)
             + "\n\nCOACH ADVICE:\n" + advice)
    return spec, scenario, coach, advice, grounding, synced


def _transcript(cp, domain, retrieved, coach, advice, grounding, synced):
    """Fingerprints come from the program's own prompt builders, as
    scripts/make_golden_fixtures.py makes them."""
    from coachplan.pipeline import DEFAULT_GOAL
    from coachplan.refine import build_grounding_prompt, build_sync_prompt, load_sync_examples

    transcript = cp.Transcript()
    transcript.add(cp.build_coach_prompt(domain, retrieved, DEFAULT_GOAL, cp.Tactics())
                   .fingerprint(), coach)
    scenario = cp.parse_scenario_block(coach, domain)
    transcript.add(build_grounding_prompt(domain, retrieved, scenario, advice)
                   .fingerprint(), grounding)
    by_id = {s.action_id: s for s in retrieved}
    grounded = cp.parse_plan(grounding, by_id, domain.roles)
    positive, negatives = load_sync_examples()
    transcript.add(build_sync_prompt(cp.serialize_plan(grounded), positive, negatives)
                   .fingerprint(), synced)
    return transcript


# --- prepare ---------------------------------------------------------------

def prepare(workload, seed, size, workdir, root):
    import coachplan as cp
    from coachplan.actions import MockEmbeddingProvider, build_index, retrieve_actions
    from coachplan.pipeline import DEFAULT_GOAL, make_record, retrieval_query, run_generate

    sz = SIZES[size]
    data = os.path.join(root, "src", "coachplan", "data")
    domain = cp.parse_domain_file(_read(os.path.join(data, "domain.txt")))
    schema_list = cp.parse_action_file(_read(os.path.join(data, "actions.txt")))
    schemas = {s.action_id: s for s in schema_list}
    domain_spec = checks.domain_spec(domain)
    rng = random.Random(seed)
    expect = {"seed": seed, "size": size}

    if workload == "cli-evaluate":
        # The library every evaluate call reads: the golden frame's plan.
        golden = os.path.join(data, "golden")
        world = cp.parse_world_file(_read(os.path.join(golden, "frame_0.world")), domain)
        provider = cp.ReplayChatProvider(cp.Transcript.load(os.path.join(golden, "transcript.txt")))
        _, plan, scenario = run_generate(domain, schema_list, world, provider,
                                         MockEmbeddingProvider())
        lib = cp.add(cp.new_library(), make_record(plan, scenario, "frame_0",
                                                   "1970-01-01T00:00:00Z"))
        cp.save_library(lib, os.path.join(workdir, "library"))
    elif workload in ("match-static", "match-intercept"):
        specs = match_worlds(seed, sz["match_worlds"])
        for i, spec in enumerate(specs):
            _write(os.path.join(workdir, f"world_{i:03d}.world"), world_text(spec))
        n_plans = sum(n.endswith(".plan") for n in os.listdir(os.path.join(root, "tests", "corpus")))
        expect["rerun"] = rng.sample(range(n_plans * len(specs)), min(8, n_plans * len(specs)))
    elif workload == "library-write":
        embed = MockEmbeddingProvider()
        index = build_index(schema_list, embed)
        retrieved = retrieve_actions(retrieval_query(DEFAULT_GOAL, domain), index, embed, k=8)
        frames = []
        for i in range(sz["frames"]):
            spec, scenario, coach, advice, grounding, synced = _scripted_frame(rng, domain_spec)
            _write(os.path.join(workdir, f"frame_{i:03d}.world"), world_text(spec))
            _transcript(cp, domain, retrieved, coach, advice, grounding, synced).save(
                os.path.join(workdir, f"frame_{i:03d}.transcript"))
            frames.append({"spec": spec, "scenario": scenario, "plan": synced,
                           "frame_id": f"s{seed}_f{i:03d}",
                           "created_at": rng.choice(CREATED_AT)})
        expect["frames"] = frames
    elif workload in ("library-select", "library-cluster"):
        corpus_dir = os.path.join(root, "tests", "corpus")
        corpus = [cp.parse_plan(_read(os.path.join(corpus_dir, n)), schemas, domain.roles)
                  for n in sorted(os.listdir(corpus_dir)) if n.endswith(".plan")]
        lib = cp.new_library()
        records = []
        for i in range(sz["library"]):
            spec = random_world(rng, _random_roles(rng), rng.randint(0, 3))
            scenario = checks.scenario_of(spec, domain_spec)
            rec = [f"r{i:05d}", rng.choice(CREATED_AT), scenario]
            records.append(rec)
            lib = cp.add(lib, cp.PlanRecord(rng.choice(corpus), cp.Scenario(tuple(scenario)),
                                            rec[0], rec[1]))
        cp.save_library(lib, os.path.join(workdir, "library"))
        expect["records"] = records
        if workload == "library-select":
            queries = [random_world(rng, _random_roles(rng), rng.randint(0, 3))
                       for _ in range(sz["queries"])]
            for i, spec in enumerate(queries):
                _write(os.path.join(workdir, f"query_{i:03d}.world"), world_text(spec))
            expect["queries"] = queries
        else:
            n = sz["cluster_size"]
            slices = [[i * n, (i + 1) * n] for i in range(sz["cluster_slices"])]
            for lo, hi in slices:
                distinct = {tuple(map(tuple, r[2])) for r in records[lo:hi]}
                if len(distinct) < sz["cluster_k"]:
                    raise RuntimeError("a cluster slice has fewer distinct scenarios than k")
            expect["cluster_slices"] = slices
            expect["cluster_k"] = sz["cluster_k"]
    expect["domain"] = domain_spec
    with open(os.path.join(workdir, "expect.json"), "w") as fh:
        json.dump(expect, fh)
