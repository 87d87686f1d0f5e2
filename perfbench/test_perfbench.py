"""The benchmark's own fast test: every workload at a tiny size, and every
correctness check rejecting a corrupted output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

import coachplan as cp  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny(workload):
    result = _run(workload, 0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["cli-evaluate", "match-intercept", "library-write"])
def test_traced_run_reports_every_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src, open(tmp_path / "perfbench" / name, "w") as dst:
                dst.write(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "match-static",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# --- failed operations are counted, not fatal ---------------------------------------

def test_failed_matches_are_counted_and_the_rest_checked(tmp_path):
    inputs.prepare("match-static", 3, "tiny", str(tmp_path), ROOT)
    ctx = workload.Context(types.SimpleNamespace(root=ROOT, work=str(tmp_path), seed=3))
    w = workload.WORKLOADS["match-static"](ctx)
    w.setup()
    w.worlds[0] = None  # every match on this world raises
    times, errors, _ = workload.run_rounds(w, 0, rounds=2)
    assert errors == [] and len(times) == 2
    assert ctx.failed == 2 * len(w.plans)


def test_a_round_that_raises_counts_all_its_operations():
    class Stuck:
        ops_per_round = 4
        digest = None
        ctx = types.SimpleNamespace(failed=0, clock=calib.Clock(), unscaled=[])

        def round(self, traced):
            raise TimeoutError("the child ran past 60 s")

    w = Stuck()
    times, errors, _ = workload.run_rounds(w, 0, rounds=3)
    assert errors == [] and len(times) == 3 and w.ctx.failed == 12


def test_a_crashed_workload_still_gets_a_result_line(monkeypatch):
    assert run._child([sys.executable, "-c", "raise SystemExit(3)"]) is None
    monkeypatch.setattr(run, "_child", lambda cmd: None)
    args = types.SimpleNamespace(seed=3, size="tiny", seconds=0.1, trace=0)
    assert run.run_workload("match-static", args) == run.CRASHED


# --- the speed clock ---------------------------------------------------------------

def test_clock_takes_off_its_own_samples_and_scales_the_rest():
    clock = calib.Clock()
    clock.begin()
    t = time.perf_counter()
    for _ in range(4):
        time.sleep(clock.INTERVAL_S)
        clock.tick()
    with clock.aside():
        time.sleep(0.05)
    raw = time.perf_counter() - t
    clock.end()
    assert len(clock.samples) == 2 * clock.EDGE + 4
    assert 0.05 < clock.inside < raw
    want = (raw - clock.inside) * calib.REFERENCE_MS / clock.mean_ms()
    assert clock.scale(raw) == pytest.approx(want)


def test_clock_samples_while_a_child_runs_and_reads_its_output():
    clock = calib.Clock()
    clock.begin()
    proc = clock.run([sys.executable, "-c", "import time; print('done'); time.sleep(0.1)"], 10)
    assert proc.returncode == 0 and proc.stdout == "done\n"
    assert len(clock.samples) > clock.EDGE and clock.inside > 0


def test_a_child_past_its_timeout_is_killed():
    t = time.perf_counter()
    with pytest.raises(TimeoutError):
        calib.Clock().run([sys.executable, "-c", "import time; time.sleep(30)"], 0.2)
    assert time.perf_counter() - t < 10


# --- each check rejects a corrupted output ---------------------------------------

def test_check_distance_equals_the_programs_to_the_last_bit(env):
    domain, _, dom = env
    rng = random.Random(7)
    roles = list(domain.roles)
    for _ in range(200):
        a, b = (checks.scenario_of(inputs.random_world(rng, rng.sample(roles, rng.randint(1, 5)),
                                                       rng.randint(0, 3)), dom)
                for _ in range(2))
        want = cp.scenario_distance(cp.Scenario(tuple(map(tuple, a))),
                                    cp.Scenario(tuple(map(tuple, b))), domain)
        assert checks.scenario_distance(a, b, dom) == want


@pytest.fixture(scope="module")
def env():
    data = os.path.join(ROOT, "src", "coachplan", "data")
    domain = cp.parse_domain_file(_read(os.path.join(data, "domain.txt")))
    schemas = {s.action_id: s for s in cp.parse_action_file(_read(os.path.join(data, "actions.txt")))}
    return domain, schemas, checks.domain_spec(domain)


def test_check_match_rejects_dropped_pass_complete(env):
    domain, schemas, _ = env
    plan = cp.parse_plan(_read(os.path.join(ROOT, "tests", "corpus", "p03_pass_receive_shoot.plan")),
                         schemas, domain.roles)
    world = cp.parse_world_file(inputs.world_text(inputs.match_worlds(1, 1)[0]), domain)
    result = cp.run_match(cp.compile_fsm(plan), world, domain, cp.SimConfig())
    assert result.passes == 1 and result.success
    assert checks.check_match(result, 120.0) == []
    dropped = tuple(line for line in result.trace if "PASS_COMPLETE" not in line)
    assert checks.check_match(dataclasses.replace(result, trace=dropped), 120.0)
    no_goal = tuple(line for line in result.trace if "GOAL" not in line)
    assert checks.check_match(dataclasses.replace(result, trace=no_goal), 120.0)
    late = dataclasses.replace(result, scoring_time=result.scoring_time + 0.05)
    assert checks.check_match(late, 120.0)


def test_check_select_rejects_swapped_answer(env):
    domain, _, dom = env
    rng = random.Random(5)
    records = []
    for i in range(30):
        spec = inputs.random_world(rng, ["STRIKER", "JOLLY"], 1)
        records.append([f"r{i:02d}", rng.choice(inputs.CREATED_AT), checks.scenario_of(spec, dom)])
    lib = cp.Library(tuple(
        cp.PlanRecord(cp.parse_plan("kick_to_goal STRIKER {}", env[1], domain.roles),
                      cp.Scenario(tuple(map(tuple, scen))), fid, created)
        for fid, created, scen in records))
    queries = [inputs.random_world(rng, ["STRIKER", "JOLLY"], 1) for _ in range(10)]
    answers = [cp.select_plan(lib, cp.parse_world_file(inputs.world_text(q), domain), domain).frame_id
               for q in queries]
    assert checks.check_select(answers, records, queries, dom) == []
    i = next(i for i in range(1, 10) if answers[i] != answers[0])
    swapped = [answers[i]] + answers[1:i] + [answers[0]] + answers[i + 1:]
    assert checks.check_select(swapped, records, queries, dom)


def test_check_clusters_rejects_moved_member_and_wrong_medoid(env):
    _, _, dom = env
    tokens = ["OUR_GOAL", "OUR_PENALTY_MARK", "OPPONENT_GOAL", "OPPONENT_PENALTY_MARK"]
    records = [[f"f{i}", inputs.CREATED_AT[0], [["STRIKER", t], ["BALL", t]]]
               for i, t in enumerate(tokens)]
    good = [("f0", ["f0", "f1"]), ("f2", ["f2", "f3"])]
    assert checks.check_clusters(good, records, 2, dom) == []
    assert checks.check_clusters([("f0", ["f0", "f1", "f2"]), ("f3", ["f3"])], records, 2, dom)
    assert checks.check_clusters([("f0", ["f0", "f1"]), ("f2", ["f2"])], records, 2, dom)
    records.append(["f4", inputs.CREATED_AT[0], [["STRIKER", "KICKING_POSITION"],
                                                 ["BALL", "OPPONENT_PENALTY_MARK"]]])
    bad_medoid = [("f0", ["f0", "f1"]), ("f4", ["f2", "f3", "f4"])]
    assert checks.check_clusters(bad_medoid, records, 2, dom)


def test_check_evaluate_rejects_altered_report_line():
    with open(os.path.join(ROOT, "src", "coachplan", "data", "golden", "report.txt"), "rb") as fh:
        golden = fh.read()
    text = golden.decode()
    assert checks.check_evaluate(text, golden) == []
    assert checks.check_evaluate(text.replace("1.00", "1.01"), golden)


def test_check_generate_rejects_wrong_hash_and_violating_plan():
    manifest = b'{"config_hash": ""}\n'
    good = f"manifest_hash {hashlib.sha256(manifest).hexdigest()}\nkick_to_goal STRIKER {{}}\n"
    assert checks.check_generate(good, manifest, []) == []
    assert checks.check_generate(good, manifest + b" ", [])
    assert checks.check_generate(good, manifest, [(1, "PRECONDITION")])


def test_check_stored_rejects_changed_scenario_and_plan(env):
    domain, schemas, dom = env
    frame = inputs._scripted_frame(random.Random(2), dom)
    spec, scenario, _, _, _, synced = frame
    meta = {"spec": spec, "scenario": scenario, "plan": synced,
            "frame_id": "f0", "created_at": inputs.CREATED_AT[0]}
    plan = cp.parse_plan(synced, schemas, domain.roles)
    rec = cp.PlanRecord(plan, cp.Scenario(tuple(map(tuple, scenario))), "f0", inputs.CREATED_AT[0])
    args = (cp.serialize_plan, schemas, dom)
    assert checks.check_stored([rec], [meta], [rec], *args) == []
    moved = cp.Scenario((("STRIKER", "OUR_GOAL"),) + rec.scenario.assignments[1:])
    assert checks.check_stored([dataclasses.replace(rec, scenario=moved)], [meta], [rec], *args)
    other = cp.parse_plan("defend_goal GOALIE {}", schemas, domain.roles)
    assert checks.check_stored([dataclasses.replace(rec, plan=other)], [meta], [rec], *args)
    assert checks.check_stored([rec], [meta], [], *args)
