"""One workload in a fresh interpreter: set-up, timed rounds, checks.

    python3 perfbench/workload.py <workload> --root . --work DIR --seed N
        --seconds S --trace 0|1 [--spans FILE] [--setup-only]

run.py starts this once per run and reads the JSON object it prints last.
With --setup-only it imports coachplan, parses the domain, the actions and
the workload's input files, and exits: run.py times such set-up probes from
outside.  A round repeats the same operations; runs stop after the first
whole round that ends past --seconds.  Round times are scaled to a reference
speed of the host (calib.py).
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calib
import checks
import tracing

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
CALL_TIMEOUT_S = 60
MIN_ROUNDS = 3

# Per-layer metric -> (span, unit, scale from ns); the value is the mean self
# time per call of that span in the traced rounds.
LAYER_TIMES = {
    "providers.transcript_load_us": ("providers.transcript_load", "us", 1e-3),
    "coach.retrieve_roles_us": ("coach.retrieve_roles", "us", 1e-3),
    "domain.parse_world_us": ("domain.parse_world", "us", 1e-3),
    "planlang.parse_us": ("planlang.parse", "us", 1e-3),
    "executor.compile_fsm_us": ("executor.compile_fsm", "us", 1e-3),
    "actions.build_index_us": ("actions.build_index", "us", 1e-3),
    "actions.retrieve_us": ("actions.retrieve", "us", 1e-3),
    "coach.build_prompt_us": ("coach.build_prompt", "us", 1e-3),
    "coach.parse_response_us": ("coach.parse_response", "us", 1e-3),
    "refine.grounding_prompt_us": ("refine.grounding_prompt", "us", 1e-3),
    "refine.sync_prompt_us": ("refine.sync_prompt", "us", 1e-3),
    "refine.initial_state_us": ("refine.initial_state", "us", 1e-3),
    "refine.validate_us": ("refine.validate", "us", 1e-3),
    "providers.replay_us": ("providers.replay", "us", 1e-3),
    "pipeline.generate_self_us": ("pipeline.generate", "us", 1e-3),
    "library.add_us": ("library.add", "us", 1e-3),
    "library.save_ms": ("library.save", "ms", 1e-6),
    "library.load_ms": ("library.load", "ms", 1e-6),
    "library.select_us": ("library.select", "us", 1e-3),
    "library.cluster_self_ms": ("library.cluster", "ms", 1e-6),
    "domain.scenario_from_world_us": ("domain.scenario_from_world", "us", 1e-3),
    "domain.scenario_distance_us": ("domain.scenario_distance", "us", 1e-3),
}


def _read(path):
    with open(path) as fh:
        return fh.read()


class Context:
    def __init__(self, args):
        import coachplan as cp

        self.cp = cp
        self.root = os.path.abspath(args.root)
        self.work = args.work
        self.seed = args.seed
        self.data = os.path.join(self.root, "src", "coachplan", "data")
        self.domain = cp.parse_domain_file(_read(os.path.join(self.data, "domain.txt")))
        self.schema_list = cp.parse_action_file(_read(os.path.join(self.data, "actions.txt")))
        self.schemas = {s.action_id: s for s in self.schema_list}
        self.tracer = None
        self.clock = calib.Clock()
        self.unscaled = []  # round times before scaling, for a note on stderr
        self.failed = 0
        self._expect = None

    @property
    def expect(self):
        if self._expect is None:
            self._expect = json.loads(_read(os.path.join(self.work, "expect.json")))
        return self._expect

    def inputs(self, prefix, suffix):
        return sorted(os.path.join(self.work, n) for n in os.listdir(self.work)
                      if n.startswith(prefix) and n.endswith(suffix))

    def group(self, name):
        if self.tracer is not None:
            self.tracer.group = name

    def attempt(self, op, *args):
        """Run one operation; if it raises, count it in `failed` and return None.
        Between operations the clock samples the host's speed."""
        try:
            return op(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            self.clock.tick()


# --- workloads ---------------------------------------------------------------

class CliWorkload:
    """Real `coachplan` subprocesses; one call per round."""

    ops_per_round = 1
    in_process = False
    digest = None  # every call is checked in full

    def __init__(self, ctx):
        self.ctx = ctx
        self.golden = os.path.join(ctx.data, "golden")
        self.calls = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        self.import_s = []
        self.spans = []

    def _call(self, argv, traced):
        """One CLI subprocess; raises if it times out or exits non-zero."""
        self.calls += 1
        if traced:
            spans = os.path.join(self.ctx.work, f"spans_{self.calls}.json")
            cmd = [sys.executable, os.path.join(PERFBENCH, "cli_shim.py"), spans,
                   f"call-{self.calls}", *argv]
        else:
            cmd = [sys.executable, "-m", "coachplan.cli", *argv]
        proc = self.ctx.clock.run(cmd, CALL_TIMEOUT_S, env=self.env, cwd=self.ctx.root)
        if traced:
            dumped = json.loads(_read(spans))
            self.import_s.append(dumped["import_s"])
            self.spans.append(dumped["spans"])
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr[-300:]}")
        return proc

    def base_args(self):
        return ["--domain", os.path.join(self.ctx.data, "domain.txt"),
                "--actions", os.path.join(self.ctx.data, "actions.txt")]


class CliGenerate(CliWorkload):
    def setup(self):
        cp = self.ctx.cp
        self.world_path = os.path.join(self.golden, "frame_0.world")
        self.transcript_path = os.path.join(self.golden, "transcript.txt")
        self.world = cp.parse_world_file(_read(self.world_path), self.ctx.domain)
        cp.Transcript.load(self.transcript_path)

    def round(self, traced):
        n = self.calls + 1
        out = os.path.join(self.ctx.work, f"generate_{n}")
        argv = ["generate", *self.base_args(), "--world", self.world_path,
                "--transcript", self.transcript_path,
                "--library", os.path.join(out, "library"),
                "--manifest", out + ".manifest.json",
                "--frame-id", f"frame_{self.ctx.seed}_{n}",
                "--seed", str(self.ctx.seed)]
        os.makedirs(out)
        return self.ctx.attempt(self._call, argv, traced), out

    def check(self, output):
        proc, out = output
        if proc is None:  # counted in `failed`
            return []
        with open(out + ".manifest.json", "rb") as fh:
            manifest = fh.read()
        cp = self.ctx.cp
        plan_text = proc.stdout.split("\n", 1)[1] if "\n" in proc.stdout else ""
        plan = cp.parse_plan(plan_text, self.ctx.schemas, self.ctx.domain.roles)
        spec = {"agents": [[aid, agent.team, agent.role, pose.x, pose.y]
                           for aid, (pose, agent) in self.world.agents.items()],
                "ball": list(self.world.ball)}
        found = checks.oracle_violations(plan, self.ctx.schemas, spec,
                                         checks.domain_spec(self.ctx.domain))
        return checks.check_generate(proc.stdout, manifest, found)


class CliEvaluate(CliWorkload):
    def setup(self):
        cp, domain = self.ctx.cp, self.ctx.domain
        self.scenarios = os.path.join(self.golden, "scenarios")
        for name in sorted(os.listdir(self.scenarios)):
            cp.parse_world_file(_read(os.path.join(self.scenarios, name)), domain)
        self.library = os.path.join(self.ctx.work, "library")
        cp.load_library(self.library, self.ctx.schemas, domain.roles, domain)
        with open(os.path.join(self.golden, "report.txt"), "rb") as fh:
            self.report = fh.read()

    def round(self, traced):
        argv = ["evaluate", *self.base_args(), "--library", self.library,
                "--scenarios", self.scenarios, "--seed", str(self.ctx.seed)]
        return self.ctx.attempt(self._call, argv, traced)

    def check(self, proc):
        if proc is None:  # counted in `failed`
            return []
        return checks.check_evaluate(proc.stdout, self.report)


class MatchSweep:
    """Every corpus plan against every seeded world, under one policy."""

    in_process = True

    def __init__(self, ctx, policy):
        self.ctx = ctx
        self.policy = policy

    def setup(self):
        cp, domain = self.ctx.cp, self.ctx.domain
        corpus = os.path.join(self.ctx.root, "tests", "corpus")
        self.plans = [cp.parse_plan(_read(os.path.join(corpus, n)), self.ctx.schemas, domain.roles)
                      for n in sorted(os.listdir(corpus)) if n.endswith(".plan")]
        self.worlds = [cp.parse_world_file(_read(p), domain)
                       for p in self.ctx.inputs("world_", ".world")]
        self.config = cp.SimConfig()
        self.ops_per_round = len(self.plans) * len(self.worlds)

    def match(self, i):
        cp = self.ctx.cp
        plan = self.plans[i // len(self.worlds)]
        world = self.worlds[i % len(self.worlds)]
        fsms = cp.compile_fsm(plan)
        policy = cp.make_opponent_policy(self.policy, seed=self.ctx.seed)
        return cp.run_match(fsms, world, self.ctx.domain, self.config, policy)

    def round(self, traced):
        results = []
        for i in range(self.ops_per_round):
            self.ctx.group(f"match-{i}")
            results.append(self.ctx.attempt(self.match, i))
        return results

    def check(self, results):
        errors = []
        for i, result in enumerate(results):
            if result is not None:  # a failed match is counted in `failed`
                errors += [f"match {i}: {e}"
                           for e in checks.check_match(result, self.config.timeout)]
        for i in self.ctx.expect["rerun"]:
            if results[i] is not None and self.match(i).trace != results[i].trace:
                errors.append(f"match {i}: a re-run gives a different trace")
        return errors

    def digest(self, results):
        h = hashlib.sha256()
        for r in results:
            h.update(repr(r and (r.success, r.passes, r.scoring_time, r.trace)).encode())
        return h.hexdigest()


class LibraryWrite:
    """Scripted frames through run_generate, library.add and save_library."""

    in_process = True

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        cp = self.ctx.cp
        from coachplan.actions import MockEmbeddingProvider

        self.worlds = [cp.parse_world_file(_read(p), self.ctx.domain)
                       for p in self.ctx.inputs("frame_", ".world")]
        self.transcripts = [cp.Transcript.load(p)
                            for p in self.ctx.inputs("frame_", ".transcript")]
        self.embed = MockEmbeddingProvider()
        self.ops_per_round = len(self.worlds)

    def frame(self, lib, i):
        """One frame through run_generate, make_record and library.add."""
        cp = self.ctx.cp
        from coachplan.pipeline import make_record, run_generate

        frame = self.ctx.expect["frames"][i]
        _, plan, scenario = run_generate(
            self.ctx.domain, self.ctx.schema_list, self.worlds[i],
            cp.ReplayChatProvider(self.transcripts[i]), self.embed)
        return cp.add(lib, make_record(plan, scenario, frame["frame_id"], frame["created_at"]))

    def round(self, traced):
        lib, stored = self.ctx.cp.new_library(), []
        for i in range(self.ops_per_round):
            self.ctx.group(f"frame-{i}")
            grown = self.ctx.attempt(self.frame, lib, i)
            if grown is not None:  # a failed frame is counted in `failed`
                lib = grown
                stored.append(i)
        # The save runs every round but is left out of the round's time: it
        # writes 81 files over the last round's, and on an ext4 disk that took
        # from 10 to 51 ms by the disk's load of the moment, which no CPU speed
        # sample follows.  The traced run still times it (library.save_ms).
        self.ctx.group("save")
        path = os.path.join(self.ctx.work, "written")
        with self.ctx.clock.aside():
            self.ctx.cp.save_library(lib, path)
        return lib, path, stored

    def check(self, output):
        lib, path, stored = output
        ctx = self.ctx
        frames = [ctx.expect["frames"][i] for i in stored]
        loaded = ctx.cp.load_library(path, ctx.schemas, ctx.domain.roles, ctx.domain)
        return checks.check_stored(lib.records, frames, loaded.records,
                                   ctx.cp.serialize_plan, ctx.schemas, ctx.expect["domain"])

    def digest(self, output):
        lib = output[0]
        return [(r.frame_id, r.created_at, r.scenario, self.ctx.cp.serialize_plan(r.plan))
                for r in lib.records]


class LibrarySelect:
    """load_library, then select_plan for every seeded query world."""

    in_process = True

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        self.queries = [self.ctx.cp.parse_world_file(_read(p), self.ctx.domain)
                        for p in self.ctx.inputs("query_", ".world")]
        self.library = os.path.join(self.ctx.work, "library")
        self.ops_per_round = len(self.queries)

    def round(self, traced):
        cp, domain = self.ctx.cp, self.ctx.domain
        self.ctx.group("load")
        lib = cp.load_library(self.library, self.ctx.schemas, domain.roles, domain)
        answers = []
        for i, world in enumerate(self.queries):
            self.ctx.group(f"query-{i}")
            record = self.ctx.attempt(cp.select_plan, lib, world, domain)
            answers.append(record and record.frame_id)
        return answers

    def check(self, answers):
        e = self.ctx.expect
        return checks.check_select(answers, e["records"], e["queries"], e["domain"])

    def digest(self, answers):
        return answers


class LibraryCluster:
    """cluster_scenarios (k-medoids) over fixed, disjoint slices of the library."""

    in_process = True

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        cp, domain = self.ctx.cp, self.ctx.domain
        lib = cp.load_library(os.path.join(self.ctx.work, "library"), self.ctx.schemas,
                              domain.roles, domain)
        self.slices = [cp.Library(lib.records[lo:hi])
                       for lo, hi in self.ctx.expect["cluster_slices"]]
        self.k = self.ctx.expect["cluster_k"]
        self.ops_per_round = len(self.slices)

    def cluster(self, lib):
        clusters = self.ctx.cp.cluster_scenarios(lib, self.k, self.ctx.domain)
        return [(medoid.frame_id, members) for medoid, members in clusters]

    def round(self, traced):
        results = []
        for i, lib in enumerate(self.slices):
            self.ctx.group(f"cluster-{i}")
            results.append(self.ctx.attempt(self.cluster, lib))
        return results

    def check(self, results):
        e = self.ctx.expect
        errors = []
        for (lo, hi), clusters in zip(e["cluster_slices"], results):
            if clusters is not None:  # a failed clustering is counted in `failed`
                errors += [f"records {lo}-{hi}: {err}" for err in
                           checks.check_clusters(clusters, e["records"][lo:hi], self.k,
                                                 e["domain"])]
        return errors

    def digest(self, results):
        return results


WORKLOADS = {
    "cli-generate": CliGenerate,
    "cli-evaluate": CliEvaluate,
    "match-static": lambda ctx: MatchSweep(ctx, "STATIC"),
    "match-intercept": lambda ctx: MatchSweep(ctx, "NEAREST_INTERCEPT"),
    "library-write": LibraryWrite,
    "library-select": LibrarySelect,
    "library-cluster": LibraryCluster,
}


# --- measurement ---------------------------------------------------------------

def run_rounds(w, seconds, rounds=None, traced=False, first=None):
    """Time whole rounds: until `seconds` have passed (and MIN_ROUNDS are
    done), or exactly `rounds` of them.  Every round is checked: the first in
    full, later ones (where the workload has a digest) against the first.
    A round that raises counts all its operations in `failed`.
    Returns the round times at reference speed (calib.py), the errors and
    the first round's digest."""
    times, errors = [], []
    clock = w.ctx.clock
    start = time.perf_counter()
    while True:
        failed = w.ctx.failed
        clock.begin()
        t = time.perf_counter()
        try:
            output = w.round(traced)
        except Exception:
            output = None
            w.ctx.failed = failed + w.ops_per_round
            traceback.print_exc()
        raw = time.perf_counter() - t
        clock.end()
        times.append(clock.scale(raw))
        w.ctx.unscaled.append(raw - clock.inside)
        if output is not None and (w.digest is None or first is None):
            try:
                errors += w.check(output)
            except Exception as exc:
                errors.append(f"check raised {exc!r}")
        if output is not None and w.digest is not None:
            d = w.digest(output)
            if first is None:
                first = d
            elif d != first:
                errors.append(f"round {len(times)} differs from the first round")
        if rounds is not None:
            if len(times) >= rounds:
                break
        elif len(times) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    return times, errors, first


def layer_metrics(w, ctx, traced_ops, import_s, overhead):
    summary = {}
    span_lists = [ctx.tracer.spans] if ctx.tracer is not None else []
    span_lists += getattr(w, "spans", [])
    for spans in span_lists:
        tracing.summarize(spans, summary)

    def row(name):
        return summary.get(name, {"calls": 0, "self_ns": 0, "ticks": 0, "useful": 0})

    metrics = {"cli.import_s": (import_s, "s")}
    for metric, (span, unit, scale) in LAYER_TIMES.items():
        r = row(span)
        metrics[metric] = (r["self_ns"] * scale / r["calls"] if r["calls"] else 0.0, unit)
    match = row("executor.run_match")
    metrics["executor.us_per_tick"] = (
        match["self_ns"] * 1e-3 / match["ticks"] if match["ticks"] else 0.0, "us")
    metrics["executor.ticks_per_match"] = (
        match["ticks"] / match["calls"] if match["calls"] else 0.0, "count")
    metrics["executor.useful_tick_ratio"] = (
        match["useful"] / match["ticks"] if match["ticks"] else 0.0, "ratio")
    metrics["domain.scenario_distance_calls"] = (
        row("domain.scenario_distance")["calls"] / traced_ops, "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def peak_rss_mb(w):
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    sys.path[1:1] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    t = time.perf_counter()
    import coachplan.cli  # noqa: F401
    import_s = time.perf_counter() - t

    ctx = Context(args)
    if args.trace:
        ctx.tracer = tracing.Tracer()
        ctx.tracer.group = "setup"
        ctx.tracer.install()
    w = WORKLOADS[args.workload](ctx)
    w.setup()
    if ctx.tracer is not None:
        ctx.tracer.uninstall()
    if args.setup_only:
        return 0

    if not args.trace:
        times, errors, _ = run_rounds(w, args.seconds)
        attempted = len(times) * w.ops_per_round
        metrics = {
            "op_ms": (statistics.median(times) * 1e3 / w.ops_per_round, "ms"),
            "peak_rss_mb": (peak_rss_mb(w), "MB"),
        }
        unscaled = statistics.median(ctx.unscaled) * 1e3 / w.ops_per_round
        print(f"{args.workload}: op_ms before scaling to reference speed: {unscaled:.4f}",
              file=sys.stderr)
    else:
        # Untraced rounds for half the time, then as many traced rounds.
        # Traced rounds are checked against the digest of the untraced ones,
        # so no check runs under the tracer.
        plain, errors, first = run_rounds(w, args.seconds / 2)
        if w.in_process:
            ctx.tracer.install()
        traced, more, _ = run_rounds(w, 0, rounds=len(plain), traced=True, first=first)
        ctx.tracer.uninstall()
        errors += more
        attempted = (len(plain) + len(traced)) * w.ops_per_round
        if not w.in_process:
            import_s = statistics.median(w.import_s)
        ctx.tracer.dump(args.spans, import_s=import_s, cli_spans=getattr(w, "spans", []))
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = layer_metrics(w, ctx, len(traced) * w.ops_per_round, import_s, overhead)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": ctx.failed,
        "errors": errors[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
