"""Command-line entry point wiring the pipeline end to end.

Exit codes: 0 success, 1 validation violations, 2 parse/config errors,
3 provider failures, 141 (128 + SIGPIPE, as Unix filters exit) when the
reader of stdout closes it early; the command then stops quietly.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import library as planlib
from .actions import MockEmbeddingProvider, parse_action_file
from .coach import parse_scenario_block
from .domain import (
    PlanningGoal,
    Tactics,
    parse_domain_file,
    parse_world_file,
    read_text,
    scenario_from_world,
    serialize_scenario,
)
from .errors import (
    CoachPlanError,
    ConfigInvalid,
    DuplicateFrameId,
    EmptyLibrary,
    ParseError,
    ProviderError,
    StageError,
    ValidationFailed,
)
from .executor import (
    SimConfig,
    aggregate,
    compile_fsm,
    format_metrics_delimited,
    format_metrics_table,
    make_opponent_policy,
    run_match,
)
from .pipeline import DEFAULT_GOAL, make_record, run_generate
from .planlang import parse_plan, serialize_plan
from .providers import OpenAIChatProvider, RecordingChatProvider, ReplayChatProvider, Transcript
from .refine import parse_facts_file, validate_plan

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PROVIDER = 3
EXIT_BROKEN_PIPE = 141


def _parse_file(path, parse, *args, loader=False):
    """parse(the text of the file `path`, *args), or parse(path, *args) for a
    loader that opens the file itself.  This names every input file in its
    errors: a CoachPlanError is raised again as `<path>: <message>`, and an
    OSError as `<path>: <its strerror>`."""
    try:
        return parse(path if loader else read_text(path), *args)
    except CoachPlanError as exc:
        raise CoachPlanError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise CoachPlanError(f"{path}: {exc.strerror}") from exc


def _write_file(path, write, *args):
    """write(*args, path) for an output file: an OSError is raised again as
    `<path>: <its strerror>`, as _parse_file names an input file."""
    try:
        write(*args, path)
    except OSError as exc:
        raise CoachPlanError(f"{path}: {exc.strerror}") from exc


def _write_text(text, path):
    with open(path, "w") as fh:
        fh.write(text)


def _load_domain_actions(args):
    domain = _parse_file(args.domain, parse_domain_file)
    schemas = _parse_file(args.actions, parse_action_file)
    return domain, {s.action_id: s for s in schemas}


def _open_library(args):
    domain, schemas = _load_domain_actions(args)
    return domain, schemas, _parse_file(args.library, planlib.load_library, schemas,
                                        domain.roles, domain, loader=True)


def _chat_provider(args):
    if args.provider:
        # Live mode: the exchange is recorded into a new --transcript file.
        if not args.transcript:
            raise CoachPlanError("--provider needs --transcript OUT to record into")
        if os.path.exists(args.transcript):
            raise CoachPlanError(f"{args.transcript}: exists; a live run records "
                                 "into a new transcript file")
        return RecordingChatProvider(OpenAIChatProvider(model=args.provider))
    if args.transcript:
        # Replay mode: never touches the network, never reads credentials.
        return ReplayChatProvider(_parse_file(args.transcript, Transcript.load, loader=True))
    raise CoachPlanError("either --transcript or --provider is required")


def _sim_config(args) -> SimConfig:
    return _parse_file(args.sim_config, _parse_sim_config) if args.sim_config else SimConfig()


def _parse_sim_config(text) -> SimConfig:
    try:
        payload = json.loads(text)
    except RecursionError:  # json.loads recurses once per nesting level
        raise ConfigInvalid("nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc.msg} at column {exc.colno}", exc.lineno) from None
    except ValueError:  # an integer longer than int() may convert
        raise ConfigInvalid("a number with too many digits") from None
    if not isinstance(payload, dict):
        raise ConfigInvalid("sim config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigInvalid(f"unknown sim config key(s): {', '.join(unknown)}")
    return SimConfig(**payload)


def _world_files(directory):
    """The *.world files in `directory`, in name order, hidden names left out
    as a shell's `*.world` leaves them.  A directory that cannot be listed
    raises listdir's OSError."""
    names = sorted(name for name in os.listdir(directory)
                   if name.endswith(".world") and not name.startswith("."))
    if not names:
        raise CoachPlanError("no *.world files")
    return [os.path.join(directory, name) for name in names]


def _config_hash(args, keys, **values):
    import hashlib  # here: only a call that hashes loads OpenSSL
    payload = {k: getattr(args, k, None) for k in keys}
    payload.update(values)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# --- subcommands -----------------------------------------------------------

def cmd_generate(args):
    domain, schemas = _load_domain_actions(args)
    world = _parse_file(args.world, parse_world_file, domain)
    chat = _chat_provider(args)
    goal = DEFAULT_GOAL if args.goal is None else PlanningGoal(args.goal)
    # An absent --goal hashes as "", as it always has.
    config_hash = _config_hash(
        args, ["domain", "actions", "world", "transcript", "k", "tactics", "seed"],
        goal=args.goal or "",
    )
    if args.library:
        # Read before the first model call, so an unusable library costs none.
        lib = _parse_file(args.library, planlib.load_library, schemas, domain.roles, domain,
                          loader=True)
        if args.frame_id in lib.frame_ids():
            raise DuplicateFrameId(args.frame_id)
    try:
        manifest, plan, scenario = run_generate(
            domain, list(schemas.values()), world, chat, MockEmbeddingProvider(),
            k=args.k, goal=goal, tactics=Tactics(args.tactics or ""),
            config_hash=config_hash,
        )
    finally:
        if args.provider:  # kept even when a stage failed
            _write_file(args.transcript, chat.transcript.save)
    if args.library:
        record = make_record(plan, scenario, args.frame_id, args.created_at)
        _write_file(args.library, planlib.save_library, planlib.add(lib, record))
    if args.manifest:
        _write_file(args.manifest, _write_text, manifest.to_json())
    print(f"manifest_hash {manifest.manifest_hash()}")
    print(serialize_plan(plan), end="")
    return EXIT_OK


def cmd_validate(args):
    domain, schemas = _load_domain_actions(args)
    plan = _parse_file(args.plan, parse_plan, schemas, domain.roles, domain.waypoints)
    initial = _parse_file(args.initial, parse_facts_file) if args.initial else frozenset()
    report = validate_plan(plan, schemas, initial)
    if args.format == "lines":
        sys.stdout.write(report.serialize())
    else:
        if report.ok:
            print("plan is valid: no violations")
        else:
            print(f"{len(report.violations)} violation(s):")
            sys.stdout.write(report.serialize())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_simulate(args):
    domain, schemas = _load_domain_actions(args)
    world = _parse_file(args.world, parse_world_file, domain)
    plan = _parse_file(args.plan, parse_plan, schemas, domain.roles, domain.waypoints)
    fsms = compile_fsm(plan, schemas)
    config = _sim_config(args)
    policy = make_opponent_policy(args.opponents, seed=args.seed)
    result = run_match(fsms, world, domain, config, policy)
    if args.trace_out:  # before any output, so that a failed write prints none
        _write_file(args.trace_out, _write_text, result.trace_text())
    print(f"success={result.success} passes={result.passes} "
          f"scoring_time={result.scoring_time}")
    if args.trace and not args.trace_out:
        sys.stdout.write(result.trace_text())
    return EXIT_OK


def cmd_evaluate(args):
    domain, schemas, lib = _open_library(args)
    world_files = _parse_file(args.scenarios, _world_files, loader=True)
    policy = make_opponent_policy(args.opponents, seed=args.seed)
    config = _sim_config(args)
    results = []
    # One world per call, so that a world's error names its file; the
    # library keeps its scenario index from one call to the next.
    for path in world_files:
        world = _parse_file(path, parse_world_file, domain)
        try:
            results.append(planlib.evaluate(lib, world, domain, config, policy, schemas))
        except EmptyLibrary as exc:  # no world's fault
            raise CoachPlanError(f"{args.library}: {exc}") from exc
        except CoachPlanError as exc:
            raise CoachPlanError(f"{path}: {exc}") from exc
    metrics = aggregate(results)
    if args.format == "tsv":
        sys.stdout.write(format_metrics_delimited(metrics))
    else:
        sys.stdout.write(format_metrics_table(metrics))
    return EXIT_OK


def cmd_library_ls(args):
    _, _, lib = _open_library(args)
    for record in lib.records:
        print(f"{record.frame_id}\t{record.created_at}\t"
              f"{len(record.plan.steps)} steps")
    return EXIT_OK


def cmd_library_add(args):
    domain, schemas, lib = _open_library(args)
    plan = _parse_file(args.plan, parse_plan, schemas, domain.roles, domain.waypoints)
    scenario = _parse_file(args.scenario, parse_scenario_block, domain)
    record = planlib.PlanRecord(plan, scenario, args.frame_id, args.created_at)
    _write_file(args.library, planlib.save_library, planlib.add(lib, record))
    print(f"added {args.frame_id}")
    return EXIT_OK


def cmd_library_select(args):
    domain, _, lib = _open_library(args)
    world = _parse_file(args.world, parse_world_file, domain)
    try:
        record = planlib.select_plan(lib, world, domain)
    except EmptyLibrary as exc:
        raise CoachPlanError(f"{args.library}: {exc}") from exc
    print(record.frame_id)
    print(serialize_scenario(scenario_from_world(world, domain)))
    print(serialize_plan(record.plan), end="")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

def _subcommand(subparsers, name, func, help, match=False, store=False):
    """The parser of the subcommand `name`, which runs `func`, with the flags
    several subcommands share, declared here once: --domain and --actions,
    then the match flags (simulate, evaluate) or the library (library ...)."""
    p = subparsers.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--domain", required=True)
    p.add_argument("--actions", required=True)
    if match:
        p.add_argument("--sim-config", help="JSON file overriding simulator defaults")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--opponents", default="STATIC",
                       choices=["STATIC", "NEAREST_INTERCEPT"])
    if store:
        p.add_argument("--library", required=True, help="library file (JSON Lines)")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coachplan",
        description="Offline multi-agent soccer plan generation, validation and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "generate", cmd_generate, "run the four-stage generation pipeline")
    p.add_argument("--world", required=True)
    p.add_argument("--transcript",
                   help="transcript to replay (offline mode); with --provider, "
                        "a new file to record the exchange into")
    p.add_argument("--provider",
                   help="live chat model name; needs --transcript to record into")
    p.add_argument("--library", help="library file (JSON Lines) to append the plan to")
    p.add_argument("--manifest", help="write the run manifest JSON here")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--tactics", default="")
    p.add_argument("--goal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-id", default="frame_0")
    p.add_argument("--created-at", default="1970-01-01T00:00:00Z")

    p = _subcommand(sub, "validate", cmd_validate, "validate a plan file")
    p.add_argument("--plan", required=True)
    p.add_argument("--initial", help="initial facts file")
    p.add_argument("--format", choices=["human", "lines"], default="human")

    p = _subcommand(sub, "simulate", cmd_simulate, "run one plan in the simulator", match=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--trace", action="store_true", help="print the event trace")
    p.add_argument("--trace-out", help="write the event trace to a file")

    p = _subcommand(sub, "evaluate", cmd_evaluate, "select and run plans over a scenario set",
                    match=True)
    p.add_argument("--library", required=True)
    p.add_argument("--scenarios", required=True, help="directory of *.world files")
    p.add_argument("--format", choices=["table", "tsv"], default="table")

    p = sub.add_parser("library", help="inspect or edit a plan library")
    library_sub = p.add_subparsers(dest="library_cmd", required=True)
    _subcommand(library_sub, "ls", cmd_library_ls, "list the stored plans", store=True)
    p = _subcommand(library_sub, "add", cmd_library_add, "store a plan and its scenario",
                    store=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--scenario", required=True, help="file holding a SCENARIO: block")
    p.add_argument("--frame-id", required=True)
    p.add_argument("--created-at", default="1970-01-01T00:00:00Z")
    p = _subcommand(library_sub, "select", cmd_library_select,
                    "print the stored plan nearest to a world", store=True)
    p.add_argument("--world", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout is flushed once more, by entry() before os._exit or, for
        # an in-process caller of main(), by Python at exit; with nowhere
        # to write, that flush would report the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValidationFailed as exc:
        print(f"FAILED at stage {exc.stage}:\n{exc}", end="", file=sys.stderr)
        return EXIT_VIOLATIONS
    except StageError as exc:
        print(f"FAILED at stage {exc.stage}: {exc}", file=sys.stderr)
        if isinstance(exc.__cause__, ProviderError):
            return EXIT_PROVIDER
        return EXIT_PARSE
    except (CoachPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    """The console script and `python -m coachplan.cli`.  After main()
    returns, every output file is closed and the package has registered no
    exit handler and started no thread, so what a normal exit would still do
    is the interpreter's teardown: full garbage collections and module
    cleanup, which nothing printed or written depends on.  The two streams
    are flushed and the process leaves without it.  --help, a usage error and
    an uncaught exception still leave through SystemExit."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
