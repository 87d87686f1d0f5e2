"""Plan refinement: grounding/synchronizer prompts, STRIPS validation and a
deterministic parallelizer, all three reading one grounding pass.

Validation simulates a plan over ground facts.  `at` and the ball facts are
functional slots: adding `at(R, X)` displaces any other `at(R, _)`, adding a
ball fact displaces the previous ball fact, so states never carry two ball
facts.  JOIN steps evaluate all member preconditions against the pre-step
state and apply a conflict-checked union of effects.
"""
from __future__ import annotations

import functools
import re
from importlib import resources
from typing import NamedTuple

from .actions import (ACTING_AGENT, MOVE, PASS, Predicate, classify, parse_predicate,
                      serialize_actions)
from .coach import SYSTEM_TEXT, describe_roles, describe_waypoints, fill_template
from .domain import OWN, Domain, WorldState, ball_holder, nearest_waypoint, serialize_scenario
from .errors import InvalidInputPlan, ParseError, UnresolvedPlaceholder
from .planlang import JOIN, SINGLE, GroundedAction, Plan, PlanStep
from .providers import ChatRequest

# Violation kinds.
PRECONDITION = "PRECONDITION"
SELF_JOIN = "SELF_JOIN"
EFFECT_CONFLICT = "EFFECT_CONFLICT"
UNRUNNABLE = "UNRUNNABLE"

class Violation(NamedTuple):
    step_index: int
    kind: str
    message: str

    def __str__(self):
        return f"STEP {self.step_index}: [{self.kind}] {self.message}"


class ValidationReport(NamedTuple):
    violations: tuple
    final_state: frozenset

    @property
    def ok(self) -> bool:
        return not self.violations

    def serialize(self) -> str:
        if not self.violations:
            return "OK\n"
        return "\n".join(str(v) for v in self.violations) + "\n"


class ActionGrounding(NamedTuple):
    action: GroundedAction
    kind: str | None  # from `actions.classify`; None without a schema or a kind
    preconditions: tuple  # of grounded Predicate; a negated one must not hold
    adds: frozenset  # of grounded Predicate
    deletes: frozenset  # of grounded Predicate, stored without the negation
    target: str | None  # the MOVE waypoint or the PASS receiver


class StepGrounding(NamedTuple):
    index: int  # 1-based, as violations count steps
    kind: str  # SINGLE | JOIN
    actions: tuple  # of ActionGrounding, in step order
    faults: tuple  # of Violation: a SELF_JOIN, then each UNRUNNABLE action


def _ground(pred: Predicate, env, negated=False) -> Predicate:
    """`pred` with each term `X` or `?X` replaced by `env[X]`, if any, else by `X`."""
    return Predicate(pred.name, tuple([env.get(t[1:], t[1:]) if t.startswith("?")
                                       else env.get(t, t) for t in pred.args]), negated)


@functools.lru_cache(maxsize=1024)  # per distinct (action, schema), shared by plans and matches
def _ground_action(action: GroundedAction, schema):
    """(ActionGrounding, the reason no match can run the action, or None).
    Keyed by the whole action and schema, not by ids, so an edited schema
    gets its own grounding."""
    if schema is None:
        return (ActionGrounding(action, None, (), frozenset(), frozenset(), None),
                "no schema whose effects fit one action kind")
    env = dict(action.args)
    env[ACTING_AGENT] = action.agent_id
    adds = frozenset(_ground(p, env) for p in schema.effects if not p.negated)
    deletes = frozenset(_ground(p, env) for p in schema.effects if p.negated)
    kind = classify(schema)
    target = fault = None
    if kind is None:
        fault = "no schema whose effects fit one action kind"
    elif kind in (MOVE, PASS):
        target = next(f.args[-1] for f in adds if f.name in ("at", "ball_at"))
        senders = sorted(f.args[0] for f in adds if f.name == "has_passed")
        if kind == PASS and senders != [action.agent_id]:
            fault = f"the pass is made by {', '.join(senders)}, not the acting agent"
    preconditions = tuple(_ground(p, env, p.negated) for p in schema.preconditions)
    return ActionGrounding(action, kind, preconditions, adds, deletes, target), fault


def ground_plan(plan: Plan, schemas):
    """Yield a StepGrounding per step, each action grounded once against
    `schemas`: what validate_plan, executor.compile_fsm and auto_parallelize
    read.  A step's faults are what no match can run: a JOIN with two
    actions by one agent (SELF_JOIN), or an UNRUNNABLE action, one with no
    schema, with effects that fit no action kind, or a pass whose
    `has_passed` names another agent than the acting one, which holds the
    ball the simulator passes."""
    for index, step in enumerate(plan.steps, start=1):
        faults = []
        agents = step.agents()
        dupes = sorted({a for a in agents if agents.count(a) > 1})
        if dupes:
            faults.append(Violation(index, SELF_JOIN,
                                    "JOIN contains multiple actions by " + ", ".join(dupes)))
        actions = []
        for action in step.actions:
            grounding, fault = _ground_action(action, schemas.get(action.action_id))
            actions.append(grounding)
            if fault:
                faults.append(Violation(
                    index, UNRUNNABLE, f"{action.action_id} {action.agent_id}: {fault}"))
        yield StepGrounding(index, step.kind, tuple(actions), tuple(faults))


def _slot(pred: Predicate):
    if pred.name == "at":
        return ("at", pred.args[0])
    if pred.name in ("ball_at", "ball_held_by"):
        return ("ball",)
    return (pred.name,) + pred.args


def apply_effects(state: frozenset, adds, deletes) -> frozenset:
    """`state` less `deletes`, each add displacing what its slot held; of two
    adds to one slot, the later in `str` order stays."""
    written = {_slot(fact): fact for fact in sorted(adds, key=str)}
    return frozenset([f for f in state if f not in deletes and _slot(f) not in written]
                     + list(written.values()))


def validate_plan(plan: Plan, schemas: dict, initial: frozenset) -> ValidationReport:
    """Simulate the plan from `initial`, collecting every violation (not
    fail-fast): per step, its `ground_plan` faults, its actions' unmet
    preconditions, then a JOIN's EFFECT_CONFLICT.
    Effects are applied even after violations, so later steps are checked."""
    return _validate_grounded(ground_plan(plan, schemas), initial)


def _validate_grounded(grounded, initial: frozenset) -> ValidationReport:
    """validate_plan over the StepGroundings of a plan."""
    state = frozenset(initial)
    violations = []
    for step in grounded:
        violations += step.faults
        all_adds, all_deletes = set(), set()
        for grounding in step.actions:
            action = grounding.action
            for pred in grounding.preconditions:
                if (Predicate(pred.name, pred.args) in state) == pred.negated:
                    violations.append(Violation(
                        step.index, PRECONDITION,
                        f"{action.action_id} {action.agent_id}: requires {pred}"))
            all_adds |= grounding.adds
            all_deletes |= grounding.deletes
        conflicts = sorted(all_adds & all_deletes, key=str)
        if step.kind == JOIN and conflicts:
            violations.append(Violation(
                step.index, EFFECT_CONFLICT,
                "JOIN both adds and deletes: " + ", ".join(str(c) for c in conflicts)))
        state = apply_effects(state, all_adds, all_deletes)
    return ValidationReport(tuple(violations), state)


def initial_state_from_world(world: WorldState, domain: Domain) -> frozenset:
    """Seed facts from a world: own roles are `at` their nearest waypoint;
    the ball is held by the role of `ball_holder(world)`, else `ball_at` its
    nearest waypoint.  A holder without a role runs no plan, so its ball
    gives no fact at all."""
    facts = {Predicate("at", (agent.role, nearest_waypoint((pose.x, pose.y), domain)))
             for pose, agent in world.agents.values()
             if agent.team == OWN and agent.role is not None}
    holder = ball_holder(world)
    if holder is None:
        facts.add(Predicate("ball_at", (nearest_waypoint(world.ball, domain),)))
    elif world.agents[holder][1].role is not None:
        facts.add(Predicate("ball_held_by", (world.agents[holder][1].role,)))
    return frozenset(facts)


def parse_facts_file(text: str) -> frozenset:
    """One ground predicate per line, `#` comments."""
    facts = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pred = parse_predicate(line, lineno)
        if pred.negated:
            raise ParseError("initial facts must be positive", line=lineno)
        facts.add(pred)
    return frozenset(facts)


# --- deterministic parallelizer -------------------------------------------

def auto_parallelize(plan: Plan, schemas: dict, initial: frozenset | None = None) -> Plan:
    """Greedily merge runs of consecutive SINGLE steps into JOINs when the
    agents are pairwise distinct and the actions touch disjoint fact slots.
    Per-agent action order is preserved; existing JOINs pass through.  A
    plan with a `ground_plan` fault, or, given `initial`, any violation, is
    refused."""
    grounded = tuple(ground_plan(plan, schemas))
    if initial is not None:
        report = _validate_grounded(grounded, initial)
        if not report.ok:
            raise InvalidInputPlan(report.serialize())
    faults = [fault for step in grounded for fault in step.faults]
    if faults:
        raise InvalidInputPlan(f"input {faults[0]}")

    out_steps = []
    group = []  # of (action, slots read, slots written)

    def flush():
        if not group:
            return
        actions = tuple(action for action, _, _ in group)
        out_steps.append(PlanStep(SINGLE if len(actions) == 1 else JOIN, actions))
        group.clear()

    for step, ground in zip(plan.steps, grounded):
        if step.kind == JOIN:
            flush()
            out_steps.append(step)
            continue
        grounding, = ground.actions
        reads = {_slot(p) for p in grounding.preconditions}
        writes = {_slot(f) for f in grounding.adds | grounding.deletes}
        agent = grounding.action.agent_id
        compatible = all(agent != other.agent_id and not (
            writes & other_writes or writes & other_reads or other_writes & reads)
            for other, other_reads, other_writes in group)
        if not compatible:
            flush()
        group.append((grounding.action, reads, writes))
    flush()
    return Plan(tuple(out_steps))


# --- prompts ---------------------------------------------------------------

def build_grounding_prompt(domain: Domain, retrieved_actions, scenario,
                           advice) -> ChatRequest:
    if not advice.strip():
        raise UnresolvedPlaceholder("advice is empty")
    slots = {
        "[DOMAIN]": describe_waypoints(domain),
        "[ACTIONS]": serialize_actions(retrieved_actions).rstrip(),
        "[ACTION_IDS]": ", ".join(s.action_id for s in retrieved_actions),
        "[AGENT_IDS]": ", ".join(domain.roles),
        "[ROLES]": describe_roles(domain),
        "[SCENARIO]": serialize_scenario(scenario),
        "[ADVICE]": advice,
    }
    return ChatRequest(system_text=SYSTEM_TEXT,
                       user_text=fill_template("grounding.txt", slots))


def load_sync_examples():
    """The synchronizer's packaged examples: (positive, [(reason,
    negative), ...]), read and parsed once per process; each call gets a
    list of its own."""
    positive, negatives = _packaged_sync_examples()
    return positive, list(negatives)


@functools.cache
def _packaged_sync_examples():
    """Parse the POSITIVE/NEGATIVE example blocks of the packaged
    `sync_examples.txt`: (positive, ((reason, negative), ...)).  `#` lines
    are comments; a later POSITIVE block replaces an earlier one, and with
    none the positive is None."""
    text = resources.files("coachplan.data").joinpath("sync_examples.txt").read_text()
    text = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    _, *blocks = re.split(r"^(POSITIVE|NEGATIVE):(.*)$", text, flags=re.MULTILINE)
    positive = None
    negatives = []
    for kind, reason, body in zip(blocks[::3], blocks[1::3], blocks[2::3]):
        if kind == "POSITIVE":
            positive = body.strip()
        else:
            negatives.append((reason.strip(), body.strip()))
    return positive, tuple(negatives)


def build_sync_prompt(grounded_plan_text: str, positive_example: str,
                      negative_examples) -> ChatRequest:
    negatives = "\n\n".join(
        f"Invalid ({reason}):\n{text}" for reason, text in negative_examples
    )
    slots = {
        "[POSITIVE_EXAMPLE]": positive_example,
        "[NEGATIVE_EXAMPLES]": negatives,
        "[PLAN]": grounded_plan_text.strip(),
    }
    return ChatRequest(system_text=SYSTEM_TEXT,
                       user_text=fill_template("sync.txt", slots))
