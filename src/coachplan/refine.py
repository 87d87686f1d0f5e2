"""Plan refinement: grounding/synchronizer prompts, STRIPS validation and a
deterministic parallelizer.

Validation simulates a plan over ground facts.  `at` and the ball facts are
functional slots: adding `at(R, X)` displaces any other `at(R, _)`, adding a
ball fact displaces the previous ball fact, so states never carry two ball
facts.  JOIN steps evaluate all member preconditions against the pre-step
state and apply a conflict-checked union of effects.
"""
from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from .actions import ACTING_AGENT, KICK, PASS, Predicate, classify, parse_predicate, serialize_actions
from .coach import SYSTEM_TEXT, describe_roles, describe_waypoints, fill_template
from .domain import OWN, Domain, WorldState, ball_holder, nearest_waypoint, serialize_scenario
from .errors import InvalidInputPlan, ParseError, UnresolvedPlaceholder
from .planlang import JOIN, SINGLE, GroundedAction, Plan, PlanStep
from .providers import ChatRequest

# Violation kinds.
PRECONDITION = "PRECONDITION"
SELF_JOIN = "SELF_JOIN"
EFFECT_CONFLICT = "EFFECT_CONFLICT"
PASS_CONSTRAINT = "PASS_CONSTRAINT"

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


def ground_predicate(pred: Predicate, action: GroundedAction) -> Predicate:
    env = dict(action.args)
    env[ACTING_AGENT] = action.agent_id
    terms = []
    for term in pred.args:
        name = term[1:] if term.startswith("?") else term
        terms.append(env.get(name, name))
    return Predicate(pred.name, tuple(terms), negated=pred.negated)


def grounded_effects(action: GroundedAction, schemas):
    adds, deletes = set(), set()
    for pred in schemas[action.action_id].effects:
        g = ground_predicate(pred, action)
        bare = Predicate(g.name, g.args)
        (deletes if g.negated else adds).add(bare)
    return adds, deletes


def grounded_preconditions(action: GroundedAction, schemas):
    return [ground_predicate(p, action) for p in schemas[action.action_id].preconditions]


def _slot(pred: Predicate):
    if pred.name == "at":
        return ("at", pred.args[0])
    if pred.name in ("ball_at", "ball_held_by"):
        return ("ball",)
    return (pred.name,) + pred.args


def apply_effects(state: frozenset, adds, deletes) -> frozenset:
    facts = set(state) - set(deletes)
    for fact in sorted(adds, key=str):
        slot = _slot(fact)
        facts = {f for f in facts if _slot(f) != slot}
        facts.add(fact)
    return frozenset(facts)


def _check_preconditions(action, schemas, state, step_index, violations):
    for pred in grounded_preconditions(action, schemas):
        bare = Predicate(pred.name, pred.args)
        holds = (bare in state) != pred.negated
        if not holds:
            violations.append(
                Violation(
                    step_index,
                    PRECONDITION,
                    f"{action.action_id} {action.agent_id}: requires {pred}",
                )
            )
    if classify(schemas[action.action_id]) in (PASS, KICK):
        if Predicate("has_passed", (action.agent_id,)) in state:
            violations.append(
                Violation(
                    step_index,
                    PASS_CONSTRAINT,
                    f"{action.agent_id} cannot {action.action_id}: it has passed "
                    "the ball and has not received it back",
                )
            )


def validate_plan(plan: Plan, schemas: dict, initial: frozenset) -> ValidationReport:
    """Simulate the plan from `initial`, collecting every violation (not
    fail-fast).  Effects are applied even after violations so later steps
    are still checked.  A SINGLE step runs as a JOIN of one action; the
    SELF_JOIN and EFFECT_CONFLICT checks apply to JOINs only."""
    state = frozenset(initial)
    violations = []
    for index, step in enumerate(plan.steps, start=1):
        join = step.kind == JOIN
        if join:
            agents = step.agents()
            dupes = sorted({a for a in agents if agents.count(a) > 1})
            if dupes:
                violations.append(
                    Violation(
                        index,
                        SELF_JOIN,
                        "JOIN contains multiple actions by " + ", ".join(dupes),
                    )
                )
        all_adds, all_deletes = set(), set()
        for action in step.actions:
            _check_preconditions(action, schemas, state, index, violations)
            adds, deletes = grounded_effects(action, schemas)
            all_adds |= adds
            all_deletes |= deletes
        conflicts = sorted(all_adds & all_deletes, key=str)
        if join and conflicts:
            violations.append(
                Violation(
                    index,
                    EFFECT_CONFLICT,
                    "JOIN both adds and deletes: "
                    + ", ".join(str(c) for c in conflicts),
                )
            )
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

def _footprint(action: GroundedAction, schemas):
    reads = {_slot(Predicate(p.name, p.args))
             for p in grounded_preconditions(action, schemas)}
    adds, deletes = grounded_effects(action, schemas)
    writes = {_slot(f) for f in adds | deletes}
    return reads, writes


def _compatible(a, b, schemas):
    if a.agent_id == b.agent_id:
        return False
    reads_a, writes_a = _footprint(a, schemas)
    reads_b, writes_b = _footprint(b, schemas)
    return not (
        writes_a & writes_b or writes_a & reads_b or writes_b & reads_a
    )


def auto_parallelize(plan: Plan, schemas: dict, initial: frozenset | None = None) -> Plan:
    """Greedily merge runs of consecutive SINGLE steps into JOINs when the
    agents are pairwise distinct and the actions touch disjoint fact slots.
    Per-agent action order is preserved; existing JOINs pass through."""
    if initial is not None:
        report = validate_plan(plan, schemas, initial)
        if not report.ok:
            raise InvalidInputPlan(report.serialize())
    for step in plan.steps:
        if step.kind == JOIN and len(set(step.agents())) != len(step.agents()):
            raise InvalidInputPlan("input JOIN contains duplicate agents")

    out_steps = []
    group = []

    def flush():
        if not group:
            return
        if len(group) == 1:
            out_steps.append(PlanStep(SINGLE, (group[0],)))
        else:
            out_steps.append(PlanStep(JOIN, tuple(group)))
        group.clear()

    for step in plan.steps:
        if step.kind == JOIN:
            flush()
            out_steps.append(step)
            continue
        action = step.actions[0]
        if all(_compatible(action, member, schemas) for member in group):
            group.append(action)
        else:
            flush()
            group.append(action)
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
    `sync_examples.txt`: (positive, ((reason, negative), ...))."""
    text = resources.files("coachplan.data").joinpath("sync_examples.txt").read_text()
    positive = None
    negatives = []
    current = None
    body = []

    def close():
        nonlocal positive
        if current is None:
            return
        kind, reason = current
        chunk = "\n".join(body).strip()
        if kind == "POSITIVE":
            positive = chunk
        else:
            negatives.append((reason, chunk))

    for raw in text.splitlines():
        if raw.startswith("#"):
            continue
        if raw.startswith("POSITIVE:"):
            close()
            current, body = ("POSITIVE", ""), []
        elif raw.startswith("NEGATIVE:"):
            close()
            current, body = ("NEGATIVE", raw.split(":", 1)[1].strip()), []
        elif current is not None:
            body.append(raw)
    close()
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
