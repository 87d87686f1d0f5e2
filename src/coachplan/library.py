"""Scenario-keyed plan library: persistence, nearest-scenario selection,
evaluation over simulated matches and k-medoids clustering under the
scenario distance."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import jsonl
from .coach import parse_scenario_block, retrieve_roles
from .domain import (
    Agent,
    Domain,
    Scenario,
    ScenarioIndex,
    WorldState,
    scenario_from_world,
    serialize_scenario,
)
from .errors import (
    CoachPlanError,
    DuplicateFrameId,
    EmptyLibrary,
    KTooLarge,
    MalformedRecord,
)
from .executor import MatchResult, SimConfig, compile_fsm, plan_agents, run_match
from .planlang import Plan, parse_plan, serialize_plan


@dataclass(frozen=True)
class PlanRecord:
    plan: Plan
    scenario: Scenario
    frame_id: str
    created_at: str  # ISO-8601, lexicographically ordered


@dataclass(frozen=True)
class Library:
    records: tuple  # of PlanRecord, insertion ordered
    # [domain, ScenarioIndex of the records' scenarios under it], once built.
    _index: list = field(default_factory=list, init=False, repr=False, compare=False)

    def frame_ids(self):
        return [r.frame_id for r in self.records]

    def scenario_index(self, domain: Domain) -> ScenarioIndex:
        """The index of the records' scenarios under `domain`, which
        select_plan and cluster_scenarios share: built on the first call
        with that Domain object, kept only once the build succeeds, and
        rebuilt for another Domain object."""
        built = self._index
        if not built or built[0] is not domain:
            built[:] = [domain, ScenarioIndex([r.scenario for r in self.records], domain)]
        return built[1]


def new_library() -> Library:
    return Library(())


def add(library: Library, record: PlanRecord) -> Library:
    """Append a record; frame ids stay unique."""
    if record.frame_id in library.frame_ids():
        raise DuplicateFrameId(record.frame_id)
    return Library(library.records + (record,))


def select_plan(library: Library, world: WorldState, domain: Domain) -> PlanRecord:
    """Record whose stored scenario is nearest to the world's scenario; ties
    broken by earliest created_at, then frame_id.  An unknown waypoint in
    any stored scenario raises UnknownWaypoint, even in a record far from
    the world's scenario, but only after the world's own errors."""
    records = library.records
    if not records:
        raise EmptyLibrary("library is empty")
    rows = domain.distance_rows(scenario_from_world(world, domain))
    _, at = library.scenario_index(domain).nearest(rows)
    return min((records[i] for i in at), key=lambda r: (r.created_at, r.frame_id))


def _world_for_plan(world: WorldState, fsms: dict, record: PlanRecord,
                    domain: Domain) -> WorldState:
    """Rename own agents to the plan's role names, using minimum-cost
    matching against the record's scenario, when the world lacks one of
    the agents the plan needs (`executor.plan_agents`, as run_match
    requires)."""
    if plan_agents(fsms) <= world.agents.keys():
        return world
    mapping = retrieve_roles(world, record.scenario, domain)
    agents = {}
    for agent_id, (pose, agent) in world.agents.items():
        if agent_id in mapping:
            role = mapping[agent_id]
            agents[role] = (pose, Agent(role, agent.team, role))
        else:
            agents[agent_id] = (pose, agent)
    return WorldState(agents, world.ball)


def evaluate(library: Library, world: WorldState, domain: Domain, config: SimConfig,
             policy, schemas=None) -> MatchResult:
    """One match: select the plan nearest to `world`, compile it against
    `schemas`, rename the world's own agents to the plan's roles when
    needed and run it against `policy`."""
    record = select_plan(library, world, domain)
    fsms = compile_fsm(record.plan, schemas)
    return run_match(fsms, _world_for_plan(world, fsms, record, domain), domain, config, policy)


def cluster_scenarios(library: Library, k: int, domain: Domain):
    """Deterministic k-medoids over scenario distance.

    Seeding is farthest-first from the lexicographically-first frame_id;
    assignment and medoid updates break ties by frame_id.  Returns a list of
    (medoid record, sorted member frame_ids).  Raises KTooLarge when k
    exceeds the number of records or of distinct scenarios (records at
    distance 0 from each other).

    Only the pairs k-medoids reads are scored, each once per call: every
    record against each medoid (seeding and assignment) and the members of
    each cluster against each other (medoid updates).  That is about
    n*k + n*n/k pairs in place of all n*n, so the saving grows with k; at
    k=1 every pair is still scored.  They are scored through the library's
    own ScenarioIndex (Library.scenario_index), the one select_plan uses:
    an unknown waypoint raises UnknownWaypoint naming the first in record
    order, as select_plan does.
    """
    records = library.records
    if k < 1 or k > len(records):
        raise KTooLarge(f"k={k} with {len(records)} records")
    ids = [r.frame_id for r in records]
    scenarios = [r.scenario for r in records]
    everyone = range(len(records))
    medoids = [min(everyone, key=ids.__getitem__)]
    index = library.scenario_index(domain)
    # columns[o][c] = scenario_distance(scenarios[c], scenarios[o]), scored
    # against scenarios[o]'s rows when first read; both directions are
    # kept, as they may round apart.
    columns = [{} for _ in everyone]

    def column(o, wanted):
        col = columns[o]
        missing = [c for c in wanted if c not in col]
        if missing:
            col.update(zip(missing, index.distances(domain.distance_rows(scenarios[o]),
                                                    missing)))
        return col

    first = column(medoids[0], everyone)
    # Each record's distance to its nearest medoid so far.
    nearest = [first[i] for i in everyone]
    while len(medoids) < k:
        spread, _, best = max(
            (nearest[i], ids[i], i) for i in everyone if i not in medoids
        )
        # Even the farthest record sits at distance 0 from a medoid: there
        # are fewer than k distinct scenarios, and another medoid would be
        # left with an empty cluster.
        if spread == 0.0:
            raise KTooLarge(
                f"k={k} with {len(medoids)} distinct scenarios "
                f"among {len(records)} records"
            )
        medoids.append(best)
        col = column(best, everyone)
        nearest = [min(d, col[i]) for i, d in enumerate(nearest)]

    def assign(medoids):
        for m in medoids:
            column(m, everyone)
        clusters = {m: [] for m in medoids}
        for i in everyone:
            clusters[min(medoids, key=lambda m: (columns[m][i], ids[m]))].append(i)
        return clusters

    def cost(c, cols):
        # A left fold in member order: sum() compensates from Python 3.12.
        total = 0.0
        for col in cols:
            total += col[c]
        return total

    while True:
        clusters = assign(medoids)
        new_medoids = []
        for m in medoids:
            members = clusters[m]
            cols = [column(o, members) for o in members]
            new_medoids.append(min(members, key=lambda c: (cost(c, cols), ids[c])))
        if set(new_medoids) == set(medoids):
            break
        medoids = new_medoids
    return [
        (records[m], sorted(ids[i] for i in clusters[m]))
        for m in sorted(medoids, key=ids.__getitem__)
    ]


# --- persistence -----------------------------------------------------------

# One JSON Lines record per plan: its frame id, its creation time and the
# serialize_scenario and serialize_plan texts.
_FIELDS = ["created_at", "frame_id", "plan", "scenario"]


def save_library(library: Library, path):
    """Write the library to the file `path`, one record per line."""
    jsonl.write_records(path, (
        {"created_at": r.created_at, "frame_id": r.frame_id,
         "plan": serialize_plan(r.plan), "scenario": serialize_scenario(r.scenario)}
        for r in library.records
    ))


def load_library(path, schemas: dict, roles: dict, domain: Domain) -> Library:
    """Read a library file; a missing file is an empty library.  A line that
    is no record, or repeats a frame id, raises MalformedRecord; so does a
    plan or scenario text that parse_plan or parse_scenario_block refuses,
    naming the line, the frame id and the parser's error (its __cause__).

    Each distinct plan text is parsed once: parse_plan's arguments are
    fixed for the call, so records with equal texts share one Plan."""
    if not os.path.exists(path):
        return new_library()
    plans = {}
    records = []
    # read_records yields one record per line or raises: the n-th record
    # stands on line n.
    for lineno, r in enumerate(jsonl.read_records(path, _FIELDS, "frame_id"), 1):
        field = "plan"
        try:
            plan = plans.get(r["plan"])
            if plan is None:
                plan = plans[r["plan"]] = parse_plan(r["plan"], schemas, roles,
                                                     domain.waypoints)
            field = "scenario"
            scenario = parse_scenario_block(r["scenario"], domain)
        except CoachPlanError as exc:
            raise MalformedRecord(
                f"bad {field} text of frame_id {r['frame_id']!r}: "
                f"{type(exc).__name__}: {exc}", lineno) from exc
        records.append(PlanRecord(plan, scenario, r["frame_id"], r["created_at"]))
    return Library(tuple(records))
