"""End-to-end offline generation pipeline and its run manifest.

Stage order: action retrieval, coach, plan grounding, plan synchronizer.
Each stage's artifacts land in a RunManifest so a run is auditable and
reproducible from config plus transcript alone.
"""
from __future__ import annotations

import json

from . import library as planlib
from .actions import build_index, retrieve_actions
from .coach import (
    build_coach_prompt,
    parse_advice_block,
    parse_scenario_block,
)
from .domain import PlanningGoal, Scenario, Tactics, scenario_from_world, serialize_scenario
from .errors import (
    CoachParseFailed,
    CoachPlanError,
    GroundingFailed,
    RetrievalFailed,
    SyncFailed,
    ValidationFailed,
)
from .planlang import parse_plan, serialize_plan
from .refine import (
    build_grounding_prompt,
    build_sync_prompt,
    initial_state_from_world,
    load_sync_examples,
    validate_plan,
)

DEFAULT_GOAL = PlanningGoal("The own team should score a goal in the opponent's goal.")


class RunManifest:
    def __init__(self, config_hash: str, stages=None):
        self.config_hash = config_hash
        self.stages = {} if stages is None else stages

    def record(self, stage: str, artifact):
        self.stages[stage] = artifact

    def to_json(self) -> str:
        payload = {"config_hash": self.config_hash, "stages": self.stages}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def manifest_hash(self) -> str:
        import hashlib  # here: only a call that hashes loads OpenSSL
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def retrieval_query(goal: PlanningGoal, domain) -> str:
    summary = " ".join(
        f"{w.token} {w.description}" for w in domain.waypoints.values()
    )
    return f"{goal.text} {summary}"


def run_generate(domain, schemas, world, chat_provider, embed_provider,
                 k: int = 8, goal: PlanningGoal = DEFAULT_GOAL,
                 tactics: Tactics = Tactics(), config_hash: str = ""):
    """Run the four-stage pipeline; returns (manifest, plan, scenario).

    Aborts with a stage-tagged error on the first hard failure.
    """
    manifest = RunManifest(config_hash)

    # Stage 1: action retrieval.
    try:
        index = build_index(schemas, embed_provider)
        query = retrieval_query(goal, domain)
        retrieved = retrieve_actions(query, index, embed_provider, k=k)
    except CoachPlanError as exc:
        raise RetrievalFailed(str(exc)) from exc
    retrieved_by_id = {s.action_id: s for s in retrieved}
    manifest.record("retrieval", {
        "query": query,
        "k": k,
        "action_ids": [s.action_id for s in retrieved],
    })

    # Stage 2: coach.
    try:
        request = build_coach_prompt(domain, retrieved, goal, tactics)
        response = chat_provider.complete(request)
        scenario = parse_scenario_block(response.text, domain)
        advice = parse_advice_block(response.text)
    except CoachPlanError as exc:
        raise CoachParseFailed(str(exc)) from exc
    geometric = scenario_from_world(world, domain)
    manifest.record("coach", {
        "prompt_fingerprint": request.fingerprint(),
        "response": response.text,
        "scenario": serialize_scenario(scenario),
        "geometric_scenario": serialize_scenario(geometric),
        "advice": advice,
    })

    # Stage 3: plan grounding.
    try:
        request = build_grounding_prompt(domain, retrieved, scenario, advice)
        response = chat_provider.complete(request)
        grounded = parse_plan(response.text, retrieved_by_id, domain.roles, domain.waypoints)
    except CoachPlanError as exc:
        raise GroundingFailed(str(exc)) from exc
    grounded_text = serialize_plan(grounded)
    manifest.record("grounding", {
        "prompt_fingerprint": request.fingerprint(),
        "response": response.text,
        "plan": grounded_text,
    })

    # Stage 4: plan synchronizer.
    try:
        positive, negatives = load_sync_examples()
        request = build_sync_prompt(grounded_text, positive, negatives)
        response = chat_provider.complete(request)
        synced = parse_plan(response.text, retrieved_by_id, domain.roles, domain.waypoints)
    except CoachPlanError as exc:
        raise SyncFailed(str(exc)) from exc
    manifest.record("synchronizer", {
        "prompt_fingerprint": request.fingerprint(),
        "response": response.text,
        "plan": serialize_plan(synced),
    })

    # Validation gate.
    initial = initial_state_from_world(world, domain)
    report = validate_plan(synced, index.schemas, initial)
    manifest.record("validation", {"report": report.serialize()})
    if not report.ok:
        raise ValidationFailed(report.serialize())
    return manifest, synced, scenario


def make_record(plan, scenario: Scenario, frame_id: str, created_at: str):
    return planlib.PlanRecord(plan, scenario, frame_id, created_at)
