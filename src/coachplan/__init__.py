"""Offline multi-agent soccer planning: action retrieval, coach prompting,
plan grounding and synchronization, plan selection and deterministic
execution with match metrics."""

from .actions import (
    ActionSchema,
    Embedding,
    MockEmbeddingProvider,
    Predicate,
    VectorIndex,
    build_index,
    cosine_similarity,
    parse_action_file,
    retrieve_actions,
)
from .coach import (
    build_coach_prompt,
    parse_advice_block,
    parse_scenario_block,
    retrieve_roles,
)
from .domain import (
    Agent,
    Domain,
    PlanningGoal,
    Pose,
    Role,
    Scenario,
    Tactics,
    Waypoint,
    WorldState,
    nearest_waypoint,
    parse_domain_file,
    parse_world_file,
    scenario_distance,
    scenario_from_world,
    serialize_scenario,
)
from .executor import (
    AggregateMetrics,
    MatchResult,
    SimConfig,
    aggregate,
    compile_fsm,
    format_metrics_table,
    make_opponent_policy,
    run_match,
)
from .library import (
    Library,
    PlanRecord,
    add,
    cluster_scenarios,
    load_library,
    new_library,
    save_library,
    select_plan,
)
from .planlang import (
    GroundedAction,
    Plan,
    PlanStep,
    parse_plan,
    serialize_plan,
)
from .providers import (
    ChatRequest,
    ChatResponse,
    ReplayChatProvider,
    RecordingChatProvider,
    Transcript,
)
from .refine import (
    ValidationReport,
    Violation,
    auto_parallelize,
    build_grounding_prompt,
    build_sync_prompt,
    initial_state_from_world,
    validate_plan,
)

__version__ = "0.1.0"
