"""Exception hierarchy shared across the pipeline."""


class CoachPlanError(Exception):
    """Base class for all library errors."""


# --- domain ---------------------------------------------------------------

class EmptyDomain(CoachPlanError):
    pass


class MissingRole(CoachPlanError):
    pass


class UnknownWaypoint(CoachPlanError):
    pass


# --- parsing (files) ------------------------------------------------------

class ParseError(CoachPlanError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateActionId(ParseError):
    pass


class UndeclaredVariable(ParseError):
    pass


class MalformedRecord(ParseError):
    """A line of a JSON Lines store (plan library, chat transcript) that is
    not one of its records."""


# --- embeddings / retrieval ----------------------------------------------

class DimMismatch(CoachPlanError):
    pass


class ZeroVector(CoachPlanError):
    pass


class EmptyIndex(CoachPlanError):
    pass


class ProviderError(CoachPlanError):
    pass


class UnencodableText(CoachPlanError):
    """Prompt text with a lone surrogate, which UTF-8 cannot encode."""


# --- coach response parsing ----------------------------------------------

class MissingScenarioBlock(CoachPlanError):
    pass


class MissingAdviceBlock(CoachPlanError):
    pass


class UnknownSubject(CoachPlanError):
    pass


class DuplicateSubject(CoachPlanError):
    pass


class CardinalityMismatch(CoachPlanError):
    pass


class UnresolvedPlaceholder(CoachPlanError):
    pass


# --- plan language --------------------------------------------------------

class PlanSyntaxError(CoachPlanError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


class UnknownAction(CoachPlanError):
    pass


class UnknownAgent(CoachPlanError):
    pass


class ArgMismatch(CoachPlanError):
    pass


class DisallowedAction(CoachPlanError):
    pass


class EmptyPlan(CoachPlanError):
    pass


class InvalidInputPlan(CoachPlanError):
    pass


class InvalidPlan(CoachPlanError):
    pass


# --- executor / metrics ---------------------------------------------------

class ConfigInvalid(CoachPlanError):
    pass


class EmptyInput(CoachPlanError):
    """No match results to aggregate, or a blank planning goal."""


# --- plan library ---------------------------------------------------------

class DuplicateFrameId(CoachPlanError):
    pass


class EmptyLibrary(CoachPlanError):
    pass


class KTooLarge(CoachPlanError):
    pass


# --- pipeline stages -------------------------------------------------------

class StageError(CoachPlanError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    stage = "unknown"


class RetrievalFailed(StageError):
    stage = "action-retrieval"


class CoachParseFailed(StageError):
    stage = "coach"


class GroundingFailed(StageError):
    stage = "plan-grounding"


class SyncFailed(StageError):
    stage = "plan-synchronizer"


class ValidationFailed(StageError):
    stage = "validation"
