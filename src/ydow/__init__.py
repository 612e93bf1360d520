"""Fourteen mental-arithmetic methods for the year's day-of-week share.

The share of a two-digit year y is floor(5y/4) mod 7 -- the slow part of
computing weekdays in your head.  This package collects the known shortcut
methods behind one interface, verifies each one exhaustively against the
reference formula, explains every computation step by step with a mental
cost attached, derives divisor-style formulas from scratch, and assembles
full day-of-week answers through Doomsday-style and First-Sunday-style
pipelines.
"""

from .arith import (
    ShareResult,
    SignConvention,
    floor_div,
    mod7,
    year_share,
)
from .dates import (
    CivilDate,
    DateParseError,
    DateValidationError,
    Weekday,
    daycount_weekday,
    is_leap,
    parse_date,
)
from .divisor import (
    BUILTIN_DIVISOR_SPECS,
    DivisorSpec,
    NotRepresentableError,
    derive_divisor_formula,
)
from .pipeline import (
    CalendarPolicyError,
    DowResult,
    PipelineId,
    dow,
)
from .registry import (
    METHODS,
    MethodCategory,
    MethodDescriptor,
    UnknownMethodError,
    VerificationReport,
    cost_report,
    evaluate,
    method_ids,
    verify_all,
    verify_method,
)
from .trace import (
    DEFAULT_COST_MODEL,
    DEFAULT_WEIGHTS,
    CostModel,
    Step,
    StepKind,
    StepTrace,
    TraceReplayError,
    load_cost_model,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_DIVISOR_SPECS",
    "CalendarPolicyError",
    "CivilDate",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_WEIGHTS",
    "DateParseError",
    "DateValidationError",
    "DivisorSpec",
    "DowResult",
    "METHODS",
    "MethodCategory",
    "MethodDescriptor",
    "NotRepresentableError",
    "PipelineId",
    "ShareResult",
    "SignConvention",
    "Step",
    "StepKind",
    "StepTrace",
    "TraceReplayError",
    "UnknownMethodError",
    "VerificationReport",
    "Weekday",
    "cost_report",
    "daycount_weekday",
    "derive_divisor_formula",
    "dow",
    "evaluate",
    "floor_div",
    "is_leap",
    "load_cost_model",
    "method_ids",
    "mod7",
    "parse_date",
    "verify_all",
    "verify_method",
    "year_share",
]
