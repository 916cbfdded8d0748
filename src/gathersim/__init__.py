"""Exact-arithmetic simulator for randomized robot rendezvous under
adversarial asynchronous scheduling."""

__version__ = "0.1.0"

from .rational import Rat, format_rat, parse_rat  # noqa: F401
from .engine import (  # noqa: F401
    Budgets,
    RobotSpec,
    Trace,
    position_at,
    project_scenario_to_line,
    run,
)
from .policies import (  # noqa: F401
    destination,
    gather_lambda_oracle,
)
from .analysis import (  # noqa: F401
    classify_success,
    geometric_repeat_count,
    max_distance_from,
    segment_attempts,
    segment_phases,
    theorem5_bound,
)
from .multirobot import (  # noqa: F401
    Configuration,
    Entity,
    farthest_pairs,
    line_gather_step,
    reduce_to_line,
    three_point_direct_check,
    tie_break_step,
)
