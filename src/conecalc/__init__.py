"""Numerical cone calculus for continuous maps and point sets.

The package measures tangent, Whitney and strict tangent cones of graphs
and sampled sets, brackets conormal cones through the top-duality, and
derives pointwise analysis from them: Lipschitz and strict-derivative
verdicts, first-order extrema, mean-value witnesses, chain-rule and
monotonicity checks, causal-map tests.
"""

from .analysis import (AnalysisReport, causal_check, chain_rule_check,
                       classify_point, fo_extremum, mean_value_witness,
                       monotone_classify_1d, time_function_check)
from .cones import ConicRelation, FiberCone
from .conormal import ConormalEstimate, closed_set_bounds
from .conormal import conormal as conormal_estimate
from .dini import ScaleLadder
from .errors import (ConeCalcError, DimensionMismatchError, EmptyShellError,
                     EstimationError, EvaluationError, ImproperConeError,
                     ParseError)
from .funcs import FunctionHandle, builtin, builtin_names, parse_expr
from .geometry import (PointCloud, cloud_from_csv, strict_cone, tangent_cone,
                       whitney_cone)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "ConeCalcError", "ConicRelation", "ConormalEstimate",
    "DimensionMismatchError", "EmptyShellError", "EstimationError",
    "EvaluationError", "FiberCone", "FunctionHandle", "ImproperConeError",
    "ParseError", "PointCloud", "ScaleLadder", "builtin", "builtin_names",
    "causal_check", "chain_rule_check", "classify_point", "cloud_from_csv",
    "closed_set_bounds", "conormal_estimate", "fo_extremum", "mean_value_witness",
    "monotone_classify_1d", "parse_expr", "run_suite", "strict_cone",
    "tangent_cone", "time_function_check", "whitney_cone", "__version__",
]
