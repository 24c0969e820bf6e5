"""Numerical membership checks for concave mapping classes.

Third-order complex jets feed a family of pointwise inequality margins; grid
scans reduce margins to verdicts; an independent boundary-curve oracle
cross-checks every verdict geometrically. See the README for the CLI.
"""

from .catalog import (AngleMap, Co0Cubic, FamilySpec, HalfPlane, KAlpha, Kp,
                      Laurent, format_spec, omitted_segment, parse_spec)
from .errors import (BasePointMismatchError, BranchCutError,
                     CriticalPointError, EmptyScanError,
                     IndeterminateSampleError, JetDivisionError,
                     NonFiniteJetError, PhiUndefinedError, PoleProximityError,
                     SampleExclusionError, SpecParseError)
from .jets import DEGENERACY_FLOOR, Jet3, schwarzian
from .margins import (THEOREMS, ClassifyResult, GridConfig, MappingClass,
                      MarginReport, classify, default_grid, estimate_order,
                      geometric_radii, margin_at, parse_class,
                      phi_prime_one_diagnostic, scan)
from .operators import OperatorPoint, a_p_of, thm3_phi3_origin
from .oracle import (CurveSample, boundary_curve, convexity_defect,
                     oracle_concave, real_axis_crossings)

__version__ = "0.1.0"

__all__ = [
    "AngleMap", "BasePointMismatchError", "BranchCutError", "ClassifyResult",
    "Co0Cubic", "CriticalPointError", "CurveSample", "DEGENERACY_FLOOR",
    "EmptyScanError", "FamilySpec", "GridConfig", "HalfPlane",
    "IndeterminateSampleError", "Jet3", "JetDivisionError", "KAlpha", "Kp",
    "Laurent", "MappingClass", "MarginReport", "NonFiniteJetError",
    "OperatorPoint", "PhiUndefinedError", "PoleProximityError",
    "SampleExclusionError", "SpecParseError", "THEOREMS", "a_p_of",
    "boundary_curve", "classify", "convexity_defect", "default_grid",
    "estimate_order", "format_spec", "geometric_radii", "margin_at",
    "omitted_segment", "oracle_concave", "parse_class", "parse_spec",
    "phi_prime_one_diagnostic", "real_axis_crossings", "scan", "schwarzian",
    "thm3_phi3_origin",
]
