"""Minimal annuli in a slab: construction, measurement, and comparisons.

The package builds conformal minimal annuli from pairs of Laurent-polynomial
square-root factors, measures circle lengths, level curves, slab areas, and
total curvature, and runs a catalog of named, machine-checkable comparisons
against catenoid covers.
"""

from .errors import (
    DomainError,
    EmptySlabError,
    EmptyWindowError,
    GeometryError,
    HeightRangeError,
    InadmissibleParametersError,
    InadmissibleWindowError,
    NonMonotoneRayError,
    NumericalError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from .laurent import AnnulusWindow, LaurentPoly, roots, trapezoid_circle
from .weierstrass import (
    FluxVector,
    Parity,
    PeriodVerdict,
    Slab,
    WeierstrassData,
    data_from_json,
    data_to_json,
    flux,
    from_g_pair,
    gauss_winding,
    height,
    immerse,
    period_check,
    symmetry_check,
    winding_class,
)
from .measures import (
    CatenoidParams,
    LevelCurve,
    catenoid_area,
    catenoid_level_length,
    circle_length,
    circle_length_dd,
    length_profile,
    level_radii,
    planar_self_intersections,
    profile_radii,
    traversal_multiplicity,
    marginal_waist_ratio,
    marginally_stable_waist,
    slab_area,
    total_curvature,
    trace_level,
    trace_levels,
    waist_height,
)
from .families import (
    admissible_annulus,
    attained_height_range,
    catenoid_cover,
    clip_to_slab,
    family_from_spec,
    figure_eight,
    figure_eight_pair,
    perturbed_two_cover,
    perturbed_two_cover_pair,
)
from .experiments import (
    MeasureReport,
    Scenario,
    SCENARIOS,
    Verdict,
    classify_levels,
    compare_areas,
    compare_lengths,
    random_even_vertical_flux,
    random_three_term_pair,
    run_scenario,
    sweep_scenario,
)

__version__ = "0.1.0"

# The public names are the import block's: every non-private name but the submodules.
__all__ = [
    name for name, value in globals().items()
    if type(value).__name__ != "module" and not name.startswith("_")
] + ["__version__"]
