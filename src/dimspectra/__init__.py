"""Certified pressure, dimension-spectrum, and induced-system computations
for piecewise-monotone Markov interval maps.

Every numeric result carries an enclosure: partition sums are bracketed by
endpoint Birkhoff sums, pressures and roots by certified lower/upper
curves, and truncated induced systems by dropped-tail bounds.  Estimates
are clipped into their enclosures, never reported bare.
"""

from .errors import (
    ConfigError,
    ConstraintInfeasible,
    ContractionViolation,
    DegenerateCylinder,
    DerivativeUnstable,
    DimspectraError,
    EmptyWindow,
    FitUnstable,
    InadmissibleSupport,
    IoError,
    LevelTooLarge,
    MarkovViolation,
    NoConnector,
    NoParabolicOrbit,
    NotConverged,
    NotStrictlyNegative,
    NotTransitive,
    OutOfImage,
    PointOutsideCylinder,
    TailDominates,
    TruncationTooSmall,
)
from .maps import (
    Branch,
    MarkovMap,
    ParabolicOrbit,
    build_map,
    doubling_map,
    farey_map,
    golden_mean_map,
    linear_full_branch_map,
    manneville_pomeau_map,
    parabolic_exponent,
)
from .symbolic import (
    Cylinder,
    CylinderTable,
    Potential,
    boundary_ratio,
    cylinder,
    cylinders,
    distortion_report,
    geometric,
    locally_constant,
    pointwise,
    shared_table,
    validate_potential,
    words_at_level,
)
from .pressure import (
    BowenRoot,
    Pressure,
    bowen_root,
    normalize_potential,
    pressure,
    pressure_bracket,
)
from .spectrum import (
    AlphaPoint,
    BPoint,
    SpectrumCurve,
    alpha_of_a,
    b_curve,
    b_of_a,
    dimension_at_infinite_alpha,
    legendre_spectrum,
    spectrum_endpoints,
)
from .finite_measures import (
    BlockMeasure,
    ConnectorTable,
    block_measure,
    block_objective,
    bowen_sn,
    connector_length,
    moran_weights,
    optimize_block_weights,
    window_mask,
    window_weights,
)
from .weak_gibbs import (
    CoarseSpectrum,
    LocalDimension,
    WeakGibbsModel,
    cylinder_mass_bracket,
    coarse_spectrum,
    declared_model,
    exact_model,
    local_dimension,
    sample_points,
)
from .induced import (
    InducedBPoint,
    InducedBranch,
    InducedSystem,
    build_induced,
    induced_b_curve,
    induced_b_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
