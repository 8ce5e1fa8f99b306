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
)
from .symbolic import (
    CylinderTable,
    Potential,
    geometric,
    locally_constant,
    shared_table,
    validate_potential,
    word_rows,
    words_at_level,
)
from .pressure import (
    Enclosure,
    bowen_root,
    normalize_potential,
    pressure,
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
    optimize_block_weights,
    window_mask,
)
from .weak_gibbs import (
    LocalDimension,
    WeakGibbsModel,
    cylinder_mass_bracket,
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
