"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic misuse (wrong types, malformed arguments) raises ValueError as usual.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pressure import Enclosure


class DimspectraError(Exception):
    """Base class for all package-specific errors."""


class MarkovViolation(DimspectraError):
    """Branch images and the transition matrix disagree, or domains overlap."""


class ContractionViolation(DimspectraError):
    """|T'| < 1 at a branch's domain end, a linear |slope| = 1, or |T'| = 1
    at a point (0 or 1) that its own increasing branch does not fix and
    whose orbit reaches no such fixed point."""


class NotTransitive(DimspectraError):
    """No power of the transition matrix is strictly positive."""


class OutOfImage(DimspectraError):
    """Requested preimage of a point outside the branch image."""


class LevelTooLarge(DimspectraError):
    """Cylinder enumeration would exceed the configured word budget."""


class PointOutsideCylinder(DimspectraError):
    """Point does not belong to the cylinder interval it was quoted against."""


class DegenerateCylinder(DimspectraError):
    """Cylinder interval collapsed below floating-point resolution.

    Raised where cylinder ends are made: `symbolic.word_rows`,
    `CylinderTable.ends` (so `bowen_sn`), and the level builds of a
    table that holds ends (Newton or Farey branches, a pointwise phi).  On
    linear branches the psi and phi sums read no ends, so their tables, and
    readers of those sums alone such as `pressure` and
    `optimize_block_weights`, build past a collapse.
    """


class NotConverged(DimspectraError):
    """Iteration budget exhausted before reaching tolerance.

    A ladder that did not stop by its last level carries its best bracket
    as `enclosure`: a `pressure.Enclosure` with the bracket's midpoint as
    value, level max_level and mode "enclosure".  Callers must consume it
    rather than discard the run (parabolic maps land here routinely).  It
    is None where no bracket exists: a root whose bracket expansion found
    no sign change, a b(a) whose parabolic ray start did not converge, or
    a search with no bracket at all (cycle ratios, block weights).
    """

    def __init__(self, message: str, enclosure: Enclosure | None = None):
        super().__init__(message)
        self.enclosure = enclosure


class NotStrictlyNegative(DimspectraError):
    """Potential does not satisfy sup(phi) < 0 after pressure normalization."""


class DerivativeUnstable(DimspectraError):
    """Finite-difference derivative estimates disagree across step sizes."""


class ConstraintInfeasible(DimspectraError):
    """Requested ratio lies outside the achievable hull at this level."""


class EmptyWindow(DimspectraError):
    """No cylinder's ratio bracket intersects the requested window."""


class NoConnector(DimspectraError):
    """No connector word of admissible length joins every pair of words."""


class InadmissibleSupport(DimspectraError):
    """Weight vector puts mass on an inadmissible word."""


class NoParabolicOrbit(DimspectraError):
    """Operation requires a parabolic orbit but the map has none."""


class TruncationTooSmall(DimspectraError):
    """Truncated induced system retains too little base measure."""


class TailDominates(DimspectraError):
    """Dropped tail of the induced system is not summably small."""


class ConfigError(DimspectraError):
    """Run configuration failed schema validation."""


class IoError(DimspectraError):
    """Artifact path could not be created or written."""
