"""Exception types shared across the package."""


class MechcatError(Exception):
    """Base class for all library errors."""


class CutoffTooSmall(MechcatError):
    """Fock truncation cannot represent the requested object accurately."""


class ZeroOperator(MechcatError):
    """The requested measurement operator is identically zero."""


class HeraldImpossible(MechcatError):
    """Heralding probability vanishes for the requested outcome."""


class OrderOverflow(MechcatError):
    """Operator word exceeds the supported maximum order."""


class MissingMoment(MechcatError):
    """A required moment is absent from the table."""


class DegenerateHerald(MechcatError):
    """Heralding probability too small for the detector formulas."""


class NonPhysicalCovariance(MechcatError):
    """Covariance matrix violates the uncertainty bound."""


class RankDeficient(MechcatError):
    """Linear recovery system does not span the unknown moments."""

    def __init__(self, message, missing_directions=None):
        super().__init__(message)
        self.missing_directions = missing_directions or []


class IllConditioned(MechcatError):
    """Recovery system condition number exceeds the safe threshold."""


class TruncationTooSmall(MechcatError):
    """Photon-number truncation too small for the requested outcome."""


class NonFiniteValue(MechcatError):
    """A closed-form value overflowed to inf or nan at the named point."""


class GridTooLarge(MechcatError):
    """A CLI grid has more points than its evaluation can hold in memory."""


class NegativeNonGaussianity(MechcatError):
    """The Fock-path non-Gaussianity came out negative beyond its rounding floor."""


class NoSignChange(MechcatError, RuntimeError):
    """A root search found no sign change of its criterion within its range."""
