"""Exception hierarchy shared by all specsel modules.

Every error the library raises on bad data or bad parameters derives from
SpecselError, so callers (and the CLI) can catch one base class. The leaf
class names are part of the public contract; messages carry the offending
row / column / label where that is knowable. A preprocessing step's error
reads the same from train, predict, crossval and select: no layer re-wraps
it in a class of its own.
"""


class SpecselError(Exception):
    """Base class for all specsel errors."""


# --- spectra / file I/O -----------------------------------------------------

class IoFailure(SpecselError):
    """File missing, unreadable, or structurally not the expected format."""


class NonmonotonicAxis(SpecselError):
    """Wavenumber axis is not strictly increasing."""


class RaggedRows(SpecselError):
    """CSV rows (or matrix rows) do not all have the same length."""


class NonFiniteValue(SpecselError):
    """A value failed to parse as a finite float (NaN, inf, or garbage)."""


class TooFewSpectra(SpecselError):
    """Fewer spectra than an operation needs (leave-one-out wants i >= 4)."""


class LabelMismatch(SpecselError):
    """Sample labels of spectra and concentration files do not agree."""


class NegativeConcentration(SpecselError):
    """A reference concentration is negative."""


class EmptyMatrix(SpecselError):
    """Asked to write a matrix with no rows or no columns."""


class ShapeMismatch(SpecselError):
    """Two arrays that must have equal shapes do not."""


class AxisMismatch(SpecselError):
    """A spectra set does not share the model's training axis."""


# --- preprocessing ----------------------------------------------------------

class PipelineSyntaxError(SpecselError):
    """The pipeline description string does not parse."""


class ZeroVariance(SpecselError):
    """Constant spectrum where a normalization needs spread."""


class DegenerateSubset(SpecselError):
    """Percentile scaling subset has fewer than 2 points or zero spread."""


class WindowTooLarge(SpecselError):
    """Filter window exceeds the number of channels."""


class BadOrder(SpecselError):
    """Invalid polynomial / derivative / component-count order, or another
    count or tolerance out of its range (degrees of freedom, NIPALS
    iterations and tolerance)."""


class NonuniformAxis(SpecselError):
    """Finite differencing requires (near-)uniform channel spacing, not so
    fine or coarse that its power by the derivative order leaves the normal
    float range."""


class WindowOutsideAxis(SpecselError):
    """Reference-peak window does not lie inside the wavenumber axis."""


class NonpositivePeak(SpecselError):
    """Reference-peak window contains no positive intensity."""


# --- decomposition / regression ---------------------------------------------

class NoConvergence(SpecselError):
    """A nipals_fit component did not converge within max_iter.

    Carries the 1-based index of the failing component. Only the iterative
    reference extractor raises it; pca_fit cannot fail this way.
    """

    def __init__(self, message, component):
        super().__init__(message)
        self.component = component


class SingularScores(SpecselError):
    """Score matrix too ill-conditioned for a regression fit."""


# --- cross-validation / significance ----------------------------------------

class DegenerateMatrix(SpecselError):
    """PRESS matrix unusable: a fold with no usable component, or a matrix
    too small for ANOVA or holding a non-finite value."""


# --- synthesis / selection ---------------------------------------------------

class RecipeSpeciesMismatch(SpecselError):
    """Concentration species do not match the synthesis recipe species."""


class AllCandidatesFailed(SpecselError):
    """Every candidate pipeline failed during evaluation."""
