"""Error taxonomy shared across the package.

Two tiers matter to callers. `SampleExclusionError` and its children mean
"this particular sample cannot be evaluated"; grid scans and curve sampling
catch them, count the sample as excluded, and move on. A non-finite jet or
value (`NonFiniteJetError`) is one of them. Everything else
(`BasePointMismatchError`, `SpecParseError`, `EmptyScanError`) signals a
caller bug or unusable input and propagates.

The column kernels evaluate many samples in one call and keep a sample's
exclusion error in that sample's place, so that one bad sample excludes
itself alone and a one-sample call (`_only`) raises it again. The kernels
and the margin columns build the errors as values and place them a column
at a time; none is raised and caught per sample.
"""

from __future__ import annotations


class SampleExclusionError(ValueError):
    """Evaluation is undefined or degenerate at this sample; skip and count it."""


class JetDivisionError(SampleExclusionError):
    """Division by a jet whose value is within the degeneracy floor of zero."""


class BranchCutError(SampleExclusionError):
    """log/pow operand within 1e-12 of the principal branch cut (-inf, 0]."""


class PoleProximityError(SampleExclusionError):
    """Evaluation point collides with a pole of the function."""


class CriticalPointError(SampleExclusionError):
    """f'(z) = 0: derivative ratios are undefined at this sample."""


class PhiUndefinedError(SampleExclusionError):
    """f''(z) = 0: the half-plane/Koebe-type phi transform is undefined."""


class IndeterminateSampleError(SampleExclusionError):
    """A transform denominator is degenerate, or a margin has no value at a pole."""


class BasePointMismatchError(ValueError):
    """Binary jet operation on jets anchored at different base points."""


class NonFiniteJetError(SampleExclusionError):
    """A jet operation produced a non-finite component (overflow or NaN)."""


class SpecParseError(ValueError):
    """Malformed function-spec string; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyScanError(RuntimeError):
    """Every sample of a scan was excluded; no margin statistics exist."""


def _only(results: list):
    """The one result of a one-sample column call, or its error raised."""
    (out,) = results
    if isinstance(out, SampleExclusionError):
        raise out
    return out
