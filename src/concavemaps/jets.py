"""Third-order Taylor jets over the complex numbers.

A `Jet3` carries the value and first three derivatives of an analytic
function at one base point. Sums, products, quotients and the elementary
functions exp/log/pow propagate derivatives exactly (Leibniz, quotient and
third-order chain rules), so nothing downstream ever finite-differences.
Third order is deliberately the ceiling: the Schwarzian derivative consumes
f''' and no consumer needs more.

Branch policy: `log` (and `pow`, which is exp(c*log(.))) uses the principal
branch with the cut on (-inf, 0]. An operand whose value lies within 1e-12
of the cut raises `BranchCutError`, so callers discard the sample instead of
silently jumping branches.

Jets are immutable; every operation returns a new jet. Binary operations
require both operands to sit at the same base point (exact complex equality)
and raise `BasePointMismatchError` otherwise. Plain numbers are lifted to
constant jets automatically.

Finiteness: the public constructor (and `variable` / `constant`) rejects
non-finite fields with `NonFiniteJetError`; jet operations build their
results unchecked. Ring operations cannot turn an inf or NaN back into a
finite number, so only 1/w and exp(w) could hide one (1/inf = 0,
exp(-inf) = 0): `reciprocal`, `log` and `exp` check their operand on entry,
and whoever hands a computed jet to another layer calls `checked()` on it,
as the catalog does with every jet that `eval_jet` and `reciprocal_jet`
return. `_inverse`, `_log` and `_exp` hold the scalar rules (finiteness,
degeneracy floor, branch cut), which the catalog's value-only path shares.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from numbers import Complex as _Number

from .errors import (
    BasePointMismatchError,
    BranchCutError,
    CriticalPointError,
    JetDivisionError,
    NonFiniteJetError,
)

# |value| below this counts as a zero denominator / branch-point hit.
DEGENERACY_FLOOR = 1e-12


_isfinite = cmath.isfinite


def _require_finite(w: complex) -> complex:
    if not _isfinite(w):
        raise NonFiniteJetError(f"value {w!r} is not finite")
    return w


def _inverse(w: complex, z: complex) -> complex:
    """1/w for a finite w clear of the degeneracy floor; z names the base
    point in the error."""
    _require_finite(w)
    if abs(w) < DEGENERACY_FLOOR:
        raise JetDivisionError(
            f"reciprocal of a jet with |value| = {abs(w):.3e} at {z!r}"
        )
    return 1.0 / w


def _log(w: complex) -> complex:
    """Principal log of a finite w clear of the cut (-inf, 0]."""
    _require_finite(w)
    if abs(w) < DEGENERACY_FLOOR or (w.real <= 0.0 and abs(w.imag) <= 1e-12):
        raise BranchCutError(
            f"log operand {w!r} lies within 1e-12 of the cut (-inf, 0]"
        )
    return cmath.log(w)


def _exp(w: complex) -> complex:
    return cmath.exp(_require_finite(w))


@dataclass(frozen=True, slots=True)
class Jet3:
    """Value and first three derivatives of an analytic map at `base_point`."""

    base_point: complex
    v0: complex
    v1: complex
    v2: complex
    v3: complex

    def __post_init__(self):
        for name in ("base_point", "v0", "v1", "v2", "v3"):
            w = getattr(self, name)
            if not _isfinite(complex(w)):
                raise NonFiniteJetError(f"jet field {name} is not finite: {w!r}")

    def checked(self) -> "Jet3":
        """This jet, after the constructor's finiteness check."""
        if not (_isfinite(self.v0) and _isfinite(self.v1) and _isfinite(self.v2)
                and _isfinite(self.v3) and _isfinite(self.base_point)):
            self.__post_init__()  # raises, naming the first bad field
        return self

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(z: complex) -> "Jet3":
        """Jet of the identity map at z."""
        return Jet3(complex(z), complex(z), 1.0 + 0j, 0j, 0j)

    @staticmethod
    def constant(z: complex, c: complex) -> "Jet3":
        """Jet of the constant map c at z."""
        return Jet3(complex(z), complex(c), 0j, 0j, 0j)

    # -- helpers -------------------------------------------------------------

    def _lift(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            if other.base_point != self.base_point:
                raise BasePointMismatchError(
                    f"base points differ: {self.base_point!r} vs {other.base_point!r}"
                )
            return other
        if isinstance(other, _Number):
            return _jet(self.base_point, complex(other), 0j, 0j, 0j)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, self.v0 + o.v0, self.v1 + o.v1,
                    self.v2 + o.v2, self.v3 + o.v3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return _jet(self.base_point, -self.v0, -self.v1, -self.v2, -self.v3)

    def __sub__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, self.v0 - o.v0, self.v1 - o.v1,
                    self.v2 - o.v2, self.v3 - o.v3)

    def __rsub__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        return _jet(
            a.base_point,
            a.v0 * b.v0,
            a.v1 * b.v0 + a.v0 * b.v1,
            a.v2 * b.v0 + 2 * a.v1 * b.v1 + a.v0 * b.v2,
            a.v3 * b.v0 + 3 * a.v2 * b.v1 + 3 * a.v1 * b.v2 + a.v0 * b.v3,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f. Quotient rule to third order."""
        w = _inverse(self.checked().v0, self.base_point)
        w2 = w * w
        r1 = -self.v1 * w2
        r2 = (2 * self.v1 * self.v1 * w - self.v2) * w2
        r3 = (-self.v3 + (6 * self.v1 * self.v2 - 6 * self.v1 ** 3 * w) * w) * w2
        return _jet(self.base_point, w, r1, r2, r3)

    def __truediv__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other) -> "Jet3":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.reciprocal()

    # -- elementary functions --------------------------------------------------

    def _compose(self, g0: complex, g1: complex, g2: complex, g3: complex) -> "Jet3":
        # Chain rule / Faa di Bruno at order 3 for g o f with g-derivatives
        # taken at f(base_point).
        f1, f2, f3 = self.v1, self.v2, self.v3
        return _jet(
            self.base_point,
            g0,
            g1 * f1,
            g1 * f2 + g2 * f1 * f1,
            g1 * f3 + 3 * g2 * f1 * f2 + g3 * f1 ** 3,
        )

    def log(self) -> "Jet3":
        w = self.checked().v0
        g0 = _log(w)
        iw = 1.0 / w
        return self._compose(g0, iw, -iw * iw, 2 * iw ** 3)

    def exp(self) -> "Jet3":
        e = _exp(self.checked().v0)
        return self._compose(e, e, e, e)

    def pow(self, exponent: complex) -> "Jet3":
        """Principal-branch power, computed as exp(exponent * log(self))."""
        return (self.log() * exponent).exp()

    def __pow__(self, exponent) -> "Jet3":
        if isinstance(exponent, _Number):
            return self.pow(complex(exponent))
        return NotImplemented


_new = object.__new__
_set_base, _set_v0, _set_v1, _set_v2, _set_v3 = (
    vars(Jet3)[name].__set__ for name in ("base_point", "v0", "v1", "v2", "v3"))


def _jet(base_point: complex, v0: complex, v1: complex, v2: complex,
         v3: complex) -> Jet3:
    """Jet3 without the constructor's finiteness check (see the module
    docstring for where finiteness is checked instead)."""
    j = _new(Jet3)
    _set_base(j, base_point)
    _set_v0(j, v0)
    _set_v1(j, v1)
    _set_v2(j, v2)
    _set_v3(j, v3)
    return j


def pre_schwarzian(jet: Jet3) -> complex:
    """f''/f' at the jet's base point."""
    if jet.v1 == 0:
        raise CriticalPointError(f"f'({jet.base_point!r}) = 0")
    out = jet.v2 / jet.v1
    if not _isfinite(out):
        raise NonFiniteJetError("pre-Schwarzian overflowed")
    return out


def schwarzian(jet: Jet3) -> complex:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at the base point.

    Vanishes exactly on Moebius maps and is invariant under Moebius
    post-composition, which downstream code exploits to evaluate it across
    simple poles via jets of 1/f.
    """
    if jet.v1 == 0:
        raise CriticalPointError(f"f'({jet.base_point!r}) = 0")
    q = jet.v2 / jet.v1
    out = jet.v3 / jet.v1 - 1.5 * q * q
    if not _isfinite(out):
        raise NonFiniteJetError("Schwarzian overflowed")
    return out
