"""Third-order Taylor jets over the complex numbers.

A `Jet3` carries the value and first three derivatives of an analytic
function at one base point. Sums, products, quotients and the elementary
functions exp/log/pow propagate derivatives exactly (Leibniz, quotient and
third-order chain rules), so nothing downstream ever finite-differences.
Third order is deliberately the ceiling: the Schwarzian derivative consumes
f''' and no consumer needs more.

Each of those rules is written once, as a private function on tuple jets:
plain (v0, v1, v2, v3) tuples at a base point the caller keeps (`_jadd`,
`_jsub`, `_jconst`, `_jmul`, `_jrecip`, `_jcompose`, and `_jlog`, `_jexp`,
`_jpow` built on it). Jet3's operators lift their operands and call these
rules. The catalog's k_alpha and sector maps call them directly and build a
single Jet3 at the end, which spares them an object per step; both routes do
the same complex operations in the same order, so they agree bit for bit.

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
exp(-inf) = 0): the reciprocal, log and exp rules check their operand on
entry, and whoever hands a computed jet to another layer calls `checked()`
on it, as the catalog does with every jet that `eval_jet` and
`reciprocal_jet` return. `_inverse`, `_log` and `_exp` hold the scalar rules
(finiteness, degeneracy floor, branch cut), which the catalog's value-only
path shares.
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


# -- tuple jets (see the module docstring) -----------------------------------
#
# Every rule keeps the terms whose operand is a lifted constant's exact 0j
# derivative: they can decide a signed zero or turn an infinity into a NaN,
# so dropping one could part the catalog's kernels from Jet3 arithmetic.

# the complex one, which the catalog's value paths share
_ONE = 1.0 + 0j


def _jconst(c) -> tuple:
    """The constant map c, lifted as Jet3's operators lift a plain number."""
    return (complex(c), 0j, 0j, 0j)


def _jvar(z: complex) -> tuple:
    """The identity map at z, refused where Jet3.variable refuses it."""
    if not _isfinite(z):
        Jet3.variable(z)  # raises, naming the base point
    return (z, _ONE, 0j, 0j)


def _jfinite(a: tuple) -> tuple:
    """a, after the constructor's finiteness check on its fields."""
    v0, v1, v2, v3 = a
    if not (_isfinite(v0) and _isfinite(v1) and _isfinite(v2) and _isfinite(v3)):
        Jet3(0j, v0, v1, v2, v3)  # raises, naming the first bad field
    return a


def _jadd(a: tuple, b: tuple) -> tuple:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)


def _jsub(a: tuple, b: tuple) -> tuple:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)


def _jmul(a: tuple, b: tuple) -> tuple:
    """Leibniz rule to third order."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a1 * b0 + a0 * b1,
        a2 * b0 + 2 * a1 * b1 + a0 * b2,
        a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3,
    )


def _jrecip(a: tuple, z: complex) -> tuple:
    """1/f by the quotient rule to third order; z names the base point in
    the error."""
    v0, v1, v2, v3 = _jfinite(a)
    w = _inverse(v0, z)
    w2 = w * w
    r1 = -v1 * w2
    r2 = (2 * v1 * v1 * w - v2) * w2
    r3 = (-v3 + (6 * v1 * v2 - 6 * v1 ** 3 * w) * w) * w2
    return (w, r1, r2, r3)


def _jcompose(a: tuple, g0: complex, g1: complex, g2: complex,
              g3: complex) -> tuple:
    """g o f by Faa di Bruno at order 3, g's derivatives taken at f's value."""
    _, f1, f2, f3 = a
    return (
        g0,
        g1 * f1,
        g1 * f2 + g2 * f1 * f1,
        g1 * f3 + 3 * g2 * f1 * f2 + g3 * f1 ** 3,
    )


def _jlog(a: tuple) -> tuple:
    w = _jfinite(a)[0]
    g0 = _log(w)
    iw = 1.0 / w
    return _jcompose(a, g0, iw, -iw * iw, 2 * iw ** 3)


def _jexp(a: tuple) -> tuple:
    e = _exp(_jfinite(a)[0])
    return _jcompose(a, e, e, e, e)


def _jpow(a: tuple, exponent: complex) -> tuple:
    """Principal-branch power, computed as exp(exponent * log(a))."""
    return _jexp(_jmul(_jlog(a), _jconst(exponent)))


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

    def _fields(self) -> tuple:
        return (self.v0, self.v1, self.v2, self.v3)

    def _operand(self, other) -> tuple:
        """other as a tuple jet at this base point; numbers are lifted."""
        if isinstance(other, Jet3):
            if other.base_point != self.base_point:
                raise BasePointMismatchError(
                    f"base points differ: {self.base_point!r} vs {other.base_point!r}"
                )
            return other._fields()
        if isinstance(other, _Number):
            return _jconst(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, *_jadd(self._fields(), o))

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return _jet(self.base_point, -self.v0, -self.v1, -self.v2, -self.v3)

    def __sub__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, *_jsub(self._fields(), o))

    def __rsub__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, *_jsub(o, self._fields()))

    def __mul__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return _jet(self.base_point, *_jmul(self._fields(), o))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f. Quotient rule to third order."""
        z = self.base_point
        return _jet(z, *_jrecip(self._fields(), z))

    def __truediv__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        z = self.base_point
        return _jet(z, *_jmul(self._fields(), _jrecip(o, z)))

    def __rtruediv__(self, other) -> "Jet3":
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        z = self.base_point
        return _jet(z, *_jmul(o, _jrecip(self._fields(), z)))

    # -- elementary functions --------------------------------------------------

    def log(self) -> "Jet3":
        return _jet(self.base_point, *_jlog(self._fields()))

    def exp(self) -> "Jet3":
        return _jet(self.base_point, *_jexp(self._fields()))

    def pow(self, exponent: complex) -> "Jet3":
        """Principal-branch power, computed as exp(exponent * log(self))."""
        return _jet(self.base_point, *_jpow(self._fields(), exponent))

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
