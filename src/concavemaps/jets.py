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
`_jpow` built on it). The catalog's k_alpha and sector kernels call them
directly and hand out plain tuples, which spares them an object per step.
Jet3's operators run straight into the same rules: `_lift` turns the operand
into a tuple jet, testing the exact types a caller passes (Jet3, complex,
float, int) before the slower `numbers.Complex` check that catches every
other number; the operator reads its own fields once, calls its rule and
unpacks the result into one unchecked Jet3 (`_jet`), the only object it
allocates besides the rule's tuples. Both routes do the same complex
operations in the same order, so they agree bit for bit. The rules and
`_lift` stay private: perfbench's tracer spans every public function of this
module, and a span per arithmetic step would swamp a traced run.
`_schwarzian` is the Schwarzian from fields, which the grid scans call per
sample and `schwarzian` per jet.

Branch policy: `log` (and `pow`, which is exp(c*log(.))) uses the principal
branch with the cut on (-inf, 0]. An operand whose value lies within 1e-12
of the cut raises `BranchCutError`, so callers discard the sample instead of
silently jumping branches.

Jets are immutable; every operation returns a new jet. Binary operations
require both operands to sit at the same base point (exact complex equality)
and raise `BasePointMismatchError` otherwise. Plain numbers are lifted to
constant jets automatically.

Finiteness: the public constructor rejects non-finite fields with
`NonFiniteJetError`, naming the first bad one; `variable` and `constant`
test each of their fields once and call it only when one fails, so their
errors read the same. Jet operations build their results unchecked. Ring
operations cannot turn an inf or NaN back into a finite number, so only 1/w
and exp(w) could hide one (1/inf = 0, exp(-inf) = 0): the reciprocal, log
and exp rules check their operand on entry, and whoever hands a computed jet
to another layer checks it: `checked()` on a Jet3, as the catalog's
`reciprocal_jet` does, or `_jfinite` on tuple fields, as its `eval_jets`
kernels do. A cube in the quotient and chain rules that overflows raises
`NonFiniteJetError` too (`_cube`), where complex `**` would raise a bare
`OverflowError`. `_inverse`, `_log` and
`_exp` hold the scalar rules (finiteness, degeneracy floor, branch cut),
which the catalog's value-only path shares.
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


def _cube(w: complex) -> complex:
    """w ** 3. Complex ** raises OverflowError where * would give inf; that
    overflow is raised as NonFiniteJetError, as an inf field is."""
    try:
        return w ** 3
    except OverflowError:
        raise NonFiniteJetError(f"cube of {w!r} overflowed") from None


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
    r3 = (-v3 + (6 * v1 * v2 - 6 * _cube(v1) * w) * w) * w2
    return (w, r1, r2, r3)


def _jcompose(a: tuple, g0: complex, g1: complex, g2: complex,
              g3: complex) -> tuple:
    """g o f by Faa di Bruno at order 3, g's derivatives taken at f's value."""
    _, f1, f2, f3 = a
    return (
        g0,
        g1 * f1,
        g1 * f2 + g2 * f1 * f1,
        g1 * f3 + 3 * g2 * f1 * f2 + g3 * _cube(f1),
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
        z = complex(z)
        if not _isfinite(z):
            Jet3(z, z, _ONE, 0j, 0j)  # raises, naming the base point
        return _jet(z, z, _ONE, 0j, 0j)

    @staticmethod
    def constant(z: complex, c: complex) -> "Jet3":
        """Jet of the constant map c at z."""
        z, c = complex(z), complex(c)
        if not (_isfinite(z) and _isfinite(c)):
            Jet3(z, c, 0j, 0j, 0j)  # raises, naming the first bad field
        return _jet(z, c, 0j, 0j, 0j)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jadd((self.v0, self.v1, self.v2, self.v3), o)
        return _jet(z, v0, v1, v2, v3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return _jet(self.base_point, -self.v0, -self.v1, -self.v2, -self.v3)

    def __sub__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jsub((self.v0, self.v1, self.v2, self.v3), o)
        return _jet(z, v0, v1, v2, v3)

    def __rsub__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jsub(o, (self.v0, self.v1, self.v2, self.v3))
        return _jet(z, v0, v1, v2, v3)

    def __mul__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jmul((self.v0, self.v1, self.v2, self.v3), o)
        return _jet(z, v0, v1, v2, v3)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f. Quotient rule to third order."""
        z = self.base_point
        v0, v1, v2, v3 = _jrecip((self.v0, self.v1, self.v2, self.v3), z)
        return _jet(z, v0, v1, v2, v3)

    def __truediv__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jmul((self.v0, self.v1, self.v2, self.v3),
                               _jrecip(o, z))
        return _jet(z, v0, v1, v2, v3)

    def __rtruediv__(self, other) -> "Jet3":
        z = self.base_point
        o = _lift(z, other)
        if o is NotImplemented:
            return NotImplemented
        v0, v1, v2, v3 = _jmul(o, _jrecip((self.v0, self.v1, self.v2, self.v3),
                                          z))
        return _jet(z, v0, v1, v2, v3)

    # -- elementary functions --------------------------------------------------

    def log(self) -> "Jet3":
        v0, v1, v2, v3 = _jlog((self.v0, self.v1, self.v2, self.v3))
        return _jet(self.base_point, v0, v1, v2, v3)

    def exp(self) -> "Jet3":
        v0, v1, v2, v3 = _jexp((self.v0, self.v1, self.v2, self.v3))
        return _jet(self.base_point, v0, v1, v2, v3)

    def pow(self, exponent: complex) -> "Jet3":
        """Principal-branch power, computed as exp(exponent * log(self))."""
        v0, v1, v2, v3 = _jpow((self.v0, self.v1, self.v2, self.v3), exponent)
        return _jet(self.base_point, v0, v1, v2, v3)

    def __pow__(self, exponent) -> "Jet3":
        if isinstance(exponent, _Number):
            return self.pow(complex(exponent))
        return NotImplemented


def _lift(z: complex, other) -> tuple:
    """other as a tuple jet at the base point z: a Jet3's fields, or a plain
    number lifted by `_jconst`; NotImplemented for anything else.

    The exact types callers pass are tested first, so they never reach the
    slower `numbers.Complex` check; subclasses and every other number take
    that route.
    """
    t = type(other)
    if t is Jet3:
        jet = other
    elif t is complex or t is float or t is int:
        return (complex(other), 0j, 0j, 0j)  # _jconst(other), inlined
    elif isinstance(other, Jet3):
        jet = other
    elif isinstance(other, _Number):
        return _jconst(other)
    else:
        return NotImplemented
    if jet.base_point != z:
        raise BasePointMismatchError(
            f"base points differ: {z!r} vs {jet.base_point!r}")
    return (jet.v0, jet.v1, jet.v2, jet.v3)


class _Draft:
    """A mutable twin of Jet3 with the same slots, so that `_jet` can fill one
    with plain attribute stores and then make it a Jet3 by switching its
    class; setting a frozen dataclass's fields through their descriptors
    costs about twice as much."""

    __slots__ = Jet3.__slots__


def _jet(base_point: complex, v0: complex, v1: complex, v2: complex,
         v3: complex) -> Jet3:
    """Jet3 without the constructor's finiteness check (see the module
    docstring for where finiteness is checked instead)."""
    j = _Draft()
    j.base_point = base_point
    j.v0 = v0
    j.v1 = v1
    j.v2 = v2
    j.v3 = v3
    j.__class__ = Jet3
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
    return _schwarzian(jet.v1, jet.v3, jet.v2 / jet.v1)


def _schwarzian(v1: complex, v3: complex, q: complex) -> complex:
    """The Schwarzian from a nonzero f', f''' and q = f''/f'."""
    out = v3 / v1 - 1.5 * q * q
    if not _isfinite(out):
        raise NonFiniteJetError("Schwarzian overflowed")
    return out
