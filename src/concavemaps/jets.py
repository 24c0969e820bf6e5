"""Third-order Taylor jets over the complex numbers.

A `Jet3` carries the value and first three derivatives of an analytic
function at one base point. Sums, products, quotients and the elementary
functions exp/log/pow propagate derivatives exactly (Leibniz, quotient and
third-order chain rules), so nothing downstream ever finite-differences.
Third order is deliberately the ceiling: the Schwarzian derivative consumes
f''' and no consumer needs more.

Each of those rules is written as a private function on tuple jets: plain
(v0, v1, v2, v3) tuples at a base point the caller keeps (`_jadd`, `_jsub`,
`_jconst`, `_jmul`, `_jrecip`, `_jcompose`, and `_jlog`, `_jexp`, `_jpow`
built on it), and once more as a column form over a list of tuple jets
(`_jadds`, `_jsubs`, `_jmuls`, `_jrecips`, `_jlogs`, `_jexps`), one
comprehension per stage with the same complex operations in the same
order, so the two agree bit for bit. The catalog's k_alpha and sector
kernels run the column forms over whole rings (`catalog._Samples` runs the
tests between them and composes the power). The scalar rules serve Jet3's
operators alone, which Laurent's jet Horner, the catalog's `reciprocal_jet`
and `verify`'s second derivative route still call; once Laurent's kernel
runs on the column forms, the scalar rules go along with the operators.
Jet3's operators run straight into the scalar rules: `_lift` turns the
operand into a tuple jet, testing the exact types a caller passes (Jet3,
complex, float, int) before the slower `numbers.Complex` check that catches
every other number; the operator reads its own fields once, calls its rule and
unpacks the result into one unchecked Jet3 (`_jet`), the only object it
allocates besides the rule's tuples. Both routes do the same complex
operations in the same order, so they agree bit for bit. The rules and
`_lift` stay private: perfbench's tracer spans every public function of this
module, and a span per arithmetic step would swamp a traced run.
`_schwarzians` is the Schwarzian from fields over a column, which the grid
scans call once per ring and `schwarzian` for one jet.

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
`reciprocal_jet` does, or `_jfinite_errors` on a column of tuple jets, as
its `eval_jets` kernels do. A cube in the quotient and chain rules that
overflows raises `NonFiniteJetError` too (`_cube`), where complex `**`
would raise a bare `OverflowError`; a column form reports it by position
(`_cubed`). `_require_finite`, `_inverse`, `_log` and `_exp` hold the
scalar tests (finiteness, degeneracy floor, branch cut), which the scalar
tuple rules run. Their column forms (`_finite_errors`, `_floored`,
`_inverse_errors`, `_log_errors`, and `_jfinite_errors` for `_jfinite`)
run the same tests over a whole column for the catalog's kernels and
return, by position, the error each failing entry gets; one helper builds
each message (`_not_finite`, `_no_inverse`, `_on_cut`, `_field_not_finite`,
and `_overflowed`, which the cube, the pre-Schwarzian, the Schwarzian and
the margins share), so the two forms say the same.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import chain
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


def _not_finite(w: complex) -> NonFiniteJetError:
    return NonFiniteJetError(f"value {w!r} is not finite")


def _no_inverse(w: complex, z: complex) -> JetDivisionError:
    return JetDivisionError(
        f"reciprocal of a jet with |value| = {abs(w):.3e} at {z!r}")


def _on_cut(w: complex) -> BranchCutError:
    return BranchCutError(
        f"log operand {w!r} lies within 1e-12 of the cut (-inf, 0]")


def _overflowed(what: str) -> NonFiniteJetError:
    return NonFiniteJetError(f"{what} overflowed")


def _require_finite(w: complex) -> complex:
    if not _isfinite(w):
        raise _not_finite(w)
    return w


def _inverse(w: complex, z: complex) -> complex:
    """1/w for a finite w clear of the degeneracy floor; z names the base
    point in the error."""
    _require_finite(w)
    if abs(w) < DEGENERACY_FLOOR:
        raise _no_inverse(w, z)
    return 1.0 / w


def _log(w: complex) -> complex:
    """Principal log of a finite w clear of the cut (-inf, 0]."""
    _require_finite(w)
    if abs(w) < DEGENERACY_FLOOR or (w.real <= 0.0 and abs(w.imag) <= 1e-12):
        raise _on_cut(w)
    return cmath.log(w)


def _exp(w: complex) -> complex:
    return cmath.exp(_require_finite(w))


def _cube(w: complex) -> complex:
    """w ** 3. Complex ** raises OverflowError where * would give inf; that
    overflow is raised as NonFiniteJetError, as an inf field is."""
    try:
        return w ** 3
    except OverflowError:
        raise _overflowed(f"cube of {w!r}") from None


# -- column forms of the tests above ------------------------------------------
#
# Each takes a column of operands and returns, keyed by position, the error
# the scalar rule raises on each entry that fails, its tests in the scalar
# order (`_floored` gives the positions alone). Where every entry passes the
# finiteness and floor tests, a C-level screen (all(map(...)),
# min(map(abs, ...))) says so without a Python step per entry. The catalog's
# values kernels drop the failing samples and place their errors.

def _finite_errors(ws: list) -> dict:
    """Column form of _require_finite (and of _exp's test)."""
    if all(map(_isfinite, ws)):
        return {}
    return {k: _not_finite(w) for k, w in enumerate(ws) if not _isfinite(w)}


def _floored(ws: list, skip=()) -> list[int]:
    """Positions of the entries of ws, outside skip, with |w| below the
    degeneracy floor. abs() runs on every entry outside skip, as the scalar
    tests run it; a rule that tests finiteness first passes its failures as
    skip, so that abs() never meets their NaNs."""
    if not skip and min(map(abs, ws), default=1.0) >= DEGENERACY_FLOOR:
        return []
    return [k for k, w in enumerate(ws)
            if k not in skip and abs(w) < DEGENERACY_FLOOR]


def _inverse_errors(ws: list, zs: list) -> dict:
    """Column form of _inverse's tests; zs names the base points."""
    errors = _finite_errors(ws)
    for k in _floored(ws, errors):
        errors[k] = _no_inverse(ws[k], zs[k])
    return errors


def _log_errors(ws: list) -> dict:
    """Column form of _log's tests."""
    errors = _finite_errors(ws)
    cut = [k for k, w in enumerate(ws) if w.real <= 0.0 and abs(w.imag) <= 1e-12]
    for k in _floored(ws, errors) + cut:
        if k not in errors:
            errors[k] = _on_cut(ws[k])
    return errors


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


# -- column forms of the tuple rules -------------------------------------------
#
# Each runs its scalar rule over a list of tuple jets, one comprehension per
# stage, doing the same complex operations in the same order, so the two
# agree bit for bit. An operand that every row shares (a lifted constant) is
# passed as itertools.repeat(c). The rules' tests are column tests that the
# caller runs first, dropping the rows they name: _jfinite_errors for every
# rule with an operand test, then _inverse_errors (the reciprocal) or
# _log_errors (the log) on the values; the exp rule has no other. What can
# still fail is a cube, which _cubed reports by position.

_FIELDS = ("v0", "v1", "v2", "v3")


def _field_not_finite(name: str, w: complex) -> NonFiniteJetError:
    return NonFiniteJetError(f"jet field {name} is not finite: {w!r}")


def _jfinite_errors(js: list) -> dict:
    """Column form of _jfinite: by position, the error of each jet with a
    field that is not finite, naming the first, as the constructor does."""
    if all(map(_isfinite, chain.from_iterable(js))):
        return {}
    errors = {}
    for k, j in enumerate(js):
        for name, w in zip(_FIELDS, j):
            if not _isfinite(w):
                errors[k] = _field_not_finite(name, w)
                break
    return errors


def _cubed(stage):
    """The column form stage(js, *columns), a comprehension in which only the
    cube of field v1 of each of js can overflow, returning its column and,
    by position, the error _cube raises where that cube overflows. An
    overflowing ** raises OverflowError out of the whole comprehension, so
    then the rows go through stage again one at a time; a row whose cube
    overflows holds None, for the caller to drop with its error."""
    def rows(js: list, *columns: list) -> tuple[list, dict]:
        try:
            return stage(js, *columns), {}
        except OverflowError:
            out, errors = [], {}
            for k, row in enumerate(zip(js, *columns)):
                try:
                    out += stage(*([c] for c in row))
                except OverflowError:
                    errors[k] = _overflowed(f"cube of {row[0][1]!r}")
                    out.append(None)
            return out, errors
    return rows


def _jadds(a, b) -> list:
    return [(a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


def _jsubs(a, b) -> list:
    return [(a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


def _jmuls(a, b) -> list:
    return [(a0 * b0,
             a1 * b0 + a0 * b1,
             a2 * b0 + 2 * a1 * b1 + a0 * b2,
             a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


@_cubed
def _jrecips(js: list) -> list:
    """Column form of _jrecip, on jets that passed its tests."""
    return [(w, -v1 * w2, (2 * v1 * v1 * w - v2) * w2,
             (-v3 + (6 * v1 * v2 - 6 * v1 ** 3 * w) * w) * w2)
            for v0, v1, v2, v3 in js for w in [1.0 / v0] for w2 in [w * w]]


@_cubed
def _jlogs(js: list) -> list:
    """Column form of _jlog, on jets that passed its tests."""
    return [(cmath.log(w), iw * f1, iw * f2 + g2 * f1 * f1,
             iw * f3 + 3 * g2 * f1 * f2 + g3 * f1 ** 3)
            for w, f1, f2, f3 in js
            for iw in [1.0 / w] for g2 in [-iw * iw] for g3 in [2 * iw ** 3]]


@_cubed
def _exps(js: list, es: list) -> list:
    return [(e, e * f1, e * f2 + e * f1 * f1,
             e * f3 + 3 * e * f1 * f2 + e * f1 ** 3)
            for (_, f1, f2, f3), e in zip(js, es)]


def _jexps(js: list) -> tuple[list, dict]:
    """Column form of _jexp, on jets that passed its test. An exp that
    overflows raises OverflowError for the whole column, as _exp's does."""
    return _exps(js, [cmath.exp(j[0]) for j in js])


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
                raise _field_not_finite(name, w)

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
        raise _overflowed("pre-Schwarzian")
    return out


def schwarzian(jet: Jet3) -> complex:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at the base point.

    Vanishes exactly on Moebius maps and is invariant under Moebius
    post-composition, which downstream code exploits to evaluate it across
    simple poles via jets of 1/f.
    """
    if jet.v1 == 0:
        raise CriticalPointError(f"f'({jet.base_point!r}) = 0")
    (out,), errors = _schwarzians((jet.v1,), (jet.v3,), (jet.v2 / jet.v1,))
    if errors:
        raise errors[0]
    return out


def _schwarzians(v1s, v3s, qs) -> tuple[list, dict]:
    """Column form of the Schwarzian from nonzero f', f''' and q = f''/f':
    the values, and by position the error of each that is not finite."""
    ss = [v3 / v1 - 1.5 * q * q for v1, v3, q in zip(v1s, v3s, qs)]
    return ss, {k: _overflowed("Schwarzian") for k in _finite_errors(ss)}
