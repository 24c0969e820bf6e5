"""Third-order Taylor jets over the complex numbers.

A `Jet3` carries the value and first three derivatives of an analytic
function at one base point. Sums, products, quotients and the elementary
functions exp/log/pow propagate derivatives exactly (Leibniz, quotient and
third-order chain rules), so nothing downstream ever finite-differences.
Third order is deliberately the ceiling: the Schwarzian derivative consumes
f''' and no consumer needs more.

Each rule is written once, on columns of tuple jets: lists of plain
(v0, v1, v2, v3) tuples at base points the caller keeps (`_jadds`,
`_jsubs`, `_jmuls`, `_jrecips`, `_jlogs`, `_jexps`), one comprehension per
stage. So are the tests of a rule (finiteness, degeneracy floor, branch
cut), which return by position the error each failing entry gets.

`_Rows` is the one column of samples: it runs the tests of a rule in their
one order, drops the rows that fail, keeping each error for its place, and
runs the rule over the rest. FamilySpec's kernels run it over whole rings
(`catalog._in_disk`), the operators' `_Ring` extends it, and Jet3's
operators run it on one row (`_one`), raising the row's error: the binary
ones through `Jet3._row`, which lifts the operand (a Jet3 at the same base
point, or any `numbers.Complex` by `_jconst`) and wraps the result (`_jet`),
and reciprocal, log, exp and pow through `Jet3._unary`.

Sum and product alone have a per-sample form besides: Jet3's + and * run
the sum and Leibniz rules inline on a jet at the same base point (+ on a
complex too), and leave any other operand to `_row`. Each does its column
form's (`_jadds`, `_jmuls`) complex operations in the same order, so the
two agree bit for bit. Laurent's jet Horner runs 2 (k - 1) of them per
sample of a k-coefficient series (it folds its first step, from the zero
jet), where a one-row column costs twice as much. They stay operators
because the benchmark counts Jet3's operator calls; they go when it counts
column rules instead and the Horner moves onto columns. The rules stay
private: perfbench's tracer spans every public function of this module,
and a span per arithmetic step would swamp a traced run.
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
`NonFiniteJetError`, naming the first bad one, as do `variable`,
`constant` and `checked()`. Jet operations build their results unchecked. Ring
operations cannot turn an inf or NaN back into a finite number, so only 1/w
and exp(w) could hide one (1/inf = 0, exp(-inf) = 0): the reciprocal, log
and exp rules test their operand's fields first (`_jfinite_errors`), and
whoever hands a computed jet to another layer checks it: `checked()` on a
Jet3 its operators built, or `_jfinite_errors` on a
column of tuple jets, as its `eval_jets` kernels do. The quotient and
chain rules write each cube as the products CPython runs for `w ** 3`,
`(1 * w) * (w * w)`: they match it bit for bit where it returns, and
overflow to an inf part where it raises `OverflowError`, which that check
refuses as it does any other. One helper builds each message
(`_not_finite`, `_no_inverse`, `_on_cut`, `_field_not_finite`, and
`_overflowed`, which the pre-Schwarzian, the Schwarzian and the margins
share).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import chain, compress, repeat
from numbers import Complex as _Number

from .errors import (
    BasePointMismatchError,
    BranchCutError,
    CriticalPointError,
    JetDivisionError,
    NonFiniteJetError,
    _only,
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


# -- the tests, over columns ----------------------------------------------------
#
# Each takes a column of operands and returns, keyed by position, the error
# each entry that fails gets, naming the first test it fails (`_floored`
# gives the positions alone). Where every entry passes the finiteness and
# floor tests, a C-level screen (all(map(...)), min(map(abs, ...))) says so
# without a Python step per entry. The catalog's values kernels drop the
# failing samples and place their errors.

def _finite_errors(ws: list) -> dict:
    """By position, the error of each entry of ws that is not finite."""
    if all(map(_isfinite, ws)):
        return {}
    return {k: _not_finite(w) for k, w in enumerate(ws) if not _isfinite(w)}


def _below(w: complex, bound: float) -> bool:
    """|w| < bound, for a bound below 1e308. abs() runs only when both parts
    of w lie below bound: a part at or above it (or a NaN) decides alone, so
    a finite w whose modulus overflows the floats gives False, where abs()
    raises OverflowError."""
    return abs(w.real) < bound and abs(w.imag) < bound and abs(w) < bound


def _floored(ws: list, skip=()) -> list[int]:
    """Positions of the entries of ws, outside skip, with |w| below the
    degeneracy floor. A rule that tests finiteness first passes its failures
    as skip; the C-level screen runs only when there are none."""
    if not skip:
        try:
            if min(map(abs, ws), default=1.0) >= DEGENERACY_FLOOR:
                return []
        except OverflowError:  # an |w| beyond the floats; _below decides
            pass
    return [k for k, w in enumerate(ws)
            if k not in skip and _below(w, DEGENERACY_FLOOR)]


def _inverse_errors(ws: list, zs: list) -> dict:
    """The tests of 1/w on each of ws, a finite w clear of the degeneracy
    floor; zs names the base points in the errors."""
    errors = _finite_errors(ws)
    for k in _floored(ws, errors):
        errors[k] = _no_inverse(ws[k], zs[k])
    return errors


def _log_errors(ws: list) -> dict:
    """The tests of the principal log of each of ws, a finite w clear of
    the cut (-inf, 0]."""
    errors = _finite_errors(ws)
    cut = [k for k, w in enumerate(ws) if w.real <= 0.0 and abs(w.imag) <= 1e-12]
    for k in _floored(ws, errors) + cut:
        if k not in errors:
            errors[k] = _on_cut(ws[k])
    return errors


_FIELDS = ("v0", "v1", "v2", "v3")


def _field_not_finite(name: str, w: complex) -> NonFiniteJetError:
    return NonFiniteJetError(f"jet field {name} is not finite: {w!r}")


def _jfinite_errors(js: list) -> dict:
    """By position, the error of each tuple jet of js with a field that is
    not finite, naming the first, as the Jet3 constructor does."""
    if all(map(_isfinite, chain.from_iterable(js))):
        return {}
    errors = {}
    for k, j in enumerate(js):
        for name, w in zip(_FIELDS, j):
            if not _isfinite(w):
                errors[k] = _field_not_finite(name, w)
                break
    return errors


# -- the rules, on tuple jets (see the module docstring) ----------------------
#
# Every rule keeps the terms whose operand is a lifted constant's exact 0j
# derivative: they can decide a signed zero or turn an infinity into a NaN,
# so dropping one could part the catalog's kernels from Jet3 arithmetic.

# the complex one, which the catalog's value paths share
_ONE = 1.0 + 0j


def _jconst(c) -> tuple:
    """The constant map c, lifted as Jet3's operators lift a plain number."""
    return (complex(c), 0j, 0j, 0j)


# Each rule below runs over a list of tuple jets, one comprehension per
# stage. An operand that every row shares (a lifted constant) is passed as
# itertools.repeat(c). The rules' tests are column tests that run first,
# dropping the rows they name (`_Rows`); a field that overflows, a cube's
# included, is left for the finiteness test of whatever reads it next.

def _jadds(a, b) -> list:
    return [(a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


def _jsubs(a, b) -> list:
    return [(a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


def _jmuls(a, b) -> list:
    """Leibniz rule to third order."""
    return [(a0 * b0,
             a1 * b0 + a0 * b1,
             a2 * b0 + 2 * a1 * b1 + a0 * b2,
             a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, b)]


def _jrecips(js: list) -> list:
    """1/f by the quotient rule to third order, on jets that passed its
    tests."""
    return [(w, -v1 * w2, (2 * v1 * v1 * w - v2) * w2,
             (-v3 + (6 * v1 * v2 - 6 * ((_ONE * v1) * (v1 * v1)) * w) * w)
             * w2)
            for v0, v1, v2, v3 in js for w in [1.0 / v0] for w2 in [w * w]]


def _jlogs(js: list) -> list:
    """The principal log, by Faa di Bruno at order 3, on jets that passed
    its tests."""
    return [(cmath.log(w), iw * f1, iw * f2 + g2 * f1 * f1,
             iw * f3 + 3 * g2 * f1 * f2 + g3 * ((_ONE * f1) * (f1 * f1)))
            for w, f1, f2, f3 in js for iw in [1.0 / w] for g2 in [-iw * iw]
            for g3 in [2 * ((_ONE * iw) * (iw * iw))]]


def _jexps(js: list) -> list:
    """exp, by Faa di Bruno at order 3, on jets that passed its test. An
    exp that overflows raises OverflowError for the whole column."""
    return [(e, e * f1, e * f2 + e * f1 * f1,
             e * f3 + 3 * e * f1 * f2 + e * ((_ONE * f1) * (f1 * f1)))
            for f0, f1, f2, f3 in js for e in [cmath.exp(f0)]]


class _Rows:
    """The n samples of one call, of which zs, in call order, are still
    being evaluated. A drop takes the samples that fail a test out of zs and
    out of the columns aligned with it, keeping their errors, which placed
    (and result and jets, once the column is tested finite) put back in
    their places. The rules (jrecip, jlog, jexp and jpow on tuple jets, pow
    on values) run their tests in their one order and drop what fails.
    """

    __slots__ = ("n", "zs", "at", "errors")

    def __init__(self, zs: list):
        # at: the position in the call of each of zs; None while none was
        # dropped. A drop replaces zs, never changes it in place.
        self.n, self.zs, self.at, self.errors = len(zs), zs, None, {}

    def drop_rows(self, errors: dict, *columns: list) -> tuple[list, ...]:
        """The columns, aligned with zs, without the entries errors names by
        position; the same samples leave zs, and their errors are kept for
        placed."""
        if not errors:
            return columns
        at = range(self.n) if self.at is None else self.at
        for k, exc in errors.items():
            self.errors[at[k]] = exc
        keep = [k not in errors for k in range(len(self.zs))]
        self.at = list(compress(at, keep))
        self.zs = list(compress(self.zs, keep))
        return tuple(list(compress(ws, keep)) for ws in columns)

    def drop(self, errors: dict, ws: list) -> list:
        return self.drop_rows(errors, ws)[0]

    def placed(self, ws: list) -> list:
        """Per sample of the call, its entry of ws, or the error that dropped
        it; ws itself while none was."""
        if self.at is None:
            return ws
        out: list = [None] * self.n
        for k, w in chain(zip(self.at, ws), self.errors.items()):
            out[k] = w
        return out

    def result(self, ws: list) -> list:
        """The call's column: per sample, its entry of ws once tested finite,
        or the error that dropped it."""
        return self.placed(self.drop(_finite_errors(ws), ws))

    def jets(self, js: list) -> list:
        """The call's column of tuple jets: per sample, its jet once each
        field is tested finite, or the error that dropped it."""
        return self.placed(self.drop(_jfinite_errors(js), js))

    def pow(self, ws: list, exponent: complex) -> list:
        """exp(log(w) * exponent) for each of ws that passes the tests of
        the log and then of the exp."""
        ws = self.drop(_log_errors(ws), ws)
        ls = [cmath.log(w) * exponent for w in ws]
        return list(map(cmath.exp, self.drop(_finite_errors(ls), ls)))

    def jrecip(self, js: list, *carry: list) -> tuple[list, ...]:
        """1/f of each of js, tuple jets at zs, that passes its tests, and
        carry, columns aligned with js, without the rows that fail."""
        js, *carry = self.drop_rows(_jfinite_errors(js), js, *carry)
        js, *carry = self.drop_rows(
            _inverse_errors([j[0] for j in js], self.zs), js, *carry)
        return (_jrecips(js), *carry)

    def jlog(self, js: list) -> list:
        js = self.drop(_jfinite_errors(js), js)
        return _jlogs(self.drop(_log_errors([j[0] for j in js]), js))

    def jexp(self, js: list) -> list:
        return _jexps(self.drop(_jfinite_errors(js), js))

    def jpow(self, js: list, exponent: complex) -> list:
        """The principal-branch power exp(exponent * log(j)) of each of js."""
        return self.jexp(_jmuls(self.jlog(js), repeat(_jconst(exponent))))


def _one(z: complex, rule, j: tuple, *args) -> tuple:
    """The tuple jet rule(row, [j], *args) on the one row _Rows([z]), or the
    first error the rule's tests find, raised: Jet3's operators."""
    row = _Rows([z])
    return _only(row.placed(rule(row, [j], *args)))


def _jrecip(rows: _Rows, js: list) -> list:
    return rows.jrecip(js)[0]


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
        self.__post_init__()
        return self

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(z: complex) -> "Jet3":
        """Jet of the identity map at z."""
        z = complex(z)
        return Jet3(z, z, _ONE, 0j, 0j)

    @staticmethod
    def constant(z: complex, c: complex) -> "Jet3":
        """Jet of the constant map c at z."""
        return Jet3(complex(z), complex(c), 0j, 0j, 0j)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Jet3":
        # _jadds on one row, inline: see the module docstring
        z = self.base_point
        t = type(other)
        if t is Jet3 and other.base_point == z:
            b0, b1, b2, b3 = other.v0, other.v1, other.v2, other.v3
        elif t is complex:
            b0, b1, b2, b3 = other, 0j, 0j, 0j
        else:
            return self._row(other, _jadds)
        j = _Draft()
        j.base_point = z
        j.v0 = self.v0 + b0
        j.v1 = self.v1 + b1
        j.v2 = self.v2 + b2
        j.v3 = self.v3 + b3
        j.__class__ = Jet3
        return j

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return _jet(self.base_point, -self.v0, -self.v1, -self.v2, -self.v3)

    def __sub__(self, other) -> "Jet3":
        return self._row(other, _jsubs)

    def __rsub__(self, other) -> "Jet3":
        return self._row(other, _jsubs, swap=True)

    def __mul__(self, other) -> "Jet3":
        # _jmuls on one row, inline: see the module docstring
        z = self.base_point
        if type(other) is not Jet3 or other.base_point != z:
            return self._row(other, _jmuls)
        b0, b1, b2, b3 = other.v0, other.v1, other.v2, other.v3
        a0, a1, a2, a3 = self.v0, self.v1, self.v2, self.v3
        j = _Draft()
        j.base_point = z
        j.v0 = a0 * b0
        j.v1 = a1 * b0 + a0 * b1
        j.v2 = a2 * b0 + 2 * a1 * b1 + a0 * b2
        j.v3 = a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3
        j.__class__ = Jet3
        return j

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        return self._row(other, _jmuls, quotient=True)

    def __rtruediv__(self, other) -> "Jet3":
        return self._row(other, _jmuls, swap=True, quotient=True)

    def _row(self, other, rule, swap: bool = False,
             quotient: bool = False) -> "Jet3":
        """rule on the one row (self, other), or (other, self) with swap,
        other lifted to a tuple jet at this base point (NotImplemented if
        it is no number); quotient takes the second operand's reciprocal."""
        z = self.base_point
        if isinstance(other, Jet3):
            if other.base_point != z:
                raise BasePointMismatchError(
                    f"base points differ: {z!r} vs {other.base_point!r}")
            b = (other.v0, other.v1, other.v2, other.v3)
        elif isinstance(other, _Number):
            b = _jconst(other)
        else:
            return NotImplemented
        a = (self.v0, self.v1, self.v2, self.v3)
        if swap:
            a, b = b, a
        (v,) = rule([a], [_one(z, _jrecip, b) if quotient else b])
        return _jet(z, *v)

    # -- elementary functions --------------------------------------------------

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f. Quotient rule to third order."""
        return self._unary(_jrecip)

    def log(self) -> "Jet3":
        return self._unary(_Rows.jlog)

    def exp(self) -> "Jet3":
        return self._unary(_Rows.jexp)

    def pow(self, exponent: complex) -> "Jet3":
        """Principal-branch power, computed as exp(exponent * log(self))."""
        return self._unary(_Rows.jpow, exponent)

    def __pow__(self, exponent) -> "Jet3":
        if isinstance(exponent, _Number):
            return self.pow(complex(exponent))
        return NotImplemented

    def _unary(self, rule, *args) -> "Jet3":
        """The rule of `_Rows` on this jet's one row (`_one`), wrapped."""
        z = self.base_point
        return _jet(z, *_one(z, rule, (self.v0, self.v1, self.v2, self.v3), *args))


class _Draft:
    """A mutable twin of Jet3 with the same slots, so that `_jet` (and + and
    *, inline) can fill one with plain attribute stores and then make it a
    Jet3 by switching its class; setting a frozen dataclass's fields through
    their descriptors costs about twice as much."""

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


def schwarzian(jet: Jet3) -> complex:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at the base point.

    Vanishes exactly on Moebius maps and is invariant under Moebius
    post-composition, so the jet of 1/f gives it across a simple pole.
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
