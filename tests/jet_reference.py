"""Per-sample references for the column rules of `concavemaps.jets`.

These are the scalar tuple-jet rules and the scalar tests (finiteness,
degeneracy floor, branch cut) that once lived beside the column forms in
`jets`, kept as written there. The properties in `test_catalog.py` and
`test_jets.py` pin the column rules, the catalog's kernels and `Jet3`'s
operators to them bit for bit, error classes and messages included. Each
raises the first error its tests find.

`reciprocal_jet` is the jet of 1/f that the catalog's families once
carried, continued across a pole: the route apart from the closed forms
phi3(0) = b1/res and Sf(0) = -6 b1/res that the package reads at a pole at
the origin.
"""

import cmath

from concavemaps.catalog import Co0Cubic, Laurent, _require_in_disk
from concavemaps.jets import (DEGENERACY_FLOOR, Jet3, _below, _isfinite,
                              _jconst, _no_inverse, _not_finite, _on_cut)


def _require_finite(w: complex) -> complex:
    if not _isfinite(w):
        raise _not_finite(w)
    return w


def _inverse(w: complex, z: complex) -> complex:
    """1/w for a finite w clear of the degeneracy floor; z names the base
    point in the error."""
    _require_finite(w)
    if _below(w, DEGENERACY_FLOOR):
        raise _no_inverse(w, z)
    return 1.0 / w


def _log(w: complex) -> complex:
    """Principal log of a finite w clear of the cut (-inf, 0]."""
    _require_finite(w)
    if _below(w, DEGENERACY_FLOOR) or (w.real <= 0.0 and abs(w.imag) <= 1e-12):
        raise _on_cut(w)
    return cmath.log(w)


def _exp(w: complex) -> complex:
    return cmath.exp(_require_finite(w))


def _cube(w: complex) -> complex:
    """w ** 3 as the products CPython runs for it, (1 * w) * (w * w): the
    same bits where ** returns, and an inf part where it raises
    OverflowError, left for a finiteness test as any inf field is."""
    return ((1 + 0j) * w) * (w * w)


def _jfinite(a: tuple) -> tuple:
    """a, after the constructor's finiteness check on its fields."""
    v0, v1, v2, v3 = a
    if not (_isfinite(v0) and _isfinite(v1) and _isfinite(v2) and _isfinite(v3)):
        Jet3(0j, v0, v1, v2, v3)  # raises, naming the first bad field
    return a


def _jadd(a: tuple, b: tuple) -> tuple:
    """_jadds for one pair of tuple jets."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)


def _jmul(a: tuple, b: tuple) -> tuple:
    """_jmuls for one pair of tuple jets."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a1 * b0 + a0 * b1,
        a2 * b0 + 2 * a1 * b1 + a0 * b2,
        a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3,
    )


def _jsub(a: tuple, b: tuple) -> tuple:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)


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
    return _jcompose(a, g0, iw, -iw * iw, 2 * _cube(iw))


def _jexp(a: tuple) -> tuple:
    e = _exp(_jfinite(a)[0])
    return _jcompose(a, e, e, e, e)


def _jpow(a: tuple, exponent: complex) -> tuple:
    """Principal-branch power, computed as exp(exponent * log(a))."""
    return _jexp(_jmul(_jlog(a), _jconst(exponent)))


def _poly_jet(coeffs: tuple, u: Jet3) -> Jet3:
    """sum_k coeffs[k] u^k by Horner in Jet3 arithmetic, from the zero jet:
    one * and one + per coefficient. The Laurent kernel starts at its first
    step folded, and must agree with this bit for bit."""
    acc = Jet3.constant(u.base_point, 0j)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def reciprocal_jet(spec, z: complex) -> Jet3:
    """The jet of 1/f at z in Jet3 arithmetic, checked finite: continued
    across the pole of the cubic as z/(1 + a0 z + z^2) and across that of
    a Laurent series as u/(residue + u poly(u)), u = z - pole; elsewhere
    the reciprocal of eval_jet(z)."""
    if isinstance(spec, Co0Cubic):
        zj = Jet3.variable(_require_in_disk(z))
        return (zj / (1.0 + spec.a0 * zj + zj * zj)).checked()
    if isinstance(spec, Laurent) and spec.pole is not None:
        u = Jet3.variable(_require_in_disk(z)) - spec.pole
        return (u / (spec.residue + u * _poly_jet(spec.coeffs, u))).checked()
    return spec.eval_jet(z).reciprocal().checked()
