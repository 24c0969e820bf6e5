"""Jet arithmetic: frozen fixtures plus algebraic property tests."""

import cmath
import inspect
import math
import struct
from decimal import Decimal
from fractions import Fraction
from numbers import Complex

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concavemaps.errors import (BasePointMismatchError, BranchCutError,
                                CriticalPointError, JetDivisionError,
                                NonFiniteJetError)
from concavemaps import jets as jets_module
from concavemaps.jets import (_ONE, DEGENERACY_FLOOR, Jet3, _below, _floored,
                              _jconst, _jet, _Rows, schwarzian)
from concavemaps.operators import OperatorPoint
from jet_reference import (_cube, _jadd, _jexp, _jlog, _jmul, _jpow, _jrecip,
                           _jsub)
from test_operators import _pre, at


def close(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def jets_close(a: Jet3, b: Jet3, tol: float = 1e-12) -> bool:
    return all(close(x, y, tol) for x, y in
               zip((a.v0, a.v1, a.v2, a.v3), (b.v0, b.v1, b.v2, b.v3)))


# bounded complex values keep products and quotients well conditioned
finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                              allow_nan=False, allow_infinity=False)
unit_c = st.complex_numbers(min_magnitude=0.25, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)


def jet_at(z: complex, v0: complex, v1: complex, v2: complex, v3: complex) -> Jet3:
    return Jet3(z, v0, v1, v2, v3)


jets = st.builds(jet_at, st.just(0.5 + 0.25j), finite_c, finite_c, finite_c,
                 finite_c)
invertible_jets = st.builds(jet_at, st.just(0.5 + 0.25j), unit_c, finite_c,
                            finite_c, finite_c)
# pow and log use the principal branch, so keep values clear of (-inf, 0]
log_safe_jets = invertible_jets.filter(lambda j: j.v0.real > 0.05)


def test_reciprocal_fixture():
    # 1/z at z=0.5: value 2, then -1/z^2, 2/z^3, -6/z^4
    j = Jet3.variable(0.5 + 0j).reciprocal()
    assert j.v0 == 2
    assert j.v1 == -4
    assert j.v2 == 16
    assert j.v3 == -96


def test_log_fixture():
    # log(1+z) at z=0: derivatives 1, -1, 2
    j = (1.0 + Jet3.variable(0j)).log()
    assert close(j.v0, 0)
    assert close(j.v1, 1)
    assert close(j.v2, -1)
    assert close(j.v3, 2)


def test_exp_fixture():
    j = Jet3.variable(0.3 + 0.1j).exp()
    w = cmath.exp(0.3 + 0.1j)
    for v in (j.v0, j.v1, j.v2, j.v3):
        assert close(v, w)


def test_polynomial_product():
    z = 0.4 - 0.2j
    zj = Jet3.variable(z)
    j = (zj * zj - 1.0) * (2.0 * zj + 3.0)
    # p(z) = 2z^3 + 3z^2 - 2z - 3
    assert close(j.v0, 2 * z ** 3 + 3 * z ** 2 - 2 * z - 3)
    assert close(j.v1, 6 * z ** 2 + 6 * z - 2)
    assert close(j.v2, 12 * z + 6)
    assert close(j.v3, 12)


@given(jets, jets, jets)
@settings(max_examples=200)
def test_mul_is_associative(a, b, c):
    assert jets_close((a * b) * c, a * (b * c), 1e-10)


@given(jets, jets)
@settings(max_examples=200)
def test_mul_commutes(a, b):
    assert jets_close(a * b, b * a)


@given(jets, invertible_jets)
@settings(max_examples=200)
def test_div_undoes_mul(a, b):
    assert jets_close((a * b) / b, a, 1e-9)


@given(invertible_jets)
@settings(max_examples=200)
def test_reciprocal_involution(a):
    assert jets_close(a.reciprocal().reciprocal(), a, 1e-9)


@given(log_safe_jets, st.integers(min_value=2, max_value=5))
@settings(max_examples=100)
def test_integer_pow_matches_repeated_mul(a, n):
    acc = a
    for _ in range(n - 1):
        acc = acc * a
    assert jets_close(a ** n, acc, 1e-8)


@given(log_safe_jets)
@settings(max_examples=200)
def test_log_exp_roundtrip(a):
    assert jets_close(a.log().exp(), a, 1e-9)


def test_base_point_mismatch_rejected():
    a = Jet3.variable(0.1 + 0j)
    b = Jet3.variable(0.2 + 0j)
    with pytest.raises(BasePointMismatchError):
        a + b
    with pytest.raises(BasePointMismatchError):
        a * b


def test_scalar_lift():
    a = Jet3.variable(0.25 + 0j)
    assert jets_close(2.0 * a + 1j, Jet3(0.25 + 0j, 0.5 + 1j, 2, 0, 0))
    assert jets_close(1.0 - a, Jet3(0.25 + 0j, 0.75 + 0j, -1, 0, 0))


def test_division_floor():
    tiny = Jet3(0j, 1e-15 + 0j, 1, 0, 0)
    with pytest.raises(JetDivisionError):
        tiny.reciprocal()


def test_branch_cut_rejected():
    neg = Jet3(0j, -2.0 + 0j, 1, 0, 0)
    with pytest.raises(BranchCutError):
        neg.log()
    # just off the cut is fine
    off = Jet3(0j, -2.0 + 1e-3j, 1, 0, 0)
    off.log()


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteJetError):
        Jet3(0j, complex("inf"), 1, 0, 0)


def test_jets_are_immutable():
    j = Jet3.variable(0j)
    with pytest.raises(AttributeError):
        j.v0 = 1.0 + 0j  # type: ignore[misc]


def test_schwarzian_vanishes_on_mobius():
    z = 0.3 + 0.4j
    zj = Jet3.variable(z)
    m = (2.0 * zj + 1.0) / (1.0 - 0.5 * zj)
    assert abs(schwarzian(m)) < 1e-12
    assert close(at(_pre, OperatorPoint(z, m)), m.v2 / m.v1)


def test_schwarzian_of_koebe_at_zero_is_minus_six():
    zj = Jet3.variable(0j)
    k = zj / ((1.0 - zj) * (1.0 - zj))
    assert close(schwarzian(k), -6)


def test_schwarzian_refuses_a_critical_point_and_an_overflow():
    with pytest.raises(CriticalPointError, match=r"^f'\(\(0\.5\+0j\)\) = 0$"):
        schwarzian(Jet3(0.5 + 0j, 1 + 0j, 0j, 1 + 0j, 0j))
    # f'''/f' is finite, (3/2)(f''/f')^2 is not
    with pytest.raises(NonFiniteJetError, match="^Schwarzian overflowed$"):
        schwarzian(Jet3(0.5 + 0j, 1 + 0j, 1e-300 + 0j, 1e300 + 0j, 1e300 + 0j))


def test_pre_schwarzian_needs_nonzero_derivative():
    # f''/f' is read only off an OperatorPoint's ring, which refuses f' = 0
    flat = Jet3(0j, 1.0 + 0j, 0, 1, 0)
    with pytest.raises(CriticalPointError):
        OperatorPoint(0j, flat)


# -- finiteness is checked at the boundary, not on every operation -------------

wide_c = st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                            allow_infinity=False)
# constant jets too: with no derivative to overflow alongside it, an
# overflowed value is the only non-finite field left to find
wide_jets = st.one_of(
    st.builds(jet_at, st.just(0.5 + 0.25j), wide_c, wide_c, wide_c, wide_c),
    st.builds(Jet3.constant, st.just(0.5 + 0.25j), wide_c))

# one step of a jet program: acc is the running jet, o a well-conditioned
# operand at the same base point, k a scalar that may be huge
_STEPS = {
    "add": lambda acc, o, k: acc + o,
    "sub": lambda acc, o, k: acc - o,
    "rsub": lambda acc, o, k: o - acc,
    "mul": lambda acc, o, k: acc * o,
    "div": lambda acc, o, k: acc / o,
    "rdiv": lambda acc, o, k: o / acc,
    "scale": lambda acc, o, k: k * acc,
    "shift": lambda acc, o, k: acc + k,
    "neg": lambda acc, o, k: -acc,
    "reciprocal": lambda acc, o, k: acc.reciprocal(),
    "log": lambda acc, o, k: acc.log(),
    "exp": lambda acc, o, k: acc.exp(),
    "pow": lambda acc, o, k: acc ** 1.5,
}
programs = st.lists(st.tuples(st.sampled_from(sorted(_STEPS)),
                              invertible_jets, wide_c),
                    min_size=1, max_size=8)


def _run(start: Jet3, program, check_every_step: bool):
    """Field reprs of the program's result, or the class of the error it
    raised. check_every_step re-validates each intermediate through the
    public constructor, as every operation once did."""
    acc = start
    try:
        for name, other, k in program:
            acc = _STEPS[name](acc, other, k)
            if check_every_step:
                acc = Jet3(acc.base_point, acc.v0, acc.v1, acc.v2, acc.v3)
        acc = acc.checked()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return tuple(repr(v) for v in (acc.v0, acc.v1, acc.v2, acc.v3))


_BASE = 0.5 + 0.25j
_UNIT = jet_at(_BASE, 1.0 + 0j, 0j, 0j, 0j)


@given(wide_jets, programs)
@settings(max_examples=250, deadline=None)
# an overflowed value meets 1/w, then exp, before anything else checks it
@example(Jet3.constant(_BASE, 1e200), [("scale", _UNIT, 1e200 + 0j),
                                       ("reciprocal", _UNIT, 0j)])
@example(Jet3.constant(_BASE, -1e200), [("scale", _UNIT, 1e200 + 0j),
                                        ("exp", _UNIT, 0j)])
def test_boundary_check_catches_what_per_step_checks_caught(start, program):
    per_step = _run(start, program, check_every_step=True)
    at_boundary = _run(start, program, check_every_step=False)
    if per_step is NonFiniteJetError:
        assert at_boundary is NonFiniteJetError
    assert at_boundary == per_step


def test_overflow_is_not_hidden_by_reciprocal():
    square = Jet3.constant(0j, 1e200) * 1e200  # nothing has checked it yet
    assert square.v0 == complex("inf")
    with pytest.raises(NonFiniteJetError):
        square.reciprocal()  # 1/inf = 0 would hide the overflow
    with pytest.raises(NonFiniteJetError):
        1.0 / square
    with pytest.raises(NonFiniteJetError):
        square.checked()


# finite, with a modulus beyond the floats: abs() raises OverflowError on it
HUGE = complex(1.5e308, 1.5e308)


@given(st.one_of(st.complex_numbers(), st.sampled_from(
           (HUGE, -HUGE, complex(1e308, -1e308), complex(math.nan, 1e308),
            complex(1.0, 0.0), complex(0.0, -1.0), complex(1e-12, 0.0),
            complex(0.0, 9e-13), complex(7e-13, 7e-13)))),
       st.sampled_from((DEGENERACY_FLOOR, 1.0, 1e300)))
@example(HUGE, DEGENERACY_FLOOR)
@example(HUGE, 1.0)
def test_below_is_abs_below_wherever_abs_returns(w, bound):
    try:
        want = abs(w) < bound
    except OverflowError:
        want = False  # |w| exceeds every float, so it is not below bound
    assert _below(w, bound) is want


def test_a_modulus_beyond_the_floats_meets_the_floor():
    # the reciprocal and log rules test the floor on such a value, and it
    # passes: nothing raises OverflowError
    assert _floored([HUGE, 0j, -HUGE, 1e-13j]) == [1, 3]
    assert _floored([0.5j, HUGE], skip={0}) == []
    jet = Jet3(0j, HUGE, 1, 0, 0)
    assert jet.reciprocal().v0 == 1.0 / HUGE
    assert jet.log().v0 == cmath.log(HUGE)


def test_minus_infinity_is_not_hidden_by_exp():
    low = Jet3.constant(0j, -1e200) * 1e200
    assert low.v0 == complex("-inf")
    with pytest.raises(NonFiniteJetError):
        low.exp()  # exp(-inf) = 0 would hide the overflow
    with pytest.raises(NonFiniteJetError):
        low.pow(0.5)


@pytest.mark.parametrize("v1", [1e200 + 0j, 1e103 + 0j])
def test_overflowing_cube_raises_non_finite(v1):
    # the cube of v1 in the quotient rule and of f1 in the chain rule
    # overflows to an inf part (at 1e103 alone, v1 * v1 staying finite);
    # the operators return the jet unchecked, as + and * do, and checked()
    # refuses it
    steep = Jet3(_BASE, 1.0 + 0j, v1, 0j, 0j)
    for jet in (steep.reciprocal(), steep.log(),
                Jet3(_BASE, 0j, v1, 0j, 0j).exp()):
        assert not cmath.isfinite(jet.v3)
        with pytest.raises(NonFiniteJetError, match="jet field v. is not"):
            jet.checked()


# parts at the edges of the cube's range: signed zeros and subnormals, parts
# near 1e103, where the cube alone overflows, and near the largest float
_cube_parts = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)),
    st.floats(-1e-300, 1e-300),
    st.floats(1e102, 1e104), st.floats(-1e104, -1e102),
    st.floats(1e307, 1.7976931348623157e308),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.builds(complex, _cube_parts, _cube_parts))
@settings(max_examples=500)
def test_the_rules_cube_is_complex_pow_where_it_returns(w):
    # the rules write w ** 3 as the products CPython runs for it
    got = _cube(w)
    try:
        want = w ** 3
    except OverflowError:
        assert math.isinf(got.real) or math.isinf(got.imag)
    else:
        assert struct.pack("<2d", got.real, got.imag) == struct.pack(
            "<2d", want.real, want.imag)


@pytest.mark.parametrize("v1", [1e200 + 0j, 1e103 + 0j])
def test_a_reciprocal_whose_cube_overflows_is_excluded_by_the_next_test(v1):
    col = _Rows([0.25j, 0.5j])
    (rs,) = col.jrecip([(_ONE, v1, 0j, 0j), (2.0 + 0j, _ONE, 0j, 0j)])
    steep, kept = col.jets(rs)
    assert isinstance(steep, NonFiniteJetError)
    assert str(steep).startswith("jet field v")
    assert kept == _jrecip((2.0 + 0j, _ONE, 0j, 0j), 0.5j)


# -- operators against the tuple rules they ran, kept in jet_reference ---------

def _fields(j: Jet3) -> tuple:
    return (j.v0, j.v1, j.v2, j.v3)


def _bits(base_point: complex, fields: tuple) -> bytes:
    return struct.pack("<10d", *(x for w in (base_point, *fields)
                                 for x in (w.real, w.imag)))


# dunder -> the tuple rule it runs, on (self's fields, operand's fields)
_RULES = {
    "__add__": lambda a, o, z: _jadd(a, o),
    "__radd__": lambda a, o, z: _jadd(a, o),
    "__sub__": lambda a, o, z: _jsub(a, o),
    "__rsub__": lambda a, o, z: _jsub(o, a),
    "__mul__": lambda a, o, z: _jmul(a, o),
    "__rmul__": lambda a, o, z: _jmul(a, o),
    "__truediv__": lambda a, o, z: _jmul(a, _jrecip(o, z)),
    "__rtruediv__": lambda a, o, z: _jmul(o, _jrecip(a, z)),
}

# Jets as an operation may build them, unchecked: fields anywhere in the
# floats, NaN and inf among them, signed zeros, values at the floor and on
# the cut, and v1 or v0 large enough that a cube or an exp overflows; base
# points inside the disk and outside it.
_SPECIAL = (0j, complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0),
            1e-13 + 0j, complex(0.0, -9e-13), complex(1e-12, 0.0),
            -1.0 + 0j, complex(-1.0, 1e-12), complex(-2.0, -0.0),
            complex(-1.0, 1.1e-12), complex(math.inf, 0.0),
            complex(0.0, -math.inf), complex(math.nan, 0.0),
            complex(math.nan, -1.0), 1e200 + 0j, 800.0 + 0j,
            complex(1e300, 1e300), complex(1.5e308, 1.5e308))
any_field = st.one_of(wide_c, st.sampled_from(_SPECIAL))
base_points = st.one_of(
    st.sampled_from((_BASE, 0j, complex(-0.0, 0.0), 0.99 + 0j, 1.5 + 0j,
                     -3j, 1e300 + 0j)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False))


def _any_jet(base_point):
    return st.builds(_jet, st.just(base_point), any_field, any_field,
                     any_field, any_field)


class _OwnComplex(complex):
    """A complex with arithmetic of its own, which an operand escapes only
    when the operators lift it to an exact complex, as `Jet3._row` does."""

    def _own(self, other):
        return complex(-7.0, 7.0)

    __add__ = __radd__ = __mul__ = __rmul__ = _own


def _other_zeros(z: complex) -> complex:
    """z with the sign of each zero part flipped: equal to z, other bits."""
    return complex(-z.real if z.real == 0 else z.real,
                   -z.imag if z.imag == 0 else z.imag)


_NAN_BASES = (complex(math.nan, 0.0), complex(0.5, -math.nan))


@st.composite
def jet_and_operand(draw):
    """A jet, and an operand of every type the operators meet: a jet at its
    base point, at the same point with its zero parts' signs flipped, at
    another or at a NaN; a constant jet; a complex or an instance of a
    complex subclass, float (inf and NaN among them), int, bool or Fraction;
    or something that is not a number."""
    a = draw(base_points.flatmap(_any_jet))
    other = draw(st.one_of(
        _any_jet(a.base_point), _any_jet(_other_zeros(a.base_point)),
        base_points.flatmap(_any_jet),
        st.sampled_from(_NAN_BASES).flatmap(_any_jet),
        st.builds(Jet3.constant, st.just(a.base_point), wide_c),
        any_field, st.builds(_OwnComplex, any_field), st.floats(),
        st.integers(min_value=-10 ** 300, max_value=10 ** 300),
        st.booleans(), st.fractions(max_denominator=10 ** 6),
        st.sampled_from(("x", None, Decimal("1.5")))))
    return a, other


def _ref_lift(z, other):
    """other as a tuple jet at z, as the operators lift it."""
    if isinstance(other, Jet3):
        if other.base_point != z:
            raise BasePointMismatchError(
                f"base points differ: {z!r} vs {other.base_point!r}")
        return _fields(other)
    if isinstance(other, Complex):
        return _jconst(other)
    return NotImplemented


def _ref_binary(rule):
    def ref(a, other):
        lifted = _ref_lift(a.base_point, other)
        if lifted is NotImplemented:
            return NotImplemented
        return rule(_fields(a), lifted, a.base_point)
    return ref


def _ref_pow(a, exponent):
    if not isinstance(exponent, Complex):
        return NotImplemented
    return _jpow(_fields(a), complex(exponent))


# every operator of Jet3 -> (how to call it, its reference on tuple jets)
_OPERATORS = {
    **{name: (lambda a, o, name=name: getattr(a, name)(o), _ref_binary(rule))
       for name, rule in _RULES.items()},
    "__neg__": (lambda a, o: -a, lambda a, o: tuple(-w for w in _fields(a))),
    "reciprocal": (lambda a, o: a.reciprocal(),
                   lambda a, o: _jrecip(_fields(a), a.base_point)),
    "log": (lambda a, o: a.log(), lambda a, o: _jlog(_fields(a))),
    "exp": (lambda a, o: a.exp(), lambda a, o: _jexp(_fields(a))),
    "__pow__": (lambda a, o: a.__pow__(o), _ref_pow),
}


def _outcome(fn):
    """fn's result and None, or None and the class and message it raised."""
    try:
        return fn(), None
    except (ValueError, ArithmeticError) as exc:
        return None, (type(exc), str(exc))


@given(jet_and_operand())
@settings(max_examples=400, deadline=None)
@example((_jet(_BASE, 1.0 + 0j, 1e200 + 0j, 0j, 0j), 2.0))  # a cube overflows
@example((_jet(_BASE, 800.0 + 0j, 1.0 + 0j, 0j, 0j), 1.5))  # exp overflows
@example((_jet(_BASE, 0j, 1.0 + 0j, 0j, 0j), Fraction(1, 3)))
@example((_jet(_BASE, complex(-0.0, 0.0), 0j, 0j, 0j), True))
@example((_jet(_BASE, 1e-13 + 0j, 0j, 0j, 0j), float("nan")))
@example((_jet(_BASE, 1e-13 + 0j, 1.0 + 0j, 0j, 0j), complex(-2.0, -0.0)))
@example((_jet(_BASE, complex(-1.0, 1e-12), 1.0 + 0j, 0j, 0j), 0.5))
@example((_jet(1.5 + 0j, complex(math.nan, 0.0), 1.0 + 0j, 0j, 0j), True))
@example((_jet(_BASE, 2.0 + 0j, 1.0 + 0j, complex(0.0, -math.inf), 0j),
          float("nan")))
@example((Jet3.constant(_BASE, 1e200),
          Jet3(_BASE, 1e200 + 0j, 1e200 + 0j, 0j, 0j)))
@example((_jet(0.1 + 0j, 2.0 + 0j, 1.0 + 0j, 0j, 0j),
          _jet(0.2 + 0j, 1.0 + 0j, 0j, 0j, 0j)))  # a second base point
@example((_jet(_BASE, 2.0 + 0j, 1.0 + 0j, 0j, 0j), Decimal("1.5")))
@example((_jet(_BASE, 2.0 + 0j, 1.0 + 0j, 0j, 0j), _OwnComplex(0.5, -1.0)))
# a NaN base point is equal to nothing, not even itself
@example((_jet(_NAN_BASES[0], 2.0 + 0j, 1.0 + 0j, 0j, 0j),
          _jet(_NAN_BASES[0], 1.0 + 0j, 0j, 0j, 0j)))
@example((_jet(0j, 2.0 + 0j, 1.0 + 0j, 0j, 0j),
          _jet(complex(-0.0, -0.0), 1.0 + 0j, complex(-0.0, 0.0), 0j, 0j)))
# NaNs of either sign, whose sums keep the first operand's
@example((_jet(_BASE, 2.0 + 0j, 1.0 + 0j, 0j, 0j),
          _jet(_BASE, complex(math.nan, 0.0), complex(-math.nan, 0.0), 0j, 0j)))
@example((_jet(_BASE, *[complex(math.nan, -math.nan)] * 4),
          _jet(_BASE, *[complex(-math.nan, math.nan)] * 4)))
# and products, which keep the first factor's where both hold one
@example((_jet(_BASE, complex(math.nan, -math.nan), _ONE, _ONE, _ONE),
          _jet(_BASE, _ONE, _ONE, complex(-math.nan, math.nan), _ONE)))
def test_operators_equal_their_tuple_rules(jet_and_other):
    a, other = jet_and_other
    z = a.base_point
    for name, (call, ref) in _OPERATORS.items():
        got, got_error = _outcome(lambda: call(a, other))
        want, want_error = _outcome(lambda: ref(a, other))
        assert got_error == want_error, name
        if want is NotImplemented or want_error is not None:
            assert got is want, name
        else:
            assert type(got) is Jet3, name
            assert _bits(got.base_point, _fields(got)) == _bits(z, want), name
    if isinstance(other, Complex):
        # the pow method, which __pow__ calls with a complex exponent
        got, got_error = _outcome(lambda: a.pow(other))
        want, want_error = _outcome(lambda: _jpow(_fields(a), other))
        assert got_error == want_error
        if want_error is None:
            assert _bits(got.base_point, _fields(got)) == _bits(z, want)


def test_operators_refuse_what_is_not_a_number():
    a = Jet3.variable(_BASE)
    for other in ("x", None, Decimal("1.5")):
        for name in _RULES:
            assert getattr(a, name)(other) is NotImplemented, (name, other)
        for op in (lambda: a + other, lambda: other + a, lambda: a - other,
                   lambda: other - a, lambda: a * other, lambda: other * a,
                   lambda: a / other, lambda: other / a):
            with pytest.raises(TypeError):
                op()


def test_operators_refuse_a_second_base_point():
    a, b = Jet3.variable(0.1 + 0j), Jet3.variable(0.2 + 0j)
    for name in _RULES:
        with pytest.raises(BasePointMismatchError) as info:
            getattr(a, name)(b)
        assert str(info.value) == "base points differ: (0.1+0j) vs (0.2+0j)"


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"),
                                 complex(1.0, float("-inf")), float("nan")])
def test_checked_constructors_name_the_field_the_constructor_names(bad):
    def error(fn):
        with pytest.raises(NonFiniteJetError) as info:
            fn()
        return str(info.value)

    w = complex(bad)
    assert error(lambda: Jet3.variable(bad)) == error(
        lambda: Jet3(w, w, 1.0 + 0j, 0j, 0j))
    assert error(lambda: Jet3.constant(_BASE, bad)) == error(
        lambda: Jet3(_BASE, w, 0j, 0j, 0j))
    assert error(lambda: Jet3.constant(bad, 1.0)) == error(
        lambda: Jet3(w, 1.0 + 0j, 0j, 0j, 0j))
    assert error(lambda: Jet3.constant(bad, bad)) == error(
        lambda: Jet3(w, w, 0j, 0j, 0j))


def test_jets_keeps_its_per_step_rules_private():
    # perfbench's tracer spans every public function of the module; a public
    # rule or lift would add a span to every arithmetic step
    public = sorted(name for name, fn in vars(jets_module).items()
                    if not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == jets_module.__name__)
    assert public == ["schwarzian"]
