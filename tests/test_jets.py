"""Jet arithmetic: frozen fixtures plus algebraic property tests."""

import cmath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concavemaps.errors import (BasePointMismatchError, BranchCutError,
                                CriticalPointError, JetDivisionError,
                                NonFiniteJetError)
from concavemaps.jets import Jet3, pre_schwarzian, schwarzian


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
    assert close(pre_schwarzian(m), m.v2 / m.v1)


def test_schwarzian_of_koebe_at_zero_is_minus_six():
    zj = Jet3.variable(0j)
    k = zj / ((1.0 - zj) * (1.0 - zj))
    assert close(schwarzian(k), -6)


def test_pre_schwarzian_needs_nonzero_derivative():
    flat = Jet3(0j, 1.0 + 0j, 0, 1, 0)
    with pytest.raises(CriticalPointError):
        pre_schwarzian(flat)


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


def test_minus_infinity_is_not_hidden_by_exp():
    low = Jet3.constant(0j, -1e200) * 1e200
    assert low.v0 == complex("-inf")
    with pytest.raises(NonFiniteJetError):
        low.exp()  # exp(-inf) = 0 would hide the overflow
    with pytest.raises(NonFiniteJetError):
        low.pow(0.5)
