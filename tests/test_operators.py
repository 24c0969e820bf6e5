"""Operator fixtures against hand-computed closed forms, plus invariances."""

import cmath
import inspect
import random

import pytest

import concavemaps
from concavemaps import operators
from concavemaps.catalog import Co0Cubic, HalfPlane, KAlpha, Kp, parse_spec
from concavemaps.errors import (CriticalPointError, IndeterminateSampleError,
                                NonFiniteJetError, PhiUndefinedError,
                                PoleProximityError, _only)
from concavemaps.jets import Jet3
from concavemaps.margins import _re_m, margin_at
from concavemaps.operators import (OperatorPoint, _a_f, _point, _q,
                                   _Ring, _sf_norm, a_p_of, phi_of,
                                   thm3_phi3_origin, thm3_phis, varphi_p)


def pt(spec, z):
    return OperatorPoint.at(spec, complex(z))


def at(form, where, *args):
    """The ring form form(ring, *args) at one sample: where is an
    OperatorPoint, or a bare z for a form that reads no jet (q). Raises the
    error that dropped the sample."""
    if isinstance(where, OperatorPoint):
        col = _point(where)
    else:
        col = _Ring([complex(where)])
    return _only(col.placed(form(col, *args)))


def _pre(col):
    """f''/f', the ring's own column."""
    return col.pre


def rand_disk(rng, rmax=0.9):
    return rmax * rng.random() * cmath.exp(2j * cmath.pi * rng.random())


def test_a_f_halfplane_closed_form():
    # A_l(z) = (1 - conj z)/(1 - z), unimodular on the whole disk
    rng = random.Random(811)
    spec = HalfPlane()
    for _ in range(50):
        z = rand_disk(rng)
        got = at(_a_f, pt(spec, z))
        want = (1.0 - z.conjugate()) / (1.0 - z)
        assert abs(got - want) < 1e-12
        assert abs(abs(got) - 1.0) < 1e-12


def test_phi_of_koebe_closed_form():
    spec = KAlpha(2.0)
    assert abs(phi_of(pt(spec, 0j)) - 0.5) < 1e-12
    for z in (0.3 + 0.4j, -0.6 + 0j, 0.1 - 0.7j):
        got = phi_of(pt(spec, z))
        assert abs(got - (1.0 + 2.0 * z) / (2.0 + z)) < 1e-12


def test_phi_of_cubic_fixture():
    assert abs(phi_of(pt(Co0Cubic(0j), 0.5)) - 0.125) < 1e-15


def test_a_f_from_phi_identity():
    # |A_f| = |1 - conj(z) phi| / |phi - z| wherever phi is defined
    rng = random.Random(812)
    for spec in (HalfPlane(), KAlpha(1.5), Kp(0.5), Co0Cubic(0.3 + 0.2j)):
        for _ in range(30):
            z = rand_disk(rng)
            if any(abs(z - q) < 0.1 for q in spec.poles):
                continue
            p = pt(spec, z)
            try:
                phi = phi_of(p)
            except PhiUndefinedError:
                continue
            lhs = abs(at(_a_f, p))
            rhs = abs(1.0 - z.conjugate() * phi) / abs(phi - z)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


def test_co_alpha_lhs_origin_is_half_alpha_minus_one():
    for alpha in (1.25, 1.5, 1.75, 2.0):
        got = margin_at(KAlpha(alpha), 0j, "co_alpha_lhs", alpha=alpha)
        assert abs(got - 0.5 * (alpha - 1.0)) < 1e-12


def test_alpha_range_enforced():
    for bad in (1.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            margin_at(HalfPlane(), 0j, "co_alpha_lhs", alpha=bad)


def test_q_term_values():
    assert at(_q, 0.3 + 0.4j, 0.0) == 0j
    assert at(_q, 0j, 0.5) == -2.0 + 0j
    got = at(_q, 0.5j, 0.5)
    assert abs(got - complex(-15.0 / 17.0, -25.0 / 17.0)) < 1e-14
    # p is checked where the margins that read q bind it
    with pytest.raises(ValueError):
        margin_at(HalfPlane(), 0j, "reM", p=1.0)
    with pytest.raises(ValueError):
        margin_at(HalfPlane(), 0j, "reM", p=-0.1)


def test_m_operator_fixtures():
    # the reM token is -Re M
    assert abs(margin_at(Co0Cubic(0j), 0.5, "reM", p=0.0) - 5.0 / 3.0) < 1e-12
    assert margin_at(parse_spec("identity"), 0j, "reM", p=0.0) == -1.0


def test_thm3_phis_cubic():
    phi3, big = thm3_phis(pt(Co0Cubic(0j), 0.5j))
    assert abs(phi3 - 1.0) < 1e-12
    assert abs(big - (-0.8j)) < 1e-12
    phi3, big = thm3_phis(pt(Co0Cubic(0j), 0.5))
    assert abs(phi3 - 1.0) < 1e-12
    assert abs(big) < 1e-12


def test_thm3_phi3_identity():
    # z^2 phi3 - 1 = 2 f' / (z f'') pointwise
    rng = random.Random(813)
    for spec in (KAlpha(2.0), Kp(0.3), Co0Cubic(0j)):
        for _ in range(30):
            z = rand_disk(rng)
            if abs(z) < 0.05 or any(abs(z - q) < 0.1 for q in spec.poles):
                continue
            p = pt(spec, z)
            try:
                phi3, _ = thm3_phis(p)
            except (PhiUndefinedError, IndeterminateSampleError):
                continue
            lhs = z * z * phi3 - 1.0
            rhs = 2.0 * p.jet.v1 / (z * p.jet.v2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_thm3_phi3_origin_cubic_is_one():
    assert abs(thm3_phi3_origin(Co0Cubic(0j)) - 1.0) < 1e-9
    assert abs(thm3_phi3_origin(Co0Cubic(0.3 + 0.2j)) - 1.0) < 1e-9


def test_varphi_p_on_kp_is_z():
    # omega(k_p) = z^2, so phi_p = omega/z recovers the sample itself
    for p in (0.2, 0.5, 0.8):
        spec = Kp(p)
        for z in (0.3j, -0.4 + 0j, 0.2 + 0.6j, -0.1 - 0.55j):
            got = varphi_p(pt(spec, z), p)
            assert abs(got - z) < 1e-9
        assert a_p_of(spec, p) < 1e-12


def test_varphi_p_origin_closed_form():
    # phi_p(0) = (-p P(0) + 2 + 2 p^2) / (2 p)
    for spec in (HalfPlane(), KAlpha(1.5)):
        p0 = at(_pre, pt(spec, 0j))
        for p in (0.3, 0.7):
            want = (-p * p0 + 2.0 + 2.0 * p * p) / (2.0 * p)
            assert abs(varphi_p(pt(spec, 0j), p) - want) < 1e-12


def test_varphi_p_refuses_a_sample_where_1_minus_pz_vanishes():
    # inside the floor only for p and |z| within about 1e-13 of 1
    with pytest.raises(PoleProximityError, match=r"^1 - pz vanishes at "):
        varphi_p(pt(parse_spec("identity"), 1.0 - 5e-14), 1.0 - 1e-13)


def test_a_p_of_cubic_origin():
    assert abs(a_p_of(Co0Cubic(0j), 0.0) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        a_p_of(Co0Cubic(0j), 1.0)


def test_affine_invariance():
    # every operator here reads only f''/f' and Sf, so c*f + d changes nothing
    rng = random.Random(814)
    spec = KAlpha(2.0)
    c, d = 2.0 - 1.0j, 0.3 + 4.0j
    for _ in range(25):
        z = rand_disk(rng)
        base = pt(spec, z)
        moved = OperatorPoint(z, base.jet * c + d)
        assert abs(at(_a_f, base) - at(_a_f, moved)) < 1e-12
        assert abs(phi_of(base) - phi_of(moved)) < 1e-10
        assert abs(at(_sf_norm, base) - at(_sf_norm, moved)) < 1e-9
        assert abs(at(_re_m, base, 0.5) - at(_re_m, moved, 0.5)) < 1e-10


def test_operator_point_validation():
    with pytest.raises(ValueError):
        OperatorPoint(1.2 + 0j, Jet3.variable(1.2 + 0j))
    with pytest.raises(ValueError):
        OperatorPoint(0.1 + 0j, Jet3.variable(0.2 + 0j))
    with pytest.raises(CriticalPointError):
        OperatorPoint(0j, Jet3.constant(0j, 5.0 + 0j))
    assert at(_pre, pt(HalfPlane(), 0j)) == 2.0 + 0j
    # an f' whose modulus overflows a float clears the |f'| floor
    huge = complex(1.5e308, 1.5e308)
    assert OperatorPoint(0.5j, Jet3(0.5j, 0j, huge, 0j, 0j)).jet.v1 == huge


def test_pre_schwarzian_raises_where_a_f_does():
    # f'(0) = 1e-12 and f''(0) = 2e300, so f''/f' overflows at 0
    spec = parse_spec("laurent:b=[0,1e-12,1e300]")
    point = pt(spec, 0j)
    for read in (lambda: at(_pre, point), lambda: at(_a_f, point),
                 lambda: margin_at(spec, 0j, "co_alpha_lhs", alpha=1.5)):
        with pytest.raises(NonFiniteJetError,
                           match="^pre-Schwarzian overflowed$"):
            read()


def test_phi_undefined_for_identity():
    with pytest.raises(PhiUndefinedError):
        phi_of(pt(parse_spec("identity"), 0.3 + 0j))
    with pytest.raises(PhiUndefinedError):
        thm3_phis(pt(parse_spec("identity"), 0.3 + 0j))


def test_thm3_indeterminate_at_origin():
    with pytest.raises(IndeterminateSampleError):
        thm3_phis(pt(KAlpha(2.0), 0j))


def _public_functions(module):
    return sorted(name for name, fn in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)


def test_operators_exports_only_what_margins_reads():
    # every other ring form is read through the margin table
    assert _public_functions(operators) == [
        "a_p_of", "phi_of", "thm3_phi3_origin", "thm3_phis", "varphi_p"]


def test_every_exported_name_resolves():
    assert len(set(concavemaps.__all__)) == len(concavemaps.__all__)
    for name in concavemaps.__all__:
        assert getattr(concavemaps, name) is not None, name
