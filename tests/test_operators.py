"""Operator fixtures against hand-computed closed forms, plus invariances."""

import cmath
import inspect
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import concavemaps
from concavemaps import operators
from concavemaps.catalog import (Co0Cubic, HalfPlane, KAlpha, Kp, Laurent,
                                 parse_spec)
from concavemaps.errors import (CriticalPointError, IndeterminateSampleError,
                                NonFiniteJetError, PhiUndefinedError,
                                PoleProximityError, SampleExclusionError,
                                _only)
from concavemaps.jets import DEGENERACY_FLOOR, Jet3, schwarzian
from concavemaps.margins import _re_m, margin_at, phi_prime_one_diagnostic
from concavemaps.operators import (OperatorPoint, _a_f, _phi, _phis, _q,
                                   _Ring, _sf_norm, _varphi, a_p_of,
                                   thm3_phi3_origin)
from concavemaps.verify import control_roster, member_roster
from jet_reference import reciprocal_jet
from test_catalog import coeff_c, family_specs, nonzero_c


def pt(spec, z):
    return OperatorPoint.at(spec, complex(z))


def _point(pt):
    """The one-sample ring of an OperatorPoint: the per-point composition
    that the package's ring reads are checked against."""
    return _Ring((pt.z,)).take([(pt.jet.v0, pt.jet.v1, pt.jet.v2, pt.jet.v3)])


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


def _phi3s(col):
    """(phi3, Phi) per sample."""
    return list(zip(*_phis(col)))


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
    assert abs(at(_phi, pt(spec, 0j)) - 0.5) < 1e-12
    for z in (0.3 + 0.4j, -0.6 + 0j, 0.1 - 0.7j):
        got = at(_phi, pt(spec, z))
        assert abs(got - (1.0 + 2.0 * z) / (2.0 + z)) < 1e-12


def test_phi_of_cubic_fixture():
    assert abs(at(_phi, pt(Co0Cubic(0j), 0.5)) - 0.125) < 1e-15


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
                phi = at(_phi, p)
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
    phi3, big = at(_phi3s, pt(Co0Cubic(0j), 0.5j))
    assert abs(phi3 - 1.0) < 1e-12
    assert abs(big - (-0.8j)) < 1e-12
    phi3, big = at(_phi3s, pt(Co0Cubic(0j), 0.5))
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
                phi3, _ = at(_phi3s, p)
            except (PhiUndefinedError, IndeterminateSampleError):
                continue
            lhs = z * z * phi3 - 1.0
            rhs = 2.0 * p.jet.v1 / (z * p.jet.v2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_thm3_phi3_origin_cubic_is_one():
    assert thm3_phi3_origin(Co0Cubic(0j)) == 1.0
    assert thm3_phi3_origin(Co0Cubic(0.3 + 0.2j)) == 1.0


def test_varphi_p_on_kp_is_z():
    # omega(k_p) = z^2, so phi_p = omega/z recovers the sample itself
    for p in (0.2, 0.5, 0.8):
        spec = Kp(p)
        for z in (0.3j, -0.4 + 0j, 0.2 + 0.6j, -0.1 - 0.55j):
            got = at(_varphi, pt(spec, z), p)
            assert abs(got - z) < 1e-9
        assert a_p_of(spec, p) < 1e-12


def test_varphi_p_origin_closed_form():
    # phi_p(0) = (-p P(0) + 2 + 2 p^2) / (2 p)
    for spec in (HalfPlane(), KAlpha(1.5)):
        p0 = at(_pre, pt(spec, 0j))
        for p in (0.3, 0.7):
            want = (-p * p0 + 2.0 + 2.0 * p * p) / (2.0 * p)
            assert abs(at(_varphi, pt(spec, 0j), p) - want) < 1e-12


def test_varphi_p_refuses_a_sample_where_1_minus_pz_vanishes():
    # inside the floor only for p and |z| within about 1e-13 of 1
    with pytest.raises(PoleProximityError, match=r"^1 - pz vanishes at "):
        at(_varphi, pt(parse_spec("identity"), 1.0 - 5e-14), 1.0 - 1e-13)


def test_thm3_phi3_origin_refuses_a_limit_that_is_not_finite():
    # phi3(0) = b1/res: 1e308/1e-10 overflows, and the modulus of
    # 1.5e308+1.5e308i, where abs() raises OverflowError, overflows too
    for text, w in (("laurent:p=0;res=1e-10;b=[0,1e308]", "(inf+0j)"),
                    ("laurent:p=0;res=1;b=[0,1.5e308+1.5e308i]",
                     "(1.5e+308+1.5e+308j)")):
        message = rf"^phi3 limit at 0 is not finite: {re.escape(w)}$"
        for read in (thm3_phi3_origin, lambda s: a_p_of(s, 0.0)):
            with pytest.raises(NonFiniteJetError, match=message):
                read(parse_spec(text))
    # 1e308 itself is finite: b0 and the tail enter no limit at the pole
    spec = parse_spec("laurent:p=0;res=1;b=[1e308,1e308,1e308]")
    assert thm3_phi3_origin(spec) == 1e308


def test_origin_reads_refuse_a_spec_without_a_pole_at_0():
    for text in ("halfplane", "kp:p=1e-9", "laurent:p=0.5;res=1;b=[0,1]"):
        for read in (thm3_phi3_origin, lambda s: a_p_of(s, 0.0)):
            with pytest.raises(ValueError, match="no simple pole at z = 0$"):
                read(parse_spec(text))


def test_a_p_of_cubic_origin():
    assert a_p_of(Co0Cubic(0j), 0.0) == 1.0
    with pytest.raises(ValueError):
        a_p_of(Co0Cubic(0j), 1.0)


def test_a_p_of_refuses_an_indeterminate_origin():
    with pytest.raises(IndeterminateSampleError,
                       match="^sample indeterminate: phi_p at 0j$"):
        a_p_of(Kp(0.5), 1e-13)


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
        assert abs(at(_phi, base) - at(_phi, moved)) < 1e-10
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
        at(_phi, pt(parse_spec("identity"), 0.3 + 0j))
    with pytest.raises(PhiUndefinedError):
        at(_phi3s, pt(parse_spec("identity"), 0.3 + 0j))


def test_thm3_indeterminate_at_origin():
    with pytest.raises(IndeterminateSampleError):
        at(_phi3s, pt(KAlpha(2.0), 0j))


# -- point reads against the per-point composition -------------------------------
#
# phi'(1) and a_p read their samples as one ring of the kernel. The
# references read each sample alone, as an OperatorPoint turned into a
# one-sample ring, in the order the package reads them; both must agree bit
# for bit, and fail with the same error, class and message. phi3(0) and
# a_0 read no sample: they are b1/res from the spec's fields at a pole at 0,
# and refused elsewhere.

ROSTER_SPECS = [spec for spec, _ in member_roster() + control_roster()]
# f'' vanishes at r = 0.999 alone of the diagnostic's three radii
F2_ZERO_AT_0999 = parse_spec("laurent:b=[0,1,0.3,-0.1001001001001001]")
POINT_SPECS = ROSTER_SPECS + [
    F2_ZERO_AT_0999, parse_spec("identity"), parse_spec("kp:p=1e-9"),
    parse_spec("laurent:p=0;res=1;b=[0,0,0.5]")]


def _ref_phi_prime_one(spec):
    ds = []
    for r in (0.99, 0.999, 0.9999):
        try:
            val = at(_phi, pt(spec, r))
        except SampleExclusionError:
            return None, tuple(ds)
        ds.append(((1.0 - val) / (1.0 - r)).real)
    return (10.0 * ds[2] - ds[1]) / 9.0, tuple(ds)


def _pole_at_0(spec):
    """Whether the spec has its simple pole at 0, or within the floor of 0
    (a Laurent series alone: k_p's second pole keeps it off)."""
    return isinstance(spec, Co0Cubic) or (
        isinstance(spec, Laurent) and spec.pole is not None
        and spec.pole < DEGENERACY_FLOOR)


def _ref_phi3_origin(spec):
    """b1/res for f = res/z + b0 + b1 z + ..., from the spec's own fields."""
    if isinstance(spec, Co0Cubic):
        return 1.0 + 0j  # 1/z + a0 + z: res = b1 = 1
    b1 = spec.coeffs[1] if len(spec.coeffs) > 1 else 0j
    return b1 / spec.residue


def _radial_phi3_limit(spec, r):
    """phi3 per point at |z| = r in four directions, averaged: the rule that
    phi3(0) was once read by. Near a simple pole at 0, phi3 = b1/res +
    3 (b2/res) z + O(z^2), so the average is phi3(0) + O(r^2)."""
    vals = [at(_phi3s, pt(spec, r * d))[0]
            for d in (1.0 + 0j, 1j, -1.0 + 0j, -1j)]
    return sum(vals) / len(vals)


def _ref_a_p(spec, p):
    return abs(at(_varphi, pt(spec, 0j), p))


def _packed(w):
    if w is None:
        return None
    if isinstance(w, tuple):
        return tuple(map(_packed, w))
    return struct.pack("<dd", w.real, w.imag)


def _read(fn, *args):
    """fn(*args) packed, or the class and message of its exclusion error."""
    try:
        return _packed(fn(*args))
    except SampleExclusionError as exc:
        return type(exc), str(exc)


def _assert_point_reads_match(spec, p):
    assert (_read(phi_prime_one_diagnostic, spec)
            == _read(_ref_phi_prime_one, spec))
    assert _read(a_p_of, spec, p) == _read(_ref_a_p, spec, p)
    if _pole_at_0(spec):
        w = _ref_phi3_origin(spec)
        assert _read(thm3_phi3_origin, spec) == _packed(w)
        assert _read(a_p_of, spec, 0.0) == _packed(abs(w))
    else:
        for read in (thm3_phi3_origin, lambda s: a_p_of(s, 0.0)):
            with pytest.raises(ValueError, match="no simple pole at z = 0$"):
                read(spec)


@pytest.mark.parametrize("spec", POINT_SPECS, ids=str)
def test_point_reads_match_the_per_point_composition(spec):
    for p in (0.2, 0.5, 0.8):
        _assert_point_reads_match(spec, p)


@given(family_specs, st.floats(min_value=1e-12, max_value=0.99))
@settings(max_examples=200, deadline=None)
@example(parse_spec("laurent:p=0;res=1;b=[0,0,2]"), 0.5)
def test_point_reads_match_the_per_point_composition_on_drawn_specs(spec, p):
    _assert_point_reads_match(spec, p)


# specs with a simple pole at 0 and no coefficient far from unit size, where
# the two old routes to the limits there keep most of their digits
origin_pole_specs = st.one_of(
    st.builds(Co0Cubic, coeff_c),
    st.builds(Laurent, st.just(0.0), nonzero_c,
              st.lists(coeff_c, max_size=8).map(tuple)))


@given(origin_pole_specs)
@settings(max_examples=200, deadline=None)
@example(Co0Cubic(0j))
@example(parse_spec("laurent:p=0;res=1;b=[0,0,2]"))
@example(parse_spec("laurent:p=0;res=0.1;b=[4,4,4,4]"))
@example(parse_spec("laurent:p=0;res=1+1i;b=[]"))
def test_origin_limits_match_the_reciprocal_jet_and_the_radial_limit(spec):
    res, b1 = spec.origin_laurent()
    w = thm3_phi3_origin(spec)
    assert w == b1 / res and a_p_of(spec, 0.0) == abs(w)
    # Sf(0) = -6 b1/res; the jet of 1/f cancels terms of size 6 |b0/res|^2
    b0 = spec.a0 if isinstance(spec, Co0Cubic) else (spec.coeffs or (0j,))[0]
    scale = 1.0 + abs(b0 / res) ** 2 + abs(w)
    sf = schwarzian(reciprocal_jet(spec, 0j))
    assert abs(sf + 6.0 * w) <= 1e-13 * scale, (sf, w)
    r = 1e-3
    limit = _radial_phi3_limit(spec, r)
    assert abs(limit - w) <= r * r * (1.0 + abs(w)), (limit, w)


def test_phi_prime_one_keeps_the_radii_before_the_first_excluded_one():
    # f''(0.999) evaluates to -5.55e-17, inside the floor; f''(0.99) does not
    assert phi_prime_one_diagnostic(F2_ZERO_AT_0999) == (
        None, (-48086.99999999995,))
    with pytest.raises(PhiUndefinedError):
        at(_phi, pt(F2_ZERO_AT_0999, 0.999))


def _public_functions(module):
    return sorted(name for name, fn in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)


def test_operators_exports_only_what_margins_reads():
    # every other ring form is read through the margin table
    assert _public_functions(operators) == ["a_p_of", "thm3_phi3_origin"]


def test_every_exported_name_resolves():
    assert len(set(concavemaps.__all__)) == len(concavemaps.__all__)
    for name in concavemaps.__all__:
        assert getattr(concavemaps, name) is not None, name
