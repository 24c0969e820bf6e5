"""Catalog families: closed forms, validation, grammar round trips."""

import cmath
import math
import random
import struct
from itertools import repeat

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concavemaps.catalog import (EXCLUSION_RADIUS, AngleMap, Co0Cubic,
                                 FamilySpec, HalfPlane, KAlpha, Kp, Laurent,
                                 _in_disk, _require_in_disk, format_spec,
                                 omitted_segment, parse_spec)
from concavemaps.errors import (NonFiniteJetError, PoleProximityError,
                                SampleExclusionError, SpecParseError, _only)
from concavemaps.jets import (_ONE, DEGENERACY_FLOOR, Jet3, _finite_errors,
                              _floored, _inverse_errors, _jadds, _jconst,
                              _jfinite_errors, _jmuls, _jsubs, _log_errors)
from concavemaps.operators import OperatorPoint
from jet_reference import (_exp, _inverse, _jadd, _jexp, _jfinite, _jlog,
                           _jmul, _jpow, _jrecip, _jsub, _log, _poly_jet,
                           _require_finite, reciprocal_jet)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_halfplane_jet_at_zero():
    j = HalfPlane().eval_jet(0j)
    assert (j.v0, j.v1, j.v2, j.v3) == (0j, 1 + 0j, 2 + 0j, 6 + 0j)


def test_co0cubic_jet_fixture():
    j = Co0Cubic(0j).eval_jet(0.5)
    assert (j.v0, j.v1, j.v2, j.v3) == (2.5 + 0j, -3 + 0j, 16 + 0j, -96 + 0j)


def test_origin_laurent_reads_res_and_b1_at_a_pole_at_0_alone():
    assert Co0Cubic(0.3 + 0.2j).origin_laurent() == (1.0, 1.0)
    for text, want in (("laurent:p=0;res=2-1i;b=[5,0.5i,3]", (2 - 1j, 0.5j)),
                       ("laurent:p=0;res=2;b=[5]", (2.0, 0j)),
                       ("laurent:p=0;res=2;b=[]", (2.0, 0j)),
                       # inside the floor of 0, where margins put the pole
                       ("laurent:p=1e-320;res=3;b=[0,7]", (3.0, 7.0))):
        assert parse_spec(text).origin_laurent() == want, text
    for text in ("halfplane", "kalpha:alpha=1.5", "anglemap:a=-0.5",
                 "kp:p=0.5", "identity", "laurent:p=0.5;res=1;b=[0,1]",
                 "laurent:p=1e-12;res=1;b=[0,1]"):
        with pytest.raises(ValueError, match="no simple pole at z = 0$"):
            parse_spec(text).origin_laurent()


def test_kalpha_two_is_koebe():
    rng = random.Random(71)
    spec = KAlpha(2.0)
    for _ in range(100):
        z = 0.8 * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
        got = spec.eval_jet(z)
        zj = Jet3.variable(z)
        want = zj / ((1.0 - zj) * (1.0 - zj))
        for g, w in zip((got.v0, got.v1, got.v2, got.v3),
                        (want.v0, want.v1, want.v2, want.v3)):
            assert close(g, w)


def test_kalpha_one_is_halfplane():
    spec = KAlpha(1.0)
    for z in (0j, 0.4 + 0.1j, -0.7 + 0j, 0.2 - 0.6j):
        got, want = spec.eval_jet(z), HalfPlane().eval_jet(z)
        for g, w in zip((got.v0, got.v1, got.v2, got.v3),
                        (want.v0, want.v1, want.v2, want.v3)):
            assert close(g, w)


def test_kp_against_jet_division():
    rng = random.Random(72)
    spec = Kp(0.5)
    n = 0
    while n < 100:
        z = 0.9 * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
        if abs(z - 0.5) < 0.1:
            continue
        n += 1
        got = spec.eval_jet(z)
        zj = Jet3.variable(z)
        want = zj / (1.0 - 2.5 * zj + zj * zj)
        for g, w in zip((got.v0, got.v1, got.v2, got.v3),
                        (want.v0, want.v1, want.v2, want.v3)):
            assert close(g, w)


def test_residue_at_interior_pole():
    # (z - p) f(z) -> residue along rays; only clean when b0 = 0
    for spec in (Laurent(0.3, 1.0 + 0.5j, ()), Laurent(0.0, 2.0 + 0j, ()),
                 Co0Cubic(0j)):
        p = spec.poles[0]
        res = spec.residue if isinstance(spec, Laurent) else 1.0
        for k in range(8):
            z = p + 1e-4 * cmath.exp(2j * cmath.pi * k / 8)
            got = (z - p) * spec.eval_jet(z).v0
            assert abs(got - res) < 1e-3


def test_kp_pole_proximity():
    with pytest.raises(PoleProximityError):
        Kp(0.5).eval_jet(0.5 + 1e-14j)
    with pytest.raises(PoleProximityError):
        Co0Cubic(0j).eval_jet(1e-14 + 0j)


def test_out_of_disk_rejected():
    for spec in (HalfPlane(), Kp(0.5), Co0Cubic(0j)):
        with pytest.raises(ValueError):
            spec.eval_jet(1.2 + 0j)


def test_a_modulus_beyond_the_floats_is_outside_the_disk():
    # finite, but abs() of it raises OverflowError
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match="not inside the unit disk"):
        _require_in_disk(huge)
    for spec in (HalfPlane(), Kp(0.5), Laurent(0.5, 1 + 0j, (0j, 1 + 0j))):
        with pytest.raises(ValueError, match="not inside the unit disk"):
            spec.eval_jet(huge)
        with pytest.raises(ValueError, match="not inside the unit disk"):
            spec.eval_jets([0.5j, huge])
        with pytest.raises(ValueError, match="not inside the unit disk"):
            spec.values([-huge])


def test_anglemap_derived_parameters():
    rng = random.Random(73)
    found = 0
    while found < 200:
        a = 0.95 * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
        phi1 = (1.0 - abs(a) ** 2) / abs(1.0 - a) ** 2 if a != 1 else 9.9
        d = abs(a) ** 2 - a.real
        if a == 0 or d <= 1e-12 or phi1 > 1.0 / 3.0:
            continue
        found += 1
        spec = AngleMap(a)
        assert abs(abs(spec.nu) - 1.0) < 1e-12
        assert abs(abs(spec.lam) - 1.0) < 1e-12
        assert 0.0 <= spec.b <= 1.0
        assert spec.phi1 <= 1.0 / 3.0 + 1e-12


def test_anglemap_rejections():
    with pytest.raises(ValueError):
        AngleMap(0j)
    with pytest.raises(ValueError):
        AngleMap(1.5 + 0j)
    with pytest.raises(ValueError):
        AngleMap(0.2 + 0j)  # phi'(1) = (1-0.04)/0.64 = 1.5 > 1/3
    with pytest.raises(ValueError):
        AngleMap(0.5 + 0.5j)  # |a|^2 = Re a exactly
    with pytest.raises(ValueError):
        AngleMap(-0.5 + 0j, A=0j)
    # |a| overflows a float, where abs(a) raises OverflowError
    with pytest.raises(ValueError, match="inside the unit disk"):
        AngleMap(complex(1.7e308, 1.7e308))


def test_anglemap_pre_schwarzian_closed_form():
    # f''/f' = 2(1 - conj(a) z) / (conj(a) (z-1) (z-lam))
    spec = AngleMap(-0.5 + 0j)
    ca = spec.a.conjugate()
    for z in (0j, 0.3 + 0.3j, -0.6 + 0.1j, 0.1 - 0.8j):
        j = spec.eval_jet(z)
        got = j.v2 / j.v1
        want = 2.0 * (1.0 - ca * z) / (ca * (z - 1.0) * (z - spec.lam))
        assert close(got, want, 1e-10)


def test_omitted_segment_values():
    left, right = omitted_segment(0.5)
    assert left == -2.0
    assert abs(right + 2.0 / 9.0) < 1e-15
    left, _ = omitted_segment(0.9)
    # 1/(2 - 1/0.9 - 0.9) = -90.000...
    assert abs(left + 90.00000000000051) < 1e-9
    with pytest.raises(ValueError):
        omitted_segment(0.0)


def test_laurent_validation():
    with pytest.raises(ValueError):
        Laurent(0.5, 0j, ())  # pole needs nonzero residue
    with pytest.raises(ValueError):
        Laurent(1.0, 1.0 + 0j, ())  # pole must be interior
    assert Laurent(None, 0j, (0j, 1 + 0j)).poles == ()
    with pytest.raises(ValueError):
        Laurent(0.5, 9e-13j, ())  # inside the degeneracy floor
    # a residue whose modulus overflows a float clears the floor
    assert Laurent(0.5, 1.5e308 + 1.5e308j, ()).residue == 1.5e308 + 1.5e308j


def test_parse_fixtures():
    assert parse_spec("kp:p=0.5") == Kp(0.5)
    assert parse_spec("kalpha:alpha=2") == KAlpha(2.0)
    assert parse_spec("halfplane") == HalfPlane()
    assert parse_spec("co0cubic:a0=0") == Co0Cubic(0j)
    assert parse_spec("laurent:p=0;res=1;b=[0,1]") == Laurent(0.0, 1 + 0j,
                                                              (0j, 1 + 0j))
    ident = parse_spec("identity")
    j = ident.eval_jet(0.3 + 0.4j)
    assert j.v0 == 0.3 + 0.4j and j.v1 == 1


def test_koebe_alias():
    k = parse_spec("koebe")
    assert k == KAlpha(2.0)


def test_complex_literals():
    spec = parse_spec("co0cubic:a0=1.5-2i")
    assert spec == Co0Cubic(1.5 - 2j)
    assert parse_spec("co0cubic:a0=2i") == Co0Cubic(2j)
    assert parse_spec("anglemap:a=-0.5").a == -0.5 + 0j


def test_parse_errors_carry_position():
    with pytest.raises(SpecParseError):
        parse_spec("wibble")
    with pytest.raises(SpecParseError) as exc:
        parse_spec("kalpha:alpha=2.5")
    assert "alpha" in str(exc.value) and "position" in str(exc.value)
    with pytest.raises(SpecParseError):
        parse_spec("kp:p=1.5")
    with pytest.raises(SpecParseError):
        parse_spec("laurent:res=1;b=[]")  # res without p
    with pytest.raises(SpecParseError):
        parse_spec("co0cubic:a0=1+2x")


@pytest.mark.parametrize("text, message, position", [
    ("halfplane:x=1", "unexpected parameters 'x=1'", 10),
    ("kalpha:alpha", "expected key=value, got 'alpha'", 7),
    ("kalpha:beta=1.5", "unknown parameter 'beta'", 7),
    ("kalpha:alpha=1.5,alpha=1.2", "duplicate parameter 'alpha'", 17),
    ("kp:", "missing required parameter 'p'", 3),
    ("laurent:b=0,1", "coefficient list must look like [c0,c1,...]", 10),
    ("laurent:b=[0,,1]", "empty complex literal", 13),
    ("co0cubic:a0=x", "malformed complex literal 'x'", 12),
    ("anglemap:a=0.5i,A=", "empty complex literal", 18),
])
def test_each_grammar_error_names_its_position(text, message, position):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_format_spec_refuses_what_is_not_a_spec():
    with pytest.raises(TypeError, match="^not a FamilySpec: <object object"):
        format_spec(object())


@pytest.mark.parametrize("text, position", [
    ("laurent:b=[0,1,1e999]", 15),
    ("laurent:p=0.5;res=1e999;b=[]", 18),
    ("laurent:b=[1e999]", 11),
    ("co0cubic:a0=1-1e999i", 12),
    ("kalpha:alpha=1e999", 13),
])
def test_non_finite_literals_are_refused_at_their_position(text, position):
    # an inf would build a spec whose canonical form does not parse back
    with pytest.raises(SpecParseError, match="overflows a float") as exc:
        parse_spec(text)
    assert exc.value.position == position


def test_kp_refuses_a_p_whose_reciprocal_overflows():
    # its second pole, 1/p, would be inf
    with pytest.raises(ValueError, match="1/p overflows"):
        Kp(1e-320)
    with pytest.raises(SpecParseError, match="1/p overflows"):
        parse_spec("kp:p=1e-320")
    assert Kp(1e-300).poles[1] == complex(1.0 / 1e-300)


def test_format_parse_roundtrip():
    specs = [
        HalfPlane(),
        KAlpha(1.5),
        KAlpha(2.0),
        AngleMap(-0.5 + 0j),
        AngleMap(0.9j, A=2.0 + 1j, B=-0.5 + 0j),
        Kp(0.25),
        Co0Cubic(0.3 + 0.2j),
        Laurent(0.0, 1.0 + 0j, ()),
        Laurent(0.3, 1.0 - 0.5j, (0.2 + 0j, 0j, 0.1j)),
        Laurent(None, 0j, (0j, 1.0 + 0j, 0.3 + 0j)),
    ]
    for spec in specs:
        assert parse_spec(format_spec(spec)) == spec
        assert str(spec) == format_spec(spec)


# -- value-only evaluation ------------------------------------------------------

coeff_c = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                             allow_infinity=False)
nonzero_c = st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0,
                               allow_nan=False, allow_infinity=False)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True)


def _angle_map(a, A, B):
    try:
        return AngleMap(a, A, B)
    except ValueError:
        return None


laurent_pole = st.one_of(st.none(), st.just(0.0),
                         st.floats(min_value=0.0, max_value=1.0,
                                   exclude_min=True, exclude_max=True))
family_specs = st.one_of(
    st.just(HalfPlane()),
    st.builds(KAlpha, st.floats(min_value=1.0, max_value=2.0)),
    st.builds(_angle_map,
              st.complex_numbers(min_magnitude=0.05, max_magnitude=0.99),
              nonzero_c, coeff_c).filter(lambda spec: spec is not None),
    # Kp refuses a p whose 1/p, its second pole, overflows
    st.builds(Kp, open_unit.filter(lambda p: 1.0 / p < math.inf)),
    st.builds(Co0Cubic, coeff_c),
    st.builds(Laurent, laurent_pole, nonzero_c,
              st.lists(coeff_c, max_size=16).map(tuple)),
)
disk_z = st.complex_numbers(max_magnitude=0.9999, allow_nan=False,
                            allow_infinity=False)


def _outcome(evaluate, z):
    """repr of the real and imaginary parts, so signed zeros count, or the
    class of the error raised."""
    try:
        w = evaluate(z)
    except (SampleExclusionError, NonFiniteJetError) as exc:
        return type(exc)
    return repr(w.real), repr(w.imag)


def _value(spec):
    """f at one sample, through the values kernel; raises its error."""
    return lambda z: _only(spec.values([z]))


@given(family_specs, disk_z)
@settings(max_examples=600, deadline=None)
@example(Laurent(0.0, 1.0 + 0j, ()), 0j)
@example(Laurent(0.5, 2.0 - 1j, (1j, 0j, 3.0 + 0j)), 0.5 + 0j)
@example(Co0Cubic(0.3 + 0.2j), 0j)
@example(Kp(0.25), 0.25 + 0j)
@example(Laurent(None, 0j, (complex(-0.0, -0.0), 1.0 + 0j)),
         complex(-0.0, -0.0))
@example(KAlpha(1.5), 0.9999 + 0j)
def test_value_is_bit_identical_to_jet_value(spec, z):
    # the interior poles themselves must be refused the same way
    for w in [z] + [q for q in spec.poles if abs(q) < 1.0]:
        got = _outcome(_value(spec), w)
        want = _outcome(lambda u: spec.eval_jet(u).v0, w)
        if want is NonFiniteJetError and isinstance(got, tuple):
            # a derivative overflowed while f stayed finite (k_p with a
            # tiny p has f''' ~ 1/p**2); f alone is still representable
            continue
        assert got == want, (spec, w)


def test_value_refuses_what_eval_jet_refuses():
    with pytest.raises(PoleProximityError):
        _value(Kp(0.5))(0.5 + 1e-14j)
    with pytest.raises(PoleProximityError):
        _value(Co0Cubic(0j))(1e-14 + 0j)
    for spec in (HalfPlane(), KAlpha(2.0), Laurent(None, 0j, (1j,))):
        with pytest.raises(ValueError):
            _value(spec)(1.2 + 0j)
    # a value that overflows is refused by both paths
    huge = Laurent(None, 0j, (1e308 + 0j, 1e308 + 0j))
    for evaluate in (_value(huge), huge.eval_jet):
        with pytest.raises(NonFiniteJetError):
            evaluate(0.9 + 0j)


def _stale_overflow():
    """Leave errno at ERANGE, as a caught overflowing complex ** does."""
    with pytest.raises(OverflowError):
        (1e200 + 0j) ** 3


NAN_SAMPLES = (complex(math.nan, 0.0), complex(0.0, math.nan),
               complex("nan"), complex(math.nan, math.nan))


@pytest.mark.parametrize("spec", [
    HalfPlane(), KAlpha(1.5), AngleMap(-0.5 + 0j), Kp(0.5), Co0Cubic(0j),
    Laurent(None, 0j, (1j,)), Laurent(0.3, 1.0 + 0j, (0j, 1.0 + 0j))], ids=str)
def test_nan_sample_is_non_finite_after_a_stale_overflow(spec):
    # abs() of a complex NaN leaves errno alone, so checking |z| first used
    # to report the stale overflow as a bare OverflowError
    for method in (spec.eval_jet, _value(spec),
                   lambda z: reciprocal_jet(spec, z)):
        for z in NAN_SAMPLES:
            _stale_overflow()
            with pytest.raises(NonFiniteJetError, match="not finite"):
                method(z)
    for z in NAN_SAMPLES:
        _stale_overflow()
        with pytest.raises(NonFiniteJetError, match="not finite"):
            OperatorPoint(z, Jet3.variable(0.5))


# -- the exclusion column -------------------------------------------------------

def _reference_near_pole(spec, z, epsilon):
    for q in spec.poles:
        if abs(z - q) < epsilon:
            return True
    bp = spec.boundary_pole
    return bp is not None and abs(z - bp) < epsilon


@pytest.mark.parametrize("spec", [
    HalfPlane(), KAlpha(1.5), AngleMap(-0.5 + 0j), Kp(0.5), Co0Cubic(0.3 + 0.2j),
    Laurent(None, 0j, (1j,)), Laurent(0.5, 1.0 + 0j, (0j, 1.0 + 0j))], ids=str)
def test_far_from_poles_is_not_near_pole_per_sample(spec):
    obstacles = list(spec.poles) + (
        [] if spec.boundary_pole is None else [spec.boundary_pole])
    for eps in (0.25, 0.5, EXCLUSION_RADIUS):
        zs = [0j, 0.5 + 0.5j, complex(math.inf, 0.0), *NAN_SAMPLES]
        for q in obstacles:
            # the first four lie eps from q, exactly wherever q and eps are
            # dyadic: a sample at the distance itself is kept
            zs += [q + eps, q - eps, q + 1j * eps, q - 1j * eps, q,
                   q + 0.6 * eps * (1 + 1j), q + complex(math.nan, eps)]
        want = [not _reference_near_pole(spec, z, eps) for z in zs]
        assert spec.far_from_poles(zs, eps) == want
        assert [spec.far_from_poles([z], eps)[0] for z in zs] == want
        assert all(spec.far_from_poles(NAN_SAMPLES, eps))
        if obstacles:
            assert not any(spec.far_from_poles(obstacles, eps))
            assert any(abs(z - q) == eps for z in zs for q in obstacles)


# -- tuple-rule kernels against the Jet3 compositions they replaced ---------------
#
# k_alpha and the sector maps evaluate through the column rules of `jets`.
# These references are the Jet3 compositions that did the work before; the
# kernels must agree with them bit for bit, signed zeros included, and raise
# the same errors with the same messages.

def _ref_eval_jet(spec, z):
    zj = Jet3.variable(_require_in_disk(z))
    if isinstance(spec, KAlpha):
        u = (1 + zj) / (1 - zj)
        return ((u.pow(spec.alpha) - 1.0) / (2.0 * spec.alpha)).checked()
    s = (zj - spec.lam) / (spec.lam * (zj - 1.0))
    return (spec.lead * s.pow(1.0 + spec.b) + spec.B).checked()


def _bits(evaluate, z):
    """The jet's fields as packed doubles, or the error's class and message."""
    try:
        j = evaluate(z)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return struct.pack("<10d", *(part for w in (j.base_point, j.v0, j.v1,
                                                j.v2, j.v3)
                                 for part in (w.real, w.imag)))


# A and B up to 1e308, so that products and sums overflow
huge_c = st.complex_numbers(min_magnitude=1.0, max_magnitude=1e308,
                            allow_nan=False, allow_infinity=False)
kernel_specs = st.one_of(
    st.builds(KAlpha, st.floats(min_value=1.0, max_value=2.0)),
    st.builds(_angle_map,
              st.complex_numbers(min_magnitude=0.05, max_magnitude=0.99),
              st.one_of(nonzero_c, huge_c),
              st.one_of(coeff_c, huge_c)).filter(lambda spec: spec is not None),
)
kernel_z = st.one_of(disk_z, st.floats(min_value=-0.9999, max_value=0.9999,
                                       allow_nan=False).map(complex))


@given(kernel_specs, kernel_z)
@settings(max_examples=500, deadline=None)
@example(KAlpha(1.5), 0j)
@example(KAlpha(2.0), complex(-0.0, 0.0))
@example(KAlpha(1.25), 0.75 + 0j)
@example(KAlpha(1.0), 0.9999 + 0j)
@example(AngleMap(-0.5 + 0j), 0j)
@example(AngleMap(0.9j, 2.0 + 1.0j, -0.5 + 0j), -0.4 + 0j)
@example(AngleMap(-0.5 + 0j, 1e308 + 0j, 1e308 + 0j), 0.5 + 0j)
@example(KAlpha(1.5), complex("nan"))
def test_kernels_match_jet3_composition(spec, z):
    assert _bits(spec.eval_jet, z) == _bits(
        lambda u: _ref_eval_jet(spec, u), z), (spec, z)
    assert _bits(lambda u: reciprocal_jet(spec, u), z) == _bits(
        lambda u: _ref_eval_jet(spec, u).reciprocal().checked(), z), (spec, z)


# -- column kernels against the per-sample kernels they replaced ---------------
#
# Each family's values(zs) and eval_jets(zs) run one comprehension per
# arithmetic stage over the whole column and put each excluded sample's
# error in its place (Laurent's eval_jets keeps a per-sample Jet3 Horner).
# The references are the per-sample kernels that did the work before,
# applied one sample at a time through _each. The columns must agree with
# them bit for bit, signed zeros included, with the same error classes and
# messages, and raise the same error for the whole call where a sample lies
# outside the disk.

def _each(fn, *columns):
    """fn applied to each row of the columns; a row that raises a
    SampleExclusionError gets the error in place of its value."""
    out = []
    for row in zip(*columns):
        try:
            out.append(fn(*row))
        except SampleExclusionError as exc:
            out.append(exc)
    return out


def _ref_poly(spec, u):
    acc = 0j
    for c in reversed(spec.coeffs):
        acc = acc * u + c
    return acc


def _ref_off_pole(z):
    z = _require_in_disk(z)
    if abs(z) < DEGENERACY_FLOOR:
        raise PoleProximityError("1/z + a0 + z has its pole at 0")
    return z


def _ref_kp_denominator(c, z):
    d = 1.0 - c * z + z * z
    if abs(d) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"k_p denominator vanishes at {z!r}")
    return d


def _ref_value(spec, z):
    if isinstance(spec, Co0Cubic):
        z = _ref_off_pole(z)
        return _require_finite(1.0 / z + spec.a0 + z)
    z = _require_in_disk(z)
    if isinstance(spec, HalfPlane):
        return _require_finite(z * (1.0 / (1.0 - z)))
    if isinstance(spec, KAlpha):
        scale = _inverse(complex(2.0 * spec.alpha), 0j)
        u = (z + _ONE) * _inverse(_ONE - z, z)
        return _require_finite(
            (_exp(_log(u) * complex(spec.alpha)) - _ONE) * scale)
    if isinstance(spec, AngleMap):
        s = (z - spec.lam) * _inverse((z - _ONE) * spec.lam, z)
        return _require_finite(
            _exp(_log(s) * complex(1.0 + spec.b)) * spec.lead + spec.B)
    if isinstance(spec, Kp):
        return _require_finite(
            z / _ref_kp_denominator(spec.p + 1.0 / spec.p, z))
    if spec.pole is None:
        return _require_finite(_ref_poly(spec, z))
    u = z - complex(spec.pole)
    return _require_finite(_inverse(u, z) * spec.residue + _ref_poly(spec, u))


_J_ONE = _jconst(_ONE)


def _ref_jets(spec, z):
    """The jet fields at z, as each family's per-sample kernel built them."""
    if isinstance(spec, HalfPlane):
        z = _require_in_disk(z)
        u = 1.0 - z
        iu = 1.0 / u
        return _jfinite((z * iu, iu * iu, 2 * iu ** 3, 6 * iu ** 4))
    if isinstance(spec, KAlpha):
        scale = _jrecip(_jconst(2.0 * spec.alpha), 0j)
        z = _require_in_disk(z)
        x = (z, _ONE, 0j, 0j)
        u = _jmul(_jadd(x, _J_ONE), _jrecip(_jsub(_J_ONE, x), z))
        return _jfinite(_jmul(_jsub(_jpow(u, spec.alpha), _J_ONE), scale))
    if isinstance(spec, AngleMap):
        lam, lead = _jconst(spec.lam), _jconst(spec.lead)
        z = _require_in_disk(z)
        x = (z, _ONE, 0j, 0j)
        s = _jmul(_jsub(x, lam), _jrecip(_jmul(_jsub(x, _J_ONE), lam), z))
        return _jfinite(_jadd(_jmul(_jpow(s, 1.0 + spec.b), lead),
                              _jconst(spec.B)))
    if isinstance(spec, Kp):
        c = spec.p + 1.0 / spec.p
        z = _require_in_disk(z)
        d = _ref_kp_denominator(c, z)
        id2 = 1.0 / (d * d)
        z2 = z * z
        return _jfinite((
            z / d,
            (1.0 - z2) * id2,
            2 * (c - 3 * z + z * z2) * id2 / d,
            6 * (c * c - 1 - 4 * c * z + 6 * z2 - z2 * z2) * id2 * id2,
        ))
    if isinstance(spec, Co0Cubic):
        z = _ref_off_pole(z)
        iz = 1.0 / z
        iz2 = iz * iz
        return _jfinite((iz + spec.a0 + z, 1.0 - iz2, 2 * iz2 * iz,
                         -6 * iz2 * iz2))
    zj = Jet3.variable(_require_in_disk(z))
    if spec.pole is None:
        j = _poly_jet(spec.coeffs, zj)
    else:
        u = zj - spec.pole
        j = spec.residue * u.reciprocal() + _poly_jet(spec.coeffs, u)
    return _jfinite((j.v0, j.v1, j.v2, j.v3))


def _packed(w):
    """A value or a tuple jet as packed doubles."""
    ws = w if isinstance(w, tuple) else (w,)
    return struct.pack(f"<{2 * len(ws)}d",
                       *(x for v in ws for x in (v.real, v.imag)))


def _column_bits(values, zs):
    """Per sample, the entry's packed doubles or the error's class and
    message; or the class and message of an error the whole call raised."""
    try:
        out = values(zs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(type(w), str(w)) if isinstance(w, SampleExclusionError)
            else (type(w), _packed(w)) for w in out]


def _kernel_exclusions(spec):
    """Samples that reach a kernel's own exclusion tests, or sit just clear
    of them, for spec."""
    out = [0j, complex(-0.0, -0.0)]
    for q in spec.poles:
        if abs(q) < 1.0:
            out += [q, q + 1e-13, q - 1e-13j, q + 1e-11]
    # 1 - z inside the floor; (1 + z)/(1 - z) within it of the cut
    out += [1.0 - 1e-13 + 0j, complex(-1.0 + 1e-13, 1e-17),
            complex(-1.0 + 1e-13, 0.0), -1.0 + 1e-11 + 0j]
    if isinstance(spec, AngleMap):
        # s = (z - lam)/(lam (z - 1)) within the floor of the cut's tip
        out += [spec.lam * (1.0 - 1e-13), spec.lam * (1.0 - 1e-11)]
    return out


NON_FINITE = (complex(math.nan, 0.0), complex(0.0, math.inf),
              complex(-math.inf, 0.0), complex(math.nan, math.nan),
              complex(math.inf, math.nan))
# the last one is finite, but its |z| does not fit a float
OUTSIDE = (1.0 + 0j, 1.5 - 0.5j, complex(0.0, -1.0), complex(1.5e308, 1.5e308))


@st.composite
def spec_columns(draw):
    spec = draw(family_specs)
    sample = st.one_of(disk_z, st.sampled_from(NON_FINITE),
                       st.sampled_from(_kernel_exclusions(spec)))
    zs = draw(st.lists(sample, max_size=24))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        zs.insert(draw(st.integers(min_value=0, max_value=len(zs))),
                  draw(st.sampled_from(OUTSIDE)))
    return spec, zs


@given(spec_columns())
@settings(max_examples=600, deadline=None)
@example((Kp(0.5), [0.5 + 0j, 0.3j, 0.5000000000001 + 0j, complex("nan")]))
@example((Laurent(0.5, 1.0 + 0j, ()), [0.5 + 1e-13j, 0.5 + 0j, -0.2 + 0j]))
@example((Co0Cubic(0.3 + 0.2j), [0.5 + 0j, 0j, 1e-13j, 0.5j]))
@example((KAlpha(1.5), [complex(-1.0 + 1e-13, 0.0), 0.1 + 0j,
                        1.0 - 1e-13 + 0j]))
@example((AngleMap(-0.5 + 0j), [AngleMap(-0.5 + 0j).lam * (1.0 - 1e-13),
                                0.2j]))
@example((HalfPlane(), [complex(math.nan, 0.0), 0.5 + 0j, 1.5 + 0j,
                        2.0 + 0j]))
@example((Kp(0.5), [0.3 + 0j, complex(1.5e308, 1.5e308), 1.5 + 0j]))
@example((Kp(0.5), [0.3 + 0j, 1.5 + 0j, complex(1.5e308, 1.5e308)]))
@example((Laurent(None, 0j, (complex(-0.0, -0.0), 1.0 + 0j)),
          [complex(-0.0, -0.0), complex(0.0, -0.0), 0.5 + 0j]))
@example((Laurent(None, 0j, (1e308 + 0j, 1e308 + 0j)), [0.9 + 0j, 0.1j]))
@example((AngleMap(-0.5 + 0j, 1e308 + 0j, 1e308 + 0j), [0.5 + 0j, 0.1j]))
@example((Kp(1e-308), [0.5 + 0j, 0.5j, 0j]))
def test_values_columns_match_the_per_sample_kernels(spec_and_zs):
    spec, zs = spec_and_zs
    assert _column_bits(spec.values, zs) == _column_bits(
        lambda col: _each(lambda z: _ref_value(spec, z), col), zs), (spec, zs)


@given(spec_columns())
@settings(max_examples=600, deadline=None)
@example((Kp(0.5), [0.5 + 0j, 0.3j, 0.5000000000001 + 0j, 0.5 - 1e-13j,
                    complex("nan")]))
@example((Co0Cubic(0.3 + 0.2j), [0.5 + 0j, 0j, 1e-13j, complex(-1e-13, 0.0),
                                 0.5j]))
@example((Laurent(0.5, 1.0 + 0j, (0j, 1.0 + 0j)),
          [0.5 + 1e-13j, 0.5 + 0j, 0.5 - 1e-13 + 0j, 0.5 + 1e-13 + 0j,
           -0.2 + 0j]))
@example((Laurent(0.0, 2.0 - 1j, (1j,)), [1e-13 + 0j, 0j, -1e-13j, 0.5j]))
@example((KAlpha(1.5), [1.0 - 1e-13 + 0j, complex(-1.0 + 1e-13, 0.0),
                        complex(-1.0 + 1e-13, 1e-17), 0.1 + 0j,
                        -1.0 + 1e-11 + 0j]))
@example((AngleMap(-0.5 + 0j), [AngleMap(-0.5 + 0j).lam * (1.0 - 1e-13),
                                AngleMap(-0.5 + 0j).lam * (1.0 - 1e-11),
                                1.0 - 1e-13 + 0j, 0.2j]))
@example((HalfPlane(), [complex(math.nan, 0.0), 0.5 + 0j, 1.5 + 0j,
                        2.0 + 0j]))
@example((KAlpha(2.0), [complex(0.0, math.inf), 0.5 + 0j,
                        complex(math.nan, math.nan)]))
@example((Kp(0.5), [0.3 + 0j, complex(1.5e308, 1.5e308), 1.5 + 0j]))
@example((Laurent(None, 0j, (complex(-0.0, -0.0), 1.0 + 0j)),
          [complex(-0.0, -0.0), complex(0.0, -0.0), 0.5 + 0j]))
@example((Laurent(None, 0j, (1e308 + 0j, 1e308 + 0j)), [0.9 + 0j, 0.1j]))
@example((AngleMap(-0.5 + 0j, 1e308 + 0j, 1e308 + 0j), [0.5 + 0j, 0.1j]))
@example((Kp(1e-308), [0.5 + 0j, 0.5j, 0j]))
# the Horner's folded first step: a leading coefficient with -0.0 parts, a
# lone coefficient and none, on real-axis samples with signed zeros and
# 1e-13 from the pole
@example((Laurent(None, 0j, (1.0 + 0j, complex(-0.0, -0.0))),
          [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.5, -0.0),
           complex(0.5, 0.0), 1e-13 + 0j]))
@example((Laurent(0.0, 1.0 + 0j, (complex(-0.0, 0.0), 1.0 + 0j,
                                  complex(0.0, -0.0))),
          [complex(1e-13, -0.0), complex(-1e-13, 0.0), complex(-0.0, 1e-13),
           complex(-0.5, -0.0), 0.5 + 0j]))
@example((Laurent(0.5, 2.0 - 1j, (complex(-0.0, -0.0),)),
          [0.5 + 1e-13 + 0j, complex(0.5 - 1e-13, -0.0), 0.5 + 1e-13j,
           complex(-0.0, -0.0), complex(0.25, -0.0)]))
@example((Laurent(None, 0j, (complex(-1.5, -0.0),)),
          [complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.5, 0.0)]))
@example((Laurent(0.0, 1.0 + 0j, ()),
          [1e-13 + 0j, complex(-1e-13, -0.0), complex(-0.0, -1e-13),
           complex(-0.5, -0.0), complex(0.5, 0.0)]))
def test_eval_jets_columns_match_the_per_sample_kernels(spec_and_zs):
    spec, zs = spec_and_zs
    assert _column_bits(spec.eval_jets, zs) == _column_bits(
        lambda col: _each(lambda z: _ref_jets(spec, z), col), zs), (spec, zs)


class _Identity(FamilySpec):
    """The identity map, written as the two hooks alone; its jet at the
    sample 0.25 carries an inf v1."""

    def _jets(self, col):
        return [(z, complex(math.inf) if z == 0.25 else _ONE, 0j, 0j)
                for z in col.zs]

    def _values(self, col):
        return list(col.zs)


def test_a_family_of_hooks_alone_gets_the_whole_column_protocol():
    spec = _Identity()
    for kernel in (spec.eval_jets, spec.values):
        with pytest.raises(ValueError,
                           match=r"^sample \(1\.5\+0j\) is not inside"):
            kernel([0.5j, 1.5, complex(math.nan, 0.0)])
    zs = [0.5j, complex(math.nan, 0.0), 0.25 + 0j, -0.3 + 0j]
    jets, values = spec.eval_jets(zs), spec.values(zs)
    for out in (jets, values):
        assert type(out[1]) is NonFiniteJetError
        assert str(out[1]) == "sample (nan+0j) is not finite"
    assert type(jets[2]) is NonFiniteJetError
    assert str(jets[2]) == "jet field v1 is not finite: (inf+0j)"
    assert values[2] == 0.25
    for k in (0, 3):
        assert jets[k] == (zs[k], _ONE, 0j, 0j)
        assert _packed(values[k]) == _packed(jets[k][0])
    with pytest.raises(NonFiniteJetError, match="^jet field v1 "):
        spec.eval_jet(0.25)


@pytest.mark.parametrize("spec", [
    Laurent(None, 0j, (0j, 1.0 + 0j, 0.3 + 0j)),
    Laurent(0.0, 1.0 + 0j, (0.5j,)),
    Laurent(0.5, 2.0 - 1j, (1.0 + 0j, 2.0 + 1j, 3.0 + 0j, -0.1j)),
    Laurent(None, 0j, tuple(1.0 / (k + 1) + 0j for k in range(16))),
])
def test_laurent_jet_horner_steps_once_per_coefficient_after_the_lead(
        monkeypatch, spec):
    # the Horner starts at its leading coefficient, so n samples with k
    # coefficients take n (k - 1) Jet3 products and as many sums
    counts = {"__mul__": 0, "__add__": 0}

    def counted(name):
        op = getattr(Jet3, name)

        def step(self, other):
            counts[name] += 1
            return op(self, other)
        return step

    for name in counts:
        monkeypatch.setattr(Jet3, name, counted(name))
    zs = [0.3 * cmath.exp(2j * math.pi * k / 7) for k in range(7)]
    out = spec.eval_jets(zs)
    assert not any(isinstance(w, SampleExclusionError) for w in out)
    steps = len(zs) * (len(spec.coeffs) - 1)
    assert counts == {"__mul__": steps, "__add__": steps}


# Operands for the column rules: anything complex, plus entries on each
# side of the floor and of the cut, signed zeros, NaNs and an |w| too large
# for a float.
rule_operands = st.one_of(st.complex_numbers(), st.sampled_from([
    0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 1e-13 + 0j,
    complex(0.0, -9e-13), complex(1e-12, 0.0), complex(0.0, 1e-12),
    complex(-0.0, -1e-12), -1.0 + 0j,
    complex(-1.0, 1e-12), complex(-1.0, -1e-12), complex(-1.0, 1.1e-12),
    complex(-2.0, -0.0), complex(0.0, 1.0), complex(-math.inf, 0.0),
    complex(math.nan, 0.0), complex(math.nan, -1.0),
    complex(1.5e308, 1.5e308)]))


def _scalar_errors(rule, *columns):
    """By position, the class and message of the SampleExclusionError the
    scalar rule raises on each row; or the class and message of another
    error it raised, which ends the column."""
    out = {}
    for k, row in enumerate(zip(*columns)):
        try:
            rule(*row)
        except SampleExclusionError as exc:
            out[k] = type(exc), str(exc)
        except ArithmeticError as exc:
            return type(exc), str(exc)
    return out


def _column_errors(rule, *columns):
    try:
        errors = rule(*columns)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return {k: (type(exc), str(exc)) for k, exc in errors.items()}


@given(st.lists(rule_operands, max_size=12))
@settings(max_examples=400, deadline=None)
@example([complex(math.nan, 0.0), 1e-13 + 0j, complex(-1.0, 0.0)])
@example([complex(-math.inf, 0.0), complex(-1.0, 1e-12), 0j])
def test_column_rules_match_the_scalar_rules(ws):
    zs = [complex(k, 0.5) for k in range(len(ws))]
    assert _column_errors(_finite_errors, ws) == _scalar_errors(
        _require_finite, ws)
    assert _column_errors(_inverse_errors, ws, zs) == _scalar_errors(
        _inverse, ws, zs)
    assert _column_errors(_log_errors, ws) == _scalar_errors(_log, ws)
    finite = [w for w in ws if cmath.isfinite(w) and abs(w.real) < 1e300]
    assert _floored(finite) == [k for k, w in enumerate(finite)
                                if abs(w) < DEGENERACY_FLOOR]


# Tuple jets for the column forms of the tuple rules: fields drawn from the
# operands above, plus entries large enough that a cube or an exp overflows.
jet_fields = st.one_of(rule_operands, st.sampled_from([
    1e200 + 0j, complex(0.0, -1e110), 800.0 + 0j, complex(1e300, 1e300)]))
tuple_jets = st.tuples(jet_fields, jet_fields, jet_fields, jet_fields)


def _rows_by_scalar(rule, js, *args):
    """Per row, the scalar rule's packed jet or its error's class and
    message; or the class of another error it raised, which ends the call."""
    out = []
    for j, *row in zip(js, *args):
        try:
            out.append(_packed(rule(j, *row)))
        except SampleExclusionError as exc:
            out.append((type(exc), str(exc)))
        except ArithmeticError as exc:
            return type(exc)
    return out


def _rows_by_columns(evaluate, js):
    """The same through the column forms: evaluate(col, js) on a column
    whose samples are the rows' base points, each dropped row's error put
    back in its place."""
    col = _in_disk([0.01j * k for k in range(len(js))])
    try:
        ws = col.placed(evaluate(col, js))
    except ArithmeticError as exc:
        return type(exc)
    return [(type(w), str(w)) if isinstance(w, SampleExclusionError)
            else _packed(w) for w in ws]


@given(st.lists(tuple_jets, max_size=8), st.lists(tuple_jets, max_size=8),
       st.sampled_from((1.0, 1.5, 2.0, 0.5 - 2j)))
@settings(max_examples=200, deadline=None)
@example([(1.0 + 0j, 1e200 + 0j, 0j, 0j), (0.5 + 0j, _ONE, 0j, 0j)], [],
         1.5)  # a cube overflows in the reciprocal and the log
@example([(1.0 + 0j, 1e103 + 0j, 0j, 0j), (0j, -1e103j, 0j, 0j)], [],
         1.0)  # as does the cube alone, f1 * f1 staying finite
@example([(0j, 1e200 + 0j, 0j, 0j), (0.5 + 0j, _ONE, 0j, 0j)], [], 1.5)
@example([(2.0 + 0j, complex(math.nan, 0.0), 0j, 0j),
          (complex(-1.0, 1e-12), _ONE, 0j, 0j), (1e-13 + 0j, _ONE, 0j, 0j)],
         [(_ONE, 0j, complex(0.0, math.inf), 0j)], 2.0)
def test_column_tuple_rules_match_the_scalar_rules(js, others, exponent):
    pairs = min(len(js), len(others))
    for column, scalar in ((_jadds, _jadd), (_jsubs, _jsub), (_jmuls, _jmul)):
        assert [_packed(j) for j in column(js, others)] == [
            _packed(scalar(a, b)) for a, b in zip(js[:pairs], others)]
        assert [_packed(j) for j in column(js, repeat(_J_ONE))] == [
            _packed(scalar(a, _J_ONE)) for a in js]
    assert {k: (type(e), str(e)) for k, e in _jfinite_errors(js).items()} \
        == _scalar_errors(_jfinite, js)
    zs = [0.01j * k for k in range(len(js))]
    for evaluate, scalar, args in (
            (lambda col, js: col.jrecip(js)[0], _jrecip, (zs,)),
            (lambda col, js: col.jlog(js), _jlog, ()),
            (lambda col, js: col.jexp(js), _jexp, ()),
            (lambda col, js: col.jpow(js, exponent), _jpow,
             (repeat(exponent),))):
        assert _rows_by_columns(evaluate, js) == _rows_by_scalar(
            scalar, js, *args), scalar.__name__


def test_column_rules_keep_abs_off_nans_after_a_stale_overflow():
    # abs() of a complex NaN reports a stale overflow: the floor tests must
    # skip the entries the finiteness test already refused
    ws = [*NAN_SAMPLES, 1e-13 + 0j, -1.0 + 0j, 0.5 + 0j]
    zs = [0.25j] * len(ws)
    for errors_of, args, refused in ((_inverse_errors, (ws, zs), 5),
                                     (_log_errors, (ws,), 6)):
        _stale_overflow()
        errors = errors_of(*args)
        assert sorted(errors) == list(range(refused))
        assert {type(errors[k]) for k in range(4)} == {NonFiniteJetError}
