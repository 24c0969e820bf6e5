"""Geometric oracle: curve sampling, turning defects, and verdicts."""

import ast
import cmath
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concavemaps import catalog, oracle
from concavemaps.catalog import (MAX_SAMPLES, Co0Cubic, FamilySpec, HalfPlane,
                                 KAlpha, Kp, Laurent, omitted_segment,
                                 parse_spec)
from concavemaps.cli import main
from concavemaps.errors import (EmptyScanError, NonFiniteJetError,
                                SampleExclusionError)
from concavemaps.margins import GridConfig, geometric_radii, scan, sweep
from concavemaps.oracle import (COMPLEMENT_INSIDE, COMPLEMENT_OUTSIDE,
                                DEFAULT_ANGLES, ORACLE_BAD, ORACLE_OK,
                                boundary_curve, convexity_defect,
                                natural_orientation,
                                oracle_concave, real_axis_crossings)

TWO_PI = 2.0 * math.pi


def test_natural_orientation():
    assert natural_orientation(HalfPlane()) == COMPLEMENT_OUTSIDE
    assert natural_orientation(parse_spec("identity")) == COMPLEMENT_OUTSIDE
    assert natural_orientation(Kp(0.5)) == COMPLEMENT_INSIDE
    assert natural_orientation(Co0Cubic(0j)) == COMPLEMENT_INSIDE


def test_curve_input_validation():
    with pytest.raises(ValueError):
        boundary_curve(HalfPlane(), 1.0, 256)
    with pytest.raises(ValueError):
        boundary_curve(HalfPlane(), 0.5, 32)
    with pytest.raises(ValueError):
        convexity_defect(replace(boundary_curve(HalfPlane(), 0.5, 64),
                                 orientation="sideways"))
    with pytest.raises(EmptyScanError):
        boundary_curve(Co0Cubic(0j), 0.03, 64)  # whole ring inside epsilon
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            boundary_curve(HalfPlane(), 0.9999, 256, eps)
    with pytest.raises(ValueError):
        boundary_curve(HalfPlane(), 0.5, MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match="angles must be an integer"):
        boundary_curve(HalfPlane(), 0.99, 256.0)


@pytest.mark.parametrize("spec", [HalfPlane(), Kp(0.5), Co0Cubic(0j),
                                  Laurent(0.98, 1.0 + 0j, (0j, 1.0 + 0j))],
                         ids=str)
def test_curve_excludes_what_near_pole_excludes(spec):
    # the oracle and the grid scans share one exclusion rule
    n, r, eps = 1024, 0.9999, 0.05
    step = TWO_PI / n
    kept = tuple(j for j in range(n)
                 if spec.far_from_poles([r * cmath.exp(1j * (step * j))], eps)[0])
    assert boundary_curve(spec, r, n, eps).included == kept


def test_reciprocal_circle_is_clean():
    # 1/z maps |z| = 0.5 to a clockwise circle: perfect complement-inside
    curve = boundary_curve(Laurent(0.0, 1.0 + 0j, ()), 0.5, 256)
    assert curve.orientation == COMPLEMENT_INSIDE
    assert len(curve.included) == 256 and not curve.excluded_arcs
    assert convexity_defect(curve) < 1e-9


def test_closed_boundedness_rule():
    # a closed image curve cannot leave a convex complement: defect ~ 2 pi
    # even for the halfplane member, whose curve only opens up as r -> 1
    for spec in (HalfPlane(), parse_spec("identity")):
        curve = boundary_curve(spec, 0.5, 256)
        assert not curve.excluded_arcs
        assert abs(convexity_defect(curve) - TWO_PI) < 1e-6


def test_identity_rejected_at_default_radii():
    curve = boundary_curve(parse_spec("identity"), 0.99, 4096)
    assert abs(convexity_defect(curve) - TWO_PI) < 1e-6
    assert oracle_concave(parse_spec("identity")) == ORACLE_BAD


def test_wrong_winding_counts_all_mass():
    # 1/z + 2z^2 winds the wrong way; the defect is the whole turning mass
    spec = Laurent(0.0, 1.0 + 0j, (0j, 0j, 2.0 + 0j))
    curve = boundary_curve(spec, 0.99, 4096)
    assert abs(convexity_defect(curve) - 2.0 * TWO_PI) < 1e-3


def test_excluded_arc_straddles_zero():
    # the boundary pole at z = 1 knocks out an arc across theta = 0; the
    # reported interval must stay contiguous, so its end passes 2 pi
    curve = boundary_curve(HalfPlane(), 0.99, 4096)
    assert len(curve.excluded_arcs) == 1
    lo, hi = curve.excluded_arcs[0]
    assert lo < TWO_PI < hi
    assert convexity_defect(curve) < 1e-9

    curve = boundary_curve(Kp(0.96), 0.99, 4096)
    assert len(curve.excluded_arcs) == 1
    lo, hi = curve.excluded_arcs[0]
    assert lo < TWO_PI < hi


def test_thetas_align_with_included(capsys):
    curve = boundary_curve(HalfPlane(), 0.99, 256)
    assert len(curve.included) == len(curve.points) < 256
    # a curve report's theta column is 2 pi j / n at each included j
    assert main(["curve", "--function", "halfplane", "--r", "0.99",
                 "--angles", "256", "--format", "json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    step = TWO_PI / 256
    assert [pt["theta"] for pt in points] == [step * j for j in curve.included]
    assert [complex(pt["re"], pt["im"]) for pt in points] == list(curve.points)


def test_defect_is_translation_invariant():
    a = boundary_curve(Co0Cubic(0j), 0.99, 256)
    b = boundary_curve(Co0Cubic(0.3 + 0.2j), 0.99, 256)
    assert a.included == b.included
    assert abs(convexity_defect(a) - convexity_defect(b)) < 1e-12


def test_koebe_defects_shrink_toward_boundary():
    ds = [convexity_defect(boundary_curve(KAlpha(2.0), r, 4096))
          for r in (0.99, 0.999, 0.9999)]
    assert ds[0] < 0.02 and ds[1] < 0.002 and ds[2] < 2e-4
    assert ds[0] > ds[1] > ds[2]
    assert oracle_concave(KAlpha(2.0)) == ORACLE_OK


def test_kp_is_oracle_clean():
    ds = [convexity_defect(boundary_curve(Kp(0.5), r, 4096))
          for r in (0.99, 0.999, 0.9999)]
    assert all(d < 1e-4 for d in ds)
    assert oracle_concave(Kp(0.5)) == ORACLE_OK


RADII = (0.99, 0.999, 0.9999)


def _verdict_from_scratch(spec, orientation, n):
    """The oracle's verdict rule, with every defect computed afresh under
    orientation."""
    ds = [convexity_defect(replace(boundary_curve(spec, r, n),
                                   orientation=orientation))
          for r in RADII]
    ok = all(d < oracle.DEFECT_TOL for d in ds) and all(
        b <= a + 0.2 * oracle.DEFECT_TOL for a, b in zip(ds, ds[1:]))
    return ORACLE_OK if ok else ORACLE_BAD


def test_pole_override():
    recip = Laurent(0.0, 1.0 + 0j, ())
    assert oracle_concave(recip) == ORACLE_OK
    # judged under the boundary-pole orientation, its closed curves trip
    # the boundedness rule, flipping the verdict
    assert _verdict_from_scratch(recip, COMPLEMENT_OUTSIDE,
                                 DEFAULT_ANGLES) == ORACLE_BAD


@pytest.mark.parametrize("spec", [HalfPlane(), Kp(0.5),
                                  Laurent(0.0, 1.0 + 0j, ()),
                                  parse_spec("identity")], ids=str)
def test_oracle_runs_one_turning_pass_per_curve(spec, monkeypatch):
    n = 1024
    natural = natural_orientation(spec)
    want = _verdict_from_scratch(spec, natural, n)
    calls = []

    def counted(curve):
        calls.append(curve.orientation)
        return convexity_defect(curve)

    monkeypatch.setattr(oracle, "convexity_defect", counted)
    assert oracle._RADII == RADII
    assert oracle_concave(spec, n=n) == want
    assert calls == [natural] * len(RADII)


def test_a_curve_is_turned_once_per_defect_asked_for(monkeypatch):
    # the curve holds no defect: sampling turns nothing, and each
    # convexity_defect call turns its one closed run once
    turns, calls = oracle._turns, []

    def counted(points, closed):
        calls.append(closed)
        return turns(points, closed)

    monkeypatch.setattr(oracle, "_turns", counted)
    curve = boundary_curve(Kp(0.5), 0.99, 1024)
    assert calls == []
    first = convexity_defect(curve)
    assert calls == [True]
    assert convexity_defect(curve) == first
    assert calls == [True] * 2


def test_equality_scan_cubic_is_everywhere():
    grid = GridConfig(geometric_radii(6), 16)
    samples = []
    rep = scan(Co0Cubic(0j), "co0", grid,
               sink=lambda zs, ms: samples.extend(zip(zs, ms)))
    locus = [z for z, m in samples if abs(m) < 1e-6]
    # margin vanishes identically, so the locus is the whole usable grid
    assert len(locus) == rep.samples_used > 0


def test_real_axis_crossings_bracket_omitted_segment():
    curve = boundary_curve(Kp(0.5), 0.99, 512)
    xs = real_axis_crossings(curve)
    assert len(xs) == 2
    left, right = omitted_segment(0.5)
    # f'(+-1) = 0, so the approach is quadratic: within 1e-2 already at 0.99
    assert abs(xs[0] - left) < 1e-2
    assert abs(xs[-1] - right) < 1e-2
    assert xs[0] < left + 1e-12 and xs[-1] > right - 1e-12


def test_real_axis_crossings_interpolate_between_samples():
    # an open run that changes sign twice and has no sample on the axis
    curve = oracle.CurveSample(0.5, 64, (0, 1, 2, 3),
                               (1 + 1j, 2 - 1j, 3 - 3j, 2 + 1j),
                               ((0.3, 6.0),), COMPLEMENT_OUTSIDE)
    assert real_axis_crossings(curve) == (1.5, 2.25)
    # at 4095 angles theta = pi is no sample, so the crossing there is read
    # between the two samples beside it
    curve = boundary_curve(Kp(0.5), 0.9999, 4095)
    assert sum(abs(w.imag) <= oracle._AXIS_TOL for w in curve.points) == 1
    xs = real_axis_crossings(curve)
    assert xs == (-2.000000040004001, -0.22222225079311883)
    assert all(abs(x - e) < 1e-3 for x, e in zip(xs, omitted_segment(0.5)))


@pytest.mark.parametrize("text,r", [
    ("kp:p=0.5", 0.5000000000001), ("laurent:p=0.5;res=1;b=[]", 0.5000000000001),
    ("kalpha:alpha=1.5", 0.9999999999999)])
def test_curve_drops_what_the_kernel_excludes(text, r):
    # at epsilon = 1e-300 the pole-distance rule keeps every sample, and the
    # kernel's own floor or branch cut excludes those at theta = 0 (and pi)
    spec, n = parse_spec(text), 64
    curve = boundary_curve(spec, r, n, 1e-300)
    zs = [r * cmath.exp(1j * (2.0 * math.pi / n * j)) for j in range(n)]
    values = [spec.values([z])[0] for z in zs]
    kept = [j for j, w in enumerate(values)
            if not isinstance(w, SampleExclusionError)]
    assert 0 not in kept and len(kept) >= n - 2
    assert curve.included == tuple(kept)
    assert curve.points == tuple(values[j] for j in kept)
    assert curve.excluded_arcs[0][0] == 0.0


def test_samplers_apply_the_exclusion_column_once(monkeypatch):
    calls = []
    column = FamilySpec.far_from_poles

    def counted(self, zs, epsilon):
        calls.append(len(zs))
        return column(self, zs, epsilon)

    monkeypatch.setattr(FamilySpec, "far_from_poles", counted)
    boundary_curve(Kp(0.5), 0.99, 1024)
    assert calls == [1024]
    calls.clear()
    grid = GridConfig(geometric_radii(3), 16)
    sweep(Kp(0.5), grid, [])
    assert calls == [16, 16, 16]


def test_oracle_curves_share_one_list_of_unit_vectors():
    units = catalog._units
    units.cache_clear()
    oracle_concave(KAlpha(2.0), n=256)
    assert (units.cache_info().misses, units.cache_info().hits) == (1, 2)
    # a curve report and a grid of as many angles reuse them too
    boundary_curve(KAlpha(2.0), 0.99, 256)
    sweep(KAlpha(2.0), GridConfig((0.5,), 256), [])
    assert (units.cache_info().misses, units.cache_info().hits) == (1, 4)
    # the angle count is refused before any unit vector is computed; 256.0
    # would otherwise be served the vectors of 256
    units.cache_clear()
    for n in (0, 63, MAX_SAMPLES + 1, 256.0, 100.5, "256"):
        with pytest.raises(ValueError, match="angles"):
            oracle_concave(KAlpha(2.0), n=n)
    assert units.cache_info().misses == units.cache_info().hits == 0


def test_oracle_imports_only_catalog_and_errors():
    # the geometric lane reaches no code of the formula lane's operators
    # and margins: only catalog's kernels, exclusion rule and circles
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module
                           else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = [node.module] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names]
            package.update(m for m in mods if m.startswith("concavemaps"))
    assert package == {"catalog", "errors"}


# -- the turning against a collapse-then-turn reference, point by point ---------

def _reference_collapse(points):
    tol = 1e-15 * max(abs(w) for w in points)
    out = [points[0]]
    for w in points[1:]:
        if abs(w - out[-1]) > tol:
            out.append(w)
    return out


def _reference_turns(points, closed):
    pts = _reference_collapse(points)
    if closed and len(pts) > 1 and abs(pts[0] - pts[-1]) <= 1e-15 * abs(
            pts[0]):
        pts.pop()
    m = len(pts)
    out = []
    # a closed run collapsed to one point has no edge to turn
    ks = range(m) if closed and m > 1 else range(1, m - 1)
    for k in ks:
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % m]
        e1, e2 = b - a, c - b
        cross = e1.real * e2.imag - e1.imag * e2.real
        dot = e1.real * e2.real + e1.imag * e2.imag
        out.append(math.atan2(cross, dot))
    return out


def _packed(turns):
    return struct.pack(f"<{len(turns)}d", *turns)


def _same_turns(points, closed):
    assert _packed(oracle._turns(list(points), closed)) == _packed(
        _reference_turns(list(points), closed)), (points, closed)


# a few distinct points, each repeated or nudged below the collapse tolerance
nudges = st.sampled_from((0j, 0j, 1e-16 + 0j, -3e-16j, 2e-16 - 1e-16j, 1e-9j))
bases = st.one_of(
    st.sampled_from((0j, 1 + 0j, -1 + 0j, 1j, 0.5 - 0.5j, 1e20 + 0j)),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
runs_with_repeats = st.lists(
    st.tuples(bases, st.lists(nudges, min_size=1, max_size=3)),
    min_size=1, max_size=10).map(
        lambda groups: [w + d for w, ds in groups for d in ds])


@given(runs_with_repeats, st.booleans(), st.booleans())
@settings(max_examples=250, deadline=None)
@example([0j, 1 + 0j, 1 + 1j], False, False)
@example([0j, 1 + 0j, 1 + 1j], True, False)
@example([0j, 0j, 0j], True, False)
@example([0j, 1 + 0j, 1 + 1e-17j], True, False)
@example([1 + 0j, 1j, -1 + 0j, -1j], True, True)
@example([0j, 1 + 0j, 1j, 1e-15 + 0j], True, False)  # last at the tolerance
# smaller than 1e-15 in all, and turned as the unit-sized runs are
@example([0j, 1e-16 + 0j, 1e-16 + 1e-16j], True, False)
@example([1e-16 + 0j, 1e-16j, -1e-16 + 0j, 1e-16 + 1e-31j], True, False)
@example([0.5 + 0j, 0.5 + 6e-16j, 0.5 + 1e-15j], False, False)
# the collapse screen's edge: a last edge of exactly tol collapses, and one
# a float longer is kept
@example([0j, 1 + 0j, 1 + 1e-15j], False, False)
@example([0j, 1 + 0j, 1 + 1.0000000000000002e-15j], False, False)
# a closed run whose only short edge is the closing one
@example([1 + 0j, 1j, -1 + 0j, -1j, 1 + 1e-16j], True, False)
@example([0j, 1 + 0j], True, False)  # a closed run of two points
@example([0.5 + 0.5j] * 3, True, False)  # one repeated point
@example([0.5 + 0.5j] * 3, False, False)
# conj(e1) * e2 = 2 + 5e-324j: its angle underflows to 0
@example([0j, 1 + 0j, 3 + 5e-324j], False, False)
def test_turns_match_collapse_then_turn(points, closed, close_up):
    if close_up:
        points = points + [points[0]]  # the last point equals the first
    # the reference does not scale: keep its products clear of underflow
    big = max(abs(w) for w in points)
    assume(big == 0.0 or big >= 2.0 ** -250)
    _same_turns(points, closed)


# 1/z + 1e13 at r = 0.99: its one run of 4,096 points collapses to 580 turns
COLLAPSING = parse_spec("laurent:p=0;res=1;b=[1e13]")


@pytest.mark.parametrize("spec,r,n", [
    (HalfPlane(), 0.9999, 1024),          # the excluded arc wraps past 0
    (Kp(0.5), 0.99, 1024), (Kp(0.5), 0.5, 1024),  # closed; pole on the ring
    (Co0Cubic(0.3 + 0.2j), 0.9999, 1024),
    (parse_spec("identity"), 0.9, 1024),  # closed, nothing excluded
    (Laurent(0.98, 1.0 + 0j, (0j, 1.0 + 0j)), 0.9999, 1024),
    (Kp(0.5), 0.9999, 16384),             # the export workload's long curve
    (COLLAPSING, 0.99, 4096),
], ids=str)
def test_curve_turns_match_collapse_then_turn(spec, r, n):
    curve = boundary_curve(spec, r, n)
    runs, closed = oracle._runs_of_points(curve)
    assert any(len(run) >= 3 for run in runs)
    if spec == COLLAPSING:
        assert len(oracle._turns(runs[0], closed)) == 580
    for run in runs:
        if len(run) >= 3:
            _same_turns(run, closed)
            _same_turns(run[:3], closed)


@pytest.mark.parametrize("text", ["laurent:b=[5]", "laurent:b=[]"])
def test_a_constant_map_carries_no_turning_to_judge(text):
    # each closed curve collapses to one point: no edge, so no turn, and the
    # oracle refuses the map as it refuses an open run that collapses
    assert oracle._turns([5 + 0j] * 64, True) == []
    with pytest.raises(EmptyScanError, match="collapses to one point"):
        oracle_concave(parse_spec(text))


# -- curves scaled near the float range ------------------------------------------

def _defects(spec):
    return [convexity_defect(boundary_curve(spec, r, DEFAULT_ANGLES))
            for r in (0.99, 0.999, 0.9999)]


@pytest.mark.parametrize("c", [1e150, 1e160, 1e300])
def test_a_scaled_control_is_rejected_as_the_control_is(c):
    # the recipcubic control times c: unscaled, each defect is 4 pi
    spec = parse_spec(f"laurent:p=0;res={c!r};b=[0,0,{2.0 * c!r}]")
    assert all(abs(d - 2.0 * TWO_PI) < 1e-9 for d in _defects(spec))
    assert oracle_concave(spec) == ORACLE_BAD


@pytest.mark.parametrize("c", [1e150, 1e160, 1e300])
def test_a_scaled_angle_map_keeps_its_defects(c):
    want = _defects(parse_spec("anglemap:a=-0.5"))
    got = _defects(parse_spec(f"anglemap:a=-0.5,A={c!r}"))
    assert all(abs(g - w) < 1e-9 for g, w in zip(got, want, strict=True))


@given(runs_with_repeats.filter(lambda ws: any(ws)), st.booleans(),
       st.sampled_from((500, 700, 1000, -251, -300, -499, -502, -700, -1000)))
@settings(max_examples=100, deadline=None)
# short edges whose products went to 0 below 2^-250: a right angle was lost
@example([1 + 0j, 1 + 3e-15 + 0j, 1 + 3e-15 + 3e-15j, 1j], False, -499)
def test_a_run_past_2_to_the_500_turns_as_it_does_scaled_down(points, closed, k):
    # a power of two takes the run's largest coordinate into [1, 2), where
    # the turning reads it as it is, and then to [2^k, 2^(k+1)), where every
    # modulus lies past 2^500 or below 2^-250: there the products would
    # overflow unscaled, or underflow
    e = 1 - math.frexp(max(max(abs(w.real), abs(w.imag)) for w in points))[1]
    near_one = [complex(math.ldexp(w.real, e), math.ldexp(w.imag, e))
                for w in points]
    far = [complex(math.ldexp(w.real, k), math.ldexp(w.imag, k))
           for w in near_one]
    # only a scaling that loses no bit to the subnormals is the same run
    assume(all(complex(math.ldexp(w.real, -k), math.ldexp(w.imag, -k)) == v
               for w, v in zip(far, near_one)))
    assert _packed(oracle._turns(far, closed)) == _packed(
        oracle._turns(near_one, closed))


@pytest.mark.parametrize("c", ["1e-13", "1e-16", "1e-200", "1e-310"])
def test_a_tiny_identity_is_rejected_as_the_identity_is(c):
    # every point of its curve lay within the absolute 1e-15 that once
    # collapsed them, so the closed curve turned by 0 and passed
    got = _defects(parse_spec(f"laurent:b=[0,{c}]"))
    want = _defects(parse_spec("identity"))
    assert all(abs(d - TWO_PI) < 1e-9 for d in want)
    assert all(abs(g - w) < 1e-9 for g, w in zip(got, want, strict=True))
    assert oracle_concave(parse_spec(f"laurent:b=[0,{c}]")) == ORACLE_BAD


def test_an_overflow_on_the_curve_is_no_excluded_arc():
    # f = 1e308 (z + z^2) overflows around theta = 0 on |z| = 0.99; the arc
    # it opened passed for a boundary pole's, with defect 0
    spec = parse_spec("laurent:b=[0,1e308,1e308]")
    with pytest.raises(NonFiniteJetError, match=r"^f overflows on \|z\| = 0\.99: "):
        boundary_curve(spec, 0.99, 64)
    with pytest.raises(NonFiniteJetError):
        oracle_concave(spec)
