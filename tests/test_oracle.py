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
from test_catalog import coeff_c, nonzero_c

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


def _verdict_from_scratch(spec, orientation):
    """The oracle's verdict rule, with every defect computed afresh under
    orientation."""
    ds = [convexity_defect(replace(boundary_curve(spec, r, DEFAULT_ANGLES),
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
    assert _verdict_from_scratch(recip, COMPLEMENT_OUTSIDE) == ORACLE_BAD


@pytest.mark.parametrize("spec", [HalfPlane(), Kp(0.5),
                                  Laurent(0.0, 1.0 + 0j, ()),
                                  parse_spec("identity")], ids=str)
def test_oracle_runs_one_turning_pass_per_curve(spec, monkeypatch):
    natural = natural_orientation(spec)
    want = _verdict_from_scratch(spec, natural)
    calls = []

    def counted(curve):
        calls.append(curve.orientation)
        return convexity_defect(curve)

    monkeypatch.setattr(oracle, "convexity_defect", counted)
    assert oracle._RADII == RADII
    assert oracle_concave(spec) == want
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
                               COMPLEMENT_OUTSIDE)
    assert real_axis_crossings(curve) == (1.5, 2.25)
    # at 4095 angles theta = pi is no sample, so the crossing there is read
    # between the two samples beside it
    curve = boundary_curve(Kp(0.5), 0.9999, 4095)
    band = oracle._AXIS_TOL * max(max(abs(w.real), abs(w.imag))
                                  for w in curve.points)
    assert sum(abs(w.imag) <= band for w in curve.points) == 1
    xs = real_axis_crossings(curve)
    assert xs == (-2.000000040004001, -0.22222225079311886)
    assert all(abs(x - e) < 1e-3 for x, e in zip(xs, omitted_segment(0.5)))


def test_real_axis_crossings_read_their_band_at_the_curve_s_scale():
    # the identity times 1e-12: under an absolute band of 1e-9 each of its
    # 64 points lay on the axis, and each was a crossing
    curve = boundary_curve(parse_spec("laurent:b=[0,1e-12]"), 0.99, 64)
    assert real_axis_crossings(curve) == (-9.9e-13, 9.9e-13)
    assert real_axis_crossings(
        boundary_curve(parse_spec("identity"), 0.99, 64)) == (-0.99, 0.99)


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


class _Masked(FamilySpec):
    """A pole-free map, f(z) = z, whose exclusion column is a given mask."""

    def __init__(self, mask):
        self.mask = mask

    def far_from_poles(self, zs, epsilon):
        return list(self.mask)

    def _values(self, col):
        return list(col.zs)


# n in [64, 130] angles, at least 3 of them kept
keep_masks = st.integers(64, 130).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n)).filter(
        lambda mask: sum(mask) >= 3)


@given(keep_masks)
@settings(max_examples=200, deadline=None)
@example([False] * 5 + [True] * 59)               # a leading gap only
@example([True] * 59 + [False] * 5)               # a trailing gap only
@example([False] * 3 + [True] * 58 + [False] * 3)  # a gap through theta = 0
@example([True] * 20 + [False] * 10 + [True] * 34)  # an interior gap
@example([j % 2 == 0 for j in range(129)])        # odd n: 128 and 0 adjoin
def test_runs_and_arcs_partition_the_angles(mask):
    # every catalog pole is real, so specs cut only gaps around theta = 0;
    # a mask reaches every shape of kept angles
    n = len(mask)
    curve = boundary_curve(_Masked(mask), 0.5, n)
    assert curve.included == tuple(j for j in range(n) if mask[j])
    runs, closed = oracle._runs_of_points(curve)
    assert closed == all(mask)
    angle = dict(zip(curve.points, curve.included))
    held = [[angle[w] for w in run] for run in runs]
    for run in held:
        assert all(b == (a + 1) % n for a, b in zip(run, run[1:]))
    flat = [w for run in runs for w in run]
    k = curve.points.index(flat[0])
    assert flat == [*curve.points[k:], *curve.points[:k]]

    step = TWO_PI / n
    gaps = [(round(s / step), round(e / step)) for s, e in curve.excluded_arcs]
    assert [(step * a, step * b) for a, b in gaps] == list(curve.excluded_arcs)
    assert all(0 <= a < b < a + n for a, b in gaps)
    assert [a for a, _ in gaps] == sorted(a for a, _ in gaps)
    cover = sorted([*(j for run in held for j in run),
                    *(j % n for a, b in gaps for j in range(a, b))])
    assert cover == list(range(n))
    assert len(runs) == (1 if closed else len(gaps))  # kept and gone alternate
    assert sum(b > n for _, b in gaps) == (not mask[0] and not mask[-1])


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
    oracle_concave(KAlpha(2.0))
    assert (units.cache_info().misses, units.cache_info().hits) == (1, 2)
    # a curve report and a grid of as many angles reuse them too
    boundary_curve(KAlpha(2.0), 0.99, DEFAULT_ANGLES)
    sweep(KAlpha(2.0), GridConfig((0.5,), DEFAULT_ANGLES), [])
    assert (units.cache_info().misses, units.cache_info().hits) == (1, 4)
    # the angle count is refused before any unit vector is computed; 256.0
    # would otherwise be served the vectors of 256
    units.cache_clear()
    for n in (0, 63, MAX_SAMPLES + 1, 256.0, 100.5, "256"):
        with pytest.raises(ValueError, match="angles"):
            boundary_curve(KAlpha(2.0), 0.99, n)
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
    # one power of two takes the run's largest modulus into [0.5, 1)
    e = math.frexp(max(abs(w) for w in points))[1]
    pts = _reference_collapse([2.0 ** -e * w for w in points])
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
# conj(e1) * e2 = 2 + 5e-324j, whose angle underflows to 0; scaled by 1/4,
# the last point loses its 5e-324
@example([0j, 1 + 0j, 3 + 5e-324j], False, False)
# a cross product, 2.6e-300 * 1e-9, that is subnormal at either scale
@example([2.6017127042439317e-300 - 2j, 0j, 1e-09j], False, False)
def test_turns_match_collapse_then_turn(points, closed, close_up):
    if close_up:
        points = points + [points[0]]  # the last point equals the first
    # the reference scales in one step: keep its power of two a float
    big = max(abs(w) for w in points)
    assume(big == 0.0 or big >= 2.0 ** -1022)
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


def _ldexp(w, k):
    return complex(math.ldexp(w.real, k), math.ldexp(w.imag, k))


@given(runs_with_repeats.filter(lambda ws: any(ws)), st.booleans(),
       st.integers(-1000, 1000))
@settings(max_examples=100, deadline=None)
# short edges whose products went to 0 below 2^-250: a right angle was lost
@example([1 + 0j, 1 + 3e-15 + 0j, 1 + 3e-15 + 3e-15j, 1j], False, -499)
# a cross product of 2^-498 * 1e-160, subnormal where the run was not scaled
@example([0j, 1 + 0j, 2 + 1e-160j], False, -249)
def test_a_run_turns_alike_at_every_power_of_two_scale(points, closed, k):
    # a power of two takes the run's largest coordinate into [1, 2), and
    # then to [2^k, 2^(k+1)): the turning brings both to one scale
    e = 1 - math.frexp(max(max(abs(w.real), abs(w.imag)) for w in points))[1]
    near_one = [_ldexp(w, e) for w in points]
    far = [_ldexp(w, k) for w in near_one]
    # only a scaling that loses no bit to the subnormals is the same run
    assume(all(_ldexp(w, -k) == v for w, v in zip(far, near_one)))
    assert _packed(oracle._turns(far, closed)) == _packed(
        oracle._turns(near_one, closed))


# no pole, a pole at 0 or one in (0, 0.9), and one to six coefficients
scalable_laurents = st.builds(
    Laurent,
    st.one_of(st.none(), st.just(0.0),
              st.floats(min_value=0.0, max_value=0.9, exclude_min=True,
                        exclude_max=True)),
    nonzero_c, st.lists(coeff_c, min_size=1, max_size=6).map(tuple))


def _defect_bits(curve):
    try:
        return _packed([convexity_defect(curve)])
    except EmptyScanError as exc:  # a constant map collapses at every scale
        return repr(exc)


@given(scalable_laurents, st.integers(-900, 900))
@settings(max_examples=60, deadline=None)
def test_a_laurent_spec_times_a_power_of_two_keeps_its_defects_bitwise(
        spec, k):
    # (res, b) -> 2^k (res, b) scales every point of every curve exactly,
    # wherever no bit is lost, and then no defect may move by a bit
    try:
        scaled = Laurent(spec.pole, _ldexp(spec.residue, k),
                         tuple(_ldexp(c, k) for c in spec.coeffs))
        pairs = [(boundary_curve(spec, r, DEFAULT_ANGLES),
                  boundary_curve(scaled, r, DEFAULT_ANGLES))
                 for r in (0.99, 0.999, 0.9999)]
    except (ValueError, EmptyScanError, NonFiniteJetError):
        assume(False)  # refused at one scale, such as by the residue floor
    for curve, far in pairs:
        assume(far.included == curve.included)
        assume(all(_ldexp(w, k) == v and _ldexp(v, -k) == w
                   for w, v in zip(curve.points, far.points)))
    assert [_defect_bits(c) for c, _ in pairs] == [
        _defect_bits(f) for _, f in pairs]


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
