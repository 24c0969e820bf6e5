"""Geometric oracle: curve sampling, turning defects, and verdicts."""

import cmath
import math

import pytest

from concavemaps import oracle
from concavemaps.catalog import (Co0Cubic, HalfPlane, KAlpha, Kp, Laurent,
                                 omitted_segment, parse_spec)
from concavemaps.errors import EmptyScanError
from concavemaps.margins import MAX_SAMPLES, GridConfig, geometric_radii
from concavemaps.oracle import (COMPLEMENT_INSIDE, COMPLEMENT_OUTSIDE,
                                DEFAULT_ANGLES, ORACLE_BAD, ORACLE_OK,
                                boundary_curve, convexity_defect,
                                equality_scan, natural_orientation,
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
        convexity_defect(boundary_curve(HalfPlane(), 0.5, 64), "sideways")
    with pytest.raises(EmptyScanError):
        boundary_curve(Co0Cubic(0j), 0.03, 64)  # whole ring inside epsilon
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            boundary_curve(HalfPlane(), 0.9999, 256, eps)
    with pytest.raises(ValueError):
        boundary_curve(HalfPlane(), 0.5, MAX_SAMPLES + 1)


@pytest.mark.parametrize("spec", [HalfPlane(), Kp(0.5), Co0Cubic(0j),
                                  Laurent(0.98, 1.0 + 0j, (0j, 1.0 + 0j))],
                         ids=str)
def test_curve_excludes_what_near_pole_excludes(spec):
    # the oracle and the grid scans share one exclusion rule
    n, r, eps = 1024, 0.9999, 0.05
    step = TWO_PI / n
    kept = tuple(j for j in range(n)
                 if not spec.near_pole(r * cmath.exp(1j * (step * j)), eps))
    assert boundary_curve(spec, r, n, eps).included == kept


def test_reciprocal_circle_is_clean():
    # 1/z maps |z| = 0.5 to a clockwise circle: perfect complement-inside
    curve = boundary_curve(Laurent(0.0, 1.0 + 0j, ()), 0.5, 256)
    assert curve.orientation == COMPLEMENT_INSIDE
    assert len(curve.included) == 256 and not curve.excluded_arcs
    assert curve.convexity_defect < 1e-9


def test_closed_boundedness_rule():
    # a closed image curve cannot leave a convex complement: defect ~ 2 pi
    # even for the halfplane member, whose curve only opens up as r -> 1
    for spec in (HalfPlane(), parse_spec("identity")):
        curve = boundary_curve(spec, 0.5, 256)
        assert not curve.excluded_arcs
        assert abs(curve.convexity_defect - TWO_PI) < 1e-6


def test_identity_rejected_at_default_radii():
    curve = boundary_curve(parse_spec("identity"), 0.99, 4096)
    assert abs(curve.convexity_defect - TWO_PI) < 1e-6
    assert oracle_concave(parse_spec("identity")) == ORACLE_BAD


def test_wrong_winding_counts_all_mass():
    # 1/z + 2z^2 winds the wrong way; the defect is the whole turning mass
    spec = Laurent(0.0, 1.0 + 0j, (0j, 0j, 2.0 + 0j))
    curve = boundary_curve(spec, 0.99, 4096)
    assert abs(curve.convexity_defect - 2.0 * TWO_PI) < 1e-3


def test_excluded_arc_straddles_zero():
    # the boundary pole at z = 1 knocks out an arc across theta = 0; the
    # reported interval must stay contiguous, so its end passes 2 pi
    curve = boundary_curve(HalfPlane(), 0.99, 4096)
    assert len(curve.excluded_arcs) == 1
    lo, hi = curve.excluded_arcs[0]
    assert lo < TWO_PI < hi
    assert curve.convexity_defect < 1e-9

    curve = boundary_curve(Kp(0.96), 0.99, 4096)
    assert len(curve.excluded_arcs) == 1
    lo, hi = curve.excluded_arcs[0]
    assert lo < TWO_PI < hi


def test_thetas_align_with_included():
    curve = boundary_curve(HalfPlane(), 0.99, 256)
    step = TWO_PI / 256
    assert curve.thetas == tuple(step * j for j in curve.included)
    assert len(curve.thetas) == len(curve.points)


def test_defect_is_translation_invariant():
    a = boundary_curve(Co0Cubic(0j), 0.99, 256)
    b = boundary_curve(Co0Cubic(0.3 + 0.2j), 0.99, 256)
    assert a.included == b.included
    assert abs(a.convexity_defect - b.convexity_defect) < 1e-12


def test_koebe_defects_shrink_toward_boundary():
    ds = [boundary_curve(KAlpha(2.0), r, 4096).convexity_defect
          for r in (0.99, 0.999, 0.9999)]
    assert ds[0] < 0.02 and ds[1] < 0.002 and ds[2] < 2e-4
    assert ds[0] > ds[1] > ds[2]
    assert oracle_concave(KAlpha(2.0)) == ORACLE_OK


def test_kp_is_oracle_clean():
    ds = [boundary_curve(Kp(0.5), r, 4096).convexity_defect
          for r in (0.99, 0.999, 0.9999)]
    assert all(d < 1e-4 for d in ds)
    assert oracle_concave(Kp(0.5)) == ORACLE_OK


RADII = (0.99, 0.999, 0.9999)


def _verdict_from_scratch(spec, orientation, n):
    """The oracle's verdict rule, with every defect computed afresh."""
    ds = [convexity_defect(boundary_curve(spec, r, n), orientation)
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

    def counted(curve, orientation):
        calls.append(orientation)
        return convexity_defect(curve, orientation)

    monkeypatch.setattr(oracle, "convexity_defect", counted)
    # the curve's stored defect serves the natural orientation
    assert oracle_concave(spec, r_list=RADII, n=n) == want
    assert calls == [natural] * len(RADII)


def test_equality_scan_cubic_is_everywhere():
    from concavemaps.margins import scan

    grid = GridConfig(geometric_radii(6), 16)
    locus = equality_scan(Co0Cubic(0j), "co0", grid)
    # margin vanishes identically, so the locus is the whole usable grid
    assert len(locus) == scan(Co0Cubic(0j), "co0", grid).samples_used


def test_real_axis_crossings_bracket_omitted_segment():
    curve = boundary_curve(Kp(0.5), 0.99, 512)
    xs = real_axis_crossings(curve)
    assert len(xs) == 2
    left, right = omitted_segment(0.5)
    # f'(+-1) = 0, so the approach is quadratic: within 1e-2 already at 0.99
    assert abs(xs[0] - left) < 1e-2
    assert abs(xs[-1] - right) < 1e-2
    assert xs[0] < left + 1e-12 and xs[-1] > right - 1e-12
