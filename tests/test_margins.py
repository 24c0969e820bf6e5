"""Margin fixtures, grid plumbing, scanning, and classification verdicts."""

import cmath
import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concavemaps import margins, operators
from concavemaps.catalog import (AngleMap, Co0Cubic, FamilySpec, HalfPlane,
                                 KAlpha, Kp, Laurent, _units, parse_spec)
from concavemaps.errors import (EmptyScanError, IndeterminateSampleError,
                                NonFiniteJetError, PhiUndefinedError,
                                PoleProximityError, SampleExclusionError,
                                SpecParseError, _only)
from concavemaps.jets import DEGENERACY_FLOOR
from concavemaps.margins import (CLASS_VERDICT_BAD, CLASS_VERDICT_OK,
                                 MAX_SAMPLES, GridConfig, MappingClass,
                                 _co0, _column, _has_pole_at, _margin, _thm4,
                                 classify, default_grid, estimate_order,
                                 geometric_radii, margin_at, parse_class,
                                 phi_prime_one_diagnostic, scan, sweep)
from concavemaps.operators import (OperatorPoint, _a_f, _co_alpha, _phis, _q,
                                   _ring, _sf_norm, a_p_of, thm3_phi3_origin)
from concavemaps.verify import control_roster, member_roster
from test_catalog import _angle_map, coeff_c, nonzero_c
from test_operators import _ref_phi3_origin, at

SMALL = GridConfig(geometric_radii(8), 32)


def _sink():
    """A sink for a sweep, and the list of the rings it is handed, each a
    list of (z, value) pairs."""
    rings = []
    return rings, lambda zs, ms: rings.append(list(zip(zs, ms)))


def _thm4_bound(spec, p, a):
    """thm4's margin bound to p and a as given, on the same column and rule
    at a pole at 0 as _margin's, which binds a_p and needs a pole at p."""
    _, _, at_pole = margins._TOKENS["thm4"]
    return (lambda ring: _column(_thm4, ring, (p, a)),
            lambda: margins._at_pole(spec, at_pole, (p, a)))


def _sunk(rings):
    """The (z, value) pairs of a sink's rings, in the order handed."""
    return [sample for ring in rings for sample in ring]


def test_margin_fixtures_exact():
    assert margin_at(parse_spec("identity"), 0j, "thm1") == -2.0
    cubic = Co0Cubic(0j)
    assert margin_at(cubic, 0j, "co0") == 0.0
    assert margin_at(cubic, 0.5, "co0") == 0.0
    assert abs(margin_at(cubic, 0.3 + 0.4j, "co0")) < 1e-12
    assert margin_at(cubic, 0j, "corollary") == 0.0
    assert margin_at(cubic, 0j, "reM", p=0.0) == 1.0
    assert abs(margin_at(cubic, 0.5, "thm3")) < 1e-9
    assert abs(margin_at(cubic, 0.5j, "thm3")) < 1e-9
    assert abs(margin_at(Kp(0.5), 0j, "thm4", p=0.5)) < 1e-12
    assert abs(margin_at(KAlpha(1.5), 0j, "thm2", alpha=1.5)) < 1e-12


def test_origin_pole_needs_limit_convention():
    # thm1 reads f''/f' alone, which has no limit at the pole
    with pytest.raises(IndeterminateSampleError):
        margin_at(Co0Cubic(0j), 0j, "thm1")


def test_margin_parameter_checks():
    spec = HalfPlane()
    with pytest.raises(ValueError):
        margin_at(spec, 0j, "thm9")
    with pytest.raises(ValueError):
        margin_at(spec, 0j, "thm2")  # alpha missing
    with pytest.raises(ValueError):
        margin_at(spec, 0j, "thm4")  # p missing


def test_parameters_are_checked_before_sampling(monkeypatch):
    def sample(self, zs):
        raise AssertionError("sampled before its parameters were checked")

    monkeypatch.setattr(FamilySpec, "eval_jets", sample)
    with pytest.raises(ValueError, match="alpha must lie in"):
        scan(HalfPlane(), "thm2", SMALL, alpha=0.5)
    with pytest.raises(ValueError, match="p must lie in"):
        margin_at(Kp(0.5), 0.3, "reM", p=1.5)


def test_grid_config_validation():
    for radii in ((), (0.0, 0.5), (0.5, 1.0), (0.5, 0.5), (0.6, 0.4)):
        with pytest.raises(ValueError):
            GridConfig(radii, 64)
    with pytest.raises(ValueError):
        GridConfig((0.5,), 7)
    # refused before anything is sampled; 16.0 would pass for 16 in the
    # cache of unit vectors
    for angles in (16.0, 16.5, "16"):
        with pytest.raises(ValueError, match="angles must be an integer"):
            classify(HalfPlane(), "co", GridConfig((0.5,), angles))
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            GridConfig((0.5,), 64, epsilon=eps)
    for tol in (-1e-7, math.nan, math.inf):
        with pytest.raises(ValueError):
            GridConfig((0.5,), 64, margin_tol=tol)
    assert GridConfig((0.5,), 64, margin_tol=0.0).margin_tol == 0.0


def test_grid_size_is_capped():
    # refused from the sizes alone: nothing here builds a grid
    with pytest.raises(ValueError):
        geometric_radii(MAX_SAMPLES // 8 + 1)
    with pytest.raises(ValueError):
        GridConfig((0.5,), MAX_SAMPLES)
    with pytest.raises(ValueError):
        GridConfig((0.25, 0.5), MAX_SAMPLES // 2)
    assert GridConfig((0.5,), MAX_SAMPLES - 1).angles == MAX_SAMPLES - 1


def test_geometric_radii_endpoints():
    rs = geometric_radii(10)
    assert abs(rs[0] - 0.05) < 1e-15 and abs(rs[-1] - 0.995) < 1e-15
    assert all(b > a for a, b in zip(rs, rs[1:]))
    assert geometric_radii(1) == (0.05,)
    with pytest.raises(ValueError):
        geometric_radii(0)
    for count in (3.0, 2.5, "3"):
        with pytest.raises(ValueError, match="count must be an integer"):
            geometric_radii(count)


def test_presets_and_env():
    assert default_grid("fast").angles == 128
    assert len(default_grid("fast").radii) == 12
    assert default_grid().angles == 256
    with pytest.raises(ValueError):
        default_grid("huge")


@pytest.mark.parametrize("value", ["fast", ""])
def test_stock_grid_ignores_the_environment(value, monkeypatch):
    monkeypatch.setenv("GFT_GRID_PRESET", value)
    grid = default_grid()
    assert grid == default_grid("default")
    assert (len(grid.radii), grid.angles) == (24, 256)


def test_scan_halfplane_thm1():
    rep = scan(HalfPlane(), "thm1", SMALL)
    assert rep.verdict == "member-consistent"
    assert rep.min_margin >= -SMALL.margin_tol
    rings, sink = _sink()
    assert scan(HalfPlane(), "thm1", SMALL, sink=sink) == rep
    # the origin, then each ring, less the sample near the pole at 1
    assert rings[0][0][0] == 0j
    assert [len(ring) for ring in rings] == [1] + [32] * 7 + [31]
    assert len(_sunk(rings)) == rep.samples_used


def test_scan_counts_exclusions():
    # the ring at 0.97 passes within epsilon of the boundary pole at 1
    rep = scan(HalfPlane(), "thm1", GridConfig((0.97,), 256))
    assert rep.samples_excluded > 0
    assert rep.samples_used + rep.samples_excluded == 257


def test_scan_all_excluded_raises():
    grid = GridConfig((0.01,), 8, epsilon=0.2)
    with pytest.raises(EmptyScanError):
        scan(Co0Cubic(0j), "thm1", grid)


def test_scan_argmin_prefers_origin_on_flat_locus():
    # co0 vanishes identically for the cubic; on inner radii the locus is
    # flat to ~1e-16, so the tie band must hand the argmin to the first
    # (origin) sample rather than a noise-selected ring point
    rep = scan(Co0Cubic(0j), "co0", GridConfig((0.25, 0.5), 16))
    assert rep.argmin_z == 0j
    assert abs(rep.min_margin) < 1e-12


def _list_reduction(values):
    """The reference reduction of a margin's whole list of kept values: the
    count, min and max, and the index of the first value within the tie
    band of the min."""
    lo = min(values)
    first = next(k for k, m in enumerate(values) if lo + margins._ARGMIN_TIE >= m)
    return len(values), lo, max(values), first


_FALLING = [-1e-15 * k for k in range(256)]
_NEAR_TIES = st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12,
                              1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2e-12])


@given(st.lists(st.one_of(st.floats(-1e3, 1e3), _NEAR_TIES,
                          st.integers(-8, 8).map(lambda k: k * 3e-13)),
                min_size=1, max_size=300),
       st.lists(st.integers(0, 300), max_size=12))
@settings(max_examples=400, deadline=None, derandomize=True)
@example([0.5] * 6, [2, 4])
@example([0.0, -0.0], [1])
@example([-0.0, 0.0], [])
@example([3.0], [])
@example([0.0, 1e-13, -1e-13, 0.0], [1])  # a value at a pole at 0 first
@example(_FALLING + [_FALLING[-1]] * 256, [256])
def test_a_tally_reduces_rings_as_the_whole_list_does(values, cuts):
    # the values cut into rings, some empty, in grid order; each z names its
    # sample's index
    bounds = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    rings, sink = _sink()
    tally = margins.Tally(sink)
    for a, b in zip(bounds, bounds[1:]):
        tally.add([complex(k) for k in range(a, b)], values[a:b])
    used, lo, hi, first = _list_reduction(values)
    rep = scan(HalfPlane(), "thm1", SMALL, swept=(used, tally))
    assert (rep.samples_used, rep.argmin_z) == (used, complex(first))
    assert struct.pack("<dd", rep.min_margin, tally.hi) == struct.pack("<dd", lo, hi)
    # the sink gets every ring that is not empty, as it was added
    assert rings == [list(zip(map(complex, range(a, b)), values[a:b]))
                     for a, b in zip(bounds, bounds[1:]) if a < b]
    # the records strictly fall to the least, so a tally holds few of them
    ms = [m for _, m in tally.records]
    assert all(b < a for a, b in zip(ms, ms[1:])) and ms[-1] == lo


def test_a_classify_holds_one_ring_not_the_grid():
    # tracemalloc's peak over a classify barely grows with the number of
    # rings: each margin reduces a ring as soon as it has the ring's values
    def peak(radii):
        grid = GridConfig(geometric_radii(radii), 128)
        classify(Co0Cubic(0.3 + 0.1j), "co0", grid)  # warm-up
        tracemalloc.start()
        try:
            classify(Co0Cubic(0.3 + 0.1j), "co0", grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) - peak(8) < 0.1e6


def test_scan_determinism():
    (ra, sa), (rb, sb) = _sink(), _sink()
    a = scan(Kp(0.5), "thm4", SMALL, p=0.5, sink=sa)
    b = scan(Kp(0.5), "thm4", SMALL, p=0.5, sink=sb)
    assert a == b
    assert ra == rb and len(_sunk(ra)) == a.samples_used


def test_thm4_at_p_zero_reduces_to_co0():
    # with p = 0 and a = 0 thm4's column is co0's
    rng = random.Random(515)
    cubic = Co0Cubic(0j)
    for _ in range(100):
        z = (0.05 + 0.9 * rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
        ring = _ring(cubic, [z], None)
        (lhs,) = _column(_thm4, ring, (0.0, 0.0))[1]
        (rhs,) = _column(_co0, ring, ())[1]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_estimate_order_identity():
    lo, hi = estimate_order(parse_spec("identity"), GridConfig(geometric_radii(5), 16))
    assert lo == 0.0  # |A| = |z| bottoms out at the origin
    assert abs(hi - 0.995) < 1e-12


def test_estimate_order_refuses_a_grid_it_excluded_whole():
    with pytest.raises(EmptyScanError,
                       match="^every sample of the order estimate was excluded$"):
        estimate_order(parse_spec("laurent:b=[0,1e-16]"),
                       GridConfig(geometric_radii(2), 8))


def test_classify_refuses_an_unknown_class_kind():
    with pytest.raises(ValueError, match="^unknown class kind 'cox'$"):
        classify(HalfPlane(), MappingClass("cox"))


def test_a_grid_left_out_is_the_default_grid():
    spec, grid = KAlpha(2.0), default_grid()
    assert scan(spec, "thm1") == scan(spec, "thm1", grid)
    assert estimate_order(spec) == estimate_order(spec, grid)
    assert classify(spec, "co") == classify(spec, "co", grid)


def test_phi_prime_one_koebe():
    est, seq = phi_prime_one_diagnostic(KAlpha(2.0))
    assert est is not None and abs(est - 1.0 / 3.0) < 1e-3
    assert len(seq) == 3
    est, _ = phi_prime_one_diagnostic(parse_spec("identity"))
    assert est is None


# The diagnostic reads d(h) = (1 - phi(1 - h))/h at h = 1e-3 and 1e-4 and
# takes the Richardson step E = (10 d(h/10) - d(h))/9, h = 1e-3. For k_alpha
# and the angle maps, phi = z + 2 f'/f'' is a Mobius map that fixes 1:
#     k_alpha:    phi = (1 + alpha z)/(alpha + z),
#     angle map:  phi = (2 lam - (b + 2 - b lam) z)/((b + 2) lam - b - 2 z)
# for f = A s^(1+b) + B, s = (z - lam)/(lam (z - 1)). So d(h) = phi'(1)/(1 +
# w h) exactly, with w = -1/(alpha + 1) and w = 2/((b + 2)(lam - 1)). The
# step cancels the term linear in h and leaves
#     E - phi'(1) = phi'(1) sum_{k >= 2} (-w h)^k (10^(1-k) - 1)/9,
# whose k-th coefficient is 1/10 in size at k = 2 and below 1/9 beyond:
#     |E - phi'(1)| <= phi'(1) x^2 (1/10 + x/(9 (1 - x))),  x = |w| h.
# An error of 2^-49 in phi(r) moves E by at most (10/1e-4 + 1/1e-3)/9 2^-49
# < 2.1e-11, which the bound adds.
_PHI1_ROUNDING = 2.1e-11


def _exact_phi1(spec):
    """phi'(1) and w of d(h) = phi'(1)/(1 + w h), for k_alpha or an angle map."""
    if isinstance(spec, KAlpha):
        return (spec.alpha - 1.0) / (spec.alpha + 1.0), -1.0 / (spec.alpha + 1.0)
    return spec.phi1, 2.0 / ((spec.b + 2.0) * (spec.lam - 1.0))


@given(st.one_of(
    st.builds(KAlpha, st.floats(min_value=1.0, max_value=2.0)),
    st.builds(_angle_map, st.complex_numbers(min_magnitude=0.05,
                                             max_magnitude=0.99),
              nonzero_c, coeff_c).filter(lambda spec: spec is not None)))
@settings(max_examples=200, deadline=None)
@example(KAlpha(1.0))
@example(KAlpha(1.5))
@example(KAlpha(2.0))
@example(AngleMap(-0.5 + 0j))
@example(AngleMap(0.9j))
@example(AngleMap(-0.3 - 0.7j))
@example(AngleMap(0.95j))
def test_phi_prime_one_meets_the_exact_value_within_the_richardson_bound(spec):
    exact, w = _exact_phi1(spec)
    x = abs(w) * 1e-3
    bound = exact * x * x * (0.1 + x / (9.0 * (1.0 - x))) + _PHI1_ROUNDING
    est, ds = phi_prime_one_diagnostic(spec)
    assert len(ds) == 3
    assert abs(est - exact) <= bound, (str(spec), est, exact, bound)


@pytest.mark.parametrize("text, ds", [
    # phi overflows at 0.99, and is excluded: no radius is read
    ("laurent:b=[0,1e300,1e-10]", ()),
    # (1 - phi(r))/(1 - r) overflows from r = 0.999 on
    ("laurent:b=[0,1e306,1]", (-9.999999999999992e+307,)),
    # three finite quotients whose estimate overflows
    ("laurent:b=[0,-1e304,1]", (9.999999999999991e+305,
                                9.999999999999991e+306, 1.00000000000011e+308)),
])
def test_phi_prime_one_is_none_where_a_quotient_or_the_estimate_overflows(
        text, ds):
    spec = parse_spec(text)
    assert phi_prime_one_diagnostic(spec) == (None, ds)
    result = classify(spec, "co", GridConfig(geometric_radii(2), 8))
    assert result.phi1_estimate is None and result.phi1_warning is False


def test_parse_class():
    assert parse_class("co") == MappingClass("co")
    assert parse_class("co0") == MappingClass("co0")
    assert parse_class("coalpha:alpha=1.5") == MappingClass("coalpha", alpha=1.5)
    assert parse_class("cop:p=0.5") == MappingClass("cop", p=0.5)
    for tok in ("co", "co0", "coalpha:alpha=1.5", "cop:p=0.5"):
        assert parse_class(parse_class(tok).token()) == parse_class(tok)
    for bad in ("coalpha:alpha=2.5", "coalpha", "cop:p=1.0", "cop:q=0.5",
                "nonsense"):
        with pytest.raises(SpecParseError):
            parse_class(bad)
    # a malformed number is a parse error located at the value
    # as in the spec grammar, which refuses kp:p=0.2_5
    for bad, at in (("cop:p=abc", 6), ("coalpha:alpha=x", 14),
                    ("cop:p=0.2_5", 6)):
        with pytest.raises(SpecParseError) as exc:
            parse_class(bad)
        assert exc.value.position == at


def test_a_margin_at_a_pole_at_0_that_is_not_finite_is_excluded():
    # with a = inf, thm4's weight (1+2at+t^2)/(4(1+at)^2) is NaN at every t:
    # the pole at 0 excludes its sample as a ring excludes its own
    spec = Co0Cubic(0j)
    at_ring, at_pole = _thm4_bound(spec, 0.0, math.inf)
    col, ms = at_ring(_ring(spec, [0.5 + 0j], None))
    for z, value in ((0j, at_pole), (0.5 + 0j, lambda: _only(col.placed(ms)))):
        with pytest.raises(NonFiniteJetError) as exc:
            value()
        assert str(exc.value) == f"margin at {z!r} overflowed"


def test_a_pole_at_0_whose_schwarzian_modulus_overflows_excludes_its_sample():
    # phi3(0) = b1/res is finite, but |Sf(0)| = |-6 b1/res| is not: thm3
    # and the corollary exclude the origin, while co0 and reM read only zp
    spec = parse_spec("laurent:p=0;res=1;b=[0,2.5e307+2.5e307i]")
    for theorem in ("thm3", "corollary"):
        with pytest.raises(NonFiniteJetError) as exc:
            margin_at(spec, 0j, theorem)
        assert str(exc.value) == "margin at 0j overflowed"
    assert margin_at(spec, 0j, "co0") == 0.0
    assert margin_at(spec, 0j, "reM", p=0.0) == 1.0
    grid = GridConfig(geometric_radii(2), 8)
    rep = scan(spec, "corollary", grid)
    assert (rep.samples_used, rep.samples_excluded, rep.min_margin) == (16, 1, 6.0)
    rep = scan(spec, "thm3", grid)
    assert (rep.samples_used, rep.samples_excluded) == (8, 9)
    assert rep.min_margin == -1.424891319377984e+306


def test_a_token_exclusion_survives_the_replay_of_an_overflowing_ring():
    # a = 1e200 overflows thm4's weight at every sample but the one on the
    # pole of q, which thm4 excludes itself before its arithmetic
    spec = parse_spec("laurent:b=[0,1,0.3]")
    margin = _thm4_bound(spec, 0.25, 1e200)
    zs = [0.25 * e for e in _units(8)]
    col, ms = margin[0](_ring(spec, zs, None))
    placed = col.placed(ms)
    assert isinstance(placed[0], PoleProximityError)
    assert str(placed[0]) == "q has its pole at 0.25"
    for z, entry in zip(zs[1:], placed[1:]):
        assert isinstance(entry, NonFiniteJetError)
        assert str(entry) == f"margin at {z!r} overflowed"
    n, (tally,) = sweep(spec, GridConfig((0.25,), 8), (margin,))
    assert (n, tally.used, tally.lo) == (9, 1, 0.0)


def test_classify_koebe_co():
    res = classify(KAlpha(2.0), "co", SMALL)
    assert res.verdict == "consistent"
    assert res.order_ok and res.order[0] >= 1.0 - 1e-6
    assert len(res.reports) == 1
    assert not res.phi1_warning


def test_classify_identity_rejected():
    res = classify(parse_spec("identity"), "co", SMALL)
    assert res.verdict == "violation"
    assert res.order_ok is False
    assert res.reports[0].argmin_z == 0j


def test_classify_cubic_co0():
    res = classify(Co0Cubic(0j), "co0", SMALL)
    assert res.verdict == "consistent"
    assert [r.theorem for r in res.reports] == ["reM", "co0", "thm3", "corollary"]
    assert res.order is None


def test_classify_kp_cop():
    res = classify(Kp(0.5), "cop:p=0.5", SMALL)
    assert res.verdict == "consistent"
    assert [r.theorem for r in res.reports] == ["reM", "thm4"]


@pytest.mark.parametrize("spec,cls,pole", [
    (Co0Cubic(0j), "co", "z = 0.0"),
    (Kp(0.5), "coalpha:alpha=1.5", "z = 0.5"),
    (HalfPlane(), "co0", "no pole"),
    (HalfPlane(), "cop:p=0", "no pole"),
    (Kp(0.5), "cop:p=0", "z = 0.5"),
    (Kp(0.5), "cop:p=0.25", "z = 0.5"),
    (Co0Cubic(0j), "cop:p=0.5", "z = 0.0"),
    (parse_spec("laurent:p=0.3;res=1;b=[]"), "co0", "z = 0.3"),
], ids=str)
def test_classify_refuses_a_pole_its_class_does_not_have(spec, cls, pole,
                                                         monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the pole check")

    # every evaluation, eval_jet's one-sample calls included, runs the
    # family's column kernel
    monkeypatch.setattr(type(spec), "eval_jets", no_sampling)
    with pytest.raises(ValueError) as exc:
        classify(spec, cls, SMALL)
    assert pole in str(exc.value)
    assert parse_class(cls).token() in str(exc.value)


def test_thm4_needs_a_pole_at_p():
    # a_p = |phi_p(0)| is defined only for a spec with its pole at p
    for spec, p in ((Kp(0.5), 0.0), (HalfPlane(), 0.0), (Co0Cubic(0j), 0.5)):
        with pytest.raises(ValueError, match=f"no pole at z = {p!r}"):
            margin_at(spec, 0.3 + 0.1j, "thm4", p=p)
        with pytest.raises(ValueError, match="thm4"):
            scan(spec, "thm4", SMALL, p=p)


@pytest.mark.parametrize("p", [1e-320, 5e-13])
def test_thm4_refuses_a_p_inside_the_floor_of_the_origin(p, monkeypatch):
    # a_p is read at the origin, which lies inside the floor of a pole at p
    spec = Laurent(p, 1 + 0j, ())

    def no_sampling(*args):
        raise AssertionError("sampled before the check of p")

    monkeypatch.setattr(Laurent, "eval_jets", no_sampling)
    for refused in (lambda: classify(spec, f"cop:p={p!r}", SMALL),
                    lambda: scan(spec, "thm4", SMALL, p=p),
                    lambda: margin_at(spec, 0.5, "thm4", p=p)):
        with pytest.raises(ValueError, match=rf"^p = {p!r} .*cop:p=0$"):
            refused()


def test_thm4_reads_a_p_at_the_floor_itself():
    # at p = 1e-12 the origin clears the floor of the pole
    spec = Laurent(DEGENERACY_FLOOR, 1 + 0j, ())
    assert math.isfinite(margin_at(spec, 0.5, "thm4", p=DEGENERACY_FLOOR))


def test_overflowing_margins_are_excluded():
    # f''/f' = inf at 0: the ring excludes the sample for every token
    spec = parse_spec("laurent:b=[0,1e-12,1e300]")
    for theorem in ("co_alpha_lhs", "thm2"):
        with pytest.raises(NonFiniteJetError, match="^pre-Schwarzian overflowed$"):
            margin_at(spec, 0j, theorem, alpha=1.5)
    # f''/f' = 2e201 at 0: thm1 fails the Schwarzian's test, thm2's square
    # overflows, and the order estimate keeps the finite |A_f| = 1e201
    spec = parse_spec("laurent:b=[0,1e-11,1e190]")
    with pytest.raises(NonFiniteJetError, match="^Schwarzian overflowed$"):
        margin_at(spec, 0j, "thm1")
    with pytest.raises(NonFiniteJetError, match=r"^margin at 0j overflowed$"):
        margin_at(spec, 0j, "thm2", alpha=1.5)
    grid = GridConfig(geometric_radii(2), 8)
    res = classify(spec, "co", grid)
    assert res.reports[0].samples_excluded == 1
    assert res.order == estimate_order(spec, grid)
    assert res.order[1] == 1.0000000000000002e+201


def _cached(ring, form):
    """A ring form as the ring's cache keeps it, once a copy of the ring has
    read it: its values, and each excluded sample's position in the ring
    with its error's class and message."""
    ring.copy().shared(form)
    ws, errors = ring._shared[form]
    return ws, {k: (type(e), str(e)) for k, e in errors.items()}


# the four ring forms that margins share, with the parameters they read
SHARED_FORMS = ((_a_f,), (_sf_norm,), (_q, 0.5), (_co_alpha, 1.5))


def test_a_drop_keeps_a_ring_shared_columns_aligned():
    # the Schwarzian overflows at 0, so the Schwarzian norm excludes it, and
    # q, whose pole is at 0.5, excludes 0.5
    spec = parse_spec("laurent:b=[0,1e-11,1e190]")
    zs = [0j, 0.5 + 0j, 0.25j]
    ring = _ring(spec, zs, None)
    cached = [_cached(ring, form) for form in SHARED_FORMS]
    assert cached[1][1] == {0: (NonFiniteJetError, "Schwarzian overflowed")}
    assert cached[2][1] == {1: (PoleProximityError, "q has its pole at 0.5")}
    assert [len(ws) for ws, _ in cached] == [3, 2, 2, 3]
    ring.drop({0: None}, ring.zs)
    fresh = _ring(spec, zs[1:], None)
    for form in SHARED_FORMS:
        assert _cached(ring, form) == _cached(fresh, form)


def test_two_margins_reading_one_form_both_lose_what_it_excludes(monkeypatch):
    # thm1 and the corollary read the Schwarzian norm, which overflows at 0:
    # the corollary's read is a cache hit, and loses 0 as thm1's does
    spec = parse_spec("laurent:b=[0,1e-11,1e190]")
    calls = [0]

    def counted(col):
        calls[0] += 1
        return _sf_norm(col)

    monkeypatch.setattr(operators, "_sf_norm", counted)
    monkeypatch.setattr(margins, "_sf_norm", counted)
    tokens = ("thm1", "corollary")
    kept = []
    tallies = [margins.Tally(lambda zs, ms: kept.append(zs)) for _ in tokens]
    ring = _ring(spec, [0j, 0.5 + 0j, 0.25j], None)
    margins._apply([_margin(spec, t, None, None) for t in tokens],
                   ring, tallies)
    assert calls == [1]
    assert [t.used for t in tallies] == [2, 2]
    assert kept == [[0.5 + 0j, 0.25j]] * 2
    for t in tokens:
        with pytest.raises(NonFiniteJetError, match="^Schwarzian overflowed$"):
            margin_at(spec, 0j, t)


def test_q_rejects_its_second_pole_as_its_reference_does():
    # inside the disk |1 - pz| > |z - p|, so only a z outside it gets past
    # q's first test to its second
    for p, z in ((0.5, 2.0 + 0j), (0.8, 1.25 + 0j)):
        with pytest.raises(PoleProximityError) as got:
            at(_q, z, p)
        with pytest.raises(PoleProximityError) as want:
            _ref_q(p, z)
        assert str(got.value) == str(want.value) == f"1 - pz vanishes at {z!r}"


# the scans each class prescribes, with the parameters classify hands them
def _class_scans(cls: MappingClass):
    if cls.kind == "co":
        return [("thm1", {})]
    if cls.kind == "coalpha":
        return [("co_alpha_lhs", {"alpha": cls.alpha}),
                ("thm2", {"alpha": cls.alpha})]
    if cls.kind == "co0":
        return [("reM", {"p": 0.0}), ("co0", {}), ("thm3", {}),
                ("corollary", {})]
    return [("reM", {"p": cls.p}), ("thm4", {"p": cls.p})]


ROSTER = member_roster() + control_roster()


@pytest.mark.parametrize("spec,cls", ROSTER, ids=[str(s) for s, _ in ROSTER])
def test_classify_sweep_matches_standalone_scans(spec, cls):
    # covers all four classes, co0cubic:a0=0 and laurent:p=0;res=1;b=[]
    # with their poles at the origin among them
    cls = parse_class(cls)
    res = classify(spec, cls, SMALL)
    scans = _class_scans(cls)
    want = tuple(scan(spec, t, SMALL, **kw) for t, kw in scans)
    assert res.reports == want
    if cls.kind == "co":
        assert res.order == estimate_order(spec, SMALL)
    # and every swept sample is the margin of that point on its own
    for (t, kw), rep in zip(scans, want):
        rings, sink = _sink()
        scan(spec, t, SMALL, sink=sink, **kw)
        assert len(_sunk(rings)) == rep.samples_used
        for z, m in _sunk(rings):
            assert margin_at(spec, z, t, **kw) == m


def _swept(spec, grid, *margins):
    """Per margin, its value at each grid sample it kept, keyed by the
    sample, as a sweep of that margin hands them to its sink."""
    swept = []
    for margin in margins:
        rings, sink = _sink()
        sweep(spec, grid, [margin], sink)
        swept.append(dict(_sunk(rings)))
    return swept


ALPHA_LADDER = (1.2, 1.5, 1.8, 2.0)


def test_theorem_margins_keep_their_pointwise_order():
    # Three relations that follow from the formulas alone, exact in floats
    # since rounding is monotone: thm2 subtracts a nonnegative term from
    # co_alpha_lhs; co_alpha_lhs grows with alpha, as (alpha+1)/2 scales
    # Re (1+z)/(1-z) > 0; and corollary - thm3 = 6 - 2(2|phi3|+1)(1-|Phi|^2)
    # is nonnegative wherever |phi3| <= 1.
    grid = default_grid("fast")
    checked = [0, 0]
    for spec, _ in ROSTER:
        swept = _swept(spec, grid, *(_margin(spec, t, alpha, None)
                                     for alpha in ALPHA_LADDER
                                     for t in ("co_alpha_lhs", "thm2")))
        lhs = swept[::2]
        for alpha, below, thm2 in zip(ALPHA_LADDER, lhs, swept[1::2]):
            assert thm2 and thm2.keys() <= below.keys(), str(spec)
            assert all(m <= below[z] for z, m in thm2.items()), (str(spec), alpha)
        for low, high in zip(lhs, lhs[1:]):
            assert low and low.keys() == high.keys(), str(spec)
            assert all(low[z] < high[z] for z in low), str(spec)
        checked[0] += 1
        abs_phi3 = (lambda ring: _column(
            lambda col: [abs(f) for f in _phis(col)[0]], ring, ()),
            lambda: abs(thm3_phi3_origin(spec)))
        thm3, corollary, phi3 = _swept(
            spec, grid, _margin(spec, "thm3", None, None),
            _margin(spec, "corollary", None, None), abs_phi3)
        assert thm3.keys() <= corollary.keys() and thm3.keys() <= phi3.keys()
        inside = [z for z in thm3 if phi3[z] <= 1.0]
        assert all(corollary[z] >= thm3[z] for z in inside), str(spec)
        checked[1] += bool(inside)
    # |phi3| exceeds 1 at every sample of halfplane, and phi3 of the
    # identity is undefined everywhere
    assert checked == [len(ROSTER), len(ROSTER) - 2]


# parts zero or of a size that 2^k keeps a normal float for |k| <= 500
moderate_part = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3),
                          st.floats(min_value=-1e3, max_value=-1e-3))
moderate_c = st.builds(complex, moderate_part, moderate_part)


def _scaled(c, k):
    return complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))


def _origin_reads(spec):
    """At a pole at 0: thm3, corollary, co0, reM and a_0, each packed, or the
    class and message of its exclusion."""
    reads = [lambda t=t: margin_at(spec, 0j, t) for t in ("thm3", "corollary", "co0")]
    reads += [lambda: margin_at(spec, 0j, "reM", p=0.0), lambda: a_p_of(spec, 0.0)]
    return [_packed(read) for read in reads]


@given(moderate_c.filter(bool), st.lists(moderate_c, max_size=6).map(tuple),
       st.complex_numbers(max_magnitude=1e15, allow_nan=False,
                          allow_infinity=False),
       st.integers(-500, 500))
@settings(max_examples=150, deadline=None)
# 1/z + 1e13 is a Moebius map, with Sf = 0 and phi3 = 0
@example(1.0 + 0j, (0j,), 1e13 + 0j, 0)
@example(1.0 + 0j, (0.3 + 0j, 1.0 + 0j, 0.2j), 1e6 + 0j, 400)
def test_origin_reads_ignore_b0_and_the_scale_of_f(res, coeffs, d, k):
    # every limit at a simple pole at 0 follows from b1/res, which neither
    # f -> f + d nor f -> 2^k f moves (Duren, Univalent Functions, 1983)
    spec = Laurent(0.0, res, coeffs)
    want = _origin_reads(spec)
    b0 = coeffs[0] if coeffs else 0j
    assert _origin_reads(Laurent(0.0, res, (b0 + d, *coeffs[1:]))) == want
    assert _origin_reads(Co0Cubic(d)) == _origin_reads(Co0Cubic(0j))
    try:  # a residue that 2^k takes inside the 1e-12 floor is refused
        scaled = Laurent(0.0, _scaled(res, k), tuple(_scaled(c, k) for c in coeffs))
    except ValueError:
        assume(False)
    assert _origin_reads(scaled) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("factor", [0.97, 1.0, 1.03])
def test_co0_and_cop_at_0_agree_on_an_exact_family(n, factor):
    # f = 1/z + c z^n has 1 + z f''/f' = -(1 + n^2 c w)/(1 - n c w), w =
    # z^(n+1), whose real part is <= 0 on the disk exactly when n^2 |c| <= 1:
    # f lies in Co(0), which is Co(p) at p = 0, exactly when |c| <= 1/n^2
    spec = Laurent(0.0, 1.0 + 0j, (0j,) * n + (complex(factor / n ** 2),))
    want = CLASS_VERDICT_OK if factor <= 1.0 else CLASS_VERDICT_BAD
    grid = default_grid("fast")
    for cls in ("co0", "cop:p=0"):
        assert classify(spec, cls, grid).verdict == want, cls


def test_classify_evaluates_each_sample_once(monkeypatch):
    calls, samples = [0], [0]
    kernel = FamilySpec.eval_jets

    def counted(self, zs):
        calls[0] += 1
        samples[0] += len(zs)
        return kernel(self, zs)

    # every family's jets come through the one base kernel
    monkeypatch.setattr(FamilySpec, "eval_jets", counted)
    points = 1 + len(SMALL.radii) * SMALL.angles
    kernel_calls = 1 + len(SMALL.radii)
    # phi'(1) reads one ring of three samples and a_p one of one; an origin
    # pole's limits come from its Laurent data, so co0 reads no ring there
    extra = {"co": 3, "coalpha": 0, "co0": 0, "cop": 1}
    for spec, cls in ROSTER:
        calls[0] = samples[0] = 0
        classify(spec, cls, SMALL)
        more = extra[parse_class(cls).kind]
        assert 0 < samples[0] <= points + more, (str(spec), cls)
        # one kernel call per ring, the origin's and the point reads' included
        assert 0 < calls[0] <= kernel_calls + min(more, 1), (str(spec), cls)


def test_classify_computes_each_shared_column_once_per_ring(monkeypatch):
    # q, which reM and thm4 read, the Co(alpha) column, which co_alpha_lhs
    # and thm2 read, the Schwarzian norm, which thm3 and the corollary read,
    # and A_f, which thm1 and the order estimate read, each run once per
    # ring: the origin's included, but for co0's pole there, which the
    # margins read through their limits without a ring
    for name, spec, cls, rings in (
            ("_q", Kp(0.5), "cop:p=0.5", 1 + len(SMALL.radii)),
            ("_co_alpha", KAlpha(1.5), "coalpha:alpha=1.5",
             1 + len(SMALL.radii)),
            ("_sf_norm", parse_spec("co0cubic:a0=0.3+0.2i"), "co0",
             len(SMALL.radii)),
            ("_a_f", HalfPlane(), "co", 1 + len(SMALL.radii))):
        calls = [0]

        def counted(col, *args, form=getattr(operators, name)):
            calls[0] += 1
            return form(col, *args)

        monkeypatch.setattr(operators, name, counted)
        monkeypatch.setattr(margins, name, counted)
        classify(spec, cls, SMALL)
        assert calls[0] == rings, name
        # an earlier form's double would count into this form's calls
        monkeypatch.undo()


# -- token columns against per-sample references --------------------------------
#
# The sweep runs each token once per ring, over columns. These references are
# the pointwise formulas, applied to one OperatorPoint per sample; every
# column must agree with them bit for bit and exclude the same samples with
# the same error, class and message. Each sample's tests run in the order
# the columns run them, and an overflow in a margin's arithmetic, raised or
# left as a value that is not finite, excludes the sample last.

def _ref_point(spec, z):
    pt = OperatorPoint.at(spec, z)
    _ref_pre(pt)  # the ring's test, which every token's samples pass
    return pt


def _ref_pre(pt):
    pre = pt.jet.v2 / pt.jet.v1
    if not cmath.isfinite(pre):
        raise NonFiniteJetError("pre-Schwarzian overflowed")
    return pre


def _ref_a_f(pt):
    z = pt.z
    return 0.5 * ((1.0 - abs(z) ** 2) * _ref_pre(pt) - 2.0 * z.conjugate())


def _ref_schwarzian_norm(pt):
    jet = pt.jet
    q = jet.v2 / jet.v1
    sf = jet.v3 / jet.v1 - 1.5 * q * q
    if not cmath.isfinite(sf):
        raise NonFiniteJetError("Schwarzian overflowed")
    return abs(sf) * (1.0 - abs(pt.z) ** 2) ** 2


def _ref_co_alpha_lhs(pt, alpha):
    z = pt.z
    val = 0.5 * (alpha + 1.0) * (1.0 + z) / (1.0 - z) - 1.0 - z * _ref_pre(pt)
    return val.real


def _ref_q(p, z):
    if p == 0.0:
        return 0j
    if abs(z - p) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"q has its pole at {p!r}")
    den = 1.0 - p * z
    if abs(den) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"1 - pz vanishes at {z!r}")
    return 2.0 * p / (z - p) - 2.0 * p * z / den


def _ref_thm3_phis(pt):
    z, v1, v2 = pt.z, pt.jet.v1, pt.jet.v2
    if abs(v2) < DEGENERACY_FLOOR:
        raise PhiUndefinedError(f"f''({z!r}) vanishes; phi3 is undefined")
    den = z ** 3 * v2
    if abs(den) < DEGENERACY_FLOOR:
        raise IndeterminateSampleError(
            f"sample indeterminate: phi3 denominator z^3 f'' ~ 0 at {z!r}")
    phi3 = (z * v2 + 2.0 * v1) / den
    den2 = 1.0 - z * z * phi3
    if abs(den2) < DEGENERACY_FLOOR:
        raise PhiUndefinedError(f"1 - z^2 phi3 vanishes at {z!r}")
    return phi3, (z.conjugate() - z * phi3) / den2


def _ref_thm1(pt):
    a = abs(_ref_a_f(pt))
    sfn = _ref_schwarzian_norm(pt)
    return 2.0 * a ** 2 - sfn - 2.0


def _ref_thm2(pt, alpha):
    lhs = _ref_co_alpha_lhs(pt, alpha)
    z = pt.z
    dev = _ref_pre(pt) - (alpha + 1.0) / (1.0 - z)
    return lhs - abs(dev) ** 2 * (1.0 - abs(z) ** 2) / (2.0 * (alpha - 1.0))


def _ref_thm3(pt):
    phi3, big_phi = _ref_thm3_phis(pt)
    sfn = _ref_schwarzian_norm(pt)
    lead = 2.0 * (2.0 * abs(phi3) + 1.0)
    return lead * (1.0 - abs(big_phi) ** 2) - sfn


def _ref_co0(z, zp):
    return -(1.0 + zp).real - 0.25 * (1.0 - abs(z) ** 4) * abs(zp) ** 2


def _ref_thm4(z, zp, p, a):
    zp_plus_q = zp + _ref_q(p, z)
    m = 1.0 + zp_plus_q
    t = abs(z)
    weight = (1.0 - t * t) * (1.0 + 2.0 * a * t + t * t) / (4.0 * (1.0 + a * t) ** 2)
    return -m.real - weight * abs(zp_plus_q) ** 2


def _ref_re_m(z, zp, p):
    return -(1.0 + zp + _ref_q(p, z)).real


def _ref_sf_at_pole(spec):
    """|Sf(0)| = |-6 b1/res| at a simple pole at 0, from the spec's fields
    (test_operators checks the closed form against the jet of 1/f)."""
    return abs(-6.0 * _ref_phi3_origin(spec))


def _ref_tokens(alpha, p, a):
    """token -> (the keyword parameters it takes, its pointwise reference,
    its reference at a pole at 0 or None)"""
    def zp(fn, *args):
        return (lambda pt: fn(pt.z, pt.z * _ref_pre(pt), *args),
                lambda spec: fn(0j, -2.0 + 0j, *args))
    return {
        "thm1": ({}, _ref_thm1, None),
        "thm2": ({"alpha": alpha}, lambda pt: _ref_thm2(pt, alpha), None),
        "co0": ({}, *zp(_ref_co0)),
        "thm3": ({}, _ref_thm3, lambda spec: 2.0 * (
            2.0 * abs(_ref_phi3_origin(spec)) + 1.0) - _ref_sf_at_pole(spec)),
        "corollary": ({}, lambda pt: 6.0 - _ref_schwarzian_norm(pt),
                      lambda spec: 6.0 - _ref_sf_at_pole(spec)),
        "thm4": ({"p": p}, *zp(_ref_thm4, p, a)),
        "co_alpha_lhs": ({"alpha": alpha},
                         lambda pt: _ref_co_alpha_lhs(pt, alpha), None),
        "reM": ({"p": p}, *zp(_ref_re_m, p)),
    }


def _ref_margin(ref, spec, z):
    """ref at the sample z, where an overflow in its arithmetic excludes the
    sample as the columns exclude it."""
    pt = _ref_point(spec, z)
    try:
        m = ref(pt)
    except OverflowError:
        m = math.nan
    if not math.isfinite(m):
        raise NonFiniteJetError(f"margin at {z!r} overflowed")
    return m


def _packed(evaluate):
    """The value as a packed double, or the class and message of the
    exclusion error."""
    try:
        return struct.pack("<d", evaluate())
    except SampleExclusionError as exc:
        return type(exc), str(exc)


def _packed_z(z):
    return struct.pack("<dd", z.real, z.imag)


def _raised(entry):
    if isinstance(entry, SampleExclusionError):
        raise entry
    return entry


def _at_sample(spec, z, theorem, kw, margin):
    """margin_at's value at z; for thm4, bound to a drawn a, the margin's
    own on the one-sample ring that margin_at reads."""
    if theorem != "thm4":
        return margin_at(spec, z, theorem, **kw)
    col, ms = margin[0](_ring(spec, [z], None))
    return _only(col.placed(ms))


small_c = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                             allow_infinity=False)


def _angle_map(a, A, B):
    try:
        return AngleMap(a, A, B)
    except ValueError:
        return None

column_specs = st.one_of(
    st.just(HalfPlane()),
    st.builds(KAlpha, st.floats(min_value=1.0, max_value=2.0)),
    st.builds(_angle_map,
              st.complex_numbers(min_magnitude=0.05, max_magnitude=0.99),
              st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0,
                                 allow_nan=False, allow_infinity=False),
              small_c).filter(lambda spec: spec is not None),
    st.builds(Kp, st.floats(min_value=0.05, max_value=0.95)),
    st.builds(Co0Cubic, small_c),
    # no pole, a pole at 0 and a pole in (0, 1); short tails reach the
    # identity, whose f'' = 0 excludes every thm3 sample
    st.builds(Laurent,
              st.one_of(st.none(), st.just(0.0),
                        st.floats(min_value=0.05, max_value=0.95)),
              st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0,
                                 allow_nan=False, allow_infinity=False),
              st.lists(small_c, max_size=5).map(tuple)),
)


# laurent:b=[0,1e-12,1e300] has f''/f' = inf at 0; laurent:b=[0,1e-11,1e190]
# a finite f''/f' at 0 whose Schwarzian and thm2 square overflow;
# laurent:b=[0,1e305,1] a phi3 that overflows to inf on the ring 0.05, where
# thm3 is NaN; laurent:b=[0,-1e5+1e-9,1e6] has 1 - z^2 phi3 inside the floor
# at z = 0.05; identity f'' = 0; every spec without a pole at 0 has
# z^3 f'' = 0 there; and kp:p=0.5 with p = geometric_radii(3)[1] puts a
# sample on q's pole.
@given(column_specs, st.integers(1, 3), st.integers(8, 16),
       st.floats(min_value=0.001, max_value=0.1),
       st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
       st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99),
                 st.sampled_from(geometric_radii(3))),
       st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=150, deadline=None)
@example(parse_spec("identity"), 2, 8, 0.05, 1.5, 0.0, 0.0)
@example(Kp(0.5), 3, 8, 0.05, 1.5, geometric_radii(3)[1], 0.5)
@example(Laurent(0.0, 1.0 + 0j, ()), 2, 8, 0.05, 2.0, 0.0, 0.0)
@example(Laurent(None, 0j, (0j, 0j, 1.0 + 0j)), 2, 8, 0.05, 1.5, 0.5, 1.0)
@example(parse_spec("laurent:b=[0,1e-12,1e300]"), 1, 8, 0.05, 1.5, 0.0, 0.0)
@example(parse_spec("laurent:b=[0,1e-11,1e190]"), 1, 8, 0.05, 1.5, 0.0, 0.0)
@example(parse_spec("laurent:b=[0,1e305,1]"), 1, 8, 0.05, 1.5, 0.0, 0.0)
@example(Laurent(None, 0j, (0j, complex(-1e5 + 1e-9), 1e6 + 0j)), 1, 8, 0.05,
         1.5, 0.0, 0.0)
def test_token_columns_match_pointwise_formulas(spec, nr, angles, epsilon,
                                                alpha, p, a):
    grid = GridConfig(geometric_radii(nr), angles, epsilon=epsilon)
    step = 2.0 * math.pi / angles
    origin_pole = _has_pole_at(spec, 0j)
    # the origin, attempted whatever epsilon, then the rings
    rings = [] if origin_pole else [([0j], None)]
    rings += [([r * cmath.exp(1j * (step * j)) for j in range(angles)], epsilon)
              for r in grid.radii]
    # one ring for every token, as the sweep has it
    rings = [(zs, eps, _ring(spec, zs, eps)) for zs, eps in rings]
    for theorem, (kw, ref, ref_at_pole) in _ref_tokens(alpha, p, a).items():
        if theorem == "thm4":
            margin = _thm4_bound(spec, p, a)
        else:
            margin = _margin(spec, theorem, kw.get("alpha"), kw.get("p"))
        # per grid sample, its z and its packed reference: the margin, the
        # class and message of its exclusion, or None near a pole, where
        # the ring holds a PoleProximityError naming the sample and epsilon
        want_swept = []
        if origin_pole:
            want_swept.append((0j, None if ref_at_pole is None
                               else _packed(lambda: ref_at_pole(spec))))
        for zs, eps, ring in rings:
            kept, ms = margin[0](ring)
            for z, got in zip(zs, kept.result(ms)):
                if eps is not None and not spec.far_from_poles([z], eps)[0]:
                    assert type(got) is PoleProximityError
                    assert str(got) == f"sample {z!r} lies within {eps!r} of a pole"
                    want_swept.append((z, None))
                    continue
                want = _packed(lambda: _ref_margin(ref, spec, z))
                assert _packed(lambda: _raised(got)) == want, (
                    str(spec), theorem, z)
                assert _packed(lambda: _at_sample(spec, z, theorem, kw,
                                                  margin)) == want
                want_swept.append((z, want))
        # the sweep keeps exactly the samples with a margin, in grid order
        handed, sink = _sink()
        n, _ = sweep(spec, grid, [margin], sink)
        assert n == len(want_swept)
        assert [(_packed_z(z), struct.pack("<d", v))
                for z, v in _sunk(handed)] == [
            (_packed_z(z), w) for z, w in want_swept if isinstance(w, bytes)]
