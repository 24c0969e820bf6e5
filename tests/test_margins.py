"""Margin fixtures, grid plumbing, scanning, and classification verdicts."""

import cmath
import math
import random

import pytest

from concavemaps.catalog import (Co0Cubic, FamilySpec, HalfPlane, KAlpha, Kp,
                                 parse_spec)
from concavemaps.errors import (EmptyScanError, IndeterminateSampleError,
                                SpecParseError)
from concavemaps.margins import (MAX_SAMPLES, GridConfig, MappingClass,
                                 classify, default_grid, estimate_order,
                                 geometric_radii, margin_at, parse_class,
                                 phi_prime_one_diagnostic, scan)
from concavemaps.verify import control_roster, member_roster

SMALL = GridConfig(geometric_radii(8), 32)


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
    with pytest.raises(ValueError):
        margin_at(Kp(0.5), 0j, "thm4", p=0.5, a=-0.1)


def test_grid_config_validation():
    for radii in ((), (0.0, 0.5), (0.5, 1.0), (0.5, 0.5), (0.6, 0.4)):
        with pytest.raises(ValueError):
            GridConfig(radii, 64)
    with pytest.raises(ValueError):
        GridConfig((0.5,), 7)
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
    assert rep.samples is None
    kept = scan(HalfPlane(), "thm1", SMALL, keep_samples=True)
    assert kept.samples is not None
    assert len(kept.samples) == kept.samples_used


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


def test_scan_determinism():
    a = scan(Kp(0.5), "thm4", SMALL, p=0.5, keep_samples=True)
    b = scan(Kp(0.5), "thm4", SMALL, p=0.5, keep_samples=True)
    assert a == b


def test_thm4_at_p_zero_reduces_to_co0():
    rng = random.Random(515)
    cubic = Co0Cubic(0j)
    for _ in range(100):
        z = (0.05 + 0.9 * rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
        lhs = margin_at(cubic, z, "thm4", p=0.0, a=0.0)
        rhs = margin_at(cubic, z, "co0")
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_estimate_order_identity():
    lo, hi = estimate_order(parse_spec("identity"), GridConfig(geometric_radii(5), 16))
    assert lo == 0.0  # |A| = |z| bottoms out at the origin
    assert abs(hi - 0.995) < 1e-12


def test_phi_prime_one_koebe():
    est, seq = phi_prime_one_diagnostic(KAlpha(2.0))
    assert est is not None and abs(est - 1.0 / 3.0) < 1e-3
    assert len(seq) == 3
    est, _ = phi_prime_one_diagnostic(parse_spec("identity"))
    assert est is None


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
    for bad, at in (("cop:p=abc", 6), ("coalpha:alpha=x", 14)):
        with pytest.raises(SpecParseError) as exc:
            parse_class(bad)
        assert exc.value.position == at


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

    monkeypatch.setattr(type(spec), "eval_jet", no_sampling)
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
    # an explicit a needs no a_p
    assert math.isfinite(margin_at(Kp(0.5), 0.3 + 0.1j, "thm4", p=0.0, a=0.0))


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
    for t, kw in scans:
        rep = scan(spec, t, SMALL, keep_samples=True, **kw)
        for z, m in rep.samples:
            assert margin_at(spec, z, t, **kw) == m


def _family_classes(cls=FamilySpec):
    for sub in cls.__subclasses__():
        yield sub
        yield from _family_classes(sub)


def test_classify_evaluates_each_sample_once(monkeypatch):
    calls = [0]

    def counted(fn):
        def eval_jet(self, z):
            calls[0] += 1
            return fn(self, z)
        return eval_jet

    for fam in _family_classes():
        if "eval_jet" in vars(fam):
            monkeypatch.setattr(fam, "eval_jet", counted(vars(fam)["eval_jet"]))
    points = 1 + len(SMALL.radii) * SMALL.angles
    # phi'(1) takes three evaluations, the phi3 radial limit at an origin
    # pole four, a_p one
    extra = {"co": 3, "coalpha": 0, "co0": 4, "cop": 1}
    for spec, cls in ROSTER:
        calls[0] = 0
        classify(spec, cls, SMALL)
        assert 0 < calls[0] <= points + extra[parse_class(cls).kind], (str(spec), cls)
