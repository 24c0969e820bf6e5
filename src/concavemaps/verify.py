"""Acceptance suite: twelve named criteria with deterministic reports.

Each criterion checks one falsifiable claim about the built artifact, from
exact equality fixtures at extremal maps through the oracle/classifier
agreement sweep. Results carry a short deterministic detail string; the
bundle serializer is shared by the CLI verify subcommand and the test suite,
and the last criterion re-runs the first eleven to confirm the serialized
bundle is byte-identical.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass

from .catalog import (AngleMap, Co0Cubic, FamilySpec, HalfPlane, KAlpha, Kp,
                      Laurent, format_spec, omitted_segment, parse_spec)
from .errors import _each
from .jets import Jet3, schwarzian
from .margins import (CLASS_VERDICT_OK, VERDICT_OK, GridConfig, classify,
                      default_grid, estimate_order, margin_at, scan, sweep)
from .operators import _phi, _phis, _varphi
from .oracle import (ORACLE_OK, boundary_curve, equality_scan, oracle_concave,
                     real_axis_crossings)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _res(name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name, bool(passed), detail)


# Shared rosters. Members pair each spec with the class it is checked
# against; controls are known non-members that every lane must reject.

def member_roster() -> list[tuple[FamilySpec, str]]:
    return [
        (HalfPlane(), "co"),
        (KAlpha(2.0), "co"),
        (KAlpha(1.5), "coalpha:alpha=1.5"),
        (AngleMap(-0.5 + 0j), "co"),
        (AngleMap(0.9j), "co"),
        (Kp(0.2), "cop:p=0.2"),
        (Kp(0.5), "cop:p=0.5"),
        (Kp(0.8), "cop:p=0.8"),
        (Co0Cubic(0j), "co0"),
        (Co0Cubic(0.3 + 0.2j), "co0"),
        (Laurent(0.0, 1.0 + 0j, ()), "co0"),
    ]


def control_roster() -> list[tuple[FamilySpec, str]]:
    dilated_halfplane = Laurent(
        None, 0j, (0j,) + tuple(complex(0.75 ** (k - 1)) for k in range(1, 17)))
    dilated_koebe = Laurent(
        None, 0j, (0j,) + tuple(complex(k * 0.5 ** (k - 1)) for k in range(1, 17)))
    return [
        (parse_spec("identity"), "co"),
        (Laurent(None, 0j, (0j, 1.0 + 0j, 0.3 + 0j)), "co"),
        (Laurent(0.0, 1.0 + 0j, (0j, 0j, 2.0 + 0j)), "co0"),
        (dilated_halfplane, "co"),
        (dilated_koebe, "co"),
    ]


# -- criteria -----------------------------------------------------------------

def _c01(grid: GridConfig) -> CriterionResult:
    rep = scan(HalfPlane(), "thm1", grid)
    lo, hi = estimate_order(HalfPlane(), grid)
    ok = (abs(rep.min_margin) <= 1e-9 and abs(lo - 1.0) <= 1e-9
          and abs(hi - 1.0) <= 1e-9)
    return _res("thm1-equality-halfplane", ok,
                f"min_margin={rep.min_margin!r} order=({lo!r}, {hi!r})")


def _c02(grid: GridConfig) -> CriterionResult:
    rep = scan(parse_spec("identity"), "thm1", grid)
    ok = (abs(rep.min_margin + 2.0) <= 1e-12 and rep.argmin_z == 0j
          and rep.verdict != VERDICT_OK)
    return _res("thm1-rejects-identity", ok,
                f"min_margin={rep.min_margin!r} argmin={rep.argmin_z!r} "
                f"verdict={rep.verdict}")


def _c03(grid: GridConfig) -> CriterionResult:
    spec = Co0Cubic(0j)  # 1/z + z
    sn = abs(schwarzian(spec.reciprocal_jet(0j)))
    rep = scan(spec, "corollary", grid)
    ok = (abs(sn - 6.0) <= 1e-9 and abs(rep.min_margin) <= 1e-12
          and rep.argmin_z == 0j)
    return _res("corollary-sharp-cubic", ok,
                f"|Sf|(0)={sn!r} min_margin={rep.min_margin!r} "
                f"argmin={rep.argmin_z!r}")


def _c04(grid: GridConfig) -> CriterionResult:
    spec = Co0Cubic(0j)
    m_half = margin_at(spec, 0.5, "co0")
    rep = scan(spec, "co0", grid, keep_samples=True)
    assert rep.samples is not None
    eq = set(equality_scan(spec, "co0", grid))
    real_axis = [z for z, _ in rep.samples if abs(z.imag) <= 1e-9]
    missing = [z for z in real_axis if z not in eq]
    ok = abs(m_half) <= 1e-10 and len(real_axis) > 0 and not missing
    return _res("co0-equality-locus", ok,
                f"margin(0.5)={m_half!r} real_axis={len(real_axis)} "
                f"missing={len(missing)}")


def _c05(grid: GridConfig) -> CriterionResult:
    spec = Co0Cubic(0j)
    m1 = margin_at(spec, 0.5, "thm3")
    m2 = margin_at(spec, 0.5j, "thm3")
    ok = abs(m1) <= 1e-9 and abs(m2) <= 1e-9
    return _res("thm3-equality-cubic", ok,
                f"margin(0.5)={m1!r} margin(0.5i)={m2!r}")


def _c06(grid: GridConfig) -> CriterionResult:
    worst_origin = 0.0
    worst_min = 0.0
    for alpha in (1.25, 1.5, 1.75, 2.0):
        spec = KAlpha(alpha)
        m0 = margin_at(spec, 0j, "thm2", alpha=alpha)
        rep = scan(spec, "thm2", grid, alpha=alpha)
        worst_origin = max(worst_origin, abs(m0))
        worst_min = min(worst_min, rep.min_margin)
    ok = worst_origin <= 1e-10 and worst_min >= -1e-7
    return _res("thm2-origin-equality", ok,
                f"max|margin(0)|={worst_origin!r} worst_min={worst_min!r}")


def _c07(grid: GridConfig) -> CriterionResult:
    worst_origin = 0.0
    verdicts_ok = True
    for p in (0.2, 0.5, 0.8):
        spec = Kp(p)
        rep = scan(spec, "thm4", grid, p=p)
        verdicts_ok = verdicts_ok and rep.verdict == VERDICT_OK
        worst_origin = max(worst_origin, abs(margin_at(spec, 0j, "thm4", p=p)))
    # p=0 reduction: with a=0 the thm4 margin must reproduce co0 pointwise
    rng = random.Random(20260819)
    spec0 = Co0Cubic(0j)
    worst_diff = 0.0
    for _ in range(10_000):
        r = 0.05 + 0.90 * rng.random()
        z = r * cmath.exp(2j * cmath.pi * rng.random())
        d = abs(margin_at(spec0, z, "thm4", p=0.0, a=0.0)
                - margin_at(spec0, z, "co0"))
        worst_diff = max(worst_diff, d)
    ok = verdicts_ok and worst_origin <= 1e-9 and worst_diff <= 1e-12
    return _res("thm4-scans-and-p0-reduction", ok,
                f"scans_ok={verdicts_ok} max|margin(0)|={worst_origin!r} "
                f"max|thm4-co0|={worst_diff!r}")


def _c08(grid: GridConfig) -> CriterionResult:
    curve = boundary_curve(Kp(0.5), 0.9999, 4096)
    xs = real_axis_crossings(curve)
    left, right = omitted_segment(0.5)
    ok = (len(xs) >= 2 and abs(xs[0] - left) <= 1e-3
          and abs(xs[-1] - right) <= 1e-3)
    return _res("omitted-segment-crossings", ok,
                f"crossings={len(xs)} ends=({xs[0]!r}, {xs[-1]!r}) "
                f"segment=({left!r}, {right!r})")


def _c09(grid: GridConfig) -> CriterionResult:
    fast = default_grid("fast")
    bad: list[str] = []
    for spec, cls in member_roster():
        formula = classify(spec, cls, fast).verdict == CLASS_VERDICT_OK
        shape = oracle_concave(spec) == ORACLE_OK
        if not (formula and shape):
            bad.append(f"{format_spec(spec)}:{int(formula)}{int(shape)}")
    for spec, cls in control_roster():
        formula = classify(spec, cls, fast).verdict == CLASS_VERDICT_OK
        shape = oracle_concave(spec) == ORACLE_OK
        if formula or shape:
            bad.append(f"{format_spec(spec)}:{int(formula)}{int(shape)}")
    ok = not bad
    detail = "members+controls all agree" if ok else "disagree: " + " ".join(bad)
    return _res("oracle-classifier-agreement", ok, detail)


# Criterion 10 support: an independent derivative route per family. Where
# the catalog evaluates a closed form, the second route drives the jet
# arithmetic from the defining expression; where the catalog uses jets, the
# second route is hand-differentiated scalar code.

def _hand_kalpha(spec: KAlpha, z: complex):
    al = spec.alpha
    u = (1.0 + z) / (1.0 - z)
    iw = 1.0 / (1.0 - z)

    def pw(beta: float) -> complex:
        return cmath.exp(beta * cmath.log(u))

    f = (pw(al) - 1.0) / (2.0 * al)
    f1 = pw(al - 1.0) * iw ** 2
    f2 = 2.0 * (al - 1.0) * pw(al - 2.0) * iw ** 4 + 2.0 * pw(al - 1.0) * iw ** 3
    f3 = (4.0 * (al - 1.0) * (al - 2.0) * pw(al - 3.0) * iw ** 6
          + 12.0 * (al - 1.0) * pw(al - 2.0) * iw ** 5
          + 6.0 * pw(al - 1.0) * iw ** 4)
    return f, f1, f2, f3


def _hand_anglemap(spec: AngleMap, z: complex):
    lam, e = spec.lam, 1.0 + spec.b
    c0 = spec.A * cmath.exp(e * cmath.log(lam))
    s = (z - lam) / (lam * (z - 1.0))
    s1 = (lam - 1.0) / (lam * (z - 1.0) ** 2)
    s2 = -2.0 * (lam - 1.0) / (lam * (z - 1.0) ** 3)
    s3 = 6.0 * (lam - 1.0) / (lam * (z - 1.0) ** 4)

    def pw(beta: float) -> complex:
        return cmath.exp(beta * cmath.log(s))

    f = c0 * pw(e) + spec.B
    f1 = c0 * e * pw(e - 1.0) * s1
    f2 = c0 * e * ((e - 1.0) * pw(e - 2.0) * s1 ** 2 + pw(e - 1.0) * s2)
    f3 = c0 * e * ((e - 1.0) * (e - 2.0) * pw(e - 3.0) * s1 ** 3
                   + 3.0 * (e - 1.0) * pw(e - 2.0) * s1 * s2
                   + pw(e - 1.0) * s3)
    return f, f1, f2, f3


def _second_route(spec: FamilySpec, z: complex):
    zj = Jet3.variable(z)
    if isinstance(spec, HalfPlane):
        j = (zj / (1.0 - zj)).checked()  # jet arithmetic against the closed form
        return j.v0, j.v1, j.v2, j.v3
    if isinstance(spec, KAlpha):
        return _hand_kalpha(spec, z)
    if isinstance(spec, AngleMap):
        return _hand_anglemap(spec, z)
    if isinstance(spec, Kp):
        c = spec.p + 1.0 / spec.p
        j = (zj / (1.0 - c * zj + zj * zj)).checked()
        return j.v0, j.v1, j.v2, j.v3
    if isinstance(spec, Co0Cubic):
        j = (zj.reciprocal() + spec.a0 + zj).checked()
        return j.v0, j.v1, j.v2, j.v3
    if isinstance(spec, Laurent):
        if spec.pole is None:
            # fixed control z + 0.3 z^2
            return (z + 0.3 * z * z, 1.0 + 0.6 * z, 0.6 + 0j, 0j)
        v = z - spec.pole
        res = spec.residue
        b0, _, b2 = spec.coeffs
        return (res / v + b0 + b2 * v * v, -res / v ** 2 + 2.0 * b2 * v,
                2.0 * res / v ** 3 + 2.0 * b2, -6.0 * res / v ** 4)
    raise AssertionError(f"no second route for {type(spec).__name__}")


def _c10(grid: GridConfig) -> CriterionResult:
    rng = random.Random(99173)
    cases: list[tuple[FamilySpec, float]] = [
        (HalfPlane(), 0.0),
        (KAlpha(2.0), 0.0),
        (KAlpha(1.5), 0.0),
        (AngleMap(-0.5 + 0j), 0.0),
        (Kp(0.5), 0.5),
        (Co0Cubic(0.3 + 0.2j), 0.0),
        (Laurent(None, 0j, (0j, 1.0 + 0j, 0.3 + 0j)), 0.0),
        (Laurent(0.3, 1.0 + 0.5j, (0.2 + 0j, 0j, 0.1j)), 0.3),
    ]
    worst = 0.0
    for spec, avoid in cases:
        done = 0
        while done < 100:
            r = 0.1 + 0.7 * rng.random()
            z = r * cmath.exp(2j * cmath.pi * rng.random())
            if avoid and abs(z - avoid) < 0.15:
                continue
            done += 1
            j = spec.eval_jet(z)
            for got, want in zip((j.v0, j.v1, j.v2, j.v3), _second_route(spec, z)):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    jets_ok = worst < 1e-12

    # Schwarzian invariance under random Mobius post-composition
    worst_s = 0.0
    done = 0
    while done < 50:
        z = 0.6 * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
        ma, mb, mc, md = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(4))
        if abs(ma * md - mb * mc) < 0.3:
            continue
        j = KAlpha(2.0).eval_jet(z)
        if abs(mc * j.v0 + md) < 0.3:
            continue
        done += 1
        g = (ma * j + mb) / (mc * j + md)
        worst_s = max(worst_s, abs(schwarzian(g) - schwarzian(j)))
    cocycle_ok = worst_s <= 1e-9
    return _res("jets-match-closed-forms", jets_ok and cocycle_ok,
                f"max_rel_err={worst!r} max_cocycle_err={worst_s!r}")


def _grid_max(spec: FamilySpec, grid: GridConfig, value) -> float:
    """The largest value(z, f''/f', f', f'') over the grid samples where it
    is defined."""
    def column(ring):
        return _each(value, ring.z, ring.pre, ring.v1, ring.v2)
    _, (col,) = sweep(spec, grid, ((column, None),))
    return max([0.0] + [v for v in col if v is not None])


def _c11(grid: GridConfig) -> CriterionResult:
    boundary_members = [HalfPlane(), KAlpha(2.0), KAlpha(1.5),
                        AngleMap(-0.5 + 0j), AngleMap(0.9j)]
    max_phi = max(_grid_max(spec, grid,
                            lambda z, pre, v1, v2: abs(_phi(z, v1, v2)))
                  for spec in boundary_members)
    max_varphi = max(_grid_max(Kp(p), grid,
                               lambda z, pre, v1, v2, p=p: abs(_varphi(z, pre, p)))
                     for p in (0.2, 0.5, 0.8))
    max_big_phi = max(_grid_max(spec, grid,
                                lambda z, pre, v1, v2: abs(_phis(z, v1, v2)[1]))
                      for spec in (Co0Cubic(0j), Co0Cubic(0.3 + 0.2j),
                                   Laurent(0.0, 1.0 + 0j, ())))
    ok = (max_phi <= 1.0 + 1e-9 and max_varphi <= 1.0 + 1e-9
          and 0.0 < max_big_phi < 1.0)
    return _res("schwarz-self-map-bounds", ok,
                f"max|phi|={max_phi!r} max|varphi_p|={max_varphi!r} "
                f"max|Phi|={max_big_phi!r}")


_CORE = (_c01, _c02, _c03, _c04, _c05, _c06, _c07, _c08, _c09, _c10, _c11)


def run_core() -> list[CriterionResult]:
    """Criteria 1 through 11 on the stock grids: "default" for all but
    criterion 9, which runs "fast"."""
    grid = default_grid("default")
    return [fn(grid) for fn in _CORE]


def bundle_text(results: list[CriterionResult]) -> str:
    payload = {
        "suite": "concavemaps-acceptance",
        "passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_all() -> tuple[list[CriterionResult], str]:
    """All twelve criteria; the twelfth compares two full core runs byte for
    byte. Returns the results plus the serialized bundle."""
    first = run_core()
    second = run_core()
    t1, t2 = bundle_text(first), bundle_text(second)
    c12 = _res("byte-identical-reports", t1 == t2,
               f"two runs serialized to {len(t1)} bytes, identical={t1 == t2}")
    results = first + [c12]
    return results, bundle_text(results)
