"""Acceptance suite: twelve named criteria with deterministic reports.

Each criterion checks one falsifiable claim about the built artifact, from
exact equality fixtures at extremal maps through the oracle/classifier
agreement sweep. Results carry a short deterministic detail string; the
bundle serializer is shared by the CLI verify subcommand and the test suite,
and the last criterion re-runs the first eleven to confirm the serialized
bundle is byte-identical.

Criterion 10 checks the jets against `_contour_jet`, which reads `values`
alone: the trapezoid rule for Cauchy's integral at N = 96 nodes on the
circle of radius rho = R/2 about z, where R >= 0.1 is the distance to the
unit circle or the nearest pole (Lyness & Moler, SIAM J. Numer. Anal. 4,
1967; Bornemann, Found. Comput. Math. 11, 2011). Truncation falls like
2^-96; rounding, about k! 2^-52 max|f| / rho^k in f^(k), dominates.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

from .catalog import (AngleMap, Co0Cubic, FamilySpec, HalfPlane, KAlpha, Kp,
                      Laurent, _units, format_spec, omitted_segment,
                      parse_spec)
from .errors import SampleExclusionError
from .jets import Jet3, schwarzian
from .margins import (CLASS_VERDICT_OK, VERDICT_OK, GridConfig, classify,
                      default_grid, estimate_order, margin_at, scan, sweep)
from .operators import _phi, _phis, _varphi
from .oracle import (ORACLE_OK, boundary_curve, oracle_concave,
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
    # |Sf|(0) by the jet of 1/f, not the closed form -6 b1/res scans read
    zj = Jet3.variable(0j)
    sn = abs(schwarzian((zj / (1.0 + 0j * zj + zj * zj)).checked()))
    rep = scan(spec, "corollary", grid)
    ok = (abs(sn - 6.0) <= 1e-9 and abs(rep.min_margin) <= 1e-12
          and rep.argmin_z == 0j)
    return _res("corollary-sharp-cubic", ok,
                f"|Sf|(0)={sn!r} min_margin={rep.min_margin!r} "
                f"argmin={rep.argmin_z!r}")


def _c04(grid: GridConfig) -> CriterionResult:
    spec = Co0Cubic(0j)
    m_half = margin_at(spec, 0.5, "co0")
    # the margins at the real-axis samples, which must vanish to 1e-6
    real_axis: list[float] = []
    scan(spec, "co0", grid, sink=lambda zs, ms: real_axis.extend(
        m for z, m in zip(zs, ms) if abs(z.imag) <= 1e-9))
    missing = [m for m in real_axis if not abs(m) < 1e-6]
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
    ends = f" ends=({xs[0]!r}, {xs[-1]!r})" if xs else ""
    return _res("omitted-segment-crossings", ok,
                f"crossings={len(xs)}{ends} segment=({left!r}, {right!r})")


def _c09(grid: GridConfig) -> CriterionResult:
    fast = default_grid("fast")
    bad: list[str] = []
    for roster, member in ((member_roster(), True), (control_roster(), False)):
        for spec, cls in roster:
            formula = classify(spec, cls, fast).verdict == CLASS_VERDICT_OK
            shape = oracle_concave(spec) == ORACLE_OK
            if formula != member or shape != member:
                bad.append(f"{format_spec(spec)}:{int(formula)}{int(shape)}")
    ok = not bad
    detail = "members+controls all agree" if ok else "disagree: " + " ".join(bad)
    return _res("oracle-classifier-agreement", ok, detail)


def _contour_jet(spec: FamilySpec, z: complex) -> tuple[complex, ...]:
    """(f, f', f'', f''') at z, f^(k) = k!/(N rho^k) sum f(z + rho e) conj(e)^k
    over e in `_units(N)`; ValueError where R < 0.1, before sampling."""
    R = min((1.0 - abs(z), *(abs(z - q) for q in spec.poles)))
    if not R >= 0.1:
        raise ValueError(f"no contour route at z={z!r}: R={R!r} is below 0.1")
    rho, es = R / 2.0, _units(96)
    fs = spec.values([z + rho * e for e in es])
    for f in fs:
        if isinstance(f, SampleExclusionError):
            raise f
    jet = []
    for k in range(4):
        ws = [f * e.conjugate() ** k for f, e in zip(fs, es)]
        total = complex(math.fsum(w.real for w in ws),
                        math.fsum(w.imag for w in ws))
        jet.append(total * (math.factorial(k) / (len(es) * rho ** k)))
    return tuple(jet)


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
    # each jet against _contour_jet; the draws keep R >= 0.1 for the route
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
            for got, want in zip((j.v0, j.v1, j.v2, j.v3), _contour_jet(spec, z)):
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


def _grid_max(spec: FamilySpec, grid: GridConfig, operator, *args) -> float:
    """The largest |operator| over the grid samples where it is defined;
    operator is one of the ring forms of `operators`."""
    def column(ring):
        col = ring.copy()
        return col, list(map(abs, operator(col, *args)))
    _, (tally,) = sweep(spec, grid, ((column, None),))
    return max(tally.hi, 0.0)


def _c11(grid: GridConfig) -> CriterionResult:
    boundary_members = [HalfPlane(), KAlpha(2.0), KAlpha(1.5),
                        AngleMap(-0.5 + 0j), AngleMap(0.9j)]
    max_phi = max(_grid_max(spec, grid, _phi) for spec in boundary_members)
    max_varphi = max(_grid_max(Kp(p), grid, _varphi, p) for p in (0.2, 0.5, 0.8))
    max_big_phi = max(_grid_max(spec, grid, lambda col: _phis(col)[1])
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
