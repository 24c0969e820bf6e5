"""Inequality margins, disk-grid scanning, and class-membership verdicts.

A margin is the nonnegative slack of one characterization inequality at one
sample; the extremal families sit exactly on zero. Eight margin tokens are
scannable:

    thm1          2|A_f|^2 - |Sf|(1-|z|^2)^2 - 2                 (class Co)
    co_alpha_lhs  Re{(a+1)/2 (1+z)/(1-z) - 1 - zP}               (class Co(a))
    thm2          co_alpha_lhs - |P-(a+1)/(1-z)|^2 (1-|z|^2)/(2(a-1))
    reM           -Re{1 + zP + q}                                 (pole classes)
    co0           -Re{1+zP} - (1-|z|^4)|zP|^2 / 4                (class Co(0))
    thm3          2(2|phi3|+1)(1-|Phi|^2) - |Sf|(1-|z|^2)^2
    corollary     6 - |Sf|(1-|z|^2)^2
    thm4          -Re M - (1-t^2)(1+2at+t^2)/(4(1+at)^2) |zP+q|^2 (class Co(p))

with P = f''/f', t = |z|, q = q_term(p, z) and a = a_p_of(spec, p) unless
supplied. A grid scan can only certify "member-consistent", never membership;
verdicts say so.

Scans sample the origin first (it is the normalization point of every
theorem), then radius-major rings. For specs with the pole at the origin the
z=0 sample uses limit conventions: zP -> -2 exactly (the value is forced by
the simple pole, independent of the Laurent tail), Sf through the jet of 1/f,
and phi3 by radial limit. Samples inside epsilon of a pole are excluded and
counted, never interpolated.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

from .catalog import FamilySpec
from .errors import EmptyScanError, IndeterminateSampleError, NonFiniteJetError, \
    SampleExclusionError, SpecParseError
from .jets import DEGENERACY_FLOOR, schwarzian
from .operators import (
    OperatorPoint,
    a_f,
    a_p_of,
    co_alpha_lhs,
    m_operator,
    phi_of,
    q_term,
    schwarzian_norm,
    thm3_phi3_origin,
    thm3_phis,
)

THEOREMS = ("thm1", "thm2", "co0", "thm3", "corollary", "thm4",
            "co_alpha_lhs", "reM")

# First sample within this band of the minimum wins the argmin; the equality
# loci of the extremal families are flat to ~1e-15, so strict < would pick a
# noise-selected point.
_ARGMIN_TIE = 1e-12

VERDICT_OK = "member-consistent"
VERDICT_BAD = "violation"


@dataclass(frozen=True)
class GridConfig:
    radii: tuple[float, ...]
    angles: int
    epsilon: float = 0.05
    margin_tol: float = 1e-7

    def __post_init__(self):
        rs = tuple(float(r) for r in self.radii)
        if not rs or any(not (0.0 < r < 1.0) for r in rs):
            raise ValueError("radii must lie in (0, 1)")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.angles < 8:
            raise ValueError("need at least 8 angles")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "radii", rs)


def geometric_radii(count: int, lo: float = 0.05, hi: float = 0.995) -> tuple[float, ...]:
    if count < 1:
        raise ValueError("count must be positive")
    if count == 1:
        return (lo,)
    ratio = hi / lo
    return tuple(lo * ratio ** (k / (count - 1)) for k in range(count))


_PRESETS = {"fast": (12, 128), "default": (24, 256), "fine": (48, 1024)}


def default_grid(preset: str | None = None, *, epsilon: float = 0.05,
                 margin_tol: float = 1e-7) -> GridConfig:
    """Stock grid; preset defaults to the GFT_GRID_PRESET env var."""
    name = preset or os.environ.get("GFT_GRID_PRESET", "default")
    if name not in _PRESETS:
        raise ValueError(f"unknown grid preset {name!r}; choose from {sorted(_PRESETS)}")
    nr, na = _PRESETS[name]
    return GridConfig(geometric_radii(nr), na, epsilon, margin_tol)


# -- pointwise margins -------------------------------------------------------

def thm1_margin(pt: OperatorPoint) -> float:
    return 2.0 * abs(a_f(pt)) ** 2 - schwarzian_norm(pt) - 2.0


def thm2_margin(pt: OperatorPoint, alpha: float) -> float:
    lhs = co_alpha_lhs(pt, alpha)
    z = pt.z
    dev = pt.pre_schwarzian - (alpha + 1.0) / (1.0 - z)
    return lhs - abs(dev) ** 2 * (1.0 - abs(z) ** 2) / (2.0 * (alpha - 1.0))


def co0_margin(pt: OperatorPoint) -> float:
    zp = pt.z * pt.pre_schwarzian
    return -(1.0 + zp).real - 0.25 * (1.0 - abs(pt.z) ** 4) * abs(zp) ** 2


def thm3_margin(pt: OperatorPoint) -> float:
    phi3, big_phi = thm3_phis(pt)
    lead = 2.0 * (2.0 * abs(phi3) + 1.0)
    return lead * (1.0 - abs(big_phi) ** 2) - schwarzian_norm(pt)


def corollary_check(pt: OperatorPoint) -> float:
    return 6.0 - schwarzian_norm(pt)


def _thm4_weight(t: float, a: float) -> float:
    return (1.0 - t * t) * (1.0 + 2.0 * a * t + t * t) / (4.0 * (1.0 + a * t) ** 2)


def thm4_margin(pt: OperatorPoint, p: float, a: float) -> float:
    if a < 0.0:
        raise ValueError(f"a must be nonnegative, got {a!r}")
    z = pt.z
    zp_plus_q = z * pt.pre_schwarzian + q_term(p, z)
    m = 1.0 + zp_plus_q
    return -m.real - _thm4_weight(abs(z), a) * abs(zp_plus_q) ** 2


def re_m_margin(pt: OperatorPoint, p: float) -> float:
    return -m_operator(pt, p).real


# -- origin conventions for pole-at-origin specs ------------------------------

def _has_origin_pole(spec: FamilySpec) -> bool:
    return any(abs(q) < DEGENERACY_FLOOR for q in spec.poles)


def _origin_pole_margin(spec: FamilySpec, theorem: str,
                        alpha: float | None, p: float | None,
                        a: float | None) -> float:
    # z f''/f' -> -2 at a simple pole at 0, whatever the Laurent tail
    zp = -2.0 + 0j
    if theorem == "co0":
        return -(1.0 + zp).real - 0.25 * abs(zp) ** 2
    if theorem == "reM":
        return -(1.0 + zp + q_term(p, 0j)).real
    if theorem == "thm4":
        v = zp + q_term(p, 0j)
        return -(1.0 + v).real - _thm4_weight(0.0, a) * abs(v) ** 2
    if theorem == "corollary":
        return 6.0 - abs(schwarzian(spec.reciprocal_jet(0j)))
    if theorem == "thm3":
        phi3 = thm3_phi3_origin(spec)
        s = abs(schwarzian(spec.reciprocal_jet(0j)))
        return 2.0 * (2.0 * abs(phi3) + 1.0) - s
    raise IndeterminateSampleError(
        f"{theorem} needs f''/f' alone, which diverges at the pole at 0"
    )


def margin_at(spec: FamilySpec, z: complex, theorem: str, *,
              alpha: float | None = None, p: float | None = None,
              a: float | None = None) -> float:
    """One margin value; raises SampleExclusionError on unusable samples."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem token {theorem!r}")
    _check_params(theorem, alpha, p)
    if theorem == "thm4" and a is None:
        a = a_p_of(spec, p)
    z = complex(z)
    if z == 0 and _has_origin_pole(spec):
        return _origin_pole_margin(spec, theorem, alpha, p, a)
    pt = OperatorPoint.at(spec, z)
    if theorem == "thm1":
        return thm1_margin(pt)
    if theorem == "thm2":
        return thm2_margin(pt, alpha)
    if theorem == "co_alpha_lhs":
        return co_alpha_lhs(pt, alpha)
    if theorem == "co0":
        return co0_margin(pt)
    if theorem == "thm3":
        return thm3_margin(pt)
    if theorem == "corollary":
        return corollary_check(pt)
    if theorem == "thm4":
        return thm4_margin(pt, p, a)
    return re_m_margin(pt, p)


# -- scanning -----------------------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    theorem: str
    samples_used: int
    samples_excluded: int
    min_margin: float
    argmin_z: complex
    verdict: str
    samples: tuple[tuple[complex, float], ...] | None = None


def _grid_points(grid: GridConfig):
    """Origin first, then radius-major / angle-minor rings."""
    yield 0j
    step = 2.0 * math.pi / grid.angles
    for r in grid.radii:
        for j in range(grid.angles):
            yield r * cmath.exp(1j * (step * j))


def _near_exclusion(spec: FamilySpec, z: complex, eps: float) -> bool:
    for q in spec.poles:
        if abs(z - q) < eps:
            return True
    bp = spec.boundary_pole
    return bp is not None and abs(z - bp) < eps


def _check_params(theorem: str, alpha, p):
    if theorem in ("thm2", "co_alpha_lhs"):
        if alpha is None:
            raise ValueError(f"{theorem} needs alpha")
    if theorem in ("thm4", "reM"):
        if p is None:
            raise ValueError(f"{theorem} needs p")


def scan(spec: FamilySpec, theorem: str, grid: GridConfig | None = None, *,
         alpha: float | None = None, p: float | None = None,
         a: float | None = None, keep_samples: bool = False) -> MarginReport:
    """Evaluate one margin over the grid and reduce to a report.

    Samples within epsilon of a pole (or of z=1 for the boundary-pole
    families) are excluded up front; samples whose evaluation degenerates are
    excluded as they fail. The origin is always attempted: it is the
    normalization point, and the pole-at-origin families get their limit
    conventions there rather than an exclusion.
    """
    if grid is None:
        grid = default_grid()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem token {theorem!r}")
    _check_params(theorem, alpha, p)
    if theorem == "thm4" and a is None:
        a = a_p_of(spec, p)

    rows: list[tuple[complex, float]] = []
    excluded = 0
    for z in _grid_points(grid):
        if z != 0 and _near_exclusion(spec, z, grid.epsilon):
            excluded += 1
            continue
        try:
            m = margin_at(spec, z, theorem, alpha=alpha, p=p, a=a)
        except (SampleExclusionError, NonFiniteJetError):
            excluded += 1
            continue
        rows.append((z, m))
    if not rows:
        raise EmptyScanError(f"every sample of the {theorem} scan was excluded")

    min_margin = min(m for _, m in rows)
    argmin = next(z for z, m in rows if m <= min_margin + _ARGMIN_TIE)
    verdict = VERDICT_OK if min_margin >= -grid.margin_tol else VERDICT_BAD
    return MarginReport(
        theorem=theorem,
        samples_used=len(rows),
        samples_excluded=excluded,
        min_margin=min_margin,
        argmin_z=argmin,
        verdict=verdict,
        samples=tuple(rows) if keep_samples else None,
    )


def estimate_order(spec: FamilySpec, grid: GridConfig | None = None) -> tuple[float, float]:
    """Grid inf and sup of |A_f|; inf = 1 marks concavity, sup the order."""
    if grid is None:
        grid = default_grid()
    lo, hi = math.inf, -math.inf
    for z in _grid_points(grid):
        if z != 0 and _near_exclusion(spec, z, grid.epsilon):
            continue
        try:
            v = abs(a_f(OperatorPoint.at(spec, z)))
        except (SampleExclusionError, NonFiniteJetError):
            continue
        lo = min(lo, v)
        hi = max(hi, v)
    if lo is math.inf:
        raise EmptyScanError("every sample of the order estimate was excluded")
    return lo, hi


_PHI1_RADII = (0.99, 0.999, 0.9999)
_PHI1_BAND = (-0.05, 1.0 / 3.0 + 0.05)


def phi_prime_one_diagnostic(spec: FamilySpec) -> tuple[float | None, tuple[float, ...]]:
    """Richardson estimate of phi'(1) from (1-phi(r))/(1-r) at three radii.

    Soft diagnostic only: the admissible band [0, 1/3] is a boundary statement
    the interior cannot certify, so callers warn on it, never fail.
    """
    ds = []
    for r in _PHI1_RADII:
        try:
            val = phi_of(OperatorPoint.at(spec, complex(r)))
        except (SampleExclusionError, NonFiniteJetError):
            return None, tuple(ds)
        ds.append(((1.0 - val) / (1.0 - r)).real)
    est = (10.0 * ds[2] - ds[1]) / 9.0
    return est, tuple(ds)


# -- classification ------------------------------------------------------------

@dataclass(frozen=True)
class MappingClass:
    kind: str  # co | coalpha | co0 | cop
    alpha: float | None = None
    p: float | None = None

    def token(self) -> str:
        if self.kind == "coalpha":
            return f"coalpha:alpha={self.alpha!r}"
        if self.kind == "cop":
            return f"cop:p={self.p!r}"
        return self.kind


def parse_class(text: str) -> MappingClass:
    s = text.strip()
    head, _, tail = s.partition(":")
    name = head.strip().lower()
    if name == "co" and not tail:
        return MappingClass("co")
    if name == "co0" and not tail:
        return MappingClass("co0")
    if name == "coalpha":
        alpha = _class_parameter(name, head, tail, "alpha")
        if not (1.0 < alpha <= 2.0):
            raise SpecParseError(f"alpha out of (1, 2]: {alpha!r}", len(head) + 1)
        return MappingClass("coalpha", alpha=alpha)
    if name == "cop":
        p = _class_parameter(name, head, tail, "p")
        if not (0.0 <= p < 1.0):
            raise SpecParseError(f"p out of [0, 1): {p!r}", len(head) + 1)
        return MappingClass("cop", p=p)
    raise SpecParseError(f"unknown class {head.strip()!r}", 0)


def _class_parameter(name: str, head: str, tail: str, key: str) -> float:
    """The real value of `<key>=<r>` in a class token's tail."""
    got, _, val = tail.partition("=")
    if got.strip() != key or not val:
        raise SpecParseError(f"{name} needs {key}=<r>", len(head) + 1)
    try:
        return float(val)
    except ValueError:
        raise SpecParseError(f"malformed real literal {val!r}",
                             len(head) + 1 + len(got) + 1) from None


_ORDER_TOL = 1e-6

CLASS_VERDICT_OK = "consistent"
CLASS_VERDICT_BAD = "violation"


@dataclass(frozen=True)
class ClassifyResult:
    class_token: str
    verdict: str
    reports: tuple[MarginReport, ...]
    order: tuple[float, float] | None = None
    order_ok: bool | None = None
    phi1_estimate: float | None = None
    phi1_warning: bool = False


def classify(spec: FamilySpec, cls: MappingClass | str,
             grid: GridConfig | None = None) -> ClassifyResult:
    """Run every margin scan the class prescribes and combine the verdicts.

    Co runs thm1 plus the order test inf|A_f| >= 1; Co(alpha) runs the lhs
    positivity and thm2; Co(0) runs reM(0), co0, thm3 and the corollary;
    Co(p) runs reM(p) and thm4. phi'(1) is attached for Co as a warning-only
    diagnostic.
    """
    if isinstance(cls, str):
        cls = parse_class(cls)
    if grid is None:
        grid = default_grid()

    reports: list[MarginReport] = []
    order = order_ok = None
    phi1_est, phi1_warn = None, False

    if cls.kind == "co":
        reports.append(scan(spec, "thm1", grid))
        order = estimate_order(spec, grid)
        order_ok = order[0] >= 1.0 - _ORDER_TOL
        phi1_est, _ = phi_prime_one_diagnostic(spec)
        phi1_warn = phi1_est is not None and not (
            _PHI1_BAND[0] <= phi1_est <= _PHI1_BAND[1])
    elif cls.kind == "coalpha":
        reports.append(scan(spec, "co_alpha_lhs", grid, alpha=cls.alpha))
        reports.append(scan(spec, "thm2", grid, alpha=cls.alpha))
    elif cls.kind == "co0":
        reports.append(scan(spec, "reM", grid, p=0.0))
        reports.append(scan(spec, "co0", grid))
        reports.append(scan(spec, "thm3", grid))
        reports.append(scan(spec, "corollary", grid))
    elif cls.kind == "cop":
        reports.append(scan(spec, "reM", grid, p=cls.p))
        reports.append(scan(spec, "thm4", grid, p=cls.p))
    else:
        raise ValueError(f"unknown class kind {cls.kind!r}")

    ok = all(r.verdict == VERDICT_OK for r in reports)
    if order_ok is False:
        ok = False
    return ClassifyResult(
        class_token=cls.token(),
        verdict=CLASS_VERDICT_OK if ok else CLASS_VERDICT_BAD,
        reports=tuple(reports),
        order=order,
        order_ok=order_ok,
        phi1_estimate=phi1_est,
        phi1_warning=phi1_warn,
    )
