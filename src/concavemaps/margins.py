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

A table maps each token to its column, the class parameter it reads and
its rule at a pole at the origin. A column is the token's margin over the
columns of one ring of samples (z, f''/f', the jet fields and z f''/f'): it
checks the parameters once, then loops a scalar formula over the operators
of `operators`, each written once, and keeps a sample's exclusion error in
that sample's place. One sweep samples the grid, origin first (it is the
normalization point of every theorem), then radius-major rings. For each
ring it applies `FamilySpec.near_pole`, calls the family's column kernel
`eval_jets` once, applies OperatorPoint's |f'| floor and runs every margin
its caller asked for once: `classify` sweeps once for all the scans of a
class. margin_at is the same path for one sample.

For specs with the pole at the origin the z=0 sample uses limit conventions:
zP -> -2 exactly (the value is forced by the simple pole, independent of the
Laurent tail), Sf through the jet of 1/f, and phi3 by radial limit; tokens
without such a rule find it indeterminate. Samples inside epsilon of a pole
(`FamilySpec.near_pole`) are excluded and counted, never interpolated.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

from .catalog import EXCLUSION_RADIUS, FamilySpec, format_spec, require_epsilon
from .errors import (EmptyScanError, IndeterminateSampleError,
                     SampleExclusionError, SpecParseError, _each, _only)
from .jets import DEGENERACY_FLOOR, schwarzian
from .operators import (OperatorPoint, _a_f, _check_alpha, _check_p,
                        _co_alpha, _critical, _phis, _q, _sf_norm, a_p_of,
                        phi_of, thm3_phi3_origin)

# First sample within this band of the minimum wins the argmin; the equality
# loci of the extremal families are flat to ~1e-15, so strict < would pick a
# noise-selected point.
_ARGMIN_TIE = 1e-12

VERDICT_OK = "member-consistent"
VERDICT_BAD = "violation"

# Most samples one grid (or one oracle curve) may hold, 64 times the
# 16384-angle curves the benchmark draws; larger requests are refused before
# anything is allocated.
MAX_SAMPLES = 2 ** 20
_MIN_ANGLES = 8
# innermost and outermost ring of geometric_radii
_RADIUS_LO = 0.05
_RADIUS_HI = 0.995


@dataclass(frozen=True)
class GridConfig:
    radii: tuple[float, ...]
    angles: int
    epsilon: float = EXCLUSION_RADIUS
    margin_tol: float = 1e-7

    def __post_init__(self):
        rs = tuple(float(r) for r in self.radii)
        if not rs or any(not (0.0 < r < 1.0) for r in rs):
            raise ValueError("radii must lie in (0, 1)")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.angles < _MIN_ANGLES:
            raise ValueError(f"need at least {_MIN_ANGLES} angles")
        if 1 + len(rs) * self.angles > MAX_SAMPLES:
            raise ValueError(f"a grid holds at most {MAX_SAMPLES} samples")
        require_epsilon(self.epsilon)
        if not (0.0 <= self.margin_tol < math.inf):
            raise ValueError("margin_tol must be finite and nonnegative")
        object.__setattr__(self, "radii", rs)


def geometric_radii(count: int) -> tuple[float, ...]:
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_SAMPLES // _MIN_ANGLES:
        # no grid of at most MAX_SAMPLES samples has more rings than this
        raise ValueError(f"at most {MAX_SAMPLES // _MIN_ANGLES} radii")
    if count == 1:
        return (_RADIUS_LO,)
    ratio = _RADIUS_HI / _RADIUS_LO
    return tuple(_RADIUS_LO * ratio ** (k / (count - 1)) for k in range(count))


_PRESETS = {"fast": (12, 128), "default": (24, 256)}


def default_grid(preset: str = "default") -> GridConfig:
    """A stock grid: "default" is 24 geometric radii by 256 angles, "fast"
    12 by 128; both take GridConfig's epsilon and margin_tol. Any other grid
    is built as a GridConfig."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown grid preset {preset!r}; choose from {sorted(_PRESETS)}")
    nr, na = _PRESETS[preset]
    return GridConfig(geometric_radii(nr), na)


# -- the margins at one sample, over the scalar operators ---------------------

def _thm1(z: complex, pre: complex, v1: complex, v3: complex) -> float:
    return 2.0 * abs(_a_f(z, pre)) ** 2 - _sf_norm(z, pre, v1, v3) - 2.0


def _thm2(z: complex, pre: complex, alpha: float) -> float:
    lhs = _co_alpha(z, pre, alpha)
    dev = pre - (alpha + 1.0) / (1.0 - z)
    return lhs - abs(dev) ** 2 * (1.0 - abs(z) ** 2) / (2.0 * (alpha - 1.0))


def _thm3(z: complex, pre: complex, v1: complex, v2: complex,
          v3: complex) -> float:
    phi3, big_phi = _phis(z, v1, v2)
    lead = 2.0 * (2.0 * abs(phi3) + 1.0)
    return lead * (1.0 - abs(big_phi) ** 2) - _sf_norm(z, pre, v1, v3)


def _corollary(z: complex, pre: complex, v1: complex, v3: complex) -> float:
    return 6.0 - _sf_norm(z, pre, v1, v3)


# co0, thm4 and reM read f''/f' only through zp = z f''/f'

def _co0(z: complex, zp: complex) -> float:
    return -(1.0 + zp).real - 0.25 * (1.0 - abs(z) ** 4) * abs(zp) ** 2


def _thm4_weight(t: float, a: float) -> float:
    return (1.0 - t * t) * (1.0 + 2.0 * a * t + t * t) / (4.0 * (1.0 + a * t) ** 2)


def _thm4(z: complex, zp: complex, p: float, a: float) -> float:
    zp_plus_q = zp + _q(p, z)
    m = 1.0 + zp_plus_q
    return -m.real - _thm4_weight(abs(z), a) * abs(zp_plus_q) ** 2


def _re_m(z: complex, zp: complex, p: float) -> float:
    return -(1.0 + zp + _q(p, z)).real


# the parameter checks of the tokens, each giving the checked values

def _alpha_param(alpha: float) -> tuple[float]:
    return (_check_alpha(alpha),)


def _p_param(p: float) -> tuple[float]:
    return (_check_p(p),)


def _thm4_params(p: float, a: float) -> tuple[float, float]:
    if a < 0.0:
        raise ValueError(f"a must be nonnegative, got {a!r}")
    return _check_p(p), a


# -- the ring: one call per family and per margin ---------------------------------

class _Ring:
    """The usable samples of one ring as columns: z, pre = f''/f', the jet
    fields v1, v2, v3 and zp = z f''/f'."""

    __slots__ = ("z", "pre", "v1", "v2", "v3", "zp")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])


def _ring(spec: FamilySpec, zs: list[complex],
          epsilon: float | None) -> tuple[_Ring, list]:
    """The samples zs through near_pole (unless epsilon is None), the
    family's column kernel and the |f'| floor of OperatorPoint.

    Returns the usable samples as a _Ring and, per sample of zs, its row in
    the ring, None near a pole, or the SampleExclusionError that excluded it.
    """
    if epsilon is None:
        far = [True] * len(zs)
    else:
        near = spec.near_pole
        far = [not near(z, epsilon) for z in zs]
    kept = [z for z, ok in zip(zs, far) if ok]
    jets = iter(zip(kept, spec.eval_jets(kept)))
    ring, slots = _Ring(), []
    for ok in far:
        if not ok:
            slots.append(None)
            continue
        z, jet = next(jets)
        if isinstance(jet, SampleExclusionError):
            slots.append(jet)
            continue
        _, v1, v2, v3 = jet
        if abs(v1) < DEGENERACY_FLOOR:
            slots.append(_critical(z))
            continue
        slots.append(len(ring.z))
        pre = v2 / v1
        ring.z.append(z)
        ring.pre.append(pre)
        ring.v1.append(v1)
        ring.v2.append(v2)
        ring.v3.append(v3)
        ring.zp.append(z * pre)
    return ring, slots


def _over(fn, *fields: str, check=lambda: ()):
    """A token's column: fn at every sample of a ring, from the ring's
    fields and the parameter values check gives, or the sample's
    SampleExclusionError. check runs once per ring, before any sample."""
    def column(ring: _Ring, *args) -> list:
        params = map(repeat, check(*args))
        return _each(fn, *[getattr(ring, f) for f in fields], *params)
    return column


def _through_zp(fn, param: str | None, check=lambda: ()):
    """A zp token's table entry: fn over the columns z and zp, and fn at a
    simple pole at 0, where zp -> -2 whatever the Laurent tail."""
    return (_over(fn, "z", "zp", check=check), param,
            lambda spec, *args: fn(0j, -2.0 + 0j, *check(*args)))


# -- the token table ------------------------------------------------------------

def _sf_at_pole(spec: FamilySpec) -> float:
    """|Sf(0)| at a pole at 0, continued through the jet of 1/f."""
    return abs(schwarzian(spec.reciprocal_jet(0j)))


# token -> (column, the class parameter it reads, its value at a pole at 0
# from the spec and the parameters, or None: indeterminate there);
# thm4 reads a = a_p_of(spec, p) after p unless a is given
_TOKENS = {
    "thm1": (_over(_thm1, "z", "pre", "v1", "v3"), None, None),
    "thm2": (_over(_thm2, "z", "pre", check=_alpha_param), "alpha", None),
    "co0": _through_zp(_co0, None),
    "thm3": (_over(_thm3, "z", "pre", "v1", "v2", "v3"), None,
             lambda spec: 2.0 * (2.0 * abs(thm3_phi3_origin(spec)) + 1.0)
             - _sf_at_pole(spec)),
    "corollary": (_over(_corollary, "z", "pre", "v1", "v3"), None,
                  lambda spec: 6.0 - _sf_at_pole(spec)),
    "thm4": _through_zp(_thm4, "p", _thm4_params),
    "co_alpha_lhs": (_over(_co_alpha, "z", "pre", check=_alpha_param),
                     "alpha", None),
    "reM": _through_zp(_re_m, "p", _p_param),
}

THEOREMS = tuple(_TOKENS)

# A margin as the sweep applies it: its column over a ring, and its value at
# the origin of a pole-at-origin spec (None: indeterminate there).
Margin = tuple[Callable[[_Ring], list], Callable[[], float] | None]


def _token(theorem: str, alpha: float | None, p: float | None):
    """The token's table entry, with the parameter values it reads."""
    if theorem not in _TOKENS:
        raise ValueError(f"unknown theorem token {theorem!r}")
    fn, param, at_pole = _TOKENS[theorem]
    args = () if param is None else ({"alpha": alpha, "p": p}[param],)
    if None in args:
        raise ValueError(f"{theorem} needs {param}")
    return fn, args, at_pole


def _margin(spec: FamilySpec, theorem: str, alpha: float | None,
            p: float | None, a: float | None) -> Margin:
    """The token's margin with its parameters bound."""
    fn, args, at_pole = _token(theorem, alpha, p)
    if theorem == "thm4":
        if a is None and not _has_pole_at(spec, p):
            raise ValueError(
                f"{format_spec(spec)} has no pole at z = {p!r}; thm4, the test "
                f"of class cop:p={p!r}, reads a_p, which is defined only there")
        args += (a_p_of(spec, p) if a is None else a,)
    return (lambda ring: fn(ring, *args),
            None if at_pole is None else lambda: at_pole(spec, *args))


def _has_pole_at(spec: FamilySpec, q: complex) -> bool:
    return any(abs(pole - q) < DEGENERACY_FLOOR for pole in spec.poles)


def margin_at(spec: FamilySpec, z: complex, theorem: str, *,
              alpha: float | None = None, p: float | None = None,
              a: float | None = None) -> float:
    """One margin value; raises SampleExclusionError on unusable samples."""
    at_ring, at_pole = _margin(spec, theorem, alpha, p, a)
    z = complex(z)
    if z == 0 and _has_pole_at(spec, 0j):
        if at_pole is None:
            raise IndeterminateSampleError(
                f"{theorem} needs f''/f' alone, which diverges at the pole at 0")
        return at_pole()
    ring, slots = _ring(spec, [z], None)
    _only(slots)
    return _only(at_ring(ring))


# -- the sweep ------------------------------------------------------------------

def _excluding(fn, *args) -> float | None:
    try:
        return fn(*args)
    except SampleExclusionError:
        return None


def _apply(margins: Sequence[Margin], ring: _Ring, slots: list,
           cols: list[list[float | None]]) -> None:
    """Append each margin's values at one ring's samples to its column."""
    for col, (at_ring, _) in zip(cols, margins):
        # a column checks its parameters: it runs on no ring without samples
        vals = [None if isinstance(v, SampleExclusionError) else v
                for v in at_ring(ring)] if ring.z else []
        col.extend(vals if len(vals) == len(slots)
                   else [vals[s] if type(s) is int else None for s in slots])


def sweep(spec: FamilySpec, grid: GridConfig,
          margins: Sequence[Margin]) -> tuple[list[complex], list[list[float | None]]]:
    """Evaluate every grid sample once and apply each margin to it.

    Returns the samples, origin first and then radius-major rings, and per
    margin a column aligned with them: the margin's value, or None where the
    sample was excluded. Samples near a pole are excluded for every margin;
    the origin is always attempted, through each margin's limit rule at a
    pole there. A margin that fails excludes the sample for itself alone.

    Each ring goes through the family's column kernel once and through each
    margin's column once.
    """
    step = 2.0 * math.pi / grid.angles
    units = [cmath.exp(1j * (step * j)) for j in range(grid.angles)]
    zs = [0j]
    cols: list[list[float | None]] = [[] for _ in margins]
    if _has_pole_at(spec, 0j):
        for col, (_, at_pole) in zip(cols, margins):
            col.append(None if at_pole is None else _excluding(at_pole))
    else:
        _apply(margins, *_ring(spec, [0j], None), cols)
    for r in grid.radii:
        ring = [r * e for e in units]
        zs += ring
        _apply(margins, *_ring(spec, ring, grid.epsilon), cols)
    return zs, cols


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


def scan(spec: FamilySpec, theorem: str, grid: GridConfig | None = None, *,
         alpha: float | None = None, p: float | None = None,
         a: float | None = None, keep_samples: bool = False,
         swept: Iterable[tuple[complex, float | None]] | None = None) -> MarginReport:
    """Evaluate one margin over the grid and reduce to a report.

    Samples within epsilon of a pole (or of z=1 for the boundary-pole
    families) are excluded up front; samples whose evaluation degenerates are
    excluded as they fail. The origin is always attempted: it is the
    normalization point, and the pole-at-origin families get their limit
    conventions there rather than an exclusion.

    swept hands over the (sample, value) pairs of a sweep that already
    applied this margin, as classify does; scan then only reduces them.
    """
    if grid is None:
        grid = default_grid()
    _token(theorem, alpha, p)
    if swept is None:
        zs, (col,) = sweep(spec, grid, (_margin(spec, theorem, alpha, p, a),))
        swept = zip(zs, col)

    rows: list[tuple[complex, float]] = []
    excluded = 0
    for z, m in swept:
        if m is None:
            excluded += 1
        else:
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


# |A_f| at a sample; the order estimate is its grid inf and sup
_ORDER: Margin = (lambda ring: [abs(_a_f(z, pre))
                                for z, pre in zip(ring.z, ring.pre)], None)


def _order(values: Iterable[float | None]) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for v in values:
        if v is not None:
            lo = min(lo, v)
            hi = max(hi, v)
    if lo is math.inf:
        raise EmptyScanError("every sample of the order estimate was excluded")
    return lo, hi


def estimate_order(spec: FamilySpec, grid: GridConfig | None = None) -> tuple[float, float]:
    """Grid inf and sup of |A_f|; inf = 1 marks concavity, sup the order."""
    if grid is None:
        grid = default_grid()
    _, (col,) = sweep(spec, grid, (_ORDER,))
    return _order(col)


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
        except SampleExclusionError:
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

    def pole(self) -> float | None:
        """Where the class puts the pole inside the disk; None: nowhere."""
        return {"co0": 0.0, "cop": self.p}.get(self.kind)


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

# the margin scans each class prescribes, in report order
_CLASS_SCANS = {
    "co": ("thm1",),
    "coalpha": ("co_alpha_lhs", "thm2"),
    "co0": ("reM", "co0", "thm3", "corollary"),
    "cop": ("reM", "thm4"),
}

CLASS_VERDICT_OK = "consistent"
CLASS_VERDICT_BAD = "violation"


def _require_class_poles(spec: FamilySpec, cls: MappingClass) -> None:
    """Refuse a spec whose poles inside the disk are not the ones the class
    needs: none for co and coalpha, exactly one, at 0 or at p, for co0 and
    cop. A cop spec without its pole at p is left to thm4, which reads a_p
    there and refuses it."""
    want = cls.pole()
    stray = [q for q in spec.poles if abs(q) < 1.0
             and (want is None or abs(q - want) >= DEGENERACY_FLOOR)]
    need = "none" if want is None else f"one at z = {want!r}"
    if stray:
        raise ValueError(
            f"{format_spec(spec)} has its pole inside the disk at "
            + ", ".join(f"z = {q.real!r}" if q.imag == 0 else f"z = {q!r}"
                        for q in stray)
            + f"; class {cls.token()} needs {need}")
    if cls.kind == "co0" and not _has_pole_at(spec, 0j):
        raise ValueError(f"{format_spec(spec)} has no pole inside the disk; "
                         f"class {cls.token()} needs {need}")


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
    Co(p) runs reM(p) and thm4. One sweep evaluates each grid sample once
    for all of them. phi'(1) is attached for Co as a warning-only
    diagnostic.
    """
    if isinstance(cls, str):
        cls = parse_class(cls)
    if grid is None:
        grid = default_grid()
    if cls.kind not in _CLASS_SCANS:
        raise ValueError(f"unknown class kind {cls.kind!r}")
    _require_class_poles(spec, cls)
    tokens = _CLASS_SCANS[cls.kind]
    p = cls.pole()  # the p that reM and thm4 read

    margins = [_margin(spec, t, cls.alpha, p, None) for t in tokens]
    if cls.kind == "co":
        margins.append(_ORDER)
    zs, cols = sweep(spec, grid, margins)
    reports = [scan(spec, t, grid, alpha=cls.alpha, p=p, swept=zip(zs, col))
               for t, col in zip(tokens, cols)]

    order = order_ok = None
    phi1_est, phi1_warn = None, False
    if cls.kind == "co":
        order = _order(cols[-1])
        order_ok = order[0] >= 1.0 - _ORDER_TOL
        phi1_est, _ = phi_prime_one_diagnostic(spec)
        phi1_warn = phi1_est is not None and not (
            _PHI1_BAND[0] <= phi1_est <= _PHI1_BAND[1])

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
