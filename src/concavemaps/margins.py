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

with P = f''/f', t = |z|, q = 2p/(z-p) - 2pz/(1-pz) (0 when p = 0),
M = 1 + zP + q and a = a_p_of(spec, p); a_p is read at the origin, so a
p with 0 < p < 1e-12 is refused. A grid scan can only certify
"member-consistent", never membership; verdicts say so.

A table holds one row per token: its column over a ring, written on the
ring forms of `operators`, the class parameter it reads and its rule at a
pole at the origin. `_margin` is the one place that looks a token up and
checks and binds its parameters, once per scan and before anything is
sampled. A token's column copies the ring and runs each formula stage as
one comprehension over the samples still live; its tests, in the order the
formula meets them, drop the samples that fail with their errors. Then
`_column` excludes a sample whose margin arithmetic overflows, raising
OverflowError or giving a value that is not finite, with NonFiniteJetError;
only an OverflowError, which stops the whole comprehension, sends the ring
through the token one sample at a time.

One sweep samples the grid, origin first (it is the normalization point of
every theorem), then radius-major rings of r times catalog's unit vectors
(`catalog._units`, which the oracle's curves read too). Each ring is
built by `operators._ring`, which applies the exclusion column
`FamilySpec.far_from_poles`, calls the family's column kernel `eval_jets`
once, applies the |f'| floor and excludes an f''/f' that is not finite;
the sweep then runs every margin its caller asked for once: `classify`
sweeps once for all the scans of a class, and a ring form that several
margins read is computed once per ring (`_Ring.shared`), and each margin
that reads it loses the samples the form excludes. The sweep returns
the number of grid samples and, per margin, a Tally that reduced its values
ring by ring, to the count, the least and greatest value and the first
sample within the tie band of the least, and hands each ring's kept
samples to a sink if given one. margin_at is the same path for one sample,
and phi_prime_one_diagnostic reads phi on one ring of its three radii.

For specs with the pole at the origin the z=0 sample takes the limits
there, exact for f = res/z + b0 + b1 z + ...: zP = -2, phi3 = b1/res and
Sf = -6 b1/res (`operators.thm3_phi3_origin`). Each token's rule there is
a column over the one-sample ring at 0 (`_at_pole`), run through `_column`:
one rule excludes an overflowing margin at a ring's sample and at a pole at
0 alike. Tokens without such a rule find it indeterminate. A pole inside
the 1e-12 floor of 0 that has no such limits (k_p at a tiny p) is refused
for every token with a rule there, before anything is sampled.
Samples inside epsilon of a pole (`FamilySpec.far_from_poles`) are excluded
and counted, never interpolated.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress

from .catalog import (EXCLUSION_RADIUS, MAX_SAMPLES, FamilySpec, _count,
                      _expect_no_body, _kv_map, _need, _parse_real, _units,
                      _wrap_range, format_spec, require_epsilon)
from .errors import (EmptyScanError, IndeterminateSampleError,
                     SampleExclusionError, SpecParseError, _only)
from .jets import DEGENERACY_FLOOR, _finite_errors, _overflowed
from .operators import (_a_f, _check_p, _co_alpha, _phi, _phis, _q, _ring,
                        _Ring, _sf_norm, a_p_of, thm3_phi3_origin)

# First sample within this band of the minimum wins the argmin; the equality
# loci of the extremal families are flat to ~1e-15, so strict < would pick a
# noise-selected point.
_ARGMIN_TIE = 1e-12

VERDICT_OK = "member-consistent"
VERDICT_BAD = "violation"

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
        object.__setattr__(self, "angles", _count("angles", self.angles))
        if self.angles < _MIN_ANGLES:
            raise ValueError(f"need at least {_MIN_ANGLES} angles")
        if 1 + len(rs) * self.angles > MAX_SAMPLES:
            raise ValueError(f"a grid holds at most {MAX_SAMPLES} samples")
        require_epsilon(self.epsilon)
        if not (0.0 <= self.margin_tol < math.inf):
            raise ValueError("margin_tol must be finite and nonnegative")
        object.__setattr__(self, "radii", rs)


def geometric_radii(count: int) -> tuple[float, ...]:
    count = _count("count", count)
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


# -- the margins over a ring, on the operators' ring forms ---------------------
#
# Each takes a copy of the ring and the bound parameters, drops from the copy
# the samples the margin excludes, and returns its values at the others.

def _thm1(col: _Ring) -> list[float]:
    sfn, a = col.shared((_sf_norm,), *col.shared((_a_f,)))
    return [2.0 * abs(w) ** 2 - s - 2.0 for w, s in zip(a, sfn)]


def _co_alpha_lhs(col: _Ring, alpha: float) -> list[float]:
    return col.shared((_co_alpha, alpha))[0]


def _thm2(col: _Ring, alpha: float) -> list[float]:
    c, w = alpha + 1.0, 2.0 * (alpha - 1.0)
    (ms,) = col.shared((_co_alpha, alpha))
    return [m - abs(q - c / (1.0 - z)) ** 2 * (1.0 - abs(z) ** 2) / w
            for m, z, q in zip(ms, col.zs, col.pre)]


def _thm3(col: _Ring) -> list[float]:
    # every test before the arithmetic, whose overflow excludes last
    sfn, phi3, big_phi = col.shared((_sf_norm,), *_phis(col))
    return [2.0 * (2.0 * abs(f) + 1.0) * (1.0 - abs(b) ** 2) - s
            for f, b, s in zip(phi3, big_phi, sfn)]


def _corollary(col: _Ring) -> list[float]:
    (sfn,) = col.shared((_sf_norm,))
    return [6.0 - s for s in sfn]


# co0, thm4 and reM read f''/f' only through zp = z f''/f'

def _co0(col: _Ring) -> list[float]:
    return [-(1.0 + zp).real - 0.25 * (1.0 - abs(z) ** 4) * abs(zp) ** 2
            for z, zp in zip(col.zs, col.zp)]


def _thm4(col: _Ring, p: float, a: float) -> list[float]:
    (qs,) = col.shared((_q, p))
    # -Re M - w(|z|, a) |zp + q|^2 with M = 1 + (zp + q)
    return [-(1.0 + s).real
            - (1.0 - t * t) * (1.0 + 2.0 * a * t + t * t)
            / (4.0 * (1.0 + a * t) ** 2) * abs(s) ** 2
            for s, t in zip([zp + q for zp, q in zip(col.zp, qs)],
                            map(abs, col.zs))]


def _re_m(col: _Ring, p: float) -> list[float]:
    (qs,) = col.shared((_q, p))
    return [-(1.0 + zp + q).real for zp, q in zip(col.zp, qs)]


def _column(fn, ring: _Ring, args: tuple) -> tuple[_Ring, list[float]]:
    """The token fn over the ring: a copy of the ring without the samples fn
    excludes, and fn's margin at each sample left.

    A sample whose margin arithmetic overflows, raising OverflowError or
    giving a value that is not finite, is excluded with NonFiniteJetError.
    OverflowError stops the whole column, so then the ring goes through fn
    again one sample at a time.
    """
    col = ring.copy()
    try:
        ms = fn(col, *args)
    except OverflowError:
        col, ms, errors = ring.copy(), [], {}
        for k, z in enumerate(ring.zs):
            row = ring.row(k)
            try:
                ms.append(_only(row.placed(fn(row, *args))))
            except OverflowError:
                errors[k] = _overflowed(f"margin at {z!r}")
            except SampleExclusionError as exc:
                errors[k] = exc
        col.drop(errors, col.zs)
    return col, col.drop({k: _overflowed(f"margin at {col.zs[k]!r}")
                          for k in _finite_errors(ms)}, ms)


# -- the token table ------------------------------------------------------------

def _sf_at_pole(spec: FamilySpec) -> float:
    """|Sf(0)| at a simple pole at 0: Sf(0) = -6 b1/res = -6 phi3(0)."""
    return abs(-6.0 * thm3_phi3_origin(spec))


# f', f'', f''' and f''/f' diverge at a simple pole at 0, while z f''/f' = -2
# there whatever the Laurent tail
_INF = complex(math.inf)


def _at_pole(spec: FamilySpec, rule, args: tuple) -> float:
    """The token's rule at a pole at 0: a column over the one-sample ring
    there, run through _column as any ring is."""
    ring = _Ring([0j], ([_INF], [_INF], [_INF], [_INF], [-2.0 + 0j]))
    col, ms = _column(rule, ring, (spec, *args))
    return _only(col.placed(ms))


# token -> (its column over a ring, the class parameter it reads, its column
# over the ring at a pole at 0, which reads the spec too (see _at_pole), or
# None: indeterminate there); thm4 also reads a = a_p_of(spec, p). co0,
# thm4 and reM read f''/f' only through zp, so their own columns serve at
# the pole; thm3 and the corollary read (res, b1).
_TOKENS = {
    "thm1": (_thm1, None, None),
    "thm2": (_thm2, "alpha", None),
    "co0": (_co0, None, lambda col, spec: _co0(col)),
    "thm3": (_thm3, None, lambda col, spec: [
        2.0 * (2.0 * abs(thm3_phi3_origin(spec)) + 1.0) - _sf_at_pole(spec)]),
    "corollary": (_corollary, None, lambda col, spec: [6.0 - _sf_at_pole(spec)]),
    "thm4": (_thm4, "p", lambda col, spec, p, a: _thm4(col, p, a)),
    "co_alpha_lhs": (_co_alpha_lhs, "alpha", None),
    "reM": (_re_m, "p", lambda col, spec, p: _re_m(col, p)),
}

THEOREMS = tuple(_TOKENS)

# A margin as the sweep applies it: its column over a ring (see _column), and
# its value at the origin of a pole-at-origin spec (None: indeterminate there).
Margin = tuple[Callable[[_Ring], tuple[_Ring, list[float]]],
               Callable[[], float] | None]


def _margin(spec: FamilySpec, theorem: str, alpha: float | None,
            p: float | None) -> Margin:
    """The token's margin with its parameters checked and bound, before
    anything is sampled."""
    if theorem not in _TOKENS:
        raise ValueError(f"unknown theorem token {theorem!r}")
    fn, param, at_pole = _TOKENS[theorem]
    args: tuple[float, ...] = ()
    if param is not None:
        value = alpha if param == "alpha" else p
        if value is None:
            raise ValueError(f"{theorem} needs {param}")
        if theorem == "thm4" and not _has_pole_at(spec, p):
            # ahead of the range check: p out of range has no pole either
            raise ValueError(
                f"{format_spec(spec)} has no pole at z = {p!r}; thm4, the test "
                f"of class cop:p={p!r}, reads a_p, which is defined only there")
        args = (_check_alpha(value) if param == "alpha" else _check_p(value),)
    if theorem == "thm4":
        if 0.0 < args[0] < DEGENERACY_FLOOR:
            raise ValueError(
                f"p = {p!r} lies within the {DEGENERACY_FLOOR:g} floor of the "
                f"origin, where thm4 reads a_p; for a pole at the origin use "
                f"cop:p=0")
        args += (a_p_of(spec, p),)
    if at_pole is not None and _has_pole_at(spec, 0j):
        spec.origin_laurent()  # ValueError for a pole at 0 without limits
    return (lambda ring: _column(fn, ring, args),
            None if at_pole is None else lambda: _at_pole(spec, at_pole, args))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def _has_pole_at(spec: FamilySpec, q: complex) -> bool:
    return any(abs(pole - q) < DEGENERACY_FLOOR for pole in spec.poles)


def margin_at(spec: FamilySpec, z: complex, theorem: str, *,
              alpha: float | None = None, p: float | None = None) -> float:
    """One margin value; raises SampleExclusionError on unusable samples."""
    at_ring, at_pole = _margin(spec, theorem, alpha, p)
    z = complex(z)
    if z == 0 and _has_pole_at(spec, 0j):
        if at_pole is None:
            raise IndeterminateSampleError(
                f"{theorem} needs f''/f' alone, which diverges at the pole at 0")
        return at_pole()
    col, values = at_ring(_ring(spec, [z], None))
    return _only(col.placed(values))


# -- the sweep ------------------------------------------------------------------

class Tally:
    """One margin's kept samples, reduced ring by ring as a sweep adds them:
    how many, the least and greatest value, each the first met, and the
    samples that set a new least value within the tie band of it, of which
    the first is the argmin. A ring with a sample goes on to sink(zs, ms)."""

    def __init__(self, sink: Callable | None = None):
        self.used, self.lo, self.hi = 0, math.inf, -math.inf
        self.records: list[tuple[complex, float]] = []
        self.sink = sink

    def add(self, zs: list[complex], ms: list[float]) -> None:
        self.used += len(ms)
        lo, hi = min(ms, default=math.inf), max(ms, default=-math.inf)
        if lo < self.lo:
            # samples above the band lie above every sample in it, so they
            # neither stay as records nor keep one from being set
            band, least = lo + _ARGMIN_TIE, self.lo
            self.records = [r for r in self.records if r[1] <= band]
            for z, m in compress(zip(zs, ms), map(band.__ge__, ms)):
                if m < least:
                    self.records.append((z, m))
                    least = m
            self.lo = lo
        self.hi = max(self.hi, hi)  # the first of equals, as for lo
        if ms and self.sink is not None:
            self.sink(zs, ms)


def _apply(margins: Sequence[Margin], ring: _Ring, tallies: list[Tally]) -> None:
    """Add each margin's values at the samples of one ring it keeps to its tally."""
    for tally, (at_ring, _) in zip(tallies, margins):
        col, values = at_ring(ring)
        tally.add(col.zs, values)


def sweep(spec: FamilySpec, grid: GridConfig, margins: Sequence[Margin],
          sink: Callable | None = None) -> tuple[int, list[Tally]]:
    """Evaluate every grid sample once and apply each margin to it.

    Returns the number of grid samples (the origin, then radius-major
    rings) and, per margin, the Tally of the samples it kept; each tally
    hands its rings to sink, in grid order. Samples near a pole are
    excluded for every margin; the origin is always attempted, through each
    margin's limit rule at a pole there. A margin that fails excludes the
    sample for itself alone.

    Each ring goes through the family's column kernel once and through each
    margin's column once.
    """
    units = _units(grid.angles)
    tallies = [Tally(sink) for _ in margins]
    if _has_pole_at(spec, 0j):
        for tally, (_, at_pole) in zip(tallies, margins):
            if at_pole is not None:
                try:
                    tally.add([0j], [at_pole()])
                except SampleExclusionError:
                    pass
    else:
        _apply(margins, _ring(spec, [0j], None), tallies)
    for r in grid.radii:
        _apply(margins, _ring(spec, [r * e for e in units], grid.epsilon), tallies)
    return 1 + len(grid.radii) * grid.angles, tallies


# -- scanning -----------------------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    theorem: str
    samples_used: int
    samples_excluded: int
    min_margin: float
    argmin_z: complex
    verdict: str


def scan(spec: FamilySpec, theorem: str, grid: GridConfig | None = None, *,
         alpha: float | None = None, p: float | None = None,
         sink: Callable | None = None,
         swept: tuple[int, Tally] | None = None) -> MarginReport:
    """Evaluate one margin over the grid and reduce to a report.

    The samples it keeps, and the origin's limits at a pole there, are the
    sweep's (see sweep). The token and its parameters are checked before
    anything is sampled.
    swept hands over the number of grid samples and this margin's tally
    from a sweep that already applied it, bound by the caller; scan then
    only reads it. classify's reports come through it because perfbench's
    tracer counts used samples off scan's reports. Without swept, scan's
    own sweep hands each ring's kept samples to sink, if given (see sweep).
    """
    if grid is None:
        grid = default_grid()
    if swept is None:
        n, (tally,) = sweep(spec, grid, (_margin(spec, theorem, alpha, p),), sink)
    else:
        n, tally = swept
    if not tally.used:
        raise EmptyScanError(f"every sample of the {theorem} scan was excluded")
    verdict = VERDICT_OK if tally.lo >= -grid.margin_tol else VERDICT_BAD
    return MarginReport(
        theorem=theorem,
        samples_used=tally.used,
        samples_excluded=n - tally.used,
        min_margin=tally.lo,
        argmin_z=tally.records[0][0],
        verdict=verdict,
    )


def _abs_a(col: _Ring) -> list[float]:
    return list(map(abs, col.shared((_a_f,))[0]))


# |A_f| at a sample, from the A_f column thm1 reads too; the order estimate
# is its grid inf and sup
_ORDER: Margin = (lambda ring: _column(_abs_a, ring, ()), None)


def _order(tally: Tally) -> tuple[float, float]:
    if not tally.used:
        raise EmptyScanError("every sample of the order estimate was excluded")
    return tally.lo, tally.hi


def estimate_order(spec: FamilySpec, grid: GridConfig | None = None) -> tuple[float, float]:
    """Grid inf and sup of |A_f|; inf = 1 marks concavity, sup the order."""
    if grid is None:
        grid = default_grid()
    _, (tally,) = sweep(spec, grid, (_ORDER,))
    return _order(tally)


_PHI1_RADII = (0.99, 0.999, 0.9999)
_PHI1_BAND = (-0.05, 1.0 / 3.0 + 0.05)


def phi_prime_one_diagnostic(spec: FamilySpec) -> tuple[float | None, tuple[float, ...]]:
    """Richardson estimate of phi'(1) from (1-phi(r))/(1-r) at three radii,
    read on one ring. None if the estimate is not finite, or if a radius is
    excluded or its quotient is not finite: then with the values before it.

    Soft diagnostic only: the admissible band [0, 1/3] is a boundary statement
    the interior cannot certify, so callers warn on it, never fail.
    """
    ring = _ring(spec, list(map(complex, _PHI1_RADII)), None)
    ds = []
    for r, val in zip(_PHI1_RADII, ring.placed(_phi(ring))):
        if (isinstance(val, SampleExclusionError)
                or not cmath.isfinite(d := (1.0 - val) / (1.0 - r))):
            return None, tuple(ds)
        ds.append(d.real)
    est = (10.0 * ds[2] - ds[1]) / 9.0
    return (est if math.isfinite(est) else None), tuple(ds)


# -- classification ------------------------------------------------------------

# class kind -> the margin scans it prescribes, in report order, and its one
# parameter with the rule that checks it, or None
_CLASSES = {
    "co": (("thm1",), None),
    "coalpha": (("co_alpha_lhs", "thm2"), ("alpha", _check_alpha)),
    "co0": (("reM", "co0", "thm3", "corollary"), None),
    "cop": (("reM", "thm4"), ("p", _check_p)),
}

# the class token grammar, as the CLI's help and catalog show it
CLASS_GRAMMAR = " | ".join(kind if param is None else f"{kind}:{param[0]}=<r>"
                           for kind, (_, param) in _CLASSES.items())


@dataclass(frozen=True)
class MappingClass:
    kind: str  # a key of _CLASSES
    alpha: float | None = None
    p: float | None = None

    def token(self) -> str:
        param = _CLASSES[self.kind][1]
        if param is None:
            return self.kind
        return f"{self.kind}:{param[0]}={getattr(self, param[0])!r}"

    def pole(self) -> float | None:
        """Where the class puts the pole inside the disk; None: nowhere."""
        return {"co0": 0.0, "cop": self.p}.get(self.kind)


def parse_class(text: str) -> MappingClass:
    """Parse a class token by the spec grammar's key=value rules (see
    catalog.parse_spec), its parameter checked by the rule the margins
    apply; rejects anything else with a position-annotated SpecParseError."""
    s = text.strip()
    shift = len(text) - len(text.lstrip())
    head, sep, tail = s.partition(":")
    body_at = shift + len(head) + 1
    kind = head.strip().lower()
    if kind not in _CLASSES:
        raise SpecParseError(f"unknown class {head.strip()!r}", shift)
    param = _CLASSES[kind][1]
    if param is None:
        _expect_no_body(sep, tail, body_at)
        return MappingClass(kind)
    key, check = param
    value = _parse_real(*_need(_kv_map(tail, body_at, {key}, ","), key, body_at))
    try:
        return MappingClass(kind, **{key: check(value)})
    except ValueError as exc:
        raise _wrap_range(exc, text) from exc


_ORDER_TOL = 1e-6

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
    if cls.kind not in _CLASSES:
        raise ValueError(f"unknown class kind {cls.kind!r}")
    _require_class_poles(spec, cls)
    tokens = _CLASSES[cls.kind][0]
    p = cls.pole()  # the p that reM and thm4 read

    margins = [_margin(spec, t, cls.alpha, p) for t in tokens]
    if cls.kind == "co":
        margins.append(_ORDER)
    n, tallies = sweep(spec, grid, margins)
    reports = [scan(spec, t, grid, swept=(n, k)) for t, k in zip(tokens, tallies)]

    order = order_ok = None
    phi1_est, phi1_warn = None, False
    if cls.kind == "co":
        order = _order(tallies[-1])
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
