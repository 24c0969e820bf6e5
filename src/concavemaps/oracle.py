"""Formula-free convexity oracle on boundary image curves.

The membership scans all flow through f''/f' and Sf; this module never looks
at those, nor at any derivative: it reads f alone, through one call of the
column kernel `FamilySpec.values` per curve, and builds no jet. Of the
package it imports only `catalog` and `errors`. It samples f on circles
|z| = r, at catalog's unit vectors as the grid scans do, walks the image
polygon, and checks that the omitted set could be convex by analyzing
discrete turning:

  * complement-inside (interior pole): the curve must wind once negatively
    around the bounded omitted set. If the total turning has the wrong sign
    the topology itself is wrong and the defect is the whole wrong-sign
    turning mass; otherwise the defect is the largest single wrong-sign turn
    (discretization near flat arcs produces many vanishing ones, so a sum
    would punish exactly the extremal maps).
  * complement-outside, open curve (pole at z=1, an arc excluded): the
    traversal sign is inferred from the total and the defect is the largest
    minority-sign turn.
  * complement-outside, closed curve: a closed bounded image cannot omit a
    convex set at all, so the defect is |total turning| (~2pi), an
    unconditional rejection of pole-free specs.

Turning is measured per contiguous run of included angles; arcs near poles
(by the scans' own rule, `FamilySpec.far_from_poles`) and samples that fail
to evaluate are excluded and reported, never bridged. A sample where f
overflows stops the curve (NonFiniteJetError): the arc it would open would
pass for a pole's. Every run is scaled by a power of two that takes its
largest modulus into [0.5, 1) before it is turned, so its cross and dot
products neither overflow nor underflow, and f and 2^k f turn alike
wherever both are exact. Points collapse into one only when they lie closer
than the run's own size allows (1e-15 of its largest modulus), and only a
run with an edge that short goes through the collapse loop. The turns are
then taken at C level, over all edges at once: atan2 of conj(e1) * e2,
whose parts CPython's complex product makes exactly the dot and cross
products, so each turn keeps the bits of atan2(cross, dot). A curve is
turned only where its defect is asked for: once per curve by the oracle,
once by a `curve` JSON report, and never by a CSV report, which does not
hold it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat

from .catalog import (EXCLUSION_RADIUS, MAX_SAMPLES, FamilySpec, _count,
                      _units, require_epsilon)
from .errors import EmptyScanError, NonFiniteJetError, SampleExclusionError

COMPLEMENT_INSIDE = "complement-inside"
COMPLEMENT_OUTSIDE = "complement-outside"
ORACLE_OK = "concave-consistent"
ORACLE_BAD = "not-concave-consistent"

DEFECT_TOL = 5e-2
_RADII = (0.99, 0.999, 0.9999)
# angles per curve, for the oracle's verdicts and for `curve` by default
DEFAULT_ANGLES = 4096
# a point within this share of its run's largest coordinate lies on the axis
_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class CurveSample:
    """Image of |z| = r under f, minus excluded arcs.

    included holds the surviving angle indices (theta_j = 2 pi j / n, strictly
    increasing), points the image values aligned with them. orientation is
    the one the spec's pole placement dictates.
    """

    r: float
    n: int
    included: tuple[int, ...]
    points: tuple[complex, ...]
    orientation: str

    @property
    def excluded_arcs(self) -> tuple[tuple[float, float], ...]:
        """The gaps between consecutive kept angles, in order, as half-open
        angle intervals; an arc that straddles theta = 0 has its end beyond
        2 pi. A closed curve has none, found with no pass over its angles."""
        n, kept = self.n, self.included
        if len(kept) == n:
            return ()
        # a gap follows each kept angle a whose successor b is no neighbor;
        # the last kept angle's successor is the first, one turn on
        step = 2.0 * math.pi / n
        gaps = [(a + 1, b) for a, b in zip(kept, [*kept[1:], kept[0] + n])
                if b > a + 1]
        if gaps[-1][0] == n:  # angle n - 1 is kept: that gap begins at 0
            gaps.insert(0, (0, gaps.pop()[1] - n))
        return tuple((step * a, step * b) for a, b in gaps)


def natural_orientation(spec: FamilySpec) -> str:
    if any(abs(q) < 1.0 for q in spec.poles):
        return COMPLEMENT_INSIDE
    return COMPLEMENT_OUTSIDE


def boundary_curve(spec: FamilySpec, r: float, n: int,
                   epsilon: float = EXCLUSION_RADIUS) -> CurveSample:
    """Sample f on |z| = r at n uniform angles, excluding pole neighborhoods.

    Each stage walks the n samples once: r * e over catalog's unit vectors
    for n, which the grid rings use too, one far_from_poles column, one
    values call over the samples it keeps. The excluded arcs are left to
    the curve's kept angles (CurveSample.excluded_arcs). r, n and epsilon
    are checked before anything is sampled."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    n = _count("angles", n)
    if n < 64:
        raise ValueError("need at least 64 angles")
    if n > MAX_SAMPLES:
        raise ValueError(f"a curve holds at most {MAX_SAMPLES} angles")
    require_epsilon(epsilon)

    zs = [r * e for e in _units(n)]
    far = spec.far_from_poles(zs, epsilon)
    included = list(compress(range(n), far))
    points = spec.values(list(compress(zs, far)))
    if not all(map(complex.__instancecheck__, points)):
        for w in points:
            if isinstance(w, NonFiniteJetError):
                raise NonFiniteJetError(f"f overflows on |z| = {r!r}: {w}")
        ok = [not isinstance(w, SampleExclusionError) for w in points]
        included, points = list(compress(included, ok)), list(compress(points, ok))
    if len(included) < 3:
        raise EmptyScanError("all arcs excluded; nothing to analyze")
    return CurveSample(r, n, tuple(included), tuple(points),
                       natural_orientation(spec))


def _runs_of_points(curve: CurveSample) -> tuple[list[list[complex]], bool]:
    """Contiguous included runs in cyclic order; closed iff nothing excluded.

    The kept points are cut where excluded_arcs finds a gap, between
    kept angles a and b with b > a + 1, and sliced; when angles 0 and
    n - 1 are both kept, the run through theta = 0 is joined, last."""
    pts, kept = curve.points, curve.included
    if len(pts) == curve.n:
        return [list(pts)], True
    cuts = [k for k, (a, b) in enumerate(zip(kept, kept[1:]), 1) if b > a + 1]
    runs = [list(pts[i:j]) for i, j in zip([0, *cuts], [*cuts, len(pts)])]
    if kept[0] == 0 and kept[-1] == curve.n - 1:
        runs[-1].extend(runs.pop(0))
    return runs, False


def _turns(points: list[complex], closed: bool) -> list[float]:
    """Turning angles of the polygon through points: collapse, then turn.

    The run is first brought to a largest modulus in [0.5, 1) by exact
    powers of two: a quartering where that modulus overflows, two steps where
    it is subnormal. Two edges longer than tol = 1e-15 * max |w| then keep
    max(|cross|, |dot|) > 1e-31, a normal float, so no right angle is lost as
    atan2(0, 0). Only a run with an edge within tol is collapsed: a point is
    kept when it lies farther than tol from the last one kept. A closed run
    drops a last kept point within 1e-15 * |first| of its first, and its
    closing edge joins its edges at both ends; one that collapses to a point
    has no edge, so no turn. Each turn is atan2 of conj(e1) * e2 for
    successive edges: one per inner vertex of an open run, one per vertex of
    a closed one, the first at points[0]. In IEEE arithmetic x - (-y) * z is
    x + y * z, so the product's parts are exactly the dot and cross products.
    math.atan2 reads them, not cmath.phase, which raises OverflowError where
    the angle underflows to 0.
    """
    try:
        big = max(map(abs, points))
    except OverflowError:  # an |w| beyond the floats; a quarter is exact
        points = [0.25 * w for w in points]
        big = max(map(abs, points))
    if big < 2.0 ** -1022:  # subnormal, where 2^-e may be no float
        points = [2.0 ** 600 * w for w in points]
        big = max(map(abs, points))
    big, e = math.frexp(big)
    points = list(map(operator.mul, points, repeat(2.0 ** -e)))
    tol = 1e-15 * big
    es = list(map(operator.sub, points[1:], points))
    if min(map(abs, es), default=math.inf) <= tol:
        kept = points[:1]
        for w in points[1:]:
            if abs(w - kept[-1]) > tol:
                kept.append(w)
        points = kept
        es = list(map(operator.sub, points[1:], points))
    if closed and es:
        first, last = points[0], points[-1]
        if abs(first - last) <= 1e-15 * abs(first):
            es.pop()
            last = points[-2]
        close = first - last
        es = [close, *es, close]
    return [math.atan2(p.imag, p.real)
            for p in map(operator.mul, map(complex.conjugate, es), es[1:])]


def convexity_defect(curve: CurveSample) -> float:
    """Wrong-sign turning measure of the image curve; ~0 certifies that the
    omitted region is discretely convex under the curve's orientation."""
    orientation = curve.orientation
    if orientation not in (COMPLEMENT_INSIDE, COMPLEMENT_OUTSIDE):
        raise ValueError(f"unknown orientation {orientation!r}")
    runs, closed = _runs_of_points(curve)
    turns: list[float] = []
    for run in runs:
        if len(run) >= 3:
            turns.extend(_turns(run, closed))
    if not turns:  # a closed curve kept every sample: only a collapse is left
        raise EmptyScanError(
            "the curve collapses to one point: no edge to turn" if closed
            else "fewer than 3 usable points after exclusions")
    total = math.fsum(turns)

    if orientation == COMPLEMENT_INSIDE:
        expected = -1.0
    elif closed:
        # bounded closed image: its complement cannot be convex
        return abs(total)
    else:
        expected = 1.0 if total >= 0.0 else -1.0
    if expected * total < -math.pi:
        # winding has the wrong sign outright: count all wrong-sign mass
        return math.fsum(abs(t) for t in turns if t * expected < 0.0)
    return max((abs(t) for t in turns if t * expected < 0.0), default=0.0)


def oracle_concave(spec: FamilySpec, *, epsilon: float = EXCLUSION_RADIUS) -> str:
    """Verdict from image-curve convexity at the radii _RADII.

    Each curve, of DEFAULT_ANGLES angles, is turned once, under the spec's
    natural orientation (see natural_orientation). Consistency needs every
    defect below DEFECT_TOL and no growth beyond a 0.2*DEFECT_TOL slack as
    r -> 1. The curves share one tuple of unit vectors.
    """
    defects = [convexity_defect(boundary_curve(spec, r, DEFAULT_ANGLES, epsilon))
               for r in _RADII]
    ok = all(d < DEFECT_TOL for d in defects)
    slack = 0.2 * DEFECT_TOL
    ok = ok and all(b <= a + slack for a, b in zip(defects, defects[1:]))
    return ORACLE_OK if ok else ORACLE_BAD


def real_axis_crossings(curve: CurveSample) -> tuple[float, ...]:
    """Real-axis crossings of the curve: on-axis samples plus sign-change
    interpolations, per contiguous run. Sorted ascending."""
    runs, closed = _runs_of_points(curve)
    out: list[float] = []
    for run in runs:
        pts = run + [run[0]] if closed else run
        tol = _AXIS_TOL * max(max(abs(w.real), abs(w.imag)) for w in run)
        for w in run:
            if abs(w.imag) <= tol:
                out.append(w.real)
        for wa, wb in zip(pts, pts[1:]):
            if abs(wa.imag) > tol and abs(wb.imag) > tol \
                    and (wa.imag > 0) != (wb.imag > 0):
                t = wa.imag / (wa.imag - wb.imag)
                out.append(wa.real + t * (wb.real - wa.real))
    return tuple(sorted(out))
