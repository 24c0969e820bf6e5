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
pass for a pole's. A run with a point of modulus 2^500 or more, or with
none of modulus 2^-250, is scaled by a power of two before it is turned, so
that the cross and dot products of a run that far from unit size neither
overflow nor underflow. Points collapse into one only when they lie closer
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
from itertools import compress

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
# a curve point within this of the real axis lies on it
_AXIS_TOL = 1e-9
# a run with a point this far out, or with none this far, is scaled by a
# power of two before it is turned. Kept edges are longer than 1e-15 * big,
# so max(|cross|, |dot|) >= |e1| |e2| / sqrt(2) > 0.7e-30 * big^2, a normal
# float for every big >= 2^-250: no right angle is lost as atan2(0, 0)
_TURN_BIG = 2.0 ** 500
_TURN_SMALL = 2.0 ** -250


@dataclass(frozen=True)
class CurveSample:
    """Image of |z| = r under f, minus excluded arcs.

    included holds the surviving angle indices (theta_j = 2 pi j / n, strictly
    increasing), points the image values aligned with them. excluded_arcs are
    half-open angle intervals; an arc that straddles theta = 0 has its end
    beyond 2 pi. orientation is the one the spec's pole placement dictates.
    """

    r: float
    n: int
    included: tuple[int, ...]
    points: tuple[complex, ...]
    excluded_arcs: tuple[tuple[float, float], ...]
    orientation: str


def natural_orientation(spec: FamilySpec) -> str:
    if any(abs(q) < 1.0 for q in spec.poles):
        return COMPLEMENT_INSIDE
    return COMPLEMENT_OUTSIDE


def boundary_curve(spec: FamilySpec, r: float, n: int,
                   epsilon: float = EXCLUSION_RADIUS) -> CurveSample:
    """Sample f on |z| = r at n uniform angles, excluding pole neighborhoods.

    Each stage walks the n samples once: r * e over catalog's unit vectors
    for n, which the grid rings use too, one far_from_poles column, one
    values call over the samples it keeps. Excluded arcs are looked for
    only when a sample was excluded. r, n and epsilon are checked before
    anything is sampled."""
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
    ok = [not isinstance(w, SampleExclusionError) for w in points]
    if not all(ok):
        for w in points:
            if isinstance(w, NonFiniteJetError):
                raise NonFiniteJetError(f"f overflows on |z| = {r!r}: {w}")
        included, points = list(compress(included, ok)), list(compress(points, ok))
    if len(included) < 3:
        raise EmptyScanError("all arcs excluded; nothing to analyze")

    arcs = []
    if len(included) < n:
        step = 2.0 * math.pi / n
        gone = sorted(set(range(n)).difference(included))
        for run in _runs(gone, n):
            # a run that wraps past theta = 0 ends beyond 2 pi
            end = gone[run[-1]] + (n if run[-1] < run[0] else 0) + 1
            arcs.append((step * gone[run[0]], step * end))
    return CurveSample(r, n, tuple(included), tuple(points), tuple(arcs),
                       natural_orientation(spec))


def _runs(indices: list[int], n: int) -> list[list[int]]:
    """Split indices, a nonempty sorted list of angle indices in [0, n), into
    runs of consecutive angles, each given as positions in indices. A run
    that ends at angle n - 1 continues into the run that starts at angle 0."""
    runs, run = [], [0]
    for k in range(1, len(indices)):
        if indices[k] == indices[k - 1] + 1:
            run.append(k)
        else:
            runs.append(run)
            run = [k]
    runs.append(run)
    if len(runs) > 1 and indices[0] == 0 and indices[-1] == n - 1:
        runs[-1].extend(runs.pop(0))
    return runs


def _runs_of_points(curve: CurveSample) -> tuple[list[list[complex]], bool]:
    """Contiguous included runs in cyclic order; closed iff nothing excluded."""
    pts = curve.points
    if len(pts) == curve.n:
        return [list(pts)], True
    return [[pts[k] for k in run] for run in _runs(curve.included, curve.n)], False


def _turns(points: list[complex], closed: bool) -> list[float]:
    """Turning angles of the polygon through points: collapse, then turn.

    A run whose largest modulus reaches 2^500 or lies below 2^-250 is first
    scaled by the power of two that takes its largest coordinate into
    [1, 2). Only a run with an edge no longer than tol = 1e-15 * max |w| is
    collapsed: a point is kept when it lies farther than tol from the last
    one kept. A closed run drops a last kept point within 1e-15 * |first| of
    its first, and its closing edge joins its edges at both ends; one that
    collapses to a point has no edge, so no turn. Each turn is atan2 of
    conj(e1) * e2 for successive edges: one per inner vertex of an open run,
    one per vertex of a closed one, the first at points[0]. In IEEE
    arithmetic x - (-y) * z is x + y * z, so the product's parts are exactly
    the dot and cross products. math.atan2 reads them, not cmath.phase,
    which raises OverflowError where the angle underflows to 0.
    """
    try:
        big = max(map(abs, points))
    except OverflowError:  # an |w| beyond the floats
        big = math.inf
    if big >= _TURN_BIG or big < _TURN_SMALL:
        e = 1 - math.frexp(max(max(abs(w.real), abs(w.imag)) for w in points))[1]
        points = [complex(math.ldexp(w.real, e), math.ldexp(w.imag, e))
                  for w in points]
        big = max(map(abs, points))
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


def oracle_concave(spec: FamilySpec, *, n: int = DEFAULT_ANGLES,
                   epsilon: float = EXCLUSION_RADIUS) -> str:
    """Verdict from image-curve convexity at the radii _RADII.

    Each curve is turned once, under the spec's natural orientation (see
    natural_orientation). Consistency needs every defect below DEFECT_TOL
    and no growth beyond a 0.2*DEFECT_TOL slack as r -> 1. The curves
    share one tuple of unit vectors.
    """
    defects = [convexity_defect(boundary_curve(spec, r, n, epsilon))
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
        for w in run:
            if abs(w.imag) <= _AXIS_TOL:
                out.append(w.real)
        for wa, wb in zip(pts, pts[1:]):
            if abs(wa.imag) > _AXIS_TOL and abs(wb.imag) > _AXIS_TOL \
                    and (wa.imag > 0) != (wb.imag > 0):
                t = wa.imag / (wa.imag - wb.imag)
                out.append(wa.real + t * (wb.real - wa.real))
    return tuple(sorted(out))
