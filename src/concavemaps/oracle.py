"""Formula-free convexity oracle on boundary image curves.

The membership scans all flow through f''/f' and Sf; this module never looks
at those, nor at any derivative: it reads f alone, through one call of the
column kernel `FamilySpec.values` per curve, and builds no jet. It samples
f on circles |z| = r, walks the image polygon, and checks that the omitted
set could be convex by analyzing discrete turning:

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

Turning angles use atan2 of cross and dot products of successive edges, per
contiguous run of included angles; arcs near poles (by the scans' own rule,
`FamilySpec.near_pole`) and samples that fail to evaluate are excluded and
reported, never bridged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from . import margins as _margins
from .catalog import EXCLUSION_RADIUS, FamilySpec, require_epsilon
from .errors import EmptyScanError, SampleExclusionError
from .margins import MAX_SAMPLES, GridConfig

COMPLEMENT_INSIDE = "complement-inside"
COMPLEMENT_OUTSIDE = "complement-outside"
ORACLE_OK = "concave-consistent"
ORACLE_BAD = "not-concave-consistent"

DEFECT_TOL = 5e-2
_DEFAULT_RADII = (0.99, 0.999, 0.9999)
# angles per curve, for the oracle's verdicts and for `curve` by default
DEFAULT_ANGLES = 4096
# a grid margin within this of zero puts its sample on the equality locus
_EQ_TOL = 1e-6


@dataclass(frozen=True)
class CurveSample:
    """Image of |z| = r under f, minus excluded arcs.

    included holds the surviving angle indices (theta_j = 2 pi j / n, strictly
    increasing), points the image values aligned with them. excluded_arcs are
    half-open angle intervals; an arc that straddles theta = 0 has its end
    beyond 2 pi. convexity_defect is computed at construction against
    orientation, the one the spec's pole placement dictates.
    """

    r: float
    n: int
    included: tuple[int, ...]
    points: tuple[complex, ...]
    excluded_arcs: tuple[tuple[float, float], ...]
    orientation: str
    convexity_defect: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "convexity_defect",
                           convexity_defect(self, self.orientation))

    @property
    def thetas(self) -> tuple[float, ...]:
        step = 2.0 * math.pi / self.n
        return tuple(step * j for j in self.included)


def natural_orientation(spec: FamilySpec) -> str:
    if any(abs(q) < 1.0 for q in spec.poles):
        return COMPLEMENT_INSIDE
    return COMPLEMENT_OUTSIDE


def boundary_curve(spec: FamilySpec, r: float, n: int,
                   epsilon: float = EXCLUSION_RADIUS) -> CurveSample:
    """Sample f on |z| = r at n uniform angles, excluding pole neighborhoods."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r!r}")
    if n < 64:
        raise ValueError("need at least 64 angles")
    if n > MAX_SAMPLES:
        raise ValueError(f"a curve holds at most {MAX_SAMPLES} angles")
    require_epsilon(epsilon)
    step = 2.0 * math.pi / n

    kept: list[int] = []
    zs: list[complex] = []
    for j in range(n):
        z = r * cmath.exp(1j * (step * j))
        if not spec.near_pole(z, epsilon):
            kept.append(j)
            zs.append(z)
    included: list[int] = []
    points: list[complex] = []
    for j, w in zip(kept, spec.values(zs)):
        if not isinstance(w, SampleExclusionError):
            included.append(j)
            points.append(w)
    if len(included) < 3:
        raise EmptyScanError("all arcs excluded; nothing to analyze")

    gone = sorted(set(range(n)) - set(included))
    arcs = []
    for run in (_runs(gone, n) if gone else ()):
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


def _collapse(points: list[complex]) -> list[complex]:
    scale = max(1.0, max(abs(w) for w in points))
    tol = 1e-15 * scale
    out = [points[0]]
    for w in points[1:]:
        if abs(w - out[-1]) > tol:
            out.append(w)
    return out


def _turns(points: list[complex], closed: bool) -> list[float]:
    pts = _collapse(points)
    if closed and len(pts) > 1 and abs(pts[0] - pts[-1]) <= 1e-15 * max(
            1.0, abs(pts[0])):
        pts.pop()
    m = len(pts)
    out = []
    ks = range(m) if closed else range(1, m - 1)
    for k in ks:
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % m]
        e1, e2 = b - a, c - b
        cross = e1.real * e2.imag - e1.imag * e2.real
        dot = e1.real * e2.real + e1.imag * e2.imag
        out.append(math.atan2(cross, dot))
    return out


def convexity_defect(curve: CurveSample, orientation: str) -> float:
    """Wrong-sign turning measure of the image curve; ~0 certifies that the
    omitted region is discretely convex under the declared orientation."""
    if orientation not in (COMPLEMENT_INSIDE, COMPLEMENT_OUTSIDE):
        raise ValueError(f"unknown orientation {orientation!r}")
    runs, closed = _runs_of_points(curve)
    turns: list[float] = []
    for run in runs:
        if len(run) >= 3:
            turns.extend(_turns(run, closed))
    if not turns:
        raise EmptyScanError("fewer than 3 usable points after exclusions")
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


def oracle_concave(spec: FamilySpec, *,
                   r_list: tuple[float, ...] = _DEFAULT_RADII,
                   n: int = DEFAULT_ANGLES,
                   epsilon: float = EXCLUSION_RADIUS) -> str:
    """Verdict from image-curve convexity at several radii.

    Each curve is judged under the spec's natural orientation (see
    natural_orientation), through the defect it stores. Consistency needs
    every defect below DEFECT_TOL and no growth beyond a 0.2*DEFECT_TOL
    slack as r -> 1.
    """
    defects = [boundary_curve(spec, r, n, epsilon).convexity_defect
               for r in r_list]
    ok = all(d < DEFECT_TOL for d in defects)
    slack = 0.2 * DEFECT_TOL
    ok = ok and all(b <= a + slack for a, b in zip(defects, defects[1:]))
    return ORACLE_OK if ok else ORACLE_BAD


def equality_scan(spec: FamilySpec, theorem: str,
                  grid: GridConfig | None = None, *,
                  alpha: float | None = None, p: float | None = None,
                  a: float | None = None) -> list[complex]:
    """Grid points where the margin vanishes to 1e-6: the empirical
    equality locus of the inequality."""
    report = _margins.scan(spec, theorem, grid, alpha=alpha, p=p, a=a,
                           keep_samples=True)
    assert report.samples is not None
    return [z for z, m in report.samples if abs(m) < _EQ_TOL]


def real_axis_crossings(curve: CurveSample, atol: float = 1e-9) -> tuple[float, ...]:
    """Real-axis crossings of the curve: on-axis samples plus sign-change
    interpolations, per contiguous run. Sorted ascending."""
    runs, closed = _runs_of_points(curve)
    out: list[float] = []
    for run in runs:
        pts = run + [run[0]] if closed else run
        for k, w in enumerate(pts[:-1] if closed else pts):
            if abs(w.imag) <= atol:
                out.append(w.real)
        for wa, wb in zip(pts, pts[1:]):
            if abs(wa.imag) > atol and abs(wb.imag) > atol \
                    and (wa.imag > 0) != (wb.imag > 0):
                t = wa.imag / (wa.imag - wb.imag)
                out.append(wa.real + t * (wb.real - wa.real))
    return tuple(sorted(out))
