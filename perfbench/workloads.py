"""The three workloads: how each turns a round of cases into operations, and
how each operation's output is checked against the ground truth.

Every operation is a zero-argument call into the program's public API plus a
check of what it returned or wrote. The checks know the answer by
construction (see specgen), never by asking the program twice: verdicts come
from the case, and row counts from the stock grid geometry, recomputed here
with the same formulas the program documents.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from specgen import Case

# The stock default grid (24 geometric radii x 256 angles, plus the origin),
# the oracle's fixed curves and the pole exclusion radius. Every workload pins
# these, so that a sample count means the same thing on every run.
GRID_RADII = 24
GRID_ANGLES = 256
GRID_POINTS = 1 + GRID_RADII * GRID_ANGLES
ORACLE_RADII = (0.99, 0.999, 0.9999)
ORACLE_ANGLES = 4096
EPSILON = 0.05
MARGIN_TOL = 1e-7
DEFECT_TOL = 5e-2

# export: the closed-form families get the long curves, so that serialization
# rather than jet evaluation carries their cost
EXPORT_ANGLES = {"kp": 16384, "co0cubic": 16384}
EXPORT_ANGLES_DEFAULT = 4096


class CheckFailed(Exception):
    """An operation's output contradicts the ground truth."""


@dataclass
class Outcome:
    """What a checked operation produced."""

    output: bytes              # hashed into the run digest
    samples_used: int = 0      # summed over the margin reports it returned
    curve_samples: int = 0     # included curve points it reported
    bytes_out: int = 0


@dataclass
class Op:
    case: Case
    kind: str
    samples: int                    # grid points plus curve angles requested
    call: Callable[[], object]      # the timed part
    check: Callable[[object], Outcome]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- geometry the checks rely on ------------------------------------------------

def _radii(count: int, lo: float = 0.05, hi: float = 0.995) -> list[float]:
    ratio = hi / lo
    return [lo * ratio ** (k / (count - 1)) for k in range(count)]


def grid_points() -> list[complex]:
    """The stock grid in scan order: the origin, then radius-major rings."""
    step = 2.0 * math.pi / GRID_ANGLES
    pts = [0j]
    for r in _radii(GRID_RADII):
        pts.extend(r * cmath.exp(1j * (step * j)) for j in range(GRID_ANGLES))
    return pts


def _obstacles(case: Case) -> list[complex]:
    return list(case.poles) + ([1.0 + 0j] if case.boundary_pole else [])


def _near(z: complex, obstacles: list[complex]) -> bool:
    return any(abs(z - q) < EPSILON for q in obstacles)


def kept_grid_points(case: Case, points: list[complex]) -> list[complex]:
    """Grid points a scan of `case` evaluates; the origin is always tried."""
    obs = _obstacles(case)
    return [z for z in points if z == 0 or not _near(z, obs)]


def kept_curve_angles(case: Case, r: float, n: int) -> list[int]:
    step = 2.0 * math.pi / n
    obs = _obstacles(case)
    return [j for j in range(n) if not _near(r * cmath.exp(1j * (step * j)), obs)]


# -- workloads -------------------------------------------------------------------

# A cheap member used to warm up each set-up.
WARMUP_CASE = Case("kp", "kp:p=0.5", "cop:p=0.5", True, poles=(0.5 + 0j, 2.0 + 0j))


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    # The op_ms.tail percentile: the highest of p50/p75/p90 with at least ten
    # operations beyond it at the chosen run length (p50 when none has). Fixed,
    # so that the tail means the same on every run.
    tail_pct: int

    def __init__(self, program, out_dir: Path):
        self.p = program
        self.out_dir = out_dir
        self.points = grid_points()

    def ops(self, cases: list[Case], rng) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def _check_class_reports(self, reports: list[dict], points: int) -> int:
        used = 0
        for rep in reports:
            require(rep["samples_used"] + rep["samples_excluded"] == points,
                    f"{rep['theorem']}: used + excluded != {points}")
            used += rep["samples_used"]
        return used


def _verdict(member: bool) -> str:
    return "consistent" if member else "violation"


def _oracle_verdict(member: bool) -> str:
    return "concave-consistent" if member else "not-concave-consistent"


class Check(Workload):
    name = "check"
    tail_pct = 50  # about 16 operations a run

    def _op(self, case: Case) -> Op:
        out = self.out_dir / "check.json"
        argv = ["classify", "--function", case.spec, "--class", case.cls,
                "--out", str(out)]

        def check(rc) -> Outcome:
            require(rc == (0 if case.member else 1), f"exit code {rc}")
            data = out.read_bytes()
            payload = json.loads(data)
            require(payload["verdict"] == _verdict(case.member),
                    f"verdict {payload['verdict']}")
            require(payload["oracle"] == _oracle_verdict(case.member),
                    f"oracle {payload['oracle']}")
            grid = payload["grid"]
            require(len(grid["radii"]) == GRID_RADII
                    and grid["angles"] == GRID_ANGLES, "grid is not the stock grid")
            used = self._check_class_reports(payload["reports"], GRID_POINTS)
            return Outcome(data, samples_used=used, bytes_out=len(data))

        return Op(case, "classify", GRID_POINTS + len(ORACLE_RADII) * ORACLE_ANGLES,
                  lambda: self.p.cli.main(argv), check)

    def ops(self, cases, rng):
        return [self._op(c) for c in cases]

    def warmup(self):
        return [self._op(WARMUP_CASE)]


class Scan(Workload):
    name = "scan"
    tail_pct = 50  # about 24 operations a run

    def _op(self, case: Case, grid) -> Op:
        p = self.p
        points = 1 + len(grid.radii) * grid.angles

        def check(result) -> Outcome:
            require(result.verdict == _verdict(case.member),
                    f"verdict {result.verdict}")
            reports = [{"theorem": r.theorem, "samples_used": r.samples_used,
                        "samples_excluded": r.samples_excluded}
                       for r in result.reports]
            used = self._check_class_reports(reports, points)
            return Outcome(repr(result).encode(), samples_used=used)

        return Op(case, "classify", points,
                  lambda: p.margins.classify(p.catalog.parse_spec(case.spec),
                                             case.cls, grid), check)

    def ops(self, cases, rng):
        grid = self.p.margins.default_grid("default")
        require(len(grid.radii) == GRID_RADII and grid.angles == GRID_ANGLES,
                "the default preset is not the stock grid")
        return [self._op(c, grid) for c in cases]

    def warmup(self):
        return [self._op(WARMUP_CASE, self.p.margins.default_grid("fast"))]


def _margins_args(case: Case) -> tuple[str, list[str]]:
    """The first margin the case's class scans, with its parameters."""
    kind, _, param = case.cls.partition(":")
    value = param.partition("=")[2]
    if kind == "co":
        return "thm1", []
    if kind == "coalpha":
        return "co_alpha_lhs", ["--alpha", value]
    if kind == "co0":
        return "reM", ["--p", "0"]
    return "reM", ["--p", value]


class Export(Workload):
    name = "export"
    tail_pct = 75  # about 48 to 72 operations a run

    def _curve(self, case: Case, fmt: str, r: float, n: int) -> Op:
        out = self.out_dir / f"curve.{fmt}"
        argv = ["curve", "--function", case.spec, "--r", repr(r),
                "--angles", str(n), "--format", fmt, "--out", str(out)]
        kept = kept_curve_angles(case, r, n)
        step = 2.0 * math.pi / n

        def check(rc) -> Outcome:
            require(rc == 0, f"exit code {rc}")
            data = out.read_bytes()
            if fmt == "json":
                payload = json.loads(data)
                require(payload["n"] == n and payload["r"] == r, "wrong n or r")
                thetas = [pt["theta"] for pt in payload["points"]]
                require(thetas == [step * j for j in kept],
                        f"{len(thetas)} points, expected {len(kept)}")
                defect = payload["convexity_defect"]
                require((defect < DEFECT_TOL) == case.member,
                        f"convexity defect {defect!r}")
                included = len(thetas)
            else:
                lines = data.decode().splitlines()
                require(lines[0] == "theta,re_w,im_w,excluded", "bad header")
                require(len(lines) == n + 1, f"{len(lines) - 1} rows, expected {n}")
                kept_rows = []
                for j, line in enumerate(lines[1:]):
                    theta, re_w, im_w, flag = line.split(",")
                    require(float(theta) == step * j, f"row {j} is off the grid")
                    if flag == "0":
                        float(re_w), float(im_w)
                        kept_rows.append(j)
                    else:
                        require(flag == "1" and not re_w and not im_w,
                                f"bad excluded row {j}")
                require(kept_rows == kept, "wrong rows excluded")
                included = len(kept_rows)
            return Outcome(data, curve_samples=included, bytes_out=len(data))

        return Op(case, f"curve-{fmt}", n, lambda: self.p.cli.main(argv), check)

    def _margins(self, case: Case) -> Op:
        out = self.out_dir / "margins.csv"
        theorem, params = _margins_args(case)
        argv = ["margins", "--function", case.spec, "--theorem", theorem,
                *params, "--format", "csv", "--out", str(out)]
        kept = kept_grid_points(case, self.points)

        def check(rc) -> Outcome:
            require(rc == (0 if case.member else 1), f"exit code {rc}")
            data = out.read_bytes()
            lines = data.decode().splitlines()
            require(lines[0] == "re_z,im_z,margin", "bad header")
            rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
            require(len(rows) == len(kept),
                    f"{len(rows)} rows, expected {len(kept)}")
            require(all(complex(x, y) == z for (x, y, _), z in zip(rows, kept)),
                    "sample points are off the stock grid")
            low = min(m for _, _, m in rows)
            require((low >= -MARGIN_TOL) == case.member, f"min margin {low!r}")
            return Outcome(data, samples_used=len(rows), bytes_out=len(data))

        return Op(case, "margins-csv", GRID_POINTS, lambda: self.p.cli.main(argv),
                  check)

    def ops(self, cases, rng):
        out = []
        for case in cases:
            n = EXPORT_ANGLES.get(case.family, EXPORT_ANGLES_DEFAULT)
            out.append(self._curve(case, "json", rng.choice(ORACLE_RADII), n))
            out.append(self._curve(case, "csv", rng.choice(ORACLE_RADII), n))
            out.append(self._margins(case))
        return out

    def warmup(self):
        return [self._curve(WARMUP_CASE, "json", 0.99, 4096),
                self._curve(WARMUP_CASE, "csv", 0.99, 4096)]


WORKLOADS = {w.name: w for w in (Check, Scan, Export)}
