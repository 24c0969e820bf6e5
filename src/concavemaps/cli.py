"""Command-line front end.

Subcommands: classify (class verdict + oracle cross-check), margins
(per-sample inequality values), curve (boundary image sample), verify (the
acceptance suite), catalog (family grammar). Reports are deterministic:
identical config and build produce byte-identical JSON/CSV, so there are no
timestamps and complex numbers serialize as {re, im} pairs, never strings.

Exit codes: 0 ok, 1 verdict violation (or failed verification), 2 input
error, 3 numerical degeneracy (every sample excluded, or an evaluation
degenerated where one was required).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import EXCLUSION_RADIUS, FamilySpec, format_spec, parse_spec
from .errors import EmptyScanError, SampleExclusionError, SpecParseError
from .margins import (_TOKENS, CLASS_VERDICT_OK, VERDICT_OK, GridConfig,
                      MarginReport, classify, default_grid, geometric_radii,
                      parse_class, scan)
from .oracle import DEFAULT_ANGLES, CurveSample, boundary_curve, oracle_concave


def _c(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _grid_dict(grid: GridConfig) -> dict:
    return {
        "radii": list(grid.radii),
        "angles": grid.angles,
        "epsilon": grid.epsilon,
        "margin_tol": grid.margin_tol,
    }


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _report_dict(spec: FamilySpec, report: MarginReport, grid: GridConfig,
                 alpha: float | None = None, p: float | None = None) -> dict:
    d = {
        "function": format_spec(spec),
        "theorem": report.theorem,
        "grid": _grid_dict(grid),
        "samples_used": report.samples_used,
        "samples_excluded": report.samples_excluded,
        "min_margin": report.min_margin,
        "argmin_z": _c(report.argmin_z),
        "verdict": report.verdict,
    }
    if alpha is not None:
        d["alpha"] = alpha
    if p is not None:
        d["p"] = p
    return d


def _read_by(theorem: str, alpha: float | None, p: float | None) -> dict:
    """Of alpha and p, the class parameter the theorem reads, by name: the
    one its report names."""
    param = _TOKENS[theorem][1]
    return {} if param is None else {param: {"alpha": alpha, "p": p}[param]}


def _resolve_grid(args) -> GridConfig:
    base = default_grid()
    return GridConfig(
        radii=geometric_radii(args.radii) if args.radii is not None else base.radii,
        angles=args.angles if args.angles is not None else base.angles,
        epsilon=args.epsilon if args.epsilon is not None else base.epsilon,
        margin_tol=args.tol if args.tol is not None else base.margin_tol,
    )


def _cmd_classify(args) -> int:
    spec = parse_spec(args.function)
    cls = parse_class(args.cls)
    grid = _resolve_grid(args)
    result = classify(spec, cls, grid)
    oracle_verdict = oracle_concave(spec, epsilon=grid.epsilon)

    reports = [_report_dict(spec, rep, grid,
                            **_read_by(rep.theorem, cls.alpha, cls.pole()))
               for rep in result.reports]
    payload = {
        "function": format_spec(spec),
        "class": result.class_token,
        "verdict": result.verdict,
        "oracle": oracle_verdict,
        "grid": _grid_dict(grid),
        "reports": reports,
    }
    if result.order is not None:
        payload["order"] = {"inf": result.order[0], "sup": result.order[1]}
        payload["order_ok"] = result.order_ok
        payload["phi1_warning"] = result.phi1_warning
        if result.phi1_estimate is not None:
            payload["phi1_estimate"] = result.phi1_estimate
    _emit(_dump(payload), args.out)
    return 0 if result.verdict == CLASS_VERDICT_OK else 1


def _cmd_margins(args) -> int:
    spec = parse_spec(args.function)
    grid = _resolve_grid(args)
    report = scan(spec, args.theorem, grid, alpha=args.alpha, p=args.p,
                  keep_samples=args.format == "csv")
    if args.format == "csv":
        lines = ["re_z,im_z,margin"]
        assert report.samples is not None
        lines += [f"{z.real!r},{z.imag!r},{m!r}" for z, m in report.samples]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(_report_dict(spec, report, grid,
                                 **_read_by(args.theorem, args.alpha, args.p))),
              args.out)
    return 0 if report.verdict == VERDICT_OK else 1


def _curve_csv(curve: CurveSample) -> str:
    step = 2.0 * math.pi / curve.n
    have = dict(zip(curve.included, curve.points))
    lines = ["theta,re_w,im_w,excluded"]
    for j in range(curve.n):
        theta = step * j
        w = have.get(j)
        if w is None:
            lines.append(f"{theta!r},,,1")
        else:
            lines.append(f"{theta!r},{w.real!r},{w.imag!r},0")
    return "\n".join(lines) + "\n"


def _cmd_curve(args) -> int:
    spec = parse_spec(args.function)
    n = args.angles if args.angles is not None else DEFAULT_ANGLES
    epsilon = args.epsilon if args.epsilon is not None else EXCLUSION_RADIUS
    curve = boundary_curve(spec, args.r, n, epsilon)
    if args.format == "csv":
        _emit(_curve_csv(curve), args.out)
    else:
        payload = {
            "function": format_spec(spec),
            "r": curve.r,
            "n": curve.n,
            "epsilon": epsilon,
            "orientation": curve.orientation,
            "convexity_defect": curve.convexity_defect,
            "excluded_arcs": [{"start": a, "end": b}
                              for a, b in curve.excluded_arcs],
            "points": [{"theta": t, "re": w.real, "im": w.imag}
                       for t, w in zip(curve.thetas, curve.points)],
        }
        _emit(_dump(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results, bundle_text = verify.run_all()
    for res in results:
        word = "PASS" if res.passed else "FAIL"
        print(f"{word}  {res.name}: {res.detail}")
    out = args.out or "verify_report.json"
    Path(out).write_text(bundle_text, encoding="utf-8", newline="")
    print(f"report: {out}")
    return 0 if all(r.passed for r in results) else 1


_CATALOG_TEXT = """\
families:
  halfplane                       z/(1-z); boundary pole at z=1
  koebe                           z/(1-z)^2; boundary pole at z=1
  identity                        z (not concave; control)
  kalpha:alpha=<r>                alpha in [1, 2]; kalpha:alpha=2 = koebe
  anglemap:a=<c>[,A=<c>,B=<c>]    0 < |a| < 1 and (1-|a|^2)/|1-a|^2 <= 1/3
  kp:p=<r>                        p in (0, 1); interior pole at z=p
  co0cubic:a0=<c>                 1/z + a0 + z; pole at z=0
  laurent:p=<r>;res=<c>;b=[...]   simple pole at p in [0, 1), res != 0
  laurent:b=[<c>,...]             pole-free polynomial (controls)
complex literals: <re>, <im>i, or <re>+<im>i (also <re>-<im>i)
classes: co | coalpha:alpha=<r> | co0 | cop:p=<r>
theorems: thm1 thm2 co0 thm3 corollary thm4 co_alpha_lhs reM
"""


def _cmd_catalog(args) -> int:
    sys.stdout.write(_CATALOG_TEXT)
    return 0


def _add_grid_flags(sub) -> None:
    sub.add_argument("--radii", type=int, default=None,
                     help="number of geometric radii (overrides preset)")
    sub.add_argument("--angles", type=int, default=None,
                     help="angles per ring")
    sub.add_argument("--epsilon", type=float, default=None,
                     help="pole exclusion radius")
    sub.add_argument("--tol", type=float, default=None,
                     help="margin tolerance for verdicts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concavemaps",
        description="numerical membership checks for concave mapping classes")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classify", help="run a full class membership check")
    sc.add_argument("--function", required=True, help="function spec string")
    sc.add_argument("--class", dest="cls", required=True,
                    help="co | coalpha:alpha=<r> | co0 | cop:p=<r>")
    _add_grid_flags(sc)
    sc.add_argument("--out", default=None, help="output path (default stdout)")

    sm = subs.add_parser("margins", help="scan one inequality margin")
    sm.add_argument("--function", required=True)
    sm.add_argument("--theorem", required=True,
                    help="thm1 | thm2 | co0 | thm3 | corollary | thm4 | "
                         "co_alpha_lhs | reM")
    sm.add_argument("--alpha", type=float, default=None)
    sm.add_argument("--p", type=float, default=None)
    _add_grid_flags(sm)
    sm.add_argument("--out", default=None)
    sm.add_argument("--format", choices=("csv", "json"), default="csv")

    su = subs.add_parser("curve", help="sample the image of a circle |z|=r")
    su.add_argument("--function", required=True)
    su.add_argument("--r", type=float, default=0.99)
    su.add_argument("--angles", type=int, default=None)
    su.add_argument("--epsilon", type=float, default=None)
    su.add_argument("--out", default=None)
    su.add_argument("--format", choices=("csv", "json"), default="csv")

    sv = subs.add_parser("verify", help="run the acceptance suite")
    sv.add_argument("--out", default=None,
                    help="report path (default verify_report.json)")

    subs.add_parser("catalog", help="list families and the spec grammar")
    return parser


_DISPATCH = {
    "classify": _cmd_classify,
    "margins": _cmd_margins,
    "curve": _cmd_curve,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyScanError, SampleExclusionError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
