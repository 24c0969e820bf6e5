"""Command-line front end.

Subcommands: classify (class verdict + oracle cross-check), margins
(per-sample inequality values), curve (boundary image sample), verify (the
acceptance suite), catalog (family grammar). Reports are deterministic:
identical config and build produce byte-identical JSON/CSV, so there are no
timestamps and complex numbers serialize as {re, im} pairs, never strings.

Every JSON report is the bytes json.dumps writes with sorted keys and a
two-space indent, plus a newline (`_dump`). Only a curve's tables, the
points and the excluded arcs, go another way: each is a `_Rows` of
columns, written through one template per row, so that they need no dict
per row and skip the pure-Python encoder json falls back to whenever it
indents.

A report is written as it is made, in chunks (`_emit`): a table, the curve
CSV and the margins CSV in blocks of `_BLOCK` rows, any other report as one
json.dumps text. So no text, row list or column of text as long as a table
is ever alive, and a curve of 2^18 angles costs its samples, not its text.
Every error that maps to an exit code is raised before the output is opened.

Exit codes: 0 ok, 1 verdict violation (or failed verification), 2 input
error (an --out whose directory does not exist is refused before anything
is sampled, and a failed write is reported on one line), 3 numerical
degeneracy (every sample excluded, or an evaluation degenerated where one
was required).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .catalog import EXCLUSION_RADIUS, FamilySpec, format_spec, parse_spec
from .errors import EmptyScanError, SampleExclusionError, SpecParseError
from .margins import (_TOKENS, CLASS_VERDICT_OK, THEOREMS, VERDICT_OK,
                      GridConfig, MarginReport, classify, default_grid,
                      geometric_radii, parse_class, scan)
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


# rows per chunk of a table or CSV report
_BLOCK = 1024


class _Rows:
    """Columns of equal length, keyed by name, written as the JSON list of
    their rows: one object per index, with no dict built per row. A column
    is any iterable; it is read once, a block of rows at a time."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Iterable]):
        self.columns = columns


def _column(values: list) -> list[str]:
    """Each of values as json writes it; TypeError if one is a container."""
    try:
        texts = list(map(float.__repr__, values))
        if all(map(math.isfinite, values)):
            return texts
    except TypeError:  # not all floats
        pass
    if any(isinstance(v, (list, tuple, dict)) for v in values):
        raise TypeError("a _Rows column holds a container")
    return list(map(json.dumps, values))


def _table(columns: dict[str, Iterable], pad: str) -> Iterator[str]:
    """The rows of columns as an indented JSON list of objects, one chunk
    per block of rows."""
    keys = sorted(columns)
    its = [iter(columns[k]) for k in keys]
    inner = pad + "  "
    fields = ",\n".join(f"{inner}  {_quote(k).replace('%', '%%')}: %s"
                        for k in keys)
    row = f"{{\n{fields}\n{inner}}}"
    sep = f",\n{inner}"
    head = f"[\n{inner}"
    while True:
        block = [_column(list(islice(it, _BLOCK))) for it in its]
        rows = sep.join(map(row.__mod__, zip(*block)))
        if not rows:
            break
        yield head + rows
        head = sep
    yield f"\n{pad}]" if head == sep else "[]"


def _dump(payload) -> Iterator[str]:
    """payload as json.dumps writes it with sorted keys and a two-space
    indent, plus a newline, in chunks. A _Rows at the top level of a dict
    payload is written as the list of its rows, by _table; the dict's other
    values go through json.dumps, indented one level. Any other payload is
    one chunk."""
    if not (isinstance(payload, dict)
            and any(isinstance(v, _Rows) for v in payload.values())):
        yield json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return
    head = "{\n"
    for k, v in sorted(payload.items()):
        yield f"{head}  {_quote(k)}: "
        if isinstance(v, _Rows):
            yield from _table(v.columns, "  ")
        else:
            yield json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
        head = ",\n"
    yield "\n}\n"


def _check_out(out: str) -> None:
    """Refuse an output path whose directory does not exist."""
    parent = Path(out).parent
    if not parent.is_dir():
        raise ValueError(f"cannot write {out}: no directory {parent}")


def _write(chunks: Iterable[str], out: str) -> None:
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk to out, or to stdout without out, as it comes."""
    if out:
        _write(chunks, out)
    else:
        sys.stdout.writelines(chunks)


def _report_dict(spec: FamilySpec, report: MarginReport, grid: GridConfig,
                 alpha: float | None, p: float | None) -> dict:
    """The report's JSON object; of alpha and p it names the class
    parameter its theorem reads, if any."""
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
    param = _TOKENS[report.theorem][1]
    if param is not None:
        d[param] = alpha if param == "alpha" else p
    return d


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

    reports = [_report_dict(spec, rep, grid, cls.alpha, cls.pole())
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
        assert report.samples is not None
        _emit(_margins_csv(report.samples), args.out)
    else:
        _emit(_dump(_report_dict(spec, report, grid, args.alpha, args.p)),
              args.out)
    return 0 if report.verdict == VERDICT_OK else 1


def _margins_csv(samples: tuple[tuple[complex, float], ...]) -> Iterator[str]:
    yield "re_z,im_z,margin\n"
    for lo in range(0, len(samples), _BLOCK):
        yield "".join([f"{z.real!r},{z.imag!r},{m!r}\n"
                       for z, m in samples[lo:lo + _BLOCK]])


def _curve_csv(curve: CurveSample) -> Iterator[str]:
    step = 2.0 * math.pi / curve.n
    included, points = curve.included, curve.points
    yield "theta,re_w,im_w,excluded\n"
    a = 0  # included[a:] lies at or past this block
    for lo in range(0, curve.n, _BLOCK):
        hi = min(lo + _BLOCK, curve.n)
        b = bisect_left(included, hi, a)
        rows: list[str | None] = [None] * (hi - lo)
        for j, w in zip(included[a:b], points[a:b]):
            rows[j - lo] = f"{step * j!r},{w.real!r},{w.imag!r},0\n"
        if b - a < hi - lo:
            rows = [f"{step * j!r},,,1\n" if row is None else row
                    for j, row in enumerate(rows, lo)]
        yield "".join(rows)
        a = b


def _cmd_curve(args) -> int:
    spec = parse_spec(args.function)
    n = args.angles if args.angles is not None else DEFAULT_ANGLES
    epsilon = args.epsilon if args.epsilon is not None else EXCLUSION_RADIUS
    curve = boundary_curve(spec, args.r, n, epsilon)
    if args.format == "csv":
        _emit(_curve_csv(curve), args.out)
    else:
        step = 2.0 * math.pi / curve.n
        payload = {
            "function": format_spec(spec),
            "r": curve.r,
            "n": curve.n,
            "epsilon": epsilon,
            "orientation": curve.orientation,
            "convexity_defect": curve.convexity_defect,
            "excluded_arcs": _Rows({
                "start": (a for a, _ in curve.excluded_arcs),
                "end": (b for _, b in curve.excluded_arcs)}),
            "points": _Rows({"theta": (step * j for j in curve.included),
                             "re": (w.real for w in curve.points),
                             "im": (w.imag for w in curve.points)}),
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
    _write([bundle_text], out)
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
theorems: """ + " ".join(THEOREMS) + "\n"


def _cmd_catalog(args) -> int:
    sys.stdout.write(_CATALOG_TEXT)
    return 0


def _add_grid_flags(sub) -> None:
    stock = default_grid()
    sub.add_argument("--radii", type=int, default=None,
                     help=f"number of geometric radii (default {len(stock.radii)})")
    sub.add_argument("--angles", type=int, default=None,
                     help=f"angles per ring (default {stock.angles})")
    sub.add_argument("--epsilon", type=float, default=None,
                     help=f"pole exclusion radius (default {stock.epsilon!r})")
    sub.add_argument("--tol", type=float, default=None, help=(
        f"margin tolerance for verdicts (default {stock.margin_tol!r})"))


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
                    help=" | ".join(THEOREMS))
    sm.add_argument("--alpha", type=float, default=None)
    sm.add_argument("--p", type=float, default=None)
    _add_grid_flags(sm)
    sm.add_argument("--out", default=None)
    sm.add_argument("--format", choices=("csv", "json"), default="csv")

    su = subs.add_parser("curve", help="sample the image of a circle |z|=r")
    su.add_argument("--function", required=True)
    su.add_argument("--r", type=float, default=0.99)
    su.add_argument("--angles", type=int, default=None,
                    help=f"angles on the circle (default {DEFAULT_ANGLES})")
    su.add_argument("--epsilon", type=float, default=None,
                    help=f"pole exclusion radius (default {EXCLUSION_RADIUS!r})")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call in a process and kept:
    parse_args leaves it as it found it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
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
