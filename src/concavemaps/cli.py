"""Command-line front end.

Subcommands: classify (class verdict + oracle cross-check), margins
(per-sample inequality values), curve (boundary image sample), verify (the
acceptance suite), catalog (family grammar). Reports are deterministic:
identical config and build produce byte-identical JSON/CSV, so there are no
timestamps and complex numbers serialize as {re, im} pairs, never strings.

Every JSON report is the bytes json.dumps writes with sorted keys and a
two-space indent, plus a newline (`_dump`). Only a curve's tables, the
points and the excluded arcs, go another way: each is a `_Rows` of float
columns, written through one template per row, so that they need no dict
per row and skip the pure-Python encoder json falls back to whenever it
indents.

A report is written as it is made, in chunks, to an output opened at the
first (`_Output`): tables and the curve CSV a block of `_BLOCK` rows at a
time, the margins CSV a ring at a time from the sweep, the rest as one text.
So no text longer than a block, a ring or a short report is alive. Every
error that maps to an exit code is raised before the output is opened.

Exit codes: 0 ok, 1 verdict violation (or failed verification), 2 input
error (an --out whose directory does not exist is refused before anything
is sampled, and a failed write, to --out or stdout, is reported on one
line that names it), 3 numerical degeneracy (every sample excluded, or an
evaluation degenerated where one was required).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .catalog import EXCLUSION_RADIUS, FamilySpec, format_spec, parse_spec
from .errors import EmptyScanError, SampleExclusionError
from .margins import (_TOKENS, CLASS_GRAMMAR, CLASS_VERDICT_OK, THEOREMS,
                      VERDICT_OK, GridConfig, MarginReport, classify,
                      default_grid, geometric_radii, parse_class, scan)
from .oracle import (DEFAULT_ANGLES, CurveSample, boundary_curve,
                     convexity_defect, oracle_concave)


def _c(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# rows per chunk of a table or CSV report
_BLOCK = 1024


class _Rows:
    """Columns of equal length, keyed by name, written as the JSON list of
    their rows: one object per index, with no dict built per row. A column
    is any iterable of finite floats, each written by float.__repr__ as
    json writes it; it is read once, a block of rows at a time. Any other
    value raises that method's TypeError."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Iterable]):
        self.columns = columns


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
        block = [list(map(float.__repr__, islice(it, _BLOCK))) for it in its]
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


class _Output(contextlib.ExitStack):
    """out, or stdout without out, opened at the first write, head first.
    An OSError that a write or the close raises for out names out as its
    filename; one from stdout names none."""

    def __init__(self, out: str | None, head: str = ""):
        super().__init__()
        self.out, self.head = out, head

    def write(self, text: str) -> None:
        fh = self.enter_context(
            open(self.out, "w", encoding="utf-8", newline="") if self.out
            else contextlib.nullcontext(sys.stdout))
        self.write = fh.write  # the first write opens; the rest go to fh
        fh.write(self.head + text)

    def __exit__(self, typ, exc, tb):
        try:
            return super().__exit__(typ, exc, tb)  # closing out flushes it
        except OSError as err:
            exc = err
            raise
        finally:
            if self.out and isinstance(exc, OSError):
                exc.filename = self.out


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk to out, or to stdout without out, as it comes."""
    with _Output(out) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _report_dict(spec: FamilySpec, report: MarginReport, grid: GridConfig,
                 alpha: float | None, p: float | None) -> dict:
    """The report's record as a JSON object, with its spec and grid; of
    alpha and p it names the class parameter its theorem reads, if any."""
    d = {**asdict(report), "function": format_spec(spec), "grid": asdict(grid),
         "argmin_z": _c(report.argmin_z)}
    param = _TOKENS[report.theorem][1]
    if param is not None:
        d[param] = alpha if param == "alpha" else p
    return d


def _resolve_grid(args) -> GridConfig:
    return GridConfig(geometric_radii(args.radii), args.angles, args.epsilon,
                      args.tol)


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
        "grid": asdict(grid),
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
    if args.format == "csv":
        with _Output(args.out, "re_z,im_z,margin\n") as fh:
            report = scan(spec, args.theorem, grid, alpha=args.alpha, p=args.p,
                          sink=lambda zs, ms: fh.write(_margins_csv(zs, ms)))
    else:
        report = scan(spec, args.theorem, grid, alpha=args.alpha, p=args.p)
        _emit(_dump(_report_dict(spec, report, grid, args.alpha, args.p)),
              args.out)
    return 0 if report.verdict == VERDICT_OK else 1


def _margins_csv(zs: list[complex], ms: list[float]) -> str:
    return "".join([f"{z.real!r},{z.imag!r},{m!r}\n" for z, m in zip(zs, ms)])


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
    curve = boundary_curve(spec, args.r, args.angles, args.epsilon)
    if args.format == "csv":
        _emit(_curve_csv(curve), args.out)
    else:
        step, arcs = 2.0 * math.pi / curve.n, curve.excluded_arcs
        payload = {
            "function": format_spec(spec),
            "r": curve.r,
            "n": curve.n,
            "epsilon": args.epsilon,
            "orientation": curve.orientation,
            "convexity_defect": convexity_defect(curve),
            "excluded_arcs": _Rows({"start": (a for a, _ in arcs),
                                    "end": (b for _, b in arcs)}),
            "points": _Rows({"theta": (step * j for j in curve.included),
                             "re": (w.real for w in curve.points),
                             "im": (w.imag for w in curve.points)}),
        }
        _emit(_dump(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results, bundle_text = verify.run_all()
    _emit([bundle_text], args.out)  # first, so a closed stdout cannot lose it
    for res in results:
        word = "PASS" if res.passed else "FAIL"
        print(f"{word}  {res.name}: {res.detail}")
    print(f"report: {args.out}")
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
classes: """ + CLASS_GRAMMAR + """
theorems: """ + " ".join(THEOREMS) + "\n"


def _cmd_catalog(args) -> int:
    sys.stdout.write(_CATALOG_TEXT)
    return 0


def _add_grid_flags(sub) -> None:
    stock = default_grid()
    sub.add_argument("--radii", type=int, default=len(stock.radii),
                     help=f"number of geometric radii (default {len(stock.radii)})")
    sub.add_argument("--angles", type=int, default=stock.angles,
                     help=f"angles per ring (default {stock.angles})")
    sub.add_argument("--epsilon", type=float, default=stock.epsilon,
                     help=f"pole exclusion radius (default {stock.epsilon!r})")
    sub.add_argument("--tol", type=float, default=stock.margin_tol, help=(
        f"margin tolerance for verdicts (default {stock.margin_tol!r})"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concavemaps",
        description="numerical membership checks for concave mapping classes")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classify", help="run a full class membership check")
    sc.add_argument("--function", required=True, help="function spec string")
    sc.add_argument("--class", dest="cls", required=True, help=CLASS_GRAMMAR)
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
    su.add_argument("--angles", type=int, default=DEFAULT_ANGLES,
                    help=f"angles on the circle (default {DEFAULT_ANGLES})")
    su.add_argument("--epsilon", type=float, default=EXCLUSION_RADIUS,
                    help=f"pole exclusion radius (default {EXCLUSION_RADIUS!r})")
    su.add_argument("--out", default=None)
    su.add_argument("--format", choices=("csv", "json"), default="csv")

    sv = subs.add_parser("verify", help="run the acceptance suite")
    sv.add_argument("--out", default="verify_report.json",
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
    out = getattr(args, "out", None)
    try:
        if out:
            _check_out(out)
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except (EmptyScanError, SampleExclusionError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed write, to --out (its filename) or stdout
        print(f"error: cannot write {exc.filename or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        if exc.filename is None:  # or exit flushes the dead stdout again: 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
