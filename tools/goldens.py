"""Write the golden CLI outputs of whatever concavemaps is importable.

    PYTHONPATH=src python tools/goldens.py OUT_DIR

Runs `concavemaps.cli.main` in-process on a fixed set of commands and writes
each command's stdout to its own file under OUT_DIR, plus `runs.txt`, one
line per command: file name, exit code, argv and stderr. The commands:

  * `verify`, its bundle and its stdout;
  * `classify` JSON for every spec of `member_roster()` and
    `control_roster()` against its class, at the stock grid and at 6x32;
  * `curve` JSON and CSV for the same specs at r = 0.99 and r = 0.9999;
  * `curve` JSON and CSV at 16,384 angles: the two long curves the
    benchmark's `export` workload draws, `kp:p=0.5` and
    `co0cubic:a0=0.3+0.2i`, at each of its radii 0.99, 0.999 and 0.9999,
    and `halfplane` at r = 0.9999, whose excluded arc wraps past theta = 0;
  * `curve` JSON and CSV at 64 angles and epsilon = 1e-300 whose samples
    reach a kernel's own exclusion test (see KERNEL_CURVES);
  * `margins` CSV and JSON for every theorem token, with no parameter,
    alpha = 1.5, p = 0 and p = 0.5, on four specs;
  * `margins` runs that end in an input error: alpha and p out of range or
    NaN, thm4 at a p where the spec has no pole, an unknown token, a missing
    parameter, and an invalid parameter on f = 0, which has no usable sample;
  * `classify` and `curve` runs on specs scaled near the float range, or
    far below unit size, whose turning must match the unscaled spec's (see
    SCALED_RUNS);
  * `classify` and `margins` runs on Laurent specs whose jet Horner runs on
    u = z - p off the origin or has complex coefficients (see HORNER_RUNS).

To compare two commits, run it once against each source tree and diff the
directories; identical outputs diff empty:

    PYTHONPATH=<parent>/src python tools/goldens.py A
    PYTHONPATH=src python tools/goldens.py B
    diff -r A B

Standard library only. OUT_DIR is created if missing.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from concavemaps import cli, verify
from concavemaps.catalog import format_spec
from concavemaps.margins import THEOREMS

MARGIN_SPECS = ("halfplane", "kp:p=0.5", "co0cubic:a0=0",
                "laurent:p=0;res=1;b=[0,0,2]")
MARGIN_PARAMS = ((), ("--alpha", "1.5"), ("--p", "0"), ("--p", "0.5"))
SMALL_GRID = ("--radii", "6", "--angles", "32")
MARGIN_ERRORS = (
    ("halfplane", "thm2", "--alpha", "0.5"),
    ("halfplane", "co_alpha_lhs", "--alpha", "2.5"),
    ("halfplane", "thm2", "--alpha", "nan"),
    ("kp:p=0.5", "reM", "--p", "1.5"),
    ("kp:p=0.5", "reM", "--p", "-0.5"),
    ("co0cubic:a0=0", "reM", "--p", "nan"),
    ("kp:p=0.5", "thm4", "--p", "1.5"),
    ("kp:p=0.5", "thm4", "--p", "0.3"),
    ("kp:p=0.5", "thm4", "--p", "nan"),
    ("halfplane", "thm9"),
    ("halfplane", "co_alpha_lhs"),
    ("kp:p=0.5", "reM"),
    ("laurent:b=[]", "thm2", "--alpha", "0.5", "--radii", "2", "--angles", "8"),
    ("laurent:b=[]", "reM", "--p", "1.5", "--radii", "2", "--angles", "8"),
)
LONG_CURVES = (("kp:p=0.5", ("0.99", "0.999", "0.9999")),
               ("co0cubic:a0=0.3+0.2i", ("0.99", "0.999", "0.9999")),
               ("halfplane", ("0.9999",)))
# At r = 0.5 the sample at theta = 0 is the pole of kp:p=0.5 and of the
# Laurent spec itself, so the pole-distance rule excludes it even at
# epsilon = 1e-300. At r = 0.5000000000001 it lies 1e-13 from the pole: past
# that rule, inside the kernels' 1e-12 floor. At r = 1 - 1e-13, kalpha's
# sample at theta = 0 meets the floor of 1/(1 - z) and the one at theta = pi
# the branch cut.
KERNEL_CURVES = (("kp:p=0.5", ("0.5", "0.5000000000001")),
                 ("laurent:p=0.5;res=1;b=[]", ("0.5", "0.5000000000001")),
                 ("kalpha:alpha=1.5", ("0.9999999999999",)))

# The recipcubic control and anglemap:a=-0.5 times 1e160, whose turning
# products overflow unless the oracle scales the curve down; f = 1e160 z,
# likewise; f = 1e308 (z + z^2), which overflows on the curve itself; and
# f = 1e-16 z, whose whole curve is smaller than an absolute collapse
# tolerance of 1e-15.
SCALED_RUNS = (
    ("classify", "--function", "laurent:p=0;res=1e160;b=[0,0,2e160]",
     "--class", "co0"),
    ("classify", "--function", "anglemap:a=-0.5,A=1e160", "--class", "co"),
    ("curve", "--function", "laurent:b=[0,1e160]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
    ("curve", "--function", "laurent:b=[0,1e308,1e308]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
    ("classify", "--function", "laurent:b=[0,1e308,1e308]", "--class", "co"),
    ("curve", "--function", "laurent:b=[0,1e-16]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
    ("classify", "--function", "laurent:b=[0,1e-16]", "--class", "co"),
    # the identity times 2^-499, whose short edges once lost their turns
    ("curve", "--function", "laurent:b=[0,6.10987272699921e-151]", "--r",
     "0.99", "--angles", "65536", "--format", "json"),
)

# Laurent's jet Horner on u = z - 0.5 with a complex residue and tail, and
# on u = z with a complex tail: no roster spec has either
HORNER_SPECS = (("laurent:p=0.5;res=1+2i;b=[1,2+1i,3]", "cop:p=0.5"),
                ("laurent:b=[0,1,0.3+0.2i,-0.1i]", "co"))
HORNER_RUNS = (
    *(("classify", "--function", text, "--class", cls, *grid)
      for text, cls in HORNER_SPECS for grid in ((), SMALL_GRID)),
    ("margins", "--function", HORNER_SPECS[0][0], "--theorem", "reM",
     "--p", "0.5", "--format", "csv"),
)


def _commands():
    """(file name, argv) for every golden run, in a fixed order."""
    yield "verify.stdout", ["verify", "--out", "verify_report.json"]
    roster = verify.member_roster() + verify.control_roster()
    for k, (spec, cls) in enumerate(roster):
        fn = ["--function", format_spec(spec)]
        yield f"classify-{k:02d}-stock.json", ["classify", *fn, "--class", cls]
        yield (f"classify-{k:02d}-6x32.json",
               ["classify", *fn, "--class", cls, *SMALL_GRID])
        for r in ("0.99", "0.9999"):
            for fmt in ("json", "csv"):
                yield (f"curve-{k:02d}-r{r}.{fmt}",
                       ["curve", *fn, "--r", r, "--format", fmt])
    for k, (text, radii) in enumerate(LONG_CURVES):
        for r in radii:
            for fmt in ("json", "csv"):
                yield (f"curve-long-{k}-r{r}.{fmt}",
                       ["curve", "--function", text, "--r", r,
                        "--angles", "16384", "--format", fmt])
    for k, (text, radii) in enumerate(KERNEL_CURVES):
        for r in radii:
            for fmt in ("json", "csv"):
                yield (f"curve-kernel-{k}-r{r}.{fmt}",
                       ["curve", "--function", text, "--r", r, "--angles", "64",
                        "--epsilon", "1e-300", "--format", fmt])
    for s, text in enumerate(MARGIN_SPECS):
        for theorem in THEOREMS:
            for q, params in enumerate(MARGIN_PARAMS):
                for fmt in ("csv", "json"):
                    yield (f"margins-{s}-{theorem}-{q}.{fmt}",
                           ["margins", "--function", text, "--theorem", theorem,
                            *params, "--format", fmt])
    for k, (text, theorem, *params) in enumerate(MARGIN_ERRORS):
        yield (f"margins-error-{k:02d}.csv",
               ["margins", "--function", text, "--theorem", theorem, *params])
    for k, argv in enumerate(SCALED_RUNS):
        yield f"scaled-{k}.json", list(argv)
    for k, argv in enumerate(HORNER_RUNS):
        ext = "csv" if argv[0] == "margins" else "json"
        yield f"horner-{k}.{ext}", list(argv)


def _run(argv: list[str]) -> tuple[str, str, str]:
    """stdout, exit code and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # an escaping error is a golden outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    return out.getvalue(), code, err.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/goldens.py OUT_DIR", file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    # verify writes its bundle to a relative path, and its stdout names that
    # path, so both stay the same whatever OUT_DIR is
    os.chdir(argv[0])
    lines = []
    for name, cmd in _commands():
        out, code, err = _run(cmd)
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        lines.append(f"{name}\t{code}\t{' '.join(cmd)}\t{err.rstrip()!r}\n")
    with open("runs.txt", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} runs written to {os.getcwd()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
