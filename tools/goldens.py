"""Write the golden CLI outputs of whatever concavemaps is importable.

    PYTHONPATH=src python tools/goldens.py OUT_DIR

A package on PYTHONPATH, or an installed one, comes first; without one, the
tool imports the package of its own checkout's `src/`.

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
  * `curve` runs whose turning goes through the collapse loop, in part and
    in full (see COLLAPSE_RUNS);
  * `classify` and `margins` runs on Laurent specs whose jet Horner runs on
    u = z - p off the origin, has complex coefficients, a leading one with
    -0.0 parts, one coefficient or none (see HORNER_RUNS);
  * `classify` and `curve` runs on specs with a literal that overflows a
    float, or a k_p whose 1/p does (see NONFINITE_RUNS);
  * `classify` and `margins` runs on specs with a finite literal whose
    modulus overflows a float, and on a pole inside the 1e-12 floor of the
    origin (see MODULUS_RUNS);
  * `classify`, `margins` and `curve` runs on inputs that once escaped
    `cli.main` with a traceback, and a class literal that `float()` once
    read (see ESCAPE_RUNS);
  * `classify` runs at a pole at 0 whose limits there b1/res fixes (see
    ORIGIN_RUNS);
  * `classify` and `margins` runs at 48x512 on members whose equality locus
    is flat, where many samples tie for the argmin (see TALLY_RUNS);
  * `classify` runs in which two margins read one ring form and keep
    different samples of it (see SHARED_RUNS);
  * a `classify` run whose phi'(1) quotients overflow (see PHI1_RUNS);
  * `classify` runs whose class token the class grammar refuses, each with
    its message and position on stderr (see CLASS_RUNS);
  * three of the runs above again, written through `--out` (see OUT_RUNS):
    each writes its report to the file `--out` names, kept beside its empty
    stdout. Each such file should hold the bytes of its twin's stdout; the
    manifest shows both sha256 sums. And a margins CSV through `--out` whose
    scan keeps no sample, which exits 3 and writes no file.

To compare two commits, run it once against each source tree and diff the
directories; identical outputs diff empty:

    PYTHONPATH=<parent>/src python tools/goldens.py A
    PYTHONPATH=src python tools/goldens.py B
    diff -r A B

Or compare against the committed manifest, `tools/goldens.sha256`, which
holds one line per run: the file name, the exit code and the sha256 of its
stdout and of its stderr, and for a run with `--out` the file it wrote and
that file's sha256, or "(absent)" where it wrote none. Its header names the
Python and the platform whose floats it pins.

    PYTHONPATH=src python tools/goldens.py --check     # exit 1 if a line moved
    PYTHONPATH=src python tools/goldens.py --manifest  # rewrite the manifest

Both run into a temporary directory; `--check` prints each line that moved.
Standard library only. OUT_DIR is created if missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

# appended, not inserted, so that a package on PYTHONPATH still wins
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

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
    # a largest modulus below the normal floats, which no power of two that
    # is a float takes into [0.5, 1): the turning scales it in two steps
    ("curve", "--function", "laurent:b=[0,1e-310]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
    # finite parts whose moduli overflow a float: the turning quarters the
    # run before it reads its scale
    ("curve", "--function", "laurent:b=[1.272e308+1.272e308i,1e300]", "--r",
     "0.99", "--angles", "64", "--format", "json"),
)

# Curves whose points lie closer than 1e-15 of the run's largest modulus:
# 1/z + 1e13, whose one run of 4,096 points keeps 580 turns, and the
# constant 5, whose closed run collapses to one point with no turn: exit 3,
# "the curve collapses to one point", with no exclusion named
COLLAPSE_RUNS = (
    ("curve", "--function", "laurent:p=0;res=1;b=[1e13]", "--r", "0.99",
     "--angles", "4096", "--format", "json"),
    ("curve", "--function", "laurent:b=[5]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
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
    # the Horner's first step, folded: a leading coefficient with -0.0
    # parts, a lone coefficient (no Jet3 step at all) and none, the last two
    # at a pole at 0, where co0's thm3 and corollary read b1/res alone
    ("classify", "--function", "laurent:b=[0,1,0.2-0.1i,-0-0i]",
     "--class", "co", *SMALL_GRID),
    ("classify", "--function", "laurent:p=0;res=1;b=[0.5+0.5i]",
     "--class", "co0", *SMALL_GRID),
    ("classify", "--function", "laurent:p=0;res=2-1i;b=[]",
     "--class", "co0", *SMALL_GRID),
)

# A literal that overflows to inf, in a coefficient, a residue and a lone
# coefficient (whose canonical form would not parse back), and kp at a p
# whose second pole 1/p is inf: each refused as input
NONFINITE_RUNS = (
    ("classify", "--function", "laurent:b=[0,1,1e999]", "--class", "co",
     "--radii", "2", "--angles", "8"),
    ("classify", "--function", "laurent:p=0.5;res=1e999;b=[]",
     "--class", "cop:p=0.5"),
    ("curve", "--function", "laurent:b=[1e999]", "--r", "0.99",
     "--angles", "64", "--format", "json"),
    ("curve", "--function", "kp:p=1e-320", "--r", "0.99",
     "--angles", "64", "--format", "json"),
)

# A finite complex whose modulus overflows a float, where abs() raises
# OverflowError: as a coefficient and as a residue. And a pole at a p
# inside the 1e-12 floor of the origin, where thm4 reads a_p; then k_p with
# its pole there too, but no limits at a pole at 0 for co0 and reM to read
FLOOR_SPEC = "laurent:p=1e-320;res=1;b=[]"
MODULUS_RUNS = (
    ("classify", "--function", "laurent:b=[0,1.5e308+1.5e308i]",
     "--class", "co", "--radii", "2", "--angles", "8"),
    ("margins", "--function", "laurent:b=[0,1.5e308+1.5e308i]",
     "--theorem", "co0", "--radii", "2", "--angles", "8"),
    ("classify", "--function", "laurent:p=0.5;res=1.5e308+1.5e308i;b=[]",
     "--class", "cop:p=0.5"),
    ("classify", "--function", FLOOR_SPEC, "--class", "cop:p=1e-320",
     "--radii", "2", "--angles", "8"),
    ("margins", "--function", FLOOR_SPEC, "--theorem", "thm4",
     "--p", "1e-320", "--radii", "2", "--angles", "8"),
    *(("margins", "--function", "kp:p=1e-13", "--theorem", *token,
       "--radii", "2", "--angles", "8", "--format", "json")
      for token in (("co0",), ("reM", "--p", "0"))),
)

# A phi3 limit at the pole at 0 of b1/res = 1e308, where thm4's weight
# overflows, in classify and in margins; a disk parameter whose modulus
# overflows a float; and a class literal with an underscore, which the spec
# grammar refuses too
ESCAPE_RUNS = (
    ("classify", "--function", "laurent:p=0;res=1;b=[0,1e308]",
     "--class", "cop:p=0", "--radii", "2", "--angles", "8"),
    ("margins", "--function", "laurent:p=0;res=1;b=[0,1e308]",
     "--theorem", "thm4", "--p", "0"),
    ("curve", "--function", "anglemap:a=1.7e308+1.7e308i"),
    ("classify", "--function", "kp:p=0.5", "--class", "cop:p=0.2_5"),
)


# Limits at a pole at 0, read from b1/res: 1/z + 1e13, a Moebius map whose
# Sf vanishes whatever b0, against co0, and 1/z + 2z^2 against cop:p=0,
# which is Co(0) and rejects it as co0 does; then a b1 whose phi3(0) is
# finite but whose |Sf(0)| = |-6 b1/res| overflows, so that thm3 and the
# corollary exclude the origin while reM and co0 keep it
ORIGIN_RUNS = (
    ("classify", "--function", "laurent:p=0;res=1;b=[1e13]", "--class", "co0"),
    ("classify", "--function", "laurent:p=0;res=1;b=[0,0,2]",
     "--class", "cop:p=0"),
    ("classify", "--function", "laurent:p=0;res=1;b=[0,2.5e307+2.5e307i]",
     "--class", "co0", "--radii", "2", "--angles", "8"),
)


# Members whose margin is flat along their equality locus, so that many
# samples set or tie the running minimum, at 48x512 (24,577 samples): three
# classify runs, and halfplane's thm1 margin as JSON, from the minimum alone,
# and as CSV, which prints every kept sample
TALLY_GRID = ("--radii", "48", "--angles", "512")
TALLY_RUNS = (
    *(("classify", "--function", text, "--class", cls, *TALLY_GRID)
      for text, cls in (("halfplane", "co"), ("co0cubic:a0=0", "co0"),
                        ("kp:p=0.5", "cop:p=0.5"))),
    *(("margins", "--function", "halfplane", "--theorem", "thm1",
       *TALLY_GRID, "--format", fmt) for fmt in ("json", "csv")),
)


# Two margins reading one ring form on the same ring. A Laurent tail whose
# f'' vanishes at an outer-ring sample: thm3 drops it before it reads the
# Schwarzian norm, so it keeps 16 of 17 samples while the corollary keeps 17.
# And a Schwarzian that overflows at 0: thm1 loses the origin, while the
# order estimate, which reads A_f on the same ring, keeps all 17 samples
SHARED_RUNS = (
    ("classify", "--function",
     "laurent:p=0.0;res=1.0+0.0i;b=[0.0+0.0i,0.0+0.0i,"
     "0.7178203394808415+0.7178203394808418i]",
     "--class", "co0", "--radii", "2", "--angles", "8"),
    ("classify", "--function", "laurent:b=[0,1e-11,1e190]", "--class", "co",
     "--radii", "2", "--angles", "8"),
)


# A map whose phi(0.99) is inf, so that no quotient (1 - phi(r))/(1 - r) is
# finite: the report leaves the phi'(1) estimate out and does not warn
PHI1_RUNS = (
    ("classify", "--function", "laurent:b=[0,1e300,1e-10]", "--class", "co",
     "--radii", "2", "--angles", "8"),
)


# Class tokens that parse_class refuses, each exit 2 with the message and
# position the spec grammar's reader gives: a value after leading spaces,
# an unknown class after them, a body on a class that takes no parameter,
# an unknown, a duplicate and a missing parameter, and a value out of range
CLASS_RUNS = tuple(
    ("classify", "--function", "halfplane", "--class", token)
    for token in ("  cop:p=x", "  nonsense", "co:x", "coalpha:beta=1",
                  "coalpha:alpha=1.5,alpha=1.2", "coalpha", "cop:p=1.0"))


# The twins of curve-long-2-r0.9999.json and .csv, a 16,384-angle curve whose
# excluded arc wraps past theta = 0, and of margins-1-reM-3.csv, at the stock
# grid: each runs to several blocks of rows. Then a margins CSV whose every
# sample falls under the |f'| floor: the scan is empty, so no file is opened
OUT_RUNS = (
    *(("curve", "--function", "halfplane", "--r", "0.9999", "--angles",
       "16384", "--format", fmt) for fmt in ("json", "csv")),
    ("margins", "--function", "kp:p=0.5", "--theorem", "reM", "--p", "0.5",
     "--format", "csv"),
    ("margins", "--function", "laurent:b=[0,1e-16]", "--theorem", "thm1",
     "--format", "csv"),
)

MANIFEST = Path(__file__).with_name("goldens.sha256")


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
    for prefix, runs in (("scaled", SCALED_RUNS), ("collapse", COLLAPSE_RUNS),
                         ("horner", HORNER_RUNS), ("nonfinite", NONFINITE_RUNS),
                         ("modulus", MODULUS_RUNS), ("escape", ESCAPE_RUNS),
                         ("origin", ORIGIN_RUNS), ("tally", TALLY_RUNS),
                         ("shared", SHARED_RUNS), ("phi1", PHI1_RUNS),
                         ("class", CLASS_RUNS)):
        for k, argv in enumerate(runs):
            # json for classify, else the --format value, else csv
            ext = ("json" if argv[0] == "classify" else
                   argv[argv.index("--format") + 1] if "--format" in argv
                   else "csv")
            yield f"{prefix}-{k}.{ext}", list(argv)
    for k, argv in enumerate(OUT_RUNS):
        yield f"out-{k}.stdout", [*argv, "--out", f"out-{k}.{argv[-1]}"]


def _run(argv: list[str]) -> tuple[str, str, str]:
    """stdout, exit code and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # an escaping error is a golden outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    return out.getvalue(), code, err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _header() -> str:
    return (f"# concavemaps goldens: {platform.python_implementation()} "
            f"{platform.python_version()} on {platform.system()} "
            f"{platform.machine()}\n")


def _write_runs(out_dir: str) -> list[str]:
    """Run every command in out_dir: write its stdout and runs.txt there, and
    return the manifest lines."""
    os.makedirs(out_dir, exist_ok=True)
    # verify writes its bundle to a relative path, and its stdout names that
    # path, so both stay the same whatever OUT_DIR is
    os.chdir(out_dir)
    lines, manifest = [], []
    for name, cmd in _commands():
        out, code, err = _run(cmd)
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        lines.append(f"{name}\t{code}\t{' '.join(cmd)}\t{err.rstrip()!r}\n")
        line = f"{name}\t{code}\t{_sha256(out.encode())}\t{_sha256(err.encode())}"
        if "--out" in cmd:
            written = Path(cmd[cmd.index("--out") + 1])
            line += (f"\t{written}\t{_sha256(written.read_bytes())}"
                     if written.exists() else f"\t{written}\t(absent)")
        manifest.append(line + "\n")
    with open("runs.txt", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} runs written to {os.getcwd()}")
    return manifest


def _fresh_manifest() -> list[str]:
    """The manifest lines of a run into a temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return _write_runs(tmp)
        finally:
            os.chdir(home)


def _by_name(lines: list[str]) -> dict[str, str]:
    return {line.split("\t", 1)[0]: line.rstrip("\n") for line in lines}


def _check() -> int:
    """Print each manifest line a fresh run moves; 1 if any moved."""
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines(True)
    if header != _header():
        print(f"the manifest pins {header[2:].strip()}; "
              f"this is {_header()[2:].strip()}")
    want, got = _by_name(lines), _by_name(_fresh_manifest())
    moved = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    for name in moved:
        print(f"moved: {name}\n  manifest: {want.get(name, '(none)')}"
              f"\n  now:      {got.get(name, '(none)')}")
    print(f"{len(moved)} of {len(want)} manifest runs moved")
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("out_dir", nargs="?", metavar="OUT_DIR",
                      help="write each run's outputs here")
    mode.add_argument("--manifest", action="store_true",
                      help=f"rewrite {MANIFEST.name} from a fresh run")
    mode.add_argument("--check", action="store_true",
                      help=f"exit 1 if a fresh run moves a line of {MANIFEST.name}")
    args = ap.parse_args(argv)
    if args.check:
        return _check()
    if args.manifest:
        MANIFEST.write_text(_header() + "".join(_fresh_manifest()),
                            encoding="utf-8", newline="")
        print(f"manifest written to {MANIFEST}")
        return 0
    _write_runs(args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
