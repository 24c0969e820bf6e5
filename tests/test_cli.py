"""CLI surface: exit codes, payload shapes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concavemaps import cli, oracle, verify
from concavemaps.catalog import EXCLUSION_RADIUS, format_spec, parse_spec
from concavemaps.cli import _dump, _Rows, main
from concavemaps.margins import THEOREMS, default_grid
from concavemaps.oracle import DEFAULT_ANGLES, boundary_curve

FAST = ["--radii", "6", "--angles", "32"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_member_exit_zero(capsys):
    code, out, _ = run(capsys, ["classify", "--function", "kp:p=0.5",
                                "--class", "cop:p=0.5"] + FAST)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert payload["oracle"] == "concave-consistent"
    assert [r["theorem"] for r in payload["reports"]] == ["reM", "thm4"]
    assert payload["reports"][0]["p"] == 0.5
    assert payload["grid"]["angles"] == 32


def test_classify_violation_exit_one(capsys):
    code, out, _ = run(capsys, ["classify", "--function", "identity",
                                "--class", "co"] + FAST)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "violation"
    assert payload["order_ok"] is False
    assert payload["reports"][0]["argmin_z"] == {"re": 0.0, "im": 0.0}


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, ["classify", "--function", "kalpha:alpha=2.5",
                                "--class", "co"])
    assert code == 2
    assert "error:" in err and "position" in err


def test_malformed_class_number_exit_two(capsys):
    for cls in ("cop:p=abc", "coalpha:alpha=x", "cop:p=0.2_5"):
        code, _, err = run(capsys, ["classify", "--function", "kp:p=0.5",
                                    "--class", cls] + FAST)
        assert code == 2
        assert "error:" in err and "position" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--function", "laurent:b=[0,1,1e999]", "--class", "co",
     "--radii", "2", "--angles", "8"],
    ["classify", "--function", "laurent:p=0.5;res=1e999;b=[]",
     "--class", "cop:p=0.5"],
    ["curve", "--function", "laurent:b=[1e999]", "--angles", "64"],
    ["curve", "--function", "kp:p=1e-320", "--angles", "64"],
])
def test_non_finite_spec_exit_two(argv, capsys):
    # refused as input, before anything is sampled, not as a degeneracy
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "position" in err, err


HUGE_SPEC = "laurent:b=[0,1.5e308+1.5e308i]"


@pytest.mark.parametrize("argv,want", [
    # the formula lane runs; the oracle's f overflows on |z| = 0.99
    (["classify", "--function", HUGE_SPEC, "--class", "co",
      "--radii", "2", "--angles", "8"], 3),
    (["margins", "--function", HUGE_SPEC, "--theorem", "co0",
      "--radii", "2", "--angles", "8"], 1),
    # the residue clears its floor; f at the origin overflows
    (["classify", "--function", "laurent:p=0.5;res=1.5e308+1.5e308i;b=[]",
      "--class", "cop:p=0.5"], 3),
])
def test_a_modulus_beyond_the_floats_is_no_traceback(argv, want, capsys):
    # abs() of 1.5e308+1.5e308i raises OverflowError; no test calls it
    code, _, err = run(capsys, argv)
    assert code == want
    assert err.startswith("degeneracy: ") if want == 3 else err == ""


@pytest.mark.parametrize("argv,want,err", [
    # phi3 at the pole at 0 is b1/res = 1e308/1e-10, which overflows
    (["classify", "--function", "laurent:p=0;res=1e-10;b=[0,1e308]",
      "--class", "cop:p=0", "--radii", "2", "--angles", "8"], 3,
     "degeneracy: phi3 limit at 0 is not finite: (inf+0j)\n"),
    (["margins", "--function", "laurent:p=0;res=1e-10;b=[0,1e308]",
      "--theorem", "thm4", "--p", "0"], 3,
     "degeneracy: phi3 limit at 0 is not finite: (inf+0j)\n"),
    # phi3(0) = b1 = 1e308 is finite, but thm4's 2 a = 2e308 overflows
    # at the origin, and its weight at every ring sample
    (["margins", "--function", "laurent:p=0;res=1;b=[0,1e308]",
      "--theorem", "thm4", "--p", "0"], 3,
     "degeneracy: every sample of the thm4 scan was excluded\n"),
    (["curve", "--function", "anglemap:a=1.7e308+1.7e308i"], 2,
     "error: a must lie inside the unit disk, got (1.7e+308+1.7e+308j) "
     "(at position 9)\n"),
], ids=["phi3-limit-classify", "phi3-limit-margins", "thm4-weight-margins",
        "anglemap-modulus"])
def test_inputs_that_once_escaped_main_exit_with_their_code(argv, want, err,
                                                            capsys):
    assert run(capsys, argv) == (want, "", err)


@pytest.mark.parametrize("argv", [
    ["classify", "--function", "laurent:p=1e-320;res=1;b=[]",
     "--class", "cop:p=1e-320", "--radii", "2", "--angles", "8"],
    ["margins", "--function", "laurent:p=1e-320;res=1;b=[]",
     "--theorem", "thm4", "--p", "1e-320"],
])
def test_a_pole_inside_the_floor_of_the_origin_exit_two(argv, capsys):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: p = 1e-320 ") and "cop:p=0" in err, err


def test_classify_oracle_uses_grid_epsilon(capsys, monkeypatch):
    seen = []

    def fake_oracle(spec, *args, **kwargs):
        seen.append(kwargs.get("epsilon"))
        return "concave-consistent"

    monkeypatch.setattr(cli, "oracle_concave", fake_oracle)
    _, out, _ = run(capsys, ["classify", "--function", "kp:p=0.5",
                             "--class", "cop:p=0.5", "--epsilon", "0.2"] + FAST)
    assert seen == [0.2]
    assert json.loads(out)["grid"]["epsilon"] == 0.2


def test_missing_alpha_exit_two(capsys):
    code, _, err = run(capsys, ["margins", "--function", "halfplane",
                                "--theorem", "thm2"] + FAST)
    assert code == 2
    assert "alpha" in err


def test_pole_the_class_does_not_have_exit_two(capsys):
    for argv, pole, cls in (
            (["classify", "--function", "co0cubic:a0=0", "--class", "co"],
             "z = 0.0", "class co"),
            (["classify", "--function", "halfplane", "--class", "cop:p=0"],
             "no pole", "class cop:p=0.0"),
            (["classify", "--function", "kp:p=0.5", "--class", "cop:p=0"],
             "z = 0.5", "class cop:p=0.0"),
            (["classify", "--function", "co0cubic:a0=0", "--class",
              "cop:p=0.5"], "z = 0.0", "class cop:p=0.5"),
            (["margins", "--function", "kp:p=0.5", "--theorem", "thm4",
              "--p", "0"], "no pole at z = 0.0", "class cop:p=0.0")):
        code, out, err = run(capsys, argv + FAST)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and pole in err and cls in err, err


def test_a_curve_that_collapses_to_a_point_exits_three(capsys):
    # 1/z + 1e200 is a Moebius map: thm3 and corollary keep the origin pole,
    # where phi3 = 0 and Sf = 0. Its image curves lie within the floats'
    # precision of 1e200, so each collapses to one point and carries no
    # turning for the oracle to judge: exit 3, as for a constant map
    argv = ["--function", "laurent:p=0;res=1;b=[1e200]", "--radii", "2",
            "--angles", "8"]
    for theorem, margin in (("thm3", 2.0), ("corollary", 6.0)):
        code, out, _ = run(capsys, ["margins", *argv, "--theorem", theorem])
        assert code == 0
        assert out.splitlines()[1] == f"0.0,0.0,{margin!r}", theorem
        assert len(out.splitlines()) == 18, theorem
    for cmd in (["classify", *argv, "--class", "co0"],
                ["curve", "--function", "laurent:b=[5]", "--r", "0.99",
                 "--angles", "64", "--format", "json"]):
        assert run(capsys, cmd) == (
            3, "", "degeneracy: the curve collapses to one point: no edge "
            "to turn\n")


@pytest.mark.parametrize("spec, cls, theorems", [
    # f''/f' = inf at the origin
    ("laurent:b=[0,1e-12,1e300]", "coalpha:alpha=1.5", ("co_alpha_lhs", "thm2")),
    # a finite f''/f' at the origin whose Schwarzian and |A_f|^2 overflow
    ("laurent:b=[0,1e-11,1e190]", "co", ("thm1",)),
])
def test_overflowing_margin_excludes_the_origin(spec, cls, theorems, capsys):
    code, out, err = run(capsys, ["classify", "--function", spec, "--class",
                                  cls, "--radii", "2", "--angles", "8"])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "violation"
    assert [r["theorem"] for r in payload["reports"]] == list(theorems)
    for report in payload["reports"]:
        assert report["samples_excluded"] == 1
        assert report["samples_used"] == 16
        assert math.isfinite(report["min_margin"])


@pytest.mark.parametrize("theorem, param, value",
                         [("thm2", "alpha", "0.5"), ("reM", "p", "1.5")])
def test_invalid_margin_parameter_exit_two_without_usable_samples(
        capsys, theorem, param, value):
    # f = 0 has no usable sample: the parameter is checked before sampling
    code, out, err = run(capsys, ["margins", "--function", "laurent:b=[]",
                                  "--theorem", theorem, f"--{param}", value,
                                  "--radii", "2", "--angles", "8"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {param} must lie in "), err


EMPTY_SCAN = ["margins", "--function", "co0cubic:a0=0", "--theorem", "thm1",
              "--radii", "1", "--epsilon", "0.2"]


def test_empty_scan_exit_three(capsys, tmp_path):
    # one radius at 0.05 swallowed by epsilon=0.2, origin indeterminate
    code, out, err = run(capsys, EMPTY_SCAN)
    assert (code, out) == (3, "")
    assert "degeneracy:" in err
    # the CSV opens at the first kept sample: an empty scan opens no --out,
    # neither a new file nor one that is there
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"kept\r\n")
    for path in (new, old):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, EMPTY_SCAN + ["--format", fmt,
                                                       "--out", str(path)])
            assert (code, out) == (3, "") and "degeneracy:" in err
    assert not new.exists()
    assert old.read_bytes() == b"kept\r\n"


def test_margins_csv_shape(capsys):
    code, out, _ = run(capsys, ["margins", "--function", "halfplane",
                                "--theorem", "thm1"] + FAST)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re_z,im_z,margin"
    assert len(lines) > 100
    first = lines[1].split(",")
    assert complex(float(first[0]), float(first[1])) == 0j


def test_margins_json_payload(capsys):
    code, out, _ = run(capsys, ["margins", "--function", "kalpha:alpha=1.5",
                                "--theorem", "thm2", "--alpha", "1.5",
                                "--format", "json"] + FAST)
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "thm2" and payload["alpha"] == 1.5
    assert payload["verdict"] == "member-consistent"
    assert abs(payload["min_margin"]) < 1e-7


@pytest.mark.parametrize("spec,theorem,flag,value,kept", [
    ("halfplane", "thm1", "--p", "0.5", False),
    ("co0cubic:a0=0", "co0", "--alpha", "1.5", False),
    ("kp:p=0.5", "thm4", "--p", "0.5", True),
])
def test_margins_json_names_only_the_parameter_its_theorem_reads(
        capsys, spec, theorem, flag, value, kept):
    code, out, _ = run(capsys, ["margins", "--function", spec, "--theorem",
                                theorem, flag, value, "--format", "json"] + FAST)
    assert code == 0
    payload = json.loads(out)
    named = {key: payload[key] for key in ("alpha", "p") if key in payload}
    assert named == ({flag[2:]: float(value)} if kept else {})


def test_out_file_and_determinism(tmp_path, capsys):
    argv = ["margins", "--function", "koebe", "--theorem", "thm1"] + FAST
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, argv + ["--out", str(a)])[0] == 0
    assert run(capsys, argv + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_csv_marks_exclusions(capsys):
    # theta = 0 sits on the pole of k_p at r = p, so that row is excluded
    code, out, _ = run(capsys, ["curve", "--function", "kp:p=0.5",
                                "--r", "0.5", "--angles", "64"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,re_w,im_w,excluded"
    assert len(lines) == 65
    assert lines[1].endswith(",,,1")
    assert sum(1 for ln in lines[1:] if ln.endswith(",0")) > 50


def test_curve_json_payload(tmp_path, capsys):
    out_path = tmp_path / "curve.json"
    code, _, _ = run(capsys, ["curve", "--function", "halfplane",
                              "--r", "0.99", "--angles", "256",
                              "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["orientation"] == "complement-outside"
    assert payload["convexity_defect"] < 1e-6
    assert payload["excluded_arcs"] and payload["points"]
    assert {"theta", "re", "im"} <= set(payload["points"][0])


def test_curve_defaults_are_the_oracle_angles_and_the_stock_radius(capsys):
    code, out, _ = run(capsys, ["curve", "--function", "halfplane",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["epsilon"]) == (DEFAULT_ANGLES,
                                                  EXCLUSION_RADIUS)
    assert len(payload["points"]) < DEFAULT_ANGLES


@pytest.mark.parametrize("fmt, reads", [("csv", 0), ("json", 1)])
def test_curve_turning_is_measured_only_for_json(fmt, reads, tmp_path,
                                                 monkeypatch):
    defect, calls = oracle.convexity_defect, []

    def counted(curve):
        calls.append(curve.orientation)
        return defect(curve)

    monkeypatch.setattr(cli, "convexity_defect", counted)
    for text in ("kp:p=0.5", "halfplane", "identity"):
        calls.clear()
        assert main(["curve", "--function", text, "--angles", "256",
                     "--format", fmt, "--out", str(tmp_path / "c")]) == 0
        assert calls == [oracle.natural_orientation(parse_spec(text))] * reads


def test_curve_csv_exports_a_curve_without_turning(capsys):
    # f varies by about 2e-12 around a value of 1e6, so every point collapses
    # into one and no turn is left to measure: the JSON report, which holds
    # the defect, is a degeneracy; the CSV, which does not, is written
    argv = ["curve", "--function", "laurent:p=0.5;res=1e-12;b=[1000000]",
            "--r", "0.99", "--epsilon", "0.6", "--angles", "256"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, out) == (3, "")
    assert err == "degeneracy: fewer than 3 usable points after exclusions\n"
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 257 and lines[1].endswith(",,,1")
    assert sum(1 for ln in lines[1:] if ln.endswith(",0")) > 100


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    assert run(capsys, ["catalog"])[0] == 0

    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, ["catalog"])[0] == 0
    assert run(capsys, ["curve", "--function", "halfplane",
                        "--angles", "64"])[0] == 0


@pytest.mark.parametrize("value", ["fast", ""])
def test_classify_grid_ignores_the_environment(value, capsys, monkeypatch):
    monkeypatch.setenv("GFT_GRID_PRESET", value)
    code, out, err = run(capsys, ["classify", "--function", "halfplane",
                                  "--class", "co"])
    assert (code, err) == (0, "")
    grid = json.loads(out)["grid"]
    stock = default_grid("default")
    assert (grid["radii"], grid["angles"]) == (list(stock.radii), 256)


def test_catalog_lists_grammar(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert out == """\
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


def test_readme_quotes_the_catalog_families():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Function specs", 1)[1].split("```\n")[1]
    listing = cli._CATALOG_TEXT.split("families:\n")[1]
    families = listing.split("complex literals:")[0]
    assert block == families.replace("\n  ", "\n").removeprefix("  ")


def test_margins_help_lists_every_theorem_token(capsys):
    with pytest.raises(SystemExit):
        main(["margins", "--help"])
    assert " | ".join(THEOREMS) in " ".join(capsys.readouterr().out.split())


def test_zero_grid_flags_are_refused(capsys):
    for argv in (["classify", "--function", "kp:p=0.5", "--class", "cop:p=0.5",
                  "--angles", "0"],
                 ["classify", "--function", "kp:p=0.5", "--class", "cop:p=0.5",
                  "--radii", "0"],
                 ["margins", "--function", "halfplane", "--theorem", "thm1",
                  "--angles", "0"],
                 ["curve", "--function", "halfplane", "--angles", "0"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "error:" in err


def test_bad_tolerance_and_epsilon_are_refused(capsys):
    member = ["classify", "--function", "kp:p=0.5", "--class", "cop:p=0.5"]
    for argv in (member + ["--tol", "nan"], member + ["--tol", "-1"],
                 member + ["--epsilon", "inf"],
                 ["curve", "--function", "halfplane", "--r", "0.9999",
                  "--epsilon", "nan"],
                 ["curve", "--function", "halfplane", "--epsilon", "0"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "error:" in err


def test_oversized_grid_is_refused(capsys):
    for argv in (["classify", "--function", "kp:p=0.5", "--class", "cop:p=0.5",
                  "--angles", str(2 ** 40)],
                 ["margins", "--function", "halfplane", "--theorem", "thm1",
                  "--radii", str(10 ** 9)],
                 ["curve", "--function", "halfplane", "--angles", str(2 ** 40)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "at most" in err


# -- output paths -----------------------------------------------------------------

COMMANDS = {
    "classify": ["classify", "--function", "halfplane", "--class", "co",
                 "--radii", "2", "--angles", "8"],
    "margins": ["margins", "--function", "halfplane", "--theorem", "thm1"] + FAST,
    "curve": ["curve", "--function", "kp:p=0.5", "--angles", "64"],
    "verify": ["verify"],
}


def _no_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before the output path was checked")

    for name in ("classify", "scan", "boundary_curve", "oracle_concave"):
        monkeypatch.setattr(cli, name, sampled)
    monkeypatch.setattr(verify, "run_all", sampled)


def _cannot_write(err, path):
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_in_a_missing_directory_is_refused_before_sampling(
        command, tmp_path, capsys, monkeypatch):
    _no_sampling(monkeypatch)
    path = tmp_path / "missing" / "report.out"
    code, out, err = run(capsys, COMMANDS[command] + ["--out", str(path)])
    assert (code, out) == (2, "")
    _cannot_write(err, path)
    assert not path.parent.exists()


@pytest.mark.parametrize("target", ["directory", "/dev/full"])
@pytest.mark.parametrize("command", ["curve", "margins", "verify"])
def test_a_failed_write_is_an_input_error(command, target, tmp_path, capsys,
                                          monkeypatch):
    # the directory exists, so the path passes the check; the write fails,
    # as a directory is opened or as /dev/full is flushed at its close
    path = tmp_path if target == "directory" else Path(target)
    if not path.exists():
        pytest.skip(f"no {path}")
    monkeypatch.setattr(verify, "run_all", lambda: ([], "{}\n"))
    code, out, err = run(capsys, COMMANDS[command] + ["--out", str(path)])
    assert (code, out) == (2, "")
    _cannot_write(err, path)


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["margins", "--function", "kp:p=0.5", "--theorem", "thm4", "--p", "0.5"],
    ["margins", "--function", "kp:p=0.5", "--theorem", "thm4", "--p", "0.5",
     "--format", "json"],
    ["catalog"]])
def test_a_closed_stdout_is_an_input_error(argv, buffered):
    # stdout is a pipe whose reader has gone, as under `| head -1`; a long
    # report fails as it is written, a short one as main flushes it, and
    # what a buffered stdout still holds must not fail again at exit
    _closed_stdout_fails(["-m", "concavemaps.cli", *argv], buffered)


# a child that runs main with verify.run_all stubbed: three result lines
_STUB_VERIFY = """
import sys
from concavemaps import cli, verify
verify.run_all = lambda: ([verify.CriterionResult("stub", True, "ok")] * 3,
                          "{}\\n")
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_fails_verify_on_stdout_not_its_bundle(buffered,
                                                               tmp_path):
    # verify writes its bundle to --out and its result lines to stdout: the
    # error names stdout, and the bundle is written first
    bundle = tmp_path / "bundle.json"
    _closed_stdout_fails(["-c", _STUB_VERIFY, "verify", "--out", str(bundle)],
                         buffered)
    assert bundle.read_text() == "{}\n"


def _closed_stdout_fails(args, buffered):
    """Run python with args, its stdout a pipe whose read end is closed, and
    check that it exits 2 with one line naming stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    _cannot_write(err, "stdout")
    assert "Exception ignored" not in err


def test_the_margins_csv_holds_one_ring_not_the_grid(tmp_path):
    # tracemalloc's peak over a margins CSV barely grows with the number of
    # rings: each ring's rows are written as the sweep keeps them
    def peak(radii):
        argv = ["margins", "--function", "co0cubic:a0=0.3+0.1i", "--theorem",
                "co0", "--radii", str(radii), "--angles", "128",
                "--format", "csv", "--out", str(tmp_path / "margins.csv")]
        main(argv)  # warm-up
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) - peak(8) < 0.1e6


# -- the JSON writer --------------------------------------------------------------

def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump(obj):
    """The text _dump writes in chunks, joined."""
    return "".join(_dump(obj))


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7,
               math.nan, math.inf, -math.inf)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.sampled_from(EDGE_FLOATS),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.text(alphabet='%"\\/{}[]:,\n\t\u00e9\u2028\U0001f600', max_size=5))
keys = st.one_of(st.text(max_size=6), st.sampled_from(("%s", "%", "%%", "")))
# what a _Rows column holds: a curve's angles and coordinates, all finite
table_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(tuple(filter(math.isfinite, EDGE_FLOATS))))


@st.composite
def row_tables(draw):
    """A list of dicts that share one key set, one row perhaps differing:
    a key dropped or a key added."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(scalars) for k in names}
            for _ in range(draw(st.integers(1, 5)))]
    row = draw(st.sampled_from(rows))
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change == "drop":
        del row[draw(st.sampled_from(names))]
    elif change == "add":
        row[draw(keys)] = draw(scalars)
    return rows


payloads = st.recursive(
    scalars,
    lambda values: st.one_of(st.lists(values, max_size=4),
                             st.dictionaries(keys, values, max_size=4),
                             row_tables()),
    max_leaves=40)


@given(payloads)
@settings(max_examples=250, deadline=None)
@example({"points": [{"theta": 0.0, "re": 1.0, "im": -0.0},
                     {"theta": 0.5, "re": math.nan, "im": math.inf}],
          "empty": [], "none": {}, "nested": [[], {}, [{}], [{"a": []}]]})
def test_writer_matches_json_dumps(obj):
    assert dump(obj) == _reference(obj)


@given(st.lists(keys, min_size=1, max_size=4, unique=True),
       st.integers(0, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_rows_are_written_as_their_list_of_objects(names, n, data):
    columns = {k: data.draw(st.lists(table_floats, min_size=n, max_size=n))
               for k in names}
    rows = [{k: columns[k][i] for k in names} for i in range(n)]
    assert dump({"rows": _Rows(columns)}) == _reference({"rows": rows})


def test_rows_refuse_a_container():
    # and any other value that is not a float
    for value in ([2.0], 2, "2", None, True):
        with pytest.raises(TypeError):
            dump({"rows": _Rows({"a": [1.0, value]})})


@st.composite
def payloads_with_rows(draw):
    """A dict payload with one or two _Rows at its top level among other
    values, and the same payload with each _Rows expanded to its rows."""
    payload = draw(st.dictionaries(keys, payloads, max_size=4))
    expanded = dict(payload)
    for _ in range(draw(st.integers(1, 2))):
        names = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
        n = draw(st.integers(0, 4))
        columns = {k: draw(st.lists(table_floats, min_size=n, max_size=n))
                   for k in names}
        key = draw(keys)
        payload[key] = _Rows(columns)
        expanded[key] = [{k: columns[k][i] for k in names} for i in range(n)]
    return payload, expanded


_TEXTS = ("line\nbreak", "100%", "%s%%", "\u00e9t\u00e9 \u2028 \U0001f600", "")


@given(payloads_with_rows())
@settings(max_examples=150, deadline=None)
@example(({"nested": {"b": [1, {"c": {}}], "a": {"z": [[], {}]}},
           "list": [[], {}, [{"a": []}], "x\ny"], "empty": {}, "none": [],
           "text": list(_TEXTS), "%": "%", "\u00e9": {"\n": "\u00e9"},
           "points": _Rows({"theta": [0.0, 0.5], "re": [1.0, 5e-324],
                            "im": [-0.0, -1e308], "%s": [1e16, 1e-7]}),
           "arcs": _Rows({"start": [], "end": []}),
           "nonfinite": [math.nan, math.inf, -math.inf],
           "words": [{"w": t, "%s": v} for t, v in
                     zip(_TEXTS, [None, True, 1, -2.5, 3])]},
          {"nested": {"b": [1, {"c": {}}], "a": {"z": [[], {}]}},
           "list": [[], {}, [{"a": []}], "x\ny"], "empty": {}, "none": [],
           "text": list(_TEXTS), "%": "%", "\u00e9": {"\n": "\u00e9"},
           "points": [{"theta": 0.0, "re": 1.0, "im": -0.0, "%s": 1e16},
                      {"theta": 0.5, "re": 5e-324, "im": -1e308, "%s": 1e-7}],
           "arcs": [],
           "nonfinite": [math.nan, math.inf, -math.inf],
           "words": [{"w": t, "%s": v} for t, v in
                     zip(_TEXTS, [None, True, 1, -2.5, 3])]}))
def test_rows_beside_other_values_match_json_dumps(pair):
    # the values beside a top-level _Rows are re-indented json.dumps text
    payload, expanded = pair
    assert dump(payload) == _reference(expanded)


@pytest.mark.parametrize("n", [2 ** 16, 3 * cli._BLOCK + 1])
def test_a_table_is_written_a_block_at_a_time(n):
    def columns(n):
        return {"theta": [0.5] * n, "re": [-1.25e-7] * n, "im": [1e300] * n}

    def chunks(n):
        return list(_dump({"rows": _Rows(columns(n))}))

    whole = chunks(n)
    assert max(map(len, whole)) <= max(map(len, chunks(cli._BLOCK)))
    # a block of rows per chunk, and the key, the bracket and the brace
    assert len(whole) == -(-n // cli._BLOCK) + 3
    # a column may be any iterable, read once
    once = {k: iter(v) for k, v in columns(n).items()}
    assert dump({"rows": _Rows(once)}) == dump({"rows": _Rows(columns(n))})


@pytest.mark.parametrize("argv", [
    ["curve", "--function", "halfplane", "--r", "0.9999", "--format", "json"],
    ["curve", "--function", "halfplane", "--r", "0.9999", "--format", "csv"],
    ["margins", "--function", "kp:p=0.5", "--theorem", "reM", "--p", "0.5"],
], ids=lambda argv: "-".join(argv[:3] + argv[-1:]))
def test_out_writes_the_bytes_stdout_gets(argv, tmp_path, capsys):
    # halfplane's excluded arc wraps past theta = 0, and each report runs
    # to several blocks
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.count("\n") > 2 * cli._BLOCK
    path = tmp_path / "report"
    assert run(capsys, argv + ["--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ["classify", "--function", "kp:p=0.5", "--class", "cop:p=0.5"] + FAST,
    ["classify", "--function", "identity", "--class", "co"] + FAST,
    ["margins", "--function", "halfplane", "--theorem", "thm1",
     "--format", "json"] + FAST,
    ["curve", "--function", "halfplane", "--r", "0.9999", "--angles", "256",
     "--format", "json"],
    ["curve", "--function", "identity", "--angles", "64", "--format", "json"],
], ids=lambda argv: "-".join(argv[:3]))
def test_json_reports_are_json_dumps_with_sorted_keys_and_indent(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    assert out == _reference(json.loads(out))


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


# three members and a control of the roster, and a map whose phi'(1)
# quotients are not finite
_ROSTER = verify.member_roster() + verify.control_roster()
STRICT_RUNS = (*((format_spec(spec), cls)
                 for spec, cls in (_ROSTER[k] for k in (0, 6, 9, -1))),
               ("laurent:b=[0,1e300,1e-10]", "co"))


@pytest.mark.parametrize("argv", [
    *(["classify", "--function", text, "--class", cls] + FAST
      for text, cls in STRICT_RUNS),
    *(["curve", "--function", text, "--angles", "256", "--format", "json"]
      for text, _ in STRICT_RUNS),
    *(["margins", "--function", text, "--theorem", "thm1", "--format", "json"]
      + FAST for text, _ in STRICT_RUNS),
], ids=lambda argv: "-".join(argv[:3]))
def test_json_reports_hold_no_nan_or_infinity(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    json.loads(out, parse_constant=_not_json)


# -- the curve CSV against the per-angle lookup it replaced -----------------------

def _reference_curve_csv(curve):
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


@pytest.mark.parametrize("text,r,n", [
    ("halfplane", 0.9999, 4096),     # the excluded arc wraps past theta = 0
    ("halfplane", 0.99, 64),
    ("kp:p=0.5", 0.5, 64),           # theta = 0 sits on the pole
    ("kp:p=0.5", 0.99, 1024),
    ("co0cubic:a0=0.3+0.2i", 0.9999, 1024),
    ("identity", 0.9, 256),          # nothing excluded
    ("laurent:p=0.98;res=1;b=[0,1]", 0.9999, 1024),
])
def test_curve_csv_matches_the_lookup_it_replaced(text, r, n):
    curve = boundary_curve(parse_spec(text), r, n)
    assert ("".join(cli._curve_csv(curve)).encode()
            == _reference_curve_csv(curve).encode())


def test_curve_csv_blocks_split_excluded_runs():
    # runs of excluded angles that start, end and straddle block boundaries
    n = 4 * cli._BLOCK
    gone = {0, *range(cli._BLOCK - 3, cli._BLOCK + 5), 2 * cli._BLOCK - 1,
            *range(3 * cli._BLOCK, n)}
    included = tuple(j for j in range(n) if j not in gone)
    curve = oracle.CurveSample(0.5, n, included,
                               tuple(complex(j, -j / 3) for j in included),
                               oracle.COMPLEMENT_OUTSIDE)
    assert ("".join(cli._curve_csv(curve)).encode()
            == _reference_curve_csv(curve).encode())


# -- curves scaled near the float range ------------------------------------------

def _curve_json(b):
    return ["curve", "--function", f"laurent:b=[0,{b}]", "--r", "0.99",
            "--angles", "64", "--format", "json"]


def test_curve_of_a_scaled_map_has_the_map_own_defect(capsys):
    defects = []
    for b in ("1", "1e160", "1e-16"):
        code, out, _ = run(capsys, _curve_json(b))
        assert code == 0
        defects.append(json.loads(out)["convexity_defect"])
    assert all(math.isfinite(d) for d in defects)
    assert all(abs(d - defects[0]) < 1e-9 for d in defects[1:])


def test_curve_where_f_overflows_exits_three(capsys):
    code, out, err = run(capsys, _curve_json("1e308,1e308"))
    assert code == 3
    assert out == ""
    assert err.startswith("degeneracy: f overflows on |z| = 0.99: ")


# -- every input ends in an exit code ---------------------------------------------

# literals at the edges of the floats, among ordinary ones
LITERALS = ("0", "1", "-1", "0.5", "-0.5", "0.3", "2", "1e308", "-1e308",
            "1.7e308", "-1.7e308", "5e-324", "-5e-324", "1e-13", "1e-300")
reals = st.sampled_from(LITERALS)
poles = st.one_of(st.sampled_from(("0", "0.5")), reals)


@st.composite
def complex_literals(draw):
    re, im = draw(reals), draw(reals)
    return draw(st.sampled_from(
        (re, f"{im}i", f"{re}{im}i" if im[0] == "-" else f"{re}+{im}i")))


coeff_lists = st.lists(complex_literals(), max_size=4).map(
    lambda cs: "[" + ",".join(cs) + "]")
cli_specs = st.one_of(
    st.sampled_from(("halfplane", "koebe", "identity")),
    st.builds("kalpha:alpha={}".format, st.one_of(reals, st.just("1.5"))),
    st.builds("anglemap:a={}".format,
              st.one_of(complex_literals(), st.just("-0.5+0.1i"))),
    st.builds("anglemap:a=-0.5,A={},B={}".format, complex_literals(),
              complex_literals()),
    st.builds("kp:p={}".format, st.one_of(reals, st.just("0.25"))),
    st.builds("co0cubic:a0={}".format, complex_literals()),
    st.builds("laurent:p={};res={};b={}".format, poles, complex_literals(),
              coeff_lists),
    st.builds("laurent:b={}".format, coeff_lists))
classes = st.one_of(st.sampled_from(("co", "co0")),
                    st.builds("coalpha:alpha={}".format,
                              st.one_of(reals, st.just("1.5"))),
                    st.builds("cop:p={}".format, poles))
grids = st.sampled_from((["--radii", "2", "--angles", "8"],
                         ["--radii", "3", "--angles", "16"]))
# written --p=-1e308: argparse reads a lone -1e308 as an option
parameters = st.one_of(st.just([]), st.builds(
    "{}={}".format, st.sampled_from(("--alpha", "--p")), reals).map(
        lambda flag: [flag]))
argvs = st.one_of(
    st.builds(lambda f, c, g: ["classify", "--function", f, "--class", c, *g],
              cli_specs, classes, grids),
    # a Laurent spec with its pole where the class wants it
    st.builds(lambda p, res, b, c, g: [
        "classify", "--function", f"laurent:p={p};res={res};b={b}",
        "--class", c.format(p), *g],
        poles, complex_literals(), coeff_lists,
        st.sampled_from(("cop:p={}", "co0")), grids),
    st.builds(lambda f, t, p, g, fmt: ["margins", "--function", f,
                                       "--theorem", t, *p, *g,
                                       "--format", fmt],
              cli_specs, st.sampled_from(THEOREMS), parameters, grids,
              st.sampled_from(("csv", "json"))),
    st.builds(lambda f, r, fmt: ["curve", "--function", f, "--r", r,
                                 "--angles", "64", "--format", fmt],
              cli_specs, st.sampled_from(("0.5", "0.99", "0.9999")),
              st.sampled_from(("csv", "json"))))


@given(argvs)
@settings(max_examples=800, deadline=None, derandomize=True)
# a phi3 limit at the pole at 0 that is not finite
@example(["classify", "--function", "laurent:p=0;res=1;b=[0,1e308]",
          "--class", "cop:p=0", "--radii", "2", "--angles", "8"])
@example(["margins", "--function", "laurent:p=0;res=1;b=[0,1e308]",
          "--theorem", "thm4", "--p", "0", "--radii", "2", "--angles", "8"])
# a disk parameter whose modulus overflows
@example(["curve", "--function", "anglemap:a=1.7e308+1.7e308i",
          "--angles", "64"])
def test_main_ends_every_input_in_an_exit_code(argv):
    with (contextlib.redirect_stdout(io.StringIO()) as out,
          contextlib.redirect_stderr(io.StringIO()) as err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    # a refused input or an empty scan writes no report, not even a header
    assert code < 2 or out.getvalue() == "", (code, err.getvalue())
