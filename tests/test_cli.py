"""CLI surface: exit codes, payload shapes, determinism."""

import json

import pytest

from concavemaps import cli
from concavemaps.catalog import EXCLUSION_RADIUS
from concavemaps.cli import main
from concavemaps.margins import default_grid
from concavemaps.oracle import DEFAULT_ANGLES

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
    for cls in ("cop:p=abc", "coalpha:alpha=x"):
        code, _, err = run(capsys, ["classify", "--function", "kp:p=0.5",
                                    "--class", cls] + FAST)
        assert code == 2
        assert "error:" in err and "position" in err


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


def test_overflowing_reciprocal_jet_excludes_the_origin(capsys):
    # 1/z + 1e200: at the origin pole the cube in 1/f's quotient rule
    # overflows, which must exclude the sample, not end in a traceback
    code, out, _ = run(capsys, ["classify", "--function",
                                "laurent:p=0;res=1;b=[1e200]", "--class", "co0",
                                "--radii", "2", "--angles", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    reports = {r["theorem"]: r for r in payload["reports"]}
    for theorem in ("thm3", "corollary"):
        assert reports[theorem]["samples_excluded"] == 1, theorem
        assert reports[theorem]["samples_used"] == 16, theorem


def test_empty_scan_exit_three(capsys):
    # one radius at 0.05 swallowed by epsilon=0.2, origin indeterminate
    code, _, err = run(capsys, ["margins", "--function", "co0cubic:a0=0",
                                "--theorem", "thm1", "--radii", "1",
                                "--epsilon", "0.2"])
    assert code == 3
    assert "degeneracy:" in err


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
    assert out.startswith("families:")
    for token in ("kp:p=<r>", "co0cubic:a0=<c>", "laurent:", "classes:"):
        assert token in out


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
