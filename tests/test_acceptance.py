"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

The heavy lifting lives in concavemaps.verify; this file only surfaces the
results so a plain pytest run documents the contract. The suite runs once
per session (the twelfth criterion reruns the core internally to check
byte-identical reporting).
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from concavemaps import verify
from concavemaps.catalog import parse_spec

GOLDENS = Path(__file__).resolve().parents[1] / "tools" / "goldens.py"


@pytest.fixture(scope="session")
def run_all():
    return verify.run_all()


@pytest.fixture(scope="session")
def results(run_all):
    criteria, _bundle = run_all
    return {r.name: r for r in criteria}


def show(results, name):
    res = results[name]
    word = "PASS" if res.passed else "FAIL"
    print(f"{word}  {res.name}: {res.detail}")
    assert res.passed, f"{res.name}: {res.detail}"


def test_c01_thm1_equality_halfplane(results):
    show(results, "thm1-equality-halfplane")


def test_c02_thm1_rejects_identity(results):
    show(results, "thm1-rejects-identity")


def test_c03_corollary_sharp_cubic(results):
    show(results, "corollary-sharp-cubic")


def test_c04_co0_equality_locus(results):
    show(results, "co0-equality-locus")


def test_c05_thm3_equality_cubic(results):
    show(results, "thm3-equality-cubic")


def test_c06_thm2_origin_equality(results):
    show(results, "thm2-origin-equality")


def test_c07_thm4_scans_and_p0_reduction(results):
    show(results, "thm4-scans-and-p0-reduction")


def test_c08_omitted_segment_crossings(results):
    show(results, "omitted-segment-crossings")


@pytest.mark.parametrize("xs", [(), (0.1,)])
def test_c08_fails_without_two_crossings(xs, monkeypatch):
    monkeypatch.setattr(verify, "real_axis_crossings", lambda curve: xs)
    res = verify._c08(verify.default_grid())
    assert not res.passed
    assert res.detail.startswith(f"crossings={len(xs)} ")


def test_c09_oracle_classifier_agreement(results):
    show(results, "oracle-classifier-agreement")


def test_c10_jets_match_closed_forms(results):
    show(results, "jets-match-closed-forms")


@pytest.mark.parametrize("text", [
    "laurent:b=[0,1,0.5]",                  # not the fixed control
    "laurent:b=[0,1,0.3,0.1]",
    "laurent:p=0.3;res=1;b=[0.2,0.1,0.1i]",  # b1 != 0
    "laurent:p=0.3;res=1;b=[0.2]",
    "laurent:p=0.3;res=1;b=[0.2,0,0.1i,1]",
])
def test_c10_second_route_refuses_a_laurent_spec_it_does_not_describe(text):
    with pytest.raises(AssertionError, match="no second route"):
        verify._second_route(parse_spec(text), 0.4 + 0.2j)


def test_c11_schwarz_self_map_bounds(results):
    show(results, "schwarz-self-map-bounds")


def test_c12_byte_identical_reports(results):
    show(results, "byte-identical-reports")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_small_classify_runs_and_the_bundle_match_the_manifest(run_all):
    # a cheap subset of `tools/goldens.py --check`: the 6x32 classify runs
    # and the verify bundle, against the committed manifest's lines
    loader = importlib.util.spec_from_file_location("goldens", GOLDENS)
    goldens = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(goldens)
    header, *lines = goldens.MANIFEST.read_text(encoding="utf-8").splitlines()
    here = goldens._header().strip()
    if header != here:  # its floats are those of another Python or platform
        pytest.skip(f"the manifest pins {header.partition(': ')[2]}; "
                    f"this is {here.partition(': ')[2]}")
    manifest = {line.split("\t")[0]: line.split("\t")[1:] for line in lines}
    runs = [(name, argv) for name, argv in goldens._commands()
            if name.startswith("classify-") and name.endswith("-6x32.json")]
    assert len(runs) == 16
    for name, argv in runs:
        out, code, err = goldens._run(argv)
        assert [code, _sha256(out), _sha256(err)] == manifest[name], name
    _criteria, bundle = run_all
    assert manifest["verify.stdout"][3:] == ["verify_report.json",
                                             _sha256(bundle)]
