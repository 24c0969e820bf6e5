"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

The heavy lifting lives in concavemaps.verify; this file only surfaces the
results so a plain pytest run documents the contract. The suite runs once
per session (the twelfth criterion reruns the core internally to check
byte-identical reporting).
"""

import ast
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concavemaps import verify
from concavemaps.catalog import (Co0Cubic, HalfPlane, KAlpha, Kp, Laurent,
                                 _units, parse_spec)
from test_catalog import _angle_map, coeff_c, nonzero_c, open_unit

GOLDENS = Path(__file__).resolve().parents[1] / "tools" / "goldens.py"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_c07_fails_when_its_margins_lose_a_draw(monkeypatch):
    # each column keeps 9,999 of the 10,000 draws: still aligned, but short
    column = verify._column

    def losing_one(fn, ring, args):
        col, ms = column(fn, ring, args)
        return col, ms[1:]

    monkeypatch.setattr(verify, "_column", losing_one)
    res = verify._c07(verify.default_grid("fast"))
    assert not res.passed
    assert res.detail.endswith(" max|thm4-co0|=inf")


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
    "laurent:b=[0,1,0.5]",
    "laurent:b=[0,1,0.3,0.1]",
    "laurent:p=0.3;res=1;b=[0.2,0.1,0.1i]",
    "laurent:p=0.3;res=1;b=[0.2]",
    "laurent:p=0.3;res=1;b=[0.2,0,0.1i,1]",
])
def test_c10_contour_route_matches_eval_jet_on_laurent_specs(text):
    spec = parse_spec(text)
    j = spec.eval_jet(0.4 + 0.2j)
    for got, want in zip((j.v0, j.v1, j.v2, j.v3),
                         verify._contour_jet(spec, 0.4 + 0.2j)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), text


@pytest.mark.parametrize("spec, z", [
    (HalfPlane(), 0.95),                # 0.05 from the unit circle
    (Kp(0.5), 0.45 + 0.05j),            # 0.07 from the pole at 0.5
    (parse_spec("laurent:p=0.3;res=1;b=[0.2]"), 0.35),
])
def test_c10_contour_route_refuses_a_small_radius_before_sampling(
        spec, z, monkeypatch):
    def values(self, zs):
        raise AssertionError("sampled")
    monkeypatch.setattr(type(spec), "values", values)
    with pytest.raises(ValueError, match="no contour route"):
        verify._contour_jet(spec, z)


@pytest.mark.parametrize("field", [2, 3])
def test_c10_fails_on_a_perturbed_kernel(field, monkeypatch):
    # v2, then v3, of the half-plane kernel off by one part in 1e9
    kernel = HalfPlane.eval_jets

    def perturbed(self, zs):
        return [tuple(v * (1.0 + 1e-9) if k == field else v
                      for k, v in enumerate(w)) for w in kernel(self, zs)]
    monkeypatch.setattr(HalfPlane, "eval_jets", perturbed)
    res = verify._c10(verify.default_grid())
    assert not res.passed
    assert float(res.detail.split()[0].partition("=")[2]) > 1e-12


laurent_specs = st.builds(
    Laurent,
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9,
                                   exclude_max=True)),
    nonzero_c, st.lists(coeff_c, min_size=1, max_size=16).map(tuple))
contour_specs = st.one_of(
    laurent_specs,
    st.builds(KAlpha, st.floats(min_value=1.0, max_value=2.0)),
    st.builds(_angle_map,
              st.complex_numbers(min_magnitude=0.05, max_magnitude=0.99),
              nonzero_c, coeff_c).filter(lambda spec: spec is not None),
    # k_p's kernel squares c = p + 1/p; where that overflows, eval_jet
    # refuses every sample and leaves nothing to compare
    st.builds(Kp, open_unit.filter(lambda p: 1.0 / p / p < math.inf)),
    st.builds(Co0Cubic, coeff_c),
)


@given(contour_specs, st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                         allow_infinity=False))
@settings(max_examples=300, deadline=None)
@example(Laurent(None, 0j, (0j, 1.0 + 0j, 0.3 + 0j)), 0.4 + 0.2j)
def test_contour_route_error_stays_within_the_rounding_model(spec, z):
    # |contour - eval_jet| <= C k! 2^-52 max|f on the nodes| / rho^k with
    # C = 16. The largest C measured was 2.9 over 3,000 random specs, and
    # 7.9 over 15,000 draws of these strategies (an angle map with
    # |a| = 0.99, at k = 0)
    R = min([1.0 - abs(z)] + [abs(z - q) for q in spec.poles])
    assume(R >= 0.1)
    rho = R / 2.0
    top = max(abs(f) for f in spec.values([z + rho * e for e in _units(96)]))
    # the model is relative, so it stops where f nears the subnormal range
    assume(top > 2.0 ** -900)
    j = spec.eval_jet(z)
    for k, (got, want) in enumerate(zip(verify._contour_jet(spec, z),
                                        (j.v0, j.v1, j.v2, j.v3))):
        bound = 16 * math.factorial(k) * 2.0 ** -52 * top / rho ** k
        assert abs(got - want) <= bound, (spec, z, k)


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


def _imports_beyond_the_stdlib(extra: str = "") -> list[str]:
    """The top-level modules, other than concavemaps, that a fresh
    interpreter imports for concavemaps, its cli and verify (and extra)
    and that are not in the standard library."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"import concavemaps, concavemaps.cli, concavemaps.verify{extra}\n"
             "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(added - {'concavemaps'}"
             " - set(sys.stdlib_module_names)))\n")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return ast.literal_eval(run.stdout)


def test_the_package_imports_only_the_standard_library():
    # numpy is installed on many hosts, so a stray import of it would pass
    # every other test; the runtime stays stdlib-only
    assert _imports_beyond_the_stdlib() == []
    # and the probe sees a module that is not
    assert "hypothesis" in _imports_beyond_the_stdlib(", hypothesis")
