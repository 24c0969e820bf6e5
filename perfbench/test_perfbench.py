"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import re
from pathlib import Path

import pytest

import run
import specgen
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def program():
    return run.import_program(ROOT)


def test_generator_is_deterministic_per_seed():
    a = specgen.rounds(7, 3)
    assert a == specgen.rounds(7, 3)
    assert a != specgen.rounds(8, 3)
    for cases in a:
        assert tuple(c.family for c in cases) == specgen.FAMILIES
    assert [c.spec for c in a[0]] != [c.spec for c in a[1]]


def test_generated_cases_match_ground_truth_at_fast_grid(program):
    grid = program.margins.default_grid("fast")
    for case in specgen.rounds(2024, 1)[0]:
        spec = program.catalog.parse_spec(case.spec)
        verdict = program.margins.classify(spec, case.cls, grid).verdict
        assert verdict == ("consistent" if case.member else "violation"), case
        oracle = program.oracle.oracle_concave(spec)
        assert (oracle == "concave-consistent") == case.member, case


def test_metric_names_carry_units_and_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for table, key in ((run.END_TO_END, "end_to_end"), (run.PER_LAYER, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert declared == table
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_tracer_counts_reconcile_and_bindings_are_restored(program, tmp_path):
    margins, cli = program.margins, program.cli
    scan, main = margins.scan, cli.main
    tracer = Tracer("concavemaps")
    tracer.install()
    try:
        assert margins.scan is not scan and cli.main is not main
        out = tmp_path / "report.json"
        rc = cli.main(["classify", "--function", "laurent:b=[0,1,0.3]",
                       "--class", "co", "--radii", "4", "--angles", "16",
                       "--out", str(out)])
    finally:
        tracer.uninstall()
    assert margins.scan is scan and cli.main is main
    assert rc == 1
    reports = json.loads(out.read_text())["reports"]
    assert tracer.samples_used == sum(r["samples_used"] for r in reports)
    assert tracer.stat("margins.scan")[0] == len(reports)
    assert tracer.stat("oracle.boundary_curve")[0] == 3
    assert tracer.curve_samples + tracer.curve_excluded == 3 * 4096
    assert tracer.jet_ops[0] > 0
    for calls, total, own in tracer.stats.values():
        assert calls >= 0 and 0.0 <= own <= total + 1e-9


def test_host_clock_advances_and_releases_the_alarm_signal():
    import signal
    import time

    from hostclock import HostClock

    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    clock.start()
    try:
        t0 = clock.now()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        elapsed = clock.now() - t0
    finally:
        clock.stop()
    assert elapsed > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
