"""The class lattice in the formula lane: Co(alpha) in Co(beta) for
alpha <= beta <= 2, and Co(2) = Co.

Co(alpha), 1 < alpha <= 2, is the class of univalent f on the disk with
f(1) = infinity whose image has a convex complement and an opening angle of
at most pi alpha at infinity, normalized by f(0) = 0 and f'(0) = 1
(Avkhadiev and Wirths, 2005; arXiv:2308.08385); Co is the class without the
angle bound. A larger alpha only weakens the bound, so Co(alpha) lies in
Co(beta) for alpha <= beta <= 2. The image of a map of Co is the exterior of
a convex set, whose opening angle at infinity is at most 2 pi, so every map
of Co meets the bound at alpha = 2: Co(2) = Co.

k_alpha maps the disk onto the exterior of a convex sector with an opening
angle of pi alpha at infinity, and an angle map with exponent 1 + b onto one
with pi (1 + b). Every margin is invariant under an affine post-composition,
so the normalization does not matter to the scans.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from concavemaps.catalog import KAlpha, parse_spec
from concavemaps.margins import classify, default_grid
from concavemaps.verify import control_roster, member_roster

GRID = default_grid("fast")

# the benchmark's seeded generator, whose angle maps are admissible draws
_SPECGEN = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
_loader = importlib.util.spec_from_file_location("perfbench_specgen", _SPECGEN)
specgen = importlib.util.module_from_spec(_loader)
sys.modules[_loader.name] = specgen  # its dataclass looks its module up
_loader.loader.exec_module(specgen)


def _alpha_pairs(seed: int, count: int) -> list[tuple[float, float]]:
    """count pairs alpha <= beta, alpha in [1, 2] and beta in [alpha, 2]."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        alpha = rng.uniform(1.0, 2.0)
        pairs.append((alpha, rng.uniform(alpha, 2.0)))
    return pairs


@pytest.mark.parametrize("alpha, beta", _alpha_pairs(14, 12), ids=repr)
def test_k_alpha_lies_in_every_larger_co_alpha(alpha, beta):
    for bound in (alpha, beta):
        got = classify(KAlpha(alpha), f"coalpha:alpha={bound!r}", GRID)
        assert got.verdict == "consistent", bound


ANGLE_MAPS = [cases[specgen.FAMILIES.index("anglemap")].spec
              for cases in specgen.rounds(77, 12)]


@pytest.mark.parametrize("text", ANGLE_MAPS)
def test_an_angle_map_lies_in_co_alpha_from_its_opening_angle_on(text):
    spec = parse_spec(text)
    edge = 1.0 + spec.b
    for beta in (edge, 2.0):
        got = classify(spec, f"coalpha:alpha={beta!r}", GRID)
        assert got.verdict == "consistent", beta
    if edge - 0.1 > 1.0:
        got = classify(spec, f"coalpha:alpha={edge - 0.1!r}", GRID)
        assert got.verdict == "violation"


CO_ROSTER = [spec for spec, cls in member_roster() + control_roster()
             if cls == "co"]


@pytest.mark.parametrize("spec", CO_ROSTER, ids=str)
def test_co_and_co_alpha_at_2_give_the_same_verdict(spec):
    # Co runs thm1 and the order test, Co(2) the lhs positivity and thm2:
    # different theorems of one class
    assert (classify(spec, "co", GRID).verdict
            == classify(spec, "coalpha:alpha=2.0", GRID).verdict)

