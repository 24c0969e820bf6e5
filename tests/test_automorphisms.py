"""Verdicts under disk automorphisms that fix z = 1.

Co is the class of univalent f on the disk with f(1) = infinity whose image
has a convex complement; Co(alpha), 1 < alpha <= 2, those whose image also
has an opening angle of at most pi alpha at infinity (Avkhadiev and Wirths,
2005; arXiv:2308.08385), each normalized by f(0) = 0 and f'(0) = 1.
T_a(z) = (z + a)/(1 + a z), a real in (-1, 1), maps the disk onto itself
and fixes z = 1, so g = f∘T_a has the image of f and its boundary point at
infinity: an affine post-composition normalizes g, and every margin is
invariant under one, so the formula lane must give g the verdict it gives f.
"""

import pytest

from concavemaps.catalog import AngleMap, FamilySpec, HalfPlane, KAlpha
from concavemaps.errors import SampleExclusionError
from concavemaps.margins import classify, default_grid


class Composed(FamilySpec):
    """g = f∘T_a for real a: values by composition, jets by the chain rule
    to third order over f's kernel at T_a(z). T_a maps the disk onto itself
    and fixes 1, so g has f's boundary pole at 1 and, for f without one, no
    interior pole."""

    boundary_pole = 1.0 + 0j

    def __init__(self, f: FamilySpec, a: float):
        self.f, self.a = f, a

    def _inner(self, col, kernel):
        """f's kernel at T_a of the live samples, without those it
        excludes, and the T_a column aligned with it."""
        ws = [(z + self.a) / (1.0 + self.a * z) for z in col.zs]
        out = kernel(ws)
        return col.drop_rows({k: e for k, e in enumerate(out)
                              if isinstance(e, SampleExclusionError)}, out, ws)

    def _values(self, col):
        return self._inner(col, self.f.values)[0]

    def _jets(self, col):
        a = self.a
        js, ws = self._inner(col, self.f.eval_jets)
        out = []
        for z, (v0, v1, v2, v3) in zip(col.zs, js):
            # T' = (1 - a^2)/(1 + a z)^2, T'' = -2a T'/(1 + a z),
            # T''' = 6 a^2 T'/(1 + a z)^2
            d = 1.0 + a * z
            t1 = (1.0 - a * a) / (d * d)
            t2 = -2.0 * a * t1 / d
            t3 = 6.0 * a * a * t1 / (d * d)
            out.append((v0, v1 * t1, v2 * t1 * t1 + v1 * t2,
                        v3 * t1 ** 3 + 3.0 * v2 * t1 * t2 + v1 * t3))
        return out


def test_the_double_composes_the_half_plane_map_in_closed_form():
    # z/(1-z) at T_a(z) is (z + a)/((1 - a)(1 - z)), whose k-th derivative
    # is k! (1 + a)/((1 - a)(1 - z)^(k+1))
    for a in (-0.5, 0.5):
        g = Composed(HalfPlane(), a)
        zs = [0.3 + 0.4j, -0.7 + 0j, 0.1 - 0.8j]
        for z, jet, value in zip(zs, g.eval_jets(zs), g.values(zs)):
            c = (1.0 + a) / (1.0 - a)
            want = ((z + a) / ((1.0 - a) * (1.0 - z)), c / (1.0 - z) ** 2,
                    2.0 * c / (1.0 - z) ** 3, 6.0 * c / (1.0 - z) ** 4)
            assert all(abs(got - w) <= 1e-13 * abs(w)
                       for got, w in zip(jet, want)), (a, z)
            assert value == jet[0]


@pytest.mark.parametrize("f, cls, verdict", [
    (KAlpha(1.5), "coalpha:alpha=1.5", "consistent"),
    (AngleMap(0.9j), "co", "consistent"),
    (KAlpha(2.0), "coalpha:alpha=1.5", "violation"),
], ids=str)
@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_an_automorphism_fixing_1_keeps_the_formula_verdict(f, cls, verdict, a):
    grid = default_grid("fast")
    assert classify(f, cls, grid).verdict == verdict
    assert classify(Composed(f, a), cls, grid).verdict == verdict
