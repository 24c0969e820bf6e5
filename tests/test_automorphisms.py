"""Verdicts under disk automorphisms that fix z = 1 or move a pole to 0.

Co is the class of univalent f on the disk with f(1) = infinity whose image
has a convex complement; Co(alpha), 1 < alpha <= 2, those whose image also
has an opening angle of at most pi alpha at infinity (Avkhadiev and Wirths,
2005; arXiv:2308.08385), each normalized by f(0) = 0 and f'(0) = 1. Co(p),
0 <= p < 1, is the class of meromorphic univalent f on the disk with a
simple pole at p whose image has a convex complement (arXiv:2308.08385),
normalized at 0 (by its residue there for p = 0, which is Co(0)).

T_a(z) = (z + a)/(1 + a z), a real in (-1, 1), maps the disk onto itself
and fixes z = 1, so g = f∘T_a has the image of f. Every margin is invariant
under an affine post-composition, which normalizes g, so the formula lane
must give g the verdict it gives f: in Co and Co(alpha), where g keeps its
boundary point at infinity, and across Co(p) and Co(0), since f with its
pole at p lies in Co(p) exactly when g = f∘T_p, whose pole lies at
T_p^-1(p) = 0, lies in Co(0).
"""

import cmath

import pytest

from concavemaps.catalog import (AngleMap, Co0Cubic, FamilySpec, HalfPlane,
                                 KAlpha, Kp, Laurent)
from concavemaps.errors import SampleExclusionError
from concavemaps.margins import classify, default_grid


def _laurent_at(f: FamilySpec, p: float) -> tuple[complex, complex]:
    """(res, c1) of f = res/(w - p) + c0 + c1 (w - p) + ... at its simple
    pole p, in closed form."""
    if isinstance(f, Kp) and f.p == p:
        # k_p(w) = h(w)/(w - p) with h(w) = -p w/(1 - p w) = 1 - 1/(1 - p w):
        # res = h(p) and c1 = h''(p)/2 = -p^2/(1 - p w)^3 at w = p
        s = 1.0 - p * p
        return complex(-p * p / s), complex(-p * p / s ** 3)
    if isinstance(f, Laurent) and f.pole == p:
        return f.residue, f.coeffs[1] if len(f.coeffs) > 1 else 0j
    raise ValueError(f"{f!r} has no simple pole at z = {p!r}")


def _circle_laurent(values, q: complex, h: float = 1e-2,
                    n: int = 16) -> tuple[complex, complex]:
    """(res, c1) of a map at its simple pole q, from its values at n points
    on the circle of radius h about q: the means of (z - q) f and f/(z - q)
    there, exact but for aliased terms of order h^n."""
    us = [h * cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    ws = values([q + u for u in us])
    return (sum(u * w for u, w in zip(us, ws)) / n,
            sum(w / u for u, w in zip(us, ws)) / n)


class Composed(FamilySpec):
    """g = f∘T_a for real a: values by composition, jets by the chain rule
    to third order over f's kernel at T_a(z). T_a maps the disk onto itself
    and fixes 1, so g keeps f's boundary pole at 1, if f has one, and has a
    pole at T_a^-1(q) = (q - a)/(1 - a q) for each pole q of f that T_a^-1
    does not send to infinity (q = 1/a, k_a's pole outside the disk)."""

    def __init__(self, f: FamilySpec, a: float):
        self.f, self.a = f, a
        self.boundary_pole = f.boundary_pole
        self.poles = tuple((q - a) / (1.0 - a * q) for q in f.poles
                           if 1.0 - a * q != 0)

    def origin_laurent(self) -> tuple[complex, complex]:
        """g's (res, b1) at 0 from f's (res, c1) at p = T_a(0) = a. With
        w - a = t1 z (1 + u z + v z^2 + ...) for w = T_a(z), where t_k is
        the k-th derivative of T_a at 0, u = t2/(2 t1) and v = t3/(6 t1),
        they are res/t1 and res (u^2 - v)/t1 + c1 t1. For T_a, t1 = 1 - a^2,
        u = -a and v = a^2, so u^2 - v = 0."""
        res, c1 = _laurent_at(self.f, self.a)
        t1 = 1.0 - self.a * self.a
        return res / t1, c1 * t1

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


@pytest.mark.parametrize("f", [
    Kp(0.2), Kp(0.5), Kp(0.8),
    Laurent(0.5, 2.0 - 1.0j, (1.0, 0.3 + 0.1j, 2.0)),
], ids=repr)
def test_the_laurent_data_at_p_and_at_0_match_the_values_near_there(f):
    # f's (res, c1) at its pole p, and g = f∘T_p's at its pole at 0, against
    # the means of f and g on a small circle about the pole
    p = f.poles[0].real
    for want, got in zip(_laurent_at(f, p), _circle_laurent(f.values, p)):
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-12, (f, want, got)
    g = Composed(f, p)
    assert g.poles[0] == 0
    for want, got in zip(g.origin_laurent(), _circle_laurent(g.values, 0j)):
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-12, (f, want, got)


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


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_k_p_in_cop_and_k_p_after_t_p_in_co0_agree(p):
    grid = default_grid("fast")
    assert classify(Kp(p), f"cop:p={p!r}", grid).verdict == "consistent"
    assert classify(Composed(Kp(p), p), "co0", grid).verdict == "consistent"


@pytest.mark.parametrize("f, verdict", [
    (Laurent(0.0, 1.0 + 0j, (0.0, 0.0, 0.25)), "consistent"),
    (Laurent(0.0, 1.0 + 0j, (0.0, 0.0, 0.3)), "violation"),
], ids=repr)
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_a_pole_at_0_moved_to_p_keeps_the_co0_verdict_in_cop(f, verdict, p):
    # T_-p sends 0 to -p, so the pole of g = f∘T_-p lies at T_-p^-1(0) = p
    grid = default_grid("fast")
    assert classify(f, "co0", grid).verdict == verdict
    assert classify(Composed(f, -p), f"cop:p={p!r}", grid).verdict == verdict


def test_the_cubic_moved_to_a_pole_at_one_half_keeps_its_co0_verdict():
    grid = default_grid("fast")
    f = Co0Cubic(0.3 + 0.2j)
    assert classify(f, "co0", grid).verdict == "consistent"
    g = Composed(f, -0.5)
    assert classify(g, "cop:p=0.5", grid).verdict == "consistent"
