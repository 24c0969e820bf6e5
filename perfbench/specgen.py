"""Seeded spec generator whose ground truth is known by construction.

Every round draws one case from each of eight families, in a fixed order, so
that every round has the same cost mix and only the parameters change with
the seed. Five families are members of the class they are checked against;
three are controls that both lanes (the margin scans and the geometric
oracle) must reject:

    kalpha      k_alpha, alpha in [1.05, 2]        member of co or coalpha(alpha)
    anglemap    admissible random sector map       member of co
    kp          k_p, p in [0.15, 0.85]             member of cop(p)
    co0cubic    1/z + a0 + z, |a0| < 1             member of co0
    recip       res/z                              member of co0
    poly2       z + c z^2, |c| in [0.1, 0.45]      control against co
    dilated16   16-term truncated z/(1 - rho z)    control against co
    recipcubic  1/z + c z^2, c in [1, 3]           control against co0

The costly jet-composed families (kalpha, anglemap, dilated16) stay in every
round on purpose: they are where per-sample cost is highest.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

FAMILIES = ("kalpha", "anglemap", "kp", "co0cubic", "recip",
            "poly2", "dilated16", "recipcubic")


@dataclass(frozen=True)
class Case:
    """One spec/class pair and what the program must say about it."""

    family: str
    spec: str
    cls: str
    member: bool
    # Points the scans and the oracle exclude within epsilon of: interior
    # poles, plus z = 1 for the boundary-pole families.
    poles: tuple[complex, ...] = ()
    boundary_pole: bool = False


def _real(x: float) -> str:
    return f"{x:.6f}"


def _cplx(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _rounded(z: complex) -> complex:
    return complex(float(f"{z.real:.6f}"), float(f"{z.imag:.6f}"))


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return _rounded(cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)))


def _kalpha(rng: random.Random) -> Case:
    alpha = _real(rng.uniform(1.05, 2.0))
    cls = "co" if rng.random() < 0.5 else f"coalpha:alpha={alpha}"
    return Case("kalpha", f"kalpha:alpha={alpha}", cls, True, boundary_pole=True)


def _anglemap(rng: random.Random) -> Case:
    # Admissible: |a|^2 > Re a and phi'(1) = (1-|a|^2)/|1-a|^2 <= 1/3, each
    # with a margin so that no draw sits on the edge of the family.
    while True:
        a = _polar(rng, 0.3, 0.95)
        phi1 = (1.0 - abs(a) ** 2) / abs(1.0 - a) ** 2
        if abs(a) ** 2 - a.real > 0.05 and phi1 < 1.0 / 3.0 - 0.01:
            return Case("anglemap", f"anglemap:a={_cplx(a)}", "co", True,
                        boundary_pole=True)


def _kp(rng: random.Random) -> Case:
    p = _real(rng.uniform(0.15, 0.85))
    return Case("kp", f"kp:p={p}", f"cop:p={p}", True,
                poles=(complex(float(p)), complex(1.0 / float(p))))


def _co0cubic(rng: random.Random) -> Case:
    a0 = _polar(rng, 0.0, 0.95)
    return Case("co0cubic", f"co0cubic:a0={_cplx(a0)}", "co0", True, poles=(0j,))


def _recip(rng: random.Random) -> Case:
    res = _polar(rng, 0.25, 4.0)
    return Case("recip", f"laurent:p=0;res={_cplx(res)};b=[]", "co0", True,
                poles=(0j,))


def _poly2(rng: random.Random) -> Case:
    c = _polar(rng, 0.1, 0.45)
    return Case("poly2", f"laurent:b=[0,1,{_cplx(c)}]", "co", False)


def _dilated16(rng: random.Random) -> Case:
    rho = float(_real(rng.uniform(0.5, 0.9)))
    coeffs = ",".join(repr(rho ** (k - 1)) for k in range(1, 17))
    return Case("dilated16", f"laurent:b=[0,{coeffs}]", "co", False)


def _recipcubic(rng: random.Random) -> Case:
    c = _real(rng.uniform(1.0, 3.0))
    return Case("recipcubic", f"laurent:p=0;res=1;b=[0,0,{c}]", "co0", False,
                poles=(0j,))


_MAKERS = (_kalpha, _anglemap, _kp, _co0cubic, _recip, _poly2, _dilated16,
           _recipcubic)


def rounds(seed: int, count: int) -> list[list[Case]]:
    """The first `count` rounds for `seed`; the same seed gives the same cases."""
    rng = random.Random(seed)
    return [[make(rng) for make in _MAKERS] for _ in range(count)]
