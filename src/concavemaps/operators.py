"""Pointwise differential-operator values driving the membership inequalities.

Everything here is a function of z, f''/f' and Sf (plus the class parameters
alpha and p), so every operator is invariant under affine post-composition
f -> c f + d. Each operator is written once, as a private scalar function
of z, pre = f''/f' and the jet fields it reads; the grid scans loop these
over the columns of a ring of samples. The public operators take an
OperatorPoint, which pairs one sample z with the function's jet there, and
check the class parameters before they call the scalar function.
Degenerate samples (vanishing denominators inside the 1e-12 floor) raise
SampleExclusionError subclasses so scanning layers can drop and count them.

The pole-at-origin families need two limit conventions, both resolved here:
phi3 at z=0 is taken as a radial limit (4 directions at |z|=1e-4, required to
agree within 1e-6), and a_p at p=0 is |phi3(0)|.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import catalog
from .errors import (
    CriticalPointError,
    IndeterminateSampleError,
    NonFiniteJetError,
    PhiUndefinedError,
    PoleProximityError,
)
from .jets import DEGENERACY_FLOOR, Jet3, _schwarzian


def _critical(z: complex) -> CriticalPointError:
    """The error of a sample whose |f'| lies inside the degeneracy floor."""
    return CriticalPointError(f"f'({z!r}) vanishes")


@dataclass(frozen=True, slots=True)
class OperatorPoint:
    """A sample z inside the disk together with the function's jet at z."""

    z: complex
    jet: Jet3

    def __post_init__(self):
        # before abs(), which can report a stale overflow on a NaN
        if not cmath.isfinite(self.z):
            raise NonFiniteJetError(f"sample {self.z!r} is not finite")
        if abs(self.z) >= 1.0:
            raise ValueError(f"sample {self.z!r} is not inside the unit disk")
        if self.jet.base_point != self.z:
            raise ValueError("jet was taken at a different point")
        if abs(self.jet.v1) < DEGENERACY_FLOOR:
            raise _critical(self.z)

    @staticmethod
    def at(spec: catalog.FamilySpec, z: complex) -> "OperatorPoint":
        z = complex(z)
        return OperatorPoint(z, spec.eval_jet(z))

    @property
    def pre_schwarzian(self) -> complex:
        return self.jet.v2 / self.jet.v1


# -- scalar operators (see the module docstring) -----------------------------------

def _a_f(z: complex, pre: complex) -> complex:
    return 0.5 * ((1.0 - abs(z) ** 2) * pre - 2.0 * z.conjugate())


def _phi(z: complex, v1: complex, v2: complex) -> complex:
    if abs(v2) < DEGENERACY_FLOOR:
        raise PhiUndefinedError(f"f''({z!r}) vanishes; phi is undefined")
    return z + 2.0 * v1 / v2


def _sf_norm(z: complex, pre: complex, v1: complex, v3: complex) -> float:
    return abs(_schwarzian(v1, v3, pre)) * (1.0 - abs(z) ** 2) ** 2


def _co_alpha(z: complex, pre: complex, alpha: float) -> float:
    val = 0.5 * (alpha + 1.0) * (1.0 + z) / (1.0 - z) - 1.0 - z * pre
    return val.real


def _q(p: float, z: complex) -> complex:
    if p == 0.0:
        return 0j
    if abs(z - p) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"q has its pole at {p!r}")
    den = 1.0 - p * z
    if abs(den) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"1 - pz vanishes at {z!r}")
    return 2.0 * p / (z - p) - 2.0 * p * z / den


def _varphi(z: complex, pre: complex, p: float) -> complex:
    den0 = 1.0 - p * z
    if abs(den0) < DEGENERACY_FLOOR:
        raise PoleProximityError(f"1 - pz vanishes at {z!r}")
    w = (z - p) / den0
    num = (z - p) * pre + 2.0 - 2.0 * p * w
    den = z * (z - p) * pre + 2.0 * p - 2.0 * p * z * w
    if abs(den) < DEGENERACY_FLOOR:
        raise IndeterminateSampleError(f"sample indeterminate: phi_p at {z!r}")
    return num / den


def _phis(z: complex, v1: complex, v2: complex) -> tuple[complex, complex]:
    if abs(v2) < DEGENERACY_FLOOR:
        raise PhiUndefinedError(f"f''({z!r}) vanishes; phi3 is undefined")
    den = z ** 3 * v2
    if abs(den) < DEGENERACY_FLOOR:
        raise IndeterminateSampleError(
            f"sample indeterminate: phi3 denominator z^3 f'' ~ 0 at {z!r}"
        )
    phi3 = (z * v2 + 2.0 * v1) / den
    den2 = 1.0 - z * z * phi3
    if abs(den2) < DEGENERACY_FLOOR:
        raise PhiUndefinedError(f"1 - z^2 phi3 vanishes at {z!r}")
    big_phi = (z.conjugate() - z * phi3) / den2
    return phi3, big_phi


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    return p


# -- operators at a point ----------------------------------------------------------

def a_f(pt: OperatorPoint) -> complex:
    """A_f(z) = ((1-|z|^2) f''/f' - 2 conj(z))/2; |A_f| >= 1 marks concavity."""
    return _a_f(pt.z, pt.pre_schwarzian)


def phi_of(pt: OperatorPoint) -> complex:
    """phi(z) = z + 2 f'/f''; a disk self-map for concave f."""
    return _phi(pt.z, pt.jet.v1, pt.jet.v2)


def schwarzian_norm(pt: OperatorPoint) -> float:
    """|Sf(z)| (1-|z|^2)^2, the invariant Schwarzian magnitude."""
    return _sf_norm(pt.z, pt.pre_schwarzian, pt.jet.v1, pt.jet.v3)


def co_alpha_lhs(pt: OperatorPoint, alpha: float) -> float:
    """Re{(alpha+1)/2 * (1+z)/(1-z) - 1 - z f''/f'}; positive for members."""
    return _co_alpha(pt.z, pt.pre_schwarzian, _check_alpha(alpha))


def q_term(p: float, z: complex) -> complex:
    """q(z) = 2p/(z-p) - 2pz/(1-pz); identically 0 when p = 0."""
    return _q(_check_p(p), complex(z))


def m_operator(pt: OperatorPoint, p: float) -> complex:
    """M(z) = 1 + z f''/f' + q(z); Re M < 0 characterizes pole-p members."""
    return 1.0 + pt.z * pt.pre_schwarzian + q_term(p, pt.z)


def varphi_p(pt: OperatorPoint, p: float) -> complex:
    """The interior-pole Schwarz factor phi_p(z) (equals omega(z)/z).

    phi_p = [(z-p)P + 2 - 2p(z-p)/(1-pz)] / [z(z-p)P + 2p - 2pz(z-p)/(1-pz)]
    with P = f''/f'; |phi_p| <= 1 on the disk for pole-p members.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return _varphi(pt.z, pt.pre_schwarzian, p)


def thm3_phis(pt: OperatorPoint) -> tuple[complex, complex]:
    """(phi3, Phi) with phi3 = (z f'' + 2f')/(z^3 f'') and
    Phi = (conj z - z phi3)/(1 - z^2 phi3).

    Undefined at z=0; pole-at-origin callers use thm3_phi3_origin instead.
    """
    return _phis(pt.z, pt.jet.v1, pt.jet.v2)


_LIMIT_RADIUS = 1e-4
_LIMIT_DIRS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
_LIMIT_AGREE = 1e-6


def thm3_phi3_origin(spec: catalog.FamilySpec) -> complex:
    """Radial-limit value of phi3 at z=0 (a removable singularity for the
    pole-at-origin families): 4 directions at |z|=1e-4 must agree to 1e-6."""
    vals = []
    for d in _LIMIT_DIRS:
        z = _LIMIT_RADIUS * d
        vals.append(thm3_phis(OperatorPoint(z, spec.eval_jet(z)))[0])
    mean = sum(vals) / len(vals)
    scale = max(1.0, abs(mean))
    if max(abs(v - mean) for v in vals) > _LIMIT_AGREE * scale:
        raise IndeterminateSampleError(
            "sample indeterminate: phi3 radial limits at 0 disagree"
        )
    return mean


def a_p_of(spec: catalog.FamilySpec, p: float) -> float:
    """The Schwarz constant a_p = |phi_p(0)|, computed exactly from the jet
    at the origin; for p = 0 it degenerates to |phi3(0)|."""
    p = _check_p(p)
    if p == 0.0:
        return abs(thm3_phi3_origin(spec))
    return abs(varphi_p(OperatorPoint.at(spec, 0j), p))
