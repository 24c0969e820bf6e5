"""Pointwise differential-operator values driving the membership inequalities.

Everything here is a function of z, f''/f' and Sf (plus the class parameters
alpha and p), so every operator is invariant under affine post-composition
f -> c f + d.

Each operator is written once, over a ring of samples. `_Ring` holds the
samples as columns: z, the jet fields v1, v2 and v3, pre = f''/f' and
zp = z f''/f'. It is built once per ring of a grid from the family's column
kernel, and it excludes a sample whose |f'| lies inside the 1e-12 floor
(CriticalPointError) or whose f''/f' is not finite (NonFiniteJetError).
Each formula stage is one comprehension over the samples still live.
Between stages the column tests of `jets` (`_floored`, `_finite_errors`)
name the samples whose denominator lies inside the floor; a drop takes them
out of every column at once and keeps each one's SampleExclusionError, to
be placed back in the sample's position: the drop-and-place of the column
`jets._Rows`, which `_Ring` extends with its jet columns and its cache.

A ring form that several margins read (A_f, the Schwarzian norm, q and the
Co(alpha) column) goes through the ring's one cache, `_Ring.shared`, which
its copies share until they drop a sample: it is computed once per ring and
kept as its values at the samples it keeps and the errors of those it
drops, by ring position; each copy that reads it drops those samples, with
their errors, from itself and from the columns it carries.

`_ring` is the one way a ring is read off a spec's kernel: the sweep's
rings, margin_at's sample, phi'(1)'s radii and a_p's origin. The public
operators are the two that `margins` reads at a spec's origin,
thm3_phi3_origin and a_p_of; every other ring form is read through the
margin table (`margins.margin_at` at one sample), which checks the class
parameters. Nothing in the package calls OperatorPoint (one sample z with
the jet there): the benchmark's tracer (`perfbench/tracer.py`) wraps
`OperatorPoint.at`, and the tests keep it as the per-point reference.

At a simple pole at 0, f = res/z + b0 + b1 z + ..., phi3(0) = b1/res and
Sf(0) = -6 b1/res exactly (Duren, Univalent Functions, 1983); a_p at p = 0
is |phi3(0)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import catalog
from .errors import (
    CriticalPointError,
    IndeterminateSampleError,
    NonFiniteJetError,
    PhiUndefinedError,
    PoleProximityError,
    _only,
)
from .jets import (DEGENERACY_FLOOR, Jet3, _below, _finite_errors,
                   _floored, _overflowed, _Rows, _schwarzians)


def _critical(z: complex) -> CriticalPointError:
    """The error of a sample whose |f'| lies inside the degeneracy floor."""
    return CriticalPointError(f"f'({z!r}) vanishes")


@dataclass(frozen=True, slots=True)
class OperatorPoint:
    """A sample z inside the disk together with the function's jet at z."""

    z: complex
    jet: Jet3

    def __post_init__(self):
        catalog._require_in_disk(self.z)
        if self.jet.base_point != self.z:
            raise ValueError("jet was taken at a different point")
        if _below(self.jet.v1, DEGENERACY_FLOOR):
            raise _critical(self.z)

    @staticmethod
    def at(spec: catalog.FamilySpec, z: complex) -> "OperatorPoint":
        z = complex(z)
        return OperatorPoint(z, spec.eval_jet(z))


# -- the ring: samples as columns ----------------------------------------------

class _Ring(_Rows):
    """Samples as the columns the operators read: zs, the jet fields v1, v2
    and v3, pre = f''/f' and zp = z f''/f'. A drop takes the samples it
    names out of every column at once, and out of the columns it is handed,
    keeping their errors for placed. A copy drops without touching the
    ring it was copied from; the two share zs, which a drop replaces.

    The ring makes no disk test of its own: the kernel that take() reads
    makes it (and a ring for q alone, which is defined off the disk too,
    needs none).
    """

    __slots__ = ("v1", "v2", "v3", "pre", "zp", "_shared")

    def __init__(self, zs: list, columns: tuple = ((), (), (), (), ()),
                 shared: dict | None = None):
        super().__init__(zs)
        self.v1, self.v2, self.v3, self.pre, self.zp = columns
        self._shared = {} if shared is None else shared

    def take(self, jets: list) -> "_Ring":
        """The ring with the kernel's column at its samples (eval_jets(zs)):
        a kernel error is placed as it is; |f'| inside the degeneracy floor
        excludes a sample as a critical point, and an f''/f' that is not
        finite as an overflowed pre-Schwarzian. The tuples are transposed in
        one step, and the kernel's entries are looked at one by one only
        when one of them is an error."""
        if not all(map(tuple.__instancecheck__, jets)):  # a C-level screen
            jets = self.drop({k: j for k, j in enumerate(jets)
                              if type(j) is not tuple}, jets)
        if jets:
            _, self.v1, self.v2, self.v3 = zip(*jets)
        zs = self.zs
        self.drop({k: _critical(zs[k]) for k in _floored(self.v1)}, zs)
        pre = [v2 / v1 for v1, v2 in zip(self.v1, self.v2)]
        self.pre = self.drop({k: _overflowed("pre-Schwarzian")
                              for k in _finite_errors(pre)}, pre)
        self.zp = [z * q for z, q in zip(self.zs, self.pre)]
        return self

    def drop_rows(self, errors: dict, *columns: list) -> tuple[list, ...]:
        if not errors:
            return columns
        self._shared = {}
        self.v1, self.v2, self.v3, self.pre, self.zp, *rest = super().drop_rows(
            errors, self.v1, self.v2, self.v3, self.pre, self.zp, *columns)
        return tuple(rest)

    def _columns(self) -> tuple:
        return self.v1, self.v2, self.v3, self.pre, self.zp

    def copy(self) -> "_Ring":
        ring = _Ring(self.zs, self._columns(), self._shared)
        ring.n, ring.at, ring.errors = self.n, self.at, dict(self.errors)
        return ring

    def row(self, k: int) -> "_Ring":
        """The k-th live sample alone, as a one-sample ring."""
        return _Ring([self.zs[k]], [[c[k]] for c in self._columns()])

    def shared(self, form: tuple, *carry: list) -> tuple[list, ...]:
        """The ring form fn(ring, *args), form = (fn, *args), at the samples
        it keeps, and carry, columns aligned with zs, without the samples it
        drops, which leave the ring with their errors. The form is computed
        once however many margins read it: a copy shares the cache of its
        ring until either drops a sample."""
        got = self._shared.get(form)
        if got is None:
            fn, *args = form
            live = _Ring(self.zs, self._columns())
            got = self._shared[form] = (fn(live, *args), live.errors)
        ws, errors = got
        return (ws, *self.drop_rows(errors, *carry))


def _ring(spec: catalog.FamilySpec, zs: list[complex],
          epsilon: float | None) -> _Ring:
    """The samples zs through far_from_poles (unless epsilon is None; a
    sample near a pole is dropped with a PoleProximityError), the family's
    column kernel and the ring's own tests (see _Ring.take)."""
    ring = _Ring(list(zs))
    if epsilon is not None:
        far = spec.far_from_poles(ring.zs, epsilon)
        ring.drop({k: _near_pole(ring.zs[k], epsilon)
                   for k, ok in enumerate(far) if not ok}, ring.zs)
    return ring.take(spec.eval_jets(ring.zs))


def _near_pole(z: complex, epsilon: float) -> PoleProximityError:
    return PoleProximityError(f"sample {z!r} lies within {epsilon!r} of a pole")


# -- the operators over a ring (see the module docstring) ---------------------

def _a_f(col: _Ring) -> list[complex]:
    return [0.5 * ((1.0 - abs(z) ** 2) * q - 2.0 * z.conjugate())
            for z, q in zip(col.zs, col.pre)]


def _phi_undefined(z: complex, what: str) -> PhiUndefinedError:
    return PhiUndefinedError(f"f''({z!r}) vanishes; {what} is undefined")


def _pz_pole(z: complex) -> PoleProximityError:
    return PoleProximityError(f"1 - pz vanishes at {z!r}")


def _phi(col: _Ring) -> list[complex]:
    """phi(z) = z + 2 f'/f''; a disk self-map for concave f. A phi that is
    not finite is excluded as overflowed, as the ring's f''/f' is."""
    col.drop({k: _phi_undefined(col.zs[k], "phi") for k in _floored(col.v2)},
             col.zs)
    phis = [z + 2.0 * v1 / v2 for z, v1, v2 in zip(col.zs, col.v1, col.v2)]
    return col.drop({k: _overflowed("phi") for k in _finite_errors(phis)}, phis)


def _sf_norm(col: _Ring) -> list[float]:
    """|Sf|(1-|z|^2)^2 at each sample whose Schwarzian is finite."""
    ss, errors = _schwarzians(col.v1, col.v3, col.pre)
    ss = col.drop(errors, ss)
    return [abs(s) * (1.0 - abs(z) ** 2) ** 2 for s, z in zip(ss, col.zs)]


def _co_alpha(col: _Ring, alpha: float) -> list[float]:
    c = 0.5 * (alpha + 1.0)
    return [(c * (1.0 + z) / (1.0 - z) - 1.0 - zp).real
            for z, zp in zip(col.zs, col.zp)]


def _q(col: _Ring, p: float) -> list[complex]:
    if p == 0.0:
        return [0j] * len(col.zs)
    ds = [z - p for z in col.zs]
    ds = col.drop({k: PoleProximityError(f"q has its pole at {p!r}")
                   for k in _floored(ds)}, ds)
    dens = [1.0 - p * z for z in col.zs]
    dens, ds = col.drop_rows({k: _pz_pole(col.zs[k]) for k in _floored(dens)},
                             dens, ds)
    return [2.0 * p / d - 2.0 * p * z / den
            for z, d, den in zip(col.zs, ds, dens)]


def _varphi(col: _Ring, p: float) -> list[complex]:
    """The interior-pole Schwarz factor phi_p(z) (equals omega(z)/z).

    phi_p = [(z-p)P + 2 - 2p(z-p)/(1-pz)] / [z(z-p)P + 2p - 2pz(z-p)/(1-pz)]
    with P = f''/f'; |phi_p| <= 1 on the disk for pole-p members.
    """
    dens = [1.0 - p * z for z in col.zs]
    dens = col.drop({k: _pz_pole(col.zs[k]) for k in _floored(dens)}, dens)
    ws = [(z - p) / den for z, den in zip(col.zs, dens)]
    nums = [(z - p) * q + 2.0 - 2.0 * p * w
            for z, q, w in zip(col.zs, col.pre, ws)]
    dens = [z * (z - p) * q + 2.0 * p - 2.0 * p * z * w
            for z, q, w in zip(col.zs, col.pre, ws)]
    dens, nums = col.drop_rows(
        {k: IndeterminateSampleError(
            f"sample indeterminate: phi_p at {col.zs[k]!r}")
         for k in _floored(dens)}, dens, nums)
    return [num / den for num, den in zip(nums, dens)]


def _phis(col: _Ring) -> tuple[list, list]:
    """phi3 = (z f'' + 2f')/(z^3 f'') and Phi = (conj z - z phi3)/(1 - z^2
    phi3) at the samples where both are defined (not z = 0: pole-at-origin
    callers use thm3_phi3_origin there)."""
    col.drop({k: _phi_undefined(col.zs[k], "phi3") for k in _floored(col.v2)},
             col.zs)
    dens = [z ** 3 * v2 for z, v2 in zip(col.zs, col.v2)]
    dens = col.drop(
        {k: IndeterminateSampleError(
            f"sample indeterminate: phi3 denominator z^3 f'' ~ 0 at {col.zs[k]!r}")
         for k in _floored(dens)}, dens)
    phi3 = [(z * v2 + 2.0 * v1) / den
            for z, v1, v2, den in zip(col.zs, col.v1, col.v2, dens)]
    dens = [1.0 - z * z * f for z, f in zip(col.zs, phi3)]
    dens, phi3 = col.drop_rows(
        {k: PhiUndefinedError(f"1 - z^2 phi3 vanishes at {col.zs[k]!r}")
         for k in _floored(dens)}, dens, phi3)
    return phi3, [(z.conjugate() - z * f) / den
                  for z, f, den in zip(col.zs, phi3, dens)]


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    return p


# -- operators at a spec's origin ----------------------------------------------

def thm3_phi3_origin(spec: catalog.FamilySpec) -> complex:
    """phi3(0) = b1/res at a simple pole at 0 (`FamilySpec.origin_laurent`
    raises ValueError elsewhere); NonFiniteJetError where it is not finite,
    or too large for its modulus to be."""
    res, b1 = spec.origin_laurent()
    w = b1 / res
    # |w| <= |Re w| + |Im w|: where the sum is finite, abs(w) cannot overflow
    if not abs(w.real) + abs(w.imag) < math.inf:
        raise NonFiniteJetError(f"phi3 limit at 0 is not finite: {w!r}")
    return w


def a_p_of(spec: catalog.FamilySpec, p: float) -> float:
    """The Schwarz constant a_p = |phi_p(0)|, computed exactly from the jet
    at the origin; for p = 0 it degenerates to |phi3(0)|."""
    p = _check_p(p)
    if p == 0.0:
        return abs(thm3_phi3_origin(spec))
    ring = _ring(spec, [0j], None)
    return abs(_only(ring.placed(_varphi(ring, p))))
