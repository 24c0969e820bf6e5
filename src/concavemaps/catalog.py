"""Function families, their third-order jet kernels and their values.

Six concrete families cover every map the membership tests need: the
half-plane map z/(1-z), the angle family k_alpha (alpha=2 is the Koebe map),
affine sector maps built from a disk automorphism parameter a, the
interior-pole extremal k_p, the cubic 1/z + a0 + z, and general truncated
Laurent series with an optional simple pole. The half-plane map, k_p and
the cubic carry hand-derived derivative formulas. k_alpha, the sector maps
and the pole term of a Laurent series compose their jets from the column
rules of `jets`, so the branch handling lives in one place (the log rule);
a Laurent series runs its Horner in Jet3 arithmetic.

Each family has two column kernels, which take a list of samples (one ring
of a grid, or one oracle curve) and return one entry per sample:
eval_jets(zs) the jet fields (v0, v1, v2, v3), each checked finite, and
values(zs) f alone, which is all the geometric oracle reads. A sample that
cannot be evaluated gets the SampleExclusionError that excluded it in its
place. FamilySpec runs both kernels the same way: one ordered pass checks
that the samples lie in the disk (`_in_disk`, which returns them as a
`jets._Rows` column), the family's hook (_jets or _values) computes the
samples still live, and the column's finiteness test places the errors. In a
hook each arithmetic stage is one comprehension over the live samples
(Laurent's Horner loops over the coefficients, in Jet3 arithmetic for the
jets, from the leading coefficient). Between stages the finiteness,
degeneracy-floor and branch-cut tests of `jets` drop the samples that fail,
their errors placed as values, never raised and caught; each message is
built by the one helper of `jets` that Jet3's operators use too. _values
repeats, in the same order, the complex operations that give the v0 of
_jets, so the two agree bit for bit; constants that depend only on the spec
are computed once per call. eval_jet(z) is the one-sample call into
eval_jets that raises the stored error again.

The kernels exclude a sample only on genuine degeneracy (a denominator
inside the 1e-12 floor or a branch-cut hit) or when it is not finite; a
sample outside the disk raises ValueError for the whole call. Pole
neighborhoods are excluded by the samplers, through the one rule they
share, the column FamilySpec.far_from_poles, at the radius EXCLUSION_RADIUS
unless the caller names another. They share their circles too: a grid
ring or an oracle curve of radius r takes r * e for each e of `_units(n)`,
computed once per n for the last four n; MAX_SAMPLES caps one grid or
curve, and `_count` refuses an angle or radius count that is not an integer.

The module also owns the spec mini-grammar used by the CLI:

    halfplane
    koebe                        (alias for kalpha:alpha=2)
    identity                     (alias for laurent:b=[0,1])
    kalpha:alpha=<r>
    anglemap:a=<c>[,A=<c>,B=<c>]
    kp:p=<r>
    co0cubic:a0=<c>
    laurent:p=<r>;res=<c>;b=[<c>,...]
    laurent:b=[<c>,...]

with complex literals written <re>+<im>i; a literal that overflows a float
is refused. format_spec emits the canonical form; parse_spec(format_spec(s))
== s for every spec.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import re as _re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

from .errors import (NonFiniteJetError, PoleProximityError, SpecParseError,
                     _only)
from .jets import (_ONE, DEGENERACY_FLOOR, Jet3, _below, _floored,
                   _inverse_errors, _jadds, _jconst, _jet, _jmuls, _jrecips,
                   _jsubs, _Rows)

# the constant jets lift every plain number to complex; the value paths use
# the complex constant _ONE too, so that each operation matches the jet's v0
_J_ONE = _jconst(_ONE)


def _sample_not_finite(z: complex) -> NonFiniteJetError:
    return NonFiniteJetError(f"sample {z!r} is not finite")


def _outside_disk(z: complex) -> ValueError:
    return ValueError(f"sample {z!r} is not inside the unit disk")


def _in_disk(zs: Sequence[complex]) -> _Rows:
    """The samples of one kernel call as a column (`jets._Rows`), after one
    ordered pass of the disk tests: a sample that is not finite is dropped
    with its error, and the first one outside the disk raises ValueError
    for the whole call."""
    col = _Rows(list(map(complex, zs)))
    zs = col.zs
    try:
        # finiteness first: abs() can report a stale overflow on a NaN
        inside = (all(map(cmath.isfinite, zs))
                  and max(map(abs, zs), default=0.0) < 1.0)
    except OverflowError:  # an |z| beyond the floats; the loop finds it
        inside = False
    if not inside:
        errors = {}
        for k, z in enumerate(zs):
            if not cmath.isfinite(z):
                errors[k] = _sample_not_finite(z)
            elif not _below(z, 1.0):
                raise _outside_disk(z)
        col.drop(errors, zs)
    return col


def _require_in_disk(z: complex) -> complex:
    """z as a complex, through _in_disk's tests: its error raised if it
    fails one."""
    col = _in_disk((z,))
    return _only(col.placed(col.zs))


class FamilySpec:
    """Base class; the concrete families below are frozen dataclasses. Each
    writes only two hooks, _jets(col) and _values(col): f's tuple jets and
    values at the live samples of col, dropping those a test refuses;
    eval_jets and values run the rest of the column protocol around them."""

    # interior poles (points where f itself blows up; 1/p for k_p is listed
    # although it lies outside the disk, so near-boundary exclusion works)
    poles: tuple[complex, ...] = ()
    # boundary point where f tends to infinity (z=1 for the unbounded families)
    boundary_pole: complex | None = None

    def eval_jets(self, zs: Sequence[complex]) -> list:
        """Per sample of zs, the jet fields (v0, v1, v2, v3) of f there, each
        checked finite, or the SampleExclusionError that excluded it. A
        sample outside the disk raises ValueError for the whole call."""
        col = _in_disk(zs)
        return col.jets(self._jets(col))

    def values(self, zs: Sequence[complex]) -> list:
        """Per sample of zs, f there, bit for bit equal to the v0 that
        eval_jets gives, or the SampleExclusionError that excluded it."""
        col = _in_disk(zs)
        return col.result(self._values(col))

    def eval_jet(self, z: complex) -> Jet3:
        """Jet of f at z, with every field checked finite."""
        z = complex(z)
        return _jet(z, *_only(self.eval_jets((z,))))

    def origin_laurent(self) -> tuple[complex, complex]:
        """(res, b1) of f = res/z + b0 + b1 z + ... at a simple pole at 0;
        ValueError for a family without one."""
        raise ValueError(f"{format_spec(self)} has no simple pole at z = 0")

    def far_from_poles(self, zs: Sequence[complex],
                       epsilon: float) -> list[bool]:
        """Per sample of zs, whether it lies within epsilon of no pole and
        not of the boundary pole: the exclusion rule of the grid scans and
        the oracle alike, which keep the samples it calls far. A NaN sample
        is near nothing, so it is kept."""
        far = [True] * len(zs)
        bp = self.boundary_pole
        for q in self.poles if bp is None else (*self.poles, bp):
            far = [ok and not abs(z - q) < epsilon for ok, z in zip(far, zs)]
        return far

    def __str__(self) -> str:
        return format_spec(self)


@dataclass(frozen=True)
class HalfPlane(FamilySpec):
    """l(z) = z/(1-z), mapping the disk onto Re w > -1/2."""

    boundary_pole = 1.0 + 0j

    def _jets(self, col: _Rows) -> list:
        return [(z * iu, iu * iu, 2 * iu ** 3, 6 * iu ** 4)
                for z in col.zs for iu in [1.0 / (1.0 - z)]]

    def _values(self, col: _Rows) -> list:
        return [z * (1.0 / (1.0 - z)) for z in col.zs]


@dataclass(frozen=True)
class KAlpha(FamilySpec):
    """k_alpha(z) = (((1+z)/(1-z))**alpha - 1)/(2 alpha), alpha in [1,2].

    alpha=1 collapses to the half-plane map and alpha=2 to the Koebe map
    z/(1-z)^2; both identities are exercised by tests.
    """

    alpha: float
    boundary_pole = 1.0 + 0j

    def __post_init__(self):
        a = float(self.alpha)
        if not (1.0 <= a <= 2.0):
            raise ValueError(f"alpha must lie in [1, 2], got {a!r}")
        object.__setattr__(self, "alpha", a)

    def _jets(self, col: _Rows) -> list:
        # (u.pow(alpha) - 1.0) / (2.0 * alpha) with u = (1 + zj) / (1 - zj),
        # which maps the disk to Re u > 0, clear of the cut
        alpha = self.alpha
        # 1/(2 alpha) as a jet; 2 alpha >= 2 passes the reciprocal's tests
        (scale,) = _jrecips([_jconst(2.0 * alpha)])
        xs = [(z, _ONE, 0j, 0j) for z in col.zs]
        rs, xs = col.jrecip(_jsubs(repeat(_J_ONE), xs), xs)
        us = _jmuls(_jadds(xs, repeat(_J_ONE)), rs)
        return _jmuls(_jsubs(col.jpow(us, alpha), repeat(_J_ONE)),
                      repeat(scale))

    def _values(self, col: _Rows) -> list:
        alpha = complex(self.alpha)
        scale = 1.0 / complex(2.0 * self.alpha)  # 2 alpha >= 2: no test fails
        ds = [_ONE - z for z in col.zs]
        ds = col.drop(_inverse_errors(ds, col.zs), ds)
        us = [(z + _ONE) * (1.0 / d) for z, d in zip(col.zs, ds)]
        return [(e - _ONE) * scale for e in col.pow(us, alpha)]


@dataclass(frozen=True)
class AngleMap(FamilySpec):
    """Affine sector map f(z) = A((z-lam)/(z-1))**(1+b) + B.

    The disk parameter a determines nu = -(1-conj(a))/(1-a), lam = nu*a/conj(a)
    (both unimodular) and the exponent b = (1-|a|^2)/(|a|^2 - Re a) in [0,1].
    Internally the power is taken of s = (z-lam)/(lam(z-1)), whose image is a
    half-plane bounded by a line through 0 that misses (-inf, 0], so the
    principal branch is safe on the whole open disk; the factor lam**(1+b) is
    folded into the leading coefficient `lead` = A lam**(1+b).
    """

    a: complex
    A: complex = 1.0 + 0j
    B: complex = 0j
    nu: complex = field(init=False, repr=False, compare=False)
    lam: complex = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)
    phi1: float = field(init=False, repr=False, compare=False)
    lead: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", complex(self.B))
        if a == 0:
            raise ValueError("a=0 fixes every point; no sector map exists")
        if not _below(a, 1.0):
            raise ValueError(f"a must lie inside the unit disk, got {a!r}")
        if self.A == 0:
            raise ValueError("leading coefficient A must be nonzero")
        d = abs(a) ** 2 - a.real
        if abs(d) < 1e-15:
            raise ValueError("|a|^2 = Re a forces phi'(1) = 1; no such map")
        phi1 = (1.0 - abs(a) ** 2) / abs(1.0 - a) ** 2
        if d < 0 or phi1 > 1.0 / 3.0 + 1e-12:
            raise ValueError(
                f"phi'(1) = {phi1:.6g} falls outside [0, 1/3]; a is inadmissible"
            )
        b = (1.0 - abs(a) ** 2) / d
        nu = -(1.0 - a.conjugate()) / (1.0 - a)
        lam = nu * a / a.conjugate()
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", min(b, 1.0))
        object.__setattr__(self, "phi1", phi1)
        rot = cmath.exp((1.0 + self.b) * cmath.log(lam))
        object.__setattr__(self, "lead", self.A * rot)

    boundary_pole = 1.0 + 0j

    def _jets(self, col: _Rows) -> list:
        # lead * s.pow(1.0 + b) + B with s = (zj - lam) / (lam * (zj - 1.0))
        lam, lead, B = _jconst(self.lam), _jconst(self.lead), _jconst(self.B)
        xs = [(z, _ONE, 0j, 0j) for z in col.zs]
        rs, xs = col.jrecip(_jmuls(_jsubs(xs, repeat(_J_ONE)), repeat(lam)), xs)
        ss = _jmuls(_jsubs(xs, repeat(lam)), rs)
        return _jadds(_jmuls(col.jpow(ss, 1.0 + self.b), repeat(lead)),
                      repeat(B))

    def _values(self, col: _Rows) -> list:
        lam, lead, B = self.lam, self.lead, self.B
        power = complex(1.0 + self.b)
        ds = [(z - _ONE) * lam for z in col.zs]
        ds = col.drop(_inverse_errors(ds, col.zs), ds)
        ss = [(z - lam) * (1.0 / d) for z, d in zip(col.zs, ds)]
        return [e * lead + B for e in col.pow(ss, power)]


@dataclass(frozen=True)
class Kp(FamilySpec):
    """k_p(z) = z/((1-z/p)(1-pz)) = z/(1 - cz + z^2) with c = p + 1/p.

    Simple poles at p and 1/p; maps the disk onto the plane minus a real
    segment, so it is the extremal interior-pole concave map.
    """

    p: float
    # the base class field, set from p in __post_init__ instead of passed in
    poles: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = float(self.p)
        if not (0.0 < p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {p!r}")
        if not math.isfinite(1.0 / p):
            raise ValueError(f"1/p overflows for p = {p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "poles", (complex(p), complex(1.0 / p)))

    def _denominators(self, col: _Rows) -> tuple[float, list]:
        """delta = c - 2 = (1-p)^2/p and d = (z-p)(z-1/p) at each of col's
        samples whose d lies outside the floor; the others are dropped. The
        factored d keeps its relative error near eps where 1 - cz + z^2
        cancels (p near 1, z near 1)."""
        p, q = self.p, self.poles[1].real
        ds = [(z - p) * (z - q) for z in col.zs]
        return ((1.0 - p) ** 2 / p,
                col.drop({k: _kp_pole(col.zs[k]) for k in _floored(ds)}, ds))

    def _jets(self, col: _Rows) -> list:
        # with u = 1 - z, the numerators 1 - z^2, c - 3z + z^3 and
        # c^2 - 1 - 4cz + 6z^2 - z^4 in forms that do not cancel near z = 1
        delta, ds = self._denominators(col)
        c2 = self.p + 1.0 / self.p + 2.0
        return [
            (z / d,
             u * (1.0 + z) * id2,
             2 * (delta + u * u * (2.0 + z)) * id2 / d,
             6 * (delta * (c2 - 4 * z) + u * u * u * (3.0 + z)) * id2 * id2)
            for z, d in zip(col.zs, ds)
            for id2 in [1.0 / (d * d)] for u in [1.0 - z]]

    def _values(self, col: _Rows) -> list:
        _, ds = self._denominators(col)
        return [z / d for z, d in zip(col.zs, ds)]


def _kp_pole(z: complex) -> PoleProximityError:
    return PoleProximityError(f"k_p denominator vanishes at {z!r}")


@dataclass(frozen=True)
class Co0Cubic(FamilySpec):
    """f(z) = 1/z + a0 + z, the pole-at-origin extremal (omits a0 + [-2, 2])."""

    a0: complex = 0j
    poles = (0j,)

    def __post_init__(self):
        object.__setattr__(self, "a0", complex(self.a0))

    @staticmethod
    def _off_pole(col: _Rows) -> list:
        """col's live samples, after dropping those inside the pole's floor."""
        return col.drop({k: _cubic_pole() for k in _floored(col.zs)}, col.zs)

    def _jets(self, col: _Rows) -> list:
        a0 = self.a0
        return [(iz + a0 + z, 1.0 - iz2, 2 * iz2 * iz, -6 * iz2 * iz2)
                for z in self._off_pole(col)
                for iz in [1.0 / z] for iz2 in [iz * iz]]

    def _values(self, col: _Rows) -> list:
        a0 = self.a0
        return [1.0 / z + a0 + z for z in self._off_pole(col)]

    def origin_laurent(self) -> tuple[complex, complex]:
        return 1.0 + 0j, 1.0 + 0j


def _cubic_pole() -> PoleProximityError:
    return PoleProximityError("1/z + a0 + z has its pole at 0")


@dataclass(frozen=True)
class Laurent(FamilySpec):
    """residue/(z-p) + sum b_k (z-p)^k, or a plain polynomial when p is None.

    The general-purpose family: members of no named family, controls for the
    oracle, and truncated Taylor expansions all live here.
    """

    pole: float | None
    residue: complex
    coeffs: tuple[complex, ...]
    poles: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.pole is not None:
            p = float(self.pole)
            if not (0.0 <= p < 1.0):
                raise ValueError(f"pole must lie in [0, 1), got {p!r}")
            if _below(complex(self.residue), DEGENERACY_FLOOR):
                raise ValueError("a pole needs a nonzero residue")
            object.__setattr__(self, "pole", p)
        object.__setattr__(self, "residue", complex(self.residue))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "poles",
                           () if self.pole is None else (complex(self.pole),))

    def _poly_values(self, us: list) -> list:
        # Horner from the zero polynomial, with the samples inside
        acc = [0j] * len(us)
        for c in reversed(self.coeffs):
            acc = [a * u + c for a, u in zip(acc, us)]
        return acc

    def _poly_jets(self, zs: list, us: list) -> list:
        """Horner in Jet3 arithmetic (perfbench counts its operator calls)
        on each tuple jet of us, at its sample of zs. Its first step from the
        zero jet, on a finite u of value w, is exactly (lead + 0j * w, 0j,
        0j, 0j): adding the lifted lead's 0j makes each zero product +0j."""
        if not self.coeffs:
            return [(0j, 0j, 0j, 0j)] * len(us)
        lead, *rest = reversed(self.coeffs)
        out = []
        for z, u in zip(zs, us):
            acc = _jet(z, lead + 0j * u[0], 0j, 0j, 0j)
            u = _jet(z, *u)
            for c in rest:
                acc = acc * u + c
            out.append((acc.v0, acc.v1, acc.v2, acc.v3))
        return out

    def _jets(self, col: _Rows) -> list:
        # residue * (zj - pole).reciprocal() + poly(zj - pole), or poly(zj)
        xs = [(z, _ONE, 0j, 0j) for z in col.zs]
        if self.pole is None:
            return self._poly_jets(col.zs, xs)
        us = _jsubs(xs, repeat(_jconst(self.pole)))
        rs, us = col.jrecip(us, us)
        return _jadds(_jmuls(rs, repeat(_jconst(self.residue))),
                      self._poly_jets(col.zs, us))

    def _values(self, col: _Rows) -> list:
        if self.pole is None:
            return self._poly_values(col.zs)
        pole, residue = complex(self.pole), self.residue
        us = [z - pole for z in col.zs]
        us = col.drop(_inverse_errors(us, col.zs), us)
        return [1.0 / u * residue + b
                for u, b in zip(us, self._poly_values(us))]

    def origin_laurent(self) -> tuple[complex, complex]:
        # a pole inside the floor of 0 is the margins' pole at 0 too
        if self.pole is None or self.pole >= DEGENERACY_FLOOR:
            return super().origin_laurent()
        return self.residue, self.coeffs[1] if len(self.coeffs) > 1 else 0j


# The stock exclusion radius: samples within it of a pole are excluded.
EXCLUSION_RADIUS = 0.05


def require_epsilon(epsilon: float) -> float:
    """An exclusion radius for far_from_poles, refused unless finite and
    positive."""
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return epsilon


# Most samples one grid or oracle curve may hold, 64 times the benchmark's
# 16384-angle curves; larger requests are refused before any is sampled.
MAX_SAMPLES = 2 ** 20


def _count(what: str, n) -> int:
    """n as an int, or ValueError: 256.0 would pass for 256 in _units' cache."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {n!r}") from None


@functools.lru_cache(maxsize=4)
def _units(n: int) -> tuple[complex, ...]:
    """exp(2 pi i j / n) for j < n; a ring or curve of radius r takes r * e."""
    step = 2.0 * math.pi / n
    return tuple([cmath.exp(1j * (step * j)) for j in range(n)])


def omitted_segment(p: float) -> tuple[float, float]:
    """Endpoints of the real segment omitted by k_p: (1/(2-1/p-p), -1/(2+1/p+p))."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return (1.0 / (2.0 - 1.0 / p - p), -1.0 / (2.0 + 1.0 / p + p))


# -- mini-grammar ------------------------------------------------------------

_FLOAT_RE = _re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _fmt_c(c: complex) -> str:
    if c.imag >= 0 or c.imag != c.imag:
        return f"{c.real!r}+{c.imag!r}i"
    return f"{c.real!r}-{-c.imag!r}i"


def _parse_complex(text: str, pos: int) -> complex:
    """<re>+<im>i, <re>, or <im>i; pos is the literal's offset for errors."""
    s = text.strip()
    if not s:
        raise SpecParseError("empty complex literal", pos)
    m = _FLOAT_RE.match(s)
    if not m:
        raise SpecParseError(f"malformed complex literal {text!r}", pos)
    head, rest = m.group(0), s[m.end():]
    if rest == "":
        return complex(_literal_float(head, text, pos), 0.0)
    if rest == "i":
        return complex(0.0, _literal_float(head, text, pos))
    m2 = _FLOAT_RE.match(rest)
    if m2 and rest[m2.end():] == "i" and rest[0] in "+-":
        return complex(_literal_float(head, text, pos),
                       _literal_float(m2.group(0), text, pos))
    raise SpecParseError(f"malformed complex literal {text!r}", pos)


def _parse_real(text: str, pos: int) -> float:
    m = _FLOAT_RE.match(text.strip())
    if not m or m.group(0) != text.strip():
        raise SpecParseError(f"malformed real literal {text!r}", pos)
    return _literal_float(text, text, pos)


def _literal_float(digits: str, text: str, pos: int) -> float:
    """The float of a matched literal, refused where it overflows to inf,
    which format_spec could not write back."""
    x = float(digits)
    if not math.isfinite(x):
        raise SpecParseError(f"literal {text!r} overflows a float", pos)
    return x


def _split_kv(part: str, base: int) -> tuple[str, str, int]:
    eq = part.find("=")
    if eq < 0:
        raise SpecParseError(f"expected key=value, got {part!r}", base)
    return part[:eq].strip(), part[eq + 1:], base + eq + 1


def _wrap_range(exc: ValueError, text: str) -> SpecParseError:
    colon = text.find(":")
    return SpecParseError(str(exc), colon + 1 if colon >= 0 else 0)


def parse_spec(text: str) -> FamilySpec:
    """Parse a mini-grammar spec string; rejects anything else with a
    position-annotated SpecParseError."""
    s = text.strip()
    shift = len(text) - len(text.lstrip())
    head, sep, tail = s.partition(":")
    body_at = shift + len(head) + 1
    name = head.strip().lower()
    try:
        if name == "halfplane":
            _expect_no_body(sep, tail, body_at)
            return HalfPlane()
        if name == "koebe":
            _expect_no_body(sep, tail, body_at)
            return KAlpha(2.0)
        if name == "identity":
            _expect_no_body(sep, tail, body_at)
            return Laurent(None, 0j, (0j, 1.0 + 0j))
        if name == "kalpha":
            kv = _kv_map(tail, body_at, {"alpha"}, ",")
            return KAlpha(_parse_real(*_need(kv, "alpha", body_at)))
        if name == "anglemap":
            kv = _kv_map(tail, body_at, {"a", "A", "B"}, ",")
            a = _parse_complex(*_need(kv, "a", body_at))
            A = _parse_complex(*kv["A"]) if "A" in kv else 1.0 + 0j
            B = _parse_complex(*kv["B"]) if "B" in kv else 0j
            return AngleMap(a, A, B)
        if name == "kp":
            kv = _kv_map(tail, body_at, {"p"}, ",")
            return Kp(_parse_real(*_need(kv, "p", body_at)))
        if name == "co0cubic":
            kv = _kv_map(tail, body_at, {"a0"}, ",")
            return Co0Cubic(_parse_complex(*_need(kv, "a0", body_at)))
        if name == "laurent":
            kv = _kv_map(tail, body_at, {"p", "res", "b"}, ";")
            btxt, bpos = _need(kv, "b", body_at)
            coeffs = _parse_coeff_list(btxt, bpos)
            if "p" in kv:
                p = _parse_real(*kv["p"])
                res = _parse_complex(*_need(kv, "res", body_at))
                return Laurent(p, res, coeffs)
            if "res" in kv:
                raise SpecParseError("res given without p", kv["res"][1])
            return Laurent(None, 0j, coeffs)
    except ValueError as exc:
        if isinstance(exc, SpecParseError):
            raise
        raise _wrap_range(exc, text) from exc
    raise SpecParseError(f"unknown family {head.strip()!r}", shift)


def _expect_no_body(sep: str, tail: str, pos: int):
    if sep and tail.strip():
        raise SpecParseError(f"unexpected parameters {tail!r}", pos)


def _kv_map(body: str, base: int, allowed: set, delim: str) -> dict:
    out = {}
    if not body.strip():
        return out
    offset = 0
    for part in body.split(delim):
        if part.strip():
            key, val, vpos = _split_kv(part, base + offset)
            if key not in allowed:
                raise SpecParseError(f"unknown parameter {key!r}", base + offset)
            if key in out:
                raise SpecParseError(f"duplicate parameter {key!r}", base + offset)
            out[key] = (val, vpos)
        offset += len(part) + len(delim)
    return out


def _need(kv: dict, key: str, pos: int) -> tuple[str, int]:
    if key not in kv:
        raise SpecParseError(f"missing required parameter {key!r}", pos)
    return kv[key]


def _parse_coeff_list(text: str, pos: int) -> tuple[complex, ...]:
    s = text.strip()
    lead = pos + (len(text) - len(text.lstrip()))
    if not (s.startswith("[") and s.endswith("]")):
        raise SpecParseError("coefficient list must look like [c0,c1,...]", lead)
    inner = s[1:-1]
    if not inner.strip():
        return ()
    out, offset = [], 1
    for part in inner.split(","):
        out.append(_parse_complex(part, lead + offset))
        offset += len(part) + 1
    return tuple(out)


def format_spec(spec: FamilySpec) -> str:
    """Canonical grammar form; parse_spec round-trips it to an equal spec."""
    if isinstance(spec, HalfPlane):
        return "halfplane"
    if isinstance(spec, KAlpha):
        return f"kalpha:alpha={spec.alpha!r}"
    if isinstance(spec, AngleMap):
        return f"anglemap:a={_fmt_c(spec.a)},A={_fmt_c(spec.A)},B={_fmt_c(spec.B)}"
    if isinstance(spec, Kp):
        return f"kp:p={spec.p!r}"
    if isinstance(spec, Co0Cubic):
        return f"co0cubic:a0={_fmt_c(spec.a0)}"
    if isinstance(spec, Laurent):
        bs = "[" + ",".join(_fmt_c(c) for c in spec.coeffs) + "]"
        if spec.pole is None:
            return f"laurent:b={bs}"
        return f"laurent:p={spec.pole!r};res={_fmt_c(spec.residue)};b={bs}"
    raise TypeError(f"not a FamilySpec: {spec!r}")
