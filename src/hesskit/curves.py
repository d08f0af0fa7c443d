"""Integer-condition scans and the two auxiliary affine curves.

Three integer-valued conditions govern the rank certificates:

    even_a(r, k, m) = 2m**2 + m(r-1) - k(r+1)            scanned for 1 <= m <= k
    odd_c(r, k, m)  = m**2(2k+1) + m(rk+r-k) - k(k+1)(r+1)   for 0 <= m <= k
    even_b(r, k, m) = 2km**2 + m(rk+r-5k+1) - k(k(r+1)+r-3)  for 0 <= m <= k

A scan is clean when no (k, m) in range makes the condition vanish.  For three
variables (r = 2), odd_c and even_b are literally the defining polynomials of
two affine curves under (x, y) = (k, m); their full integer point sets are
known finite lists, reproduced here by two independent routes:

* brute force over |x| <= bound.  Each curve is quadratic in y, so an integer
  point needs the discriminant b(x)**2 - 4 a(x) c(x) to be a perfect square.
  A residue sieve in numpy drops every x whose discriminant is a non-square
  modulo one of SIEVE_MODULI (the square test of Cohen, GTM 138, section
  1.7.2), one block of x values at a time, with the moduli's tables ANDed
  by CRT into one table per composite period of SIEVE_GROUPS.  The sieve
  rejects only x that provably carry no point, and the few survivors (about
  one x in 250 000 on the two curves) get the exact ``isqrt`` test, so the
  search stays a proof;
* transport of finitely many S-integral points of Weierstrass models back
  through an explicit birational map.

``FAMILIES`` is the one table of the two curve families, one ``CurveFamily``
row of data each: the condition, the curve and its stored point set Omega,
the cubic model, the Weierstrass model W and the minimal model X, the
rescaling u, the S-integral representatives with their primes S, and the
shear back onto the curve.  ``CONDITION_FAMILIES`` finds a row from its
condition.  What stays hand-written is the independent mathematics the rows
are checked against: the condition polynomials, the formulas of ``rho1``
and ``fiber_recover``, and the comparison of W rescaled by u with X.

numpy serves the sieve alone, and hesskit never calls BLAS.  Yet numpy's
OpenBLAS starts one worker thread per extra core at import, and that thread
busy-waits through the first work.  So this module imports numpy with
``OPENBLAS_NUM_THREADS=1`` when the caller has not set the variable, and
removes it again afterwards: child processes and later reads see the
caller's environment.  A caller who wants a threaded BLAS imports numpy
before hesskit or sets the variable.  The pin covers only OpenBLAS, which
the numpy wheels ship; other BLAS builds are not measured.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import comb, isqrt, lcm, prod
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

# The OpenBLAS pin of the module docstring.
_PIN_BLAS = "OPENBLAS_NUM_THREADS" not in os.environ
if _PIN_BLAS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PIN_BLAS:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import InputError, require_int
from .forms import Form, _coerce
from .records import json_dict

Point = Tuple[Fraction, Fraction]
IntPoint = Tuple[int, int]


def fixture_bytes() -> bytes:
    """Raw bytes of the packaged point-list fixture, for digest pinning."""
    return resources.files("hesskit.data").joinpath(
        "integral_points.json").read_bytes()


_FIXTURE = json.loads(fixture_bytes().decode("utf-8"))


# ---------------------------------------------------------------------------
# the numerical conditions
# ---------------------------------------------------------------------------


def even_a(r: int, k: int, m: int) -> int:
    return 2 * m * m + m * (r - 1) - k * (r + 1)


def odd_c(r: int, k: int, m: int) -> int:
    return m * m * (2 * k + 1) + m * (r * k + r - k) - k * (k + 1) * (r + 1)


def even_b(r: int, k: int, m: int) -> int:
    return 2 * k * m * m + m * (r * k + r - 5 * k + 1) - k * (k * (r + 1) + r - 3)


CONDITIONS = {
    "evenA": (even_a, 1),  # m ranges over [m_min, k]
    "odd": (odd_c, 0),
    "evenB": (even_b, 0),
}


@dataclass(frozen=True)
class ScanReport:
    condition: str
    r: int
    kmin: int
    kmax: int
    violations: Tuple[Tuple[int, int], ...]
    clean: bool

    def to_json_dict(self) -> dict:
        return json_dict(self)


def scan_condition(condition: str, r: int, kmin: int, kmax: int) -> ScanReport:
    """List every (k, m) in range where the condition vanishes."""
    if condition not in CONDITIONS:
        raise InputError(f"unknown condition {condition!r}")
    require_int("r", r, 1)
    require_int("kmin", kmin, 0)
    require_int("kmax", kmax, kmin)
    fn, m_min = CONDITIONS[condition]
    violations: List[Tuple[int, int]] = []
    for k in range(kmin, kmax + 1):
        for m in range(m_min, k + 1):
            if fn(r, k, m) == 0:
                violations.append((k, m))
    return ScanReport(condition, r, kmin, kmax, tuple(violations), not violations)


# ---------------------------------------------------------------------------
# the two affine curves, quadratic in y
# ---------------------------------------------------------------------------


# Moduli of the residue sieve in QuadraticInY.integral_points, grouped into
# composite periods P = prod(group) <= 2**14.  A residue x mod P fixes x mod
# every member (CRT), so each group is one table of period P and one slice
# per block.  Together they pass about one x in 250 000 on the two shipped
# curves (10 and 14 of 3 000 001 at bound 1.5e6).
SIEVE_GROUPS = ((64, 63), (65, 11, 17), (19, 23, 29), (31, 37), (41, 43),
                (47, 53), (59, 61), (67, 71), (73, 79), (83,))
SIEVE_MODULI = tuple(m for group in SIEVE_GROUPS for m in group)
# x values sieved per numpy pass: each boolean mask holds 32 kB and each
# tiled table at most 48 kB, whatever the bound.
_BLOCK = 1 << 15


def _horner(coeffs: Sequence, x):
    """The polynomial with ascending coefficients ``coeffs`` at x."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


class QuadraticInY:
    """Affine curve a(x) y**2 + b(x) y + c(x) = 0 with integer coefficients.

    The x-polynomials are stored as ascending coefficient lists.
    """

    def __init__(self, name: str, a: Sequence[int], b: Sequence[int], c: Sequence[int]):
        self.name = name
        self.a = tuple(a)
        self.b = tuple(b)
        self.c = tuple(c)

    def _coeffs_at(self, x):
        return _horner(self.a, x), _horner(self.b, x), _horner(self.c, x)

    def evaluate(self, x, y):
        a, b, c = self._coeffs_at(x)
        return a * y * y + b * y + c

    def contains(self, x, y) -> bool:
        return self.evaluate(x, y) == 0

    def _sieve_tables(self) -> List[Tuple[int, np.ndarray]]:
        """Per modulus m of SIEVE_MODULI, in order, a table over r in
        range(m): is disc(r) a square mod m."""
        discs = [b * b - 4 * a * c
                 for a, b, c in map(self._coeffs_at, range(max(SIEVE_MODULI)))]
        tables = []
        for m in SIEVE_MODULI:
            squares = {r * r % m for r in range(m)}
            tables.append((m, np.array([d % m in squares for d in discs[:m]])))
        return tables

    def _period_tables(self) -> List[Tuple[int, np.ndarray]]:
        """Per group of SIEVE_GROUPS, in order, its period P and a table over
        range(P): the AND of its members' tables, each tiled to P."""
        tables = dict(self._sieve_tables())
        periods = []
        for group in SIEVE_GROUPS:
            period = prod(group)
            table = np.ones(period, dtype=bool)
            for m in group:
                table &= np.tile(tables[m], period // m)
            periods.append((period, table))
        return periods

    def _ys_at(self, x: int) -> List[int]:
        """Every integer y with (x, y) on the curve, by the exact root test."""
        a, b, c = self._coeffs_at(x)
        if a == 0:
            if b == 0:
                if c == 0:
                    raise ValueError(
                        f"{self.name}: the whole line x = {x} lies on the curve")
                return []
            return [-c // b] if c % b == 0 else []
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = isqrt(disc)
        if s * s != disc:
            return []
        return [num // (2 * a) for num in ((-b + s, -b - s) if s else (-b,))
                if num % (2 * a) == 0]

    def integral_points(self, bound: int) -> List[IntPoint]:
        """All integer points with |x| <= bound, by a sieved discriminant search.

        For each x the curve is a quadratic in y (linear where a(x) = 0), and
        an integer y needs disc(x) = b(x)**2 - 4 a(x) c(x) to be a perfect
        square.  A square stays a square modulo every m, and disc(x) mod m
        depends only on x mod m; so x is dropped as soon as one table of
        ``_sieve_tables`` marks its residue as a non-square (Cohen, GTM 138,
        section 1.7.2).  That rejects only x without a point, so the search
        is exhaustive.  Where a(x) = 0 the discriminant is b(x)**2, which
        every table keeps, so the linear case always reaches the exact test.

        The tables are ANDed per group of SIEVE_GROUPS into one table of
        period P (``_period_tables``), and the range is walked in ascending
        blocks of _BLOCK x values.  Each period table is tiled once to
        _BLOCK + P entries, so the residues of a block starting at lo are one
        contiguous slice from lo % P; the slices of all periods are ANDed into
        one mask, and its survivors get the exact test of ``_ys_at``.  Memory
        stays flat and nothing can overflow, whatever the bound.

        Raises InputError unless ``bound`` is a non-negative int, and
        ValueError when a whole vertical line x = const lies on the curve (an
        infinite set).
        """
        require_int("bound", bound, 0)
        (p0, head), *rest = [(p, np.resize(table, _BLOCK + p))
                             for p, table in self._period_tables()]
        found: List[IntPoint] = []
        for lo in range(-bound, bound + 1, _BLOCK):
            width = min(_BLOCK, bound + 1 - lo)
            mask = head[lo % p0:lo % p0 + width].copy()
            for p, table in rest:
                mask &= table[lo % p:lo % p + width]
            for i in np.flatnonzero(mask).tolist():
                found.extend((lo + i, y) for y in self._ys_at(lo + i))
        return sorted(found)


def _int_pairs(rows: Sequence[Sequence[int]]) -> FrozenSet[IntPoint]:
    return frozenset((int(x), int(y)) for x, y in rows)


def condition_matches_curve(condition: str, curve: QuadraticInY,
                            samples: Sequence[Tuple[int, int]]) -> bool:
    """The r=2 condition value equals the curve polynomial at (x, y)=(k, m)."""
    fn = CONDITIONS[condition][0]
    return all(fn(2, k, m) == curve.evaluate(k, m) for k, m in samples)


# ---------------------------------------------------------------------------
# Weierstrass models and the rescaling isomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassCurve:
    """y**2 = x**3 + a2 x**2 + a4 x + a6 over the rationals."""

    name: str
    a2: Fraction
    a4: Fraction
    a6: Fraction
    label: Optional[str] = None  # LMFDB label when the model is minimal

    def rhs(self, x) -> Fraction:
        x = _coerce(x)
        return x ** 3 + self.a2 * x * x + self.a4 * x + self.a6

    def on_curve(self, x, y) -> bool:
        return _coerce(y) ** 2 == self.rhs(x)

    def rescaled(self, u: int, name: str, label: Optional[str] = None) -> "WeierstrassCurve":
        """The model hit by (x, y) -> (u**2 x, u**3 y)."""
        return WeierstrassCurve(name, self.a2 * u * u, self.a4 * u ** 4,
                                self.a6 * u ** 6, label)


def _fraction_pairs(rows: Sequence[Sequence[str]]) -> Tuple[Point, ...]:
    return tuple((Fraction(x), Fraction(y)) for x, y in rows)


def signed_points(reps: Sequence[Tuple[Fraction, Fraction]]) -> List[Point]:
    out: List[Point] = []
    for x, y in reps:
        out.append((x, y))
        out.append((x, -y))
    return out


def is_s_integral(v: Fraction, primes: Iterable[int]) -> bool:
    """The denominator of ``v`` divides out over ``primes``."""
    den = v.denominator
    for p in primes:
        while den % p == 0:
            den //= p
    return den == 1


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


class CurveFamily(NamedTuple):
    """A row of ``FAMILIES``: data only, never a function."""

    condition: str  # the key of CONDITIONS whose r = 2 polynomial is ``curve``
    curve: QuadraticInY
    omega: FrozenSet[IntPoint]  # the stored integer points of ``curve``
    cubic: Form  # the plane cubic model rho1 starts from, in (x, y, z)
    weierstrass: WeierstrassCurve  # W, where rho1 lands
    minimal: WeierstrassCurve  # X, hit from W by (u**2 x, u**3 y)
    u: int
    reps: Tuple[Point, ...]  # (x, |y|) of the S-integral points of W
    primes: FrozenSet[int]  # S, the primes allowed in their denominators
    shear: int  # s in (x, y) -> (x, s x + y), the cubic model onto ``curve``


FAMILIES: Dict[int, CurveFamily] = {
    1: CurveFamily(
        condition="odd",
        curve=QuadraticInY("curve-one", a=(1, 2), b=(2, 1), c=(0, -3, -3)),
        omega=_int_pairs(_FIXTURE["curve-one"]["affine_integer_points"]),
        cubic=Form.from_coeffs(3, 3, {
            (3, 0, 0): 2, (2, 1, 0): 4, (1, 2, 0): 2, (2, 0, 1): -1,
            (1, 1, 1): 3, (0, 2, 1): 1, (1, 0, 2): -1, (0, 1, 2): 2}),
        weierstrass=WeierstrassCurve("W1", Fraction(-35, 16), Fraction(21, 16),
                                     Fraction(9, 64)),
        minimal=WeierstrassCurve("X1", Fraction(-8960), Fraction(22020096),
                                 Fraction(9663676416), label="366.b1"),
        u=64, primes=frozenset({2, 3}), shear=1,
        reps=_fraction_pairs(
            _FIXTURE["weierstrass-one"]["s_integral_representatives"])),
    # family 2 works on the projective closure of curve-two directly
    2: CurveFamily(
        condition="evenB",
        curve=QuadraticInY("curve-two", a=(0, 2), b=(3, -3), c=(0, 1, -3)),
        omega=_int_pairs(_FIXTURE["curve-two"]["affine_integer_points"]),
        cubic=Form.from_coeffs(3, 3, {
            (1, 2, 0): 2, (1, 1, 1): -3, (0, 1, 2): 3, (2, 0, 1): -3,
            (1, 0, 2): 1}),
        weierstrass=WeierstrassCurve("W2", Fraction(1, 4), Fraction(-27),
                                     Fraction(81)),
        minimal=WeierstrassCurve("X2", Fraction(4), Fraction(-6912),
                                 Fraction(331776), label="1002.e1"),
        u=4, primes=frozenset(), shear=0,
        reps=_fraction_pairs(
            _FIXTURE["weierstrass-two"]["integral_representatives"])),
}
# The family whose curve a condition is, for the conditions that have one.
CONDITION_FAMILIES: Dict[str, CurveFamily] = {
    row.condition: row for row in FAMILIES.values()}

CURVE_ONE, CURVE_TWO = FAMILIES[1].curve, FAMILIES[2].curve
OMEGA1, OMEGA2 = FAMILIES[1].omega, FAMILIES[2].omega


def _family(family) -> CurveFamily:
    # require_int first: FAMILIES.get(True) would find row 1
    require_int("family", family, 1)
    row = FAMILIES.get(family)
    if row is None:
        raise InputError(f"family must be {' or '.join(map(str, FAMILIES))}, "
                         f"got {family!r}")
    return row


# ---------------------------------------------------------------------------
# the maps from the cubic models onto the Weierstrass curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveImage:
    defined: bool
    coords: Tuple[Fraction, Fraction, Fraction]
    affine: Optional[Point]  # None when undefined or at infinity


def _image(cx, cy, cz) -> ProjectiveImage:
    if cx == 0 and cy == 0 and cz == 0:
        return ProjectiveImage(False, (cx, cy, cz), None)
    if cz == 0:
        return ProjectiveImage(True, (cx, cy, cz), None)
    return ProjectiveImage(True, (cx, cy, cz), (cx / cz, cy / cz))


def rho1(family: int, x, y) -> ProjectiveImage:
    """The degree-2 map from the cubic model onto the W model (affine input).

    Undefined exactly where all three coordinate forms vanish; a z=0 image is
    the point at infinity of the Weierstrass model.
    """
    _family(family)
    x, y = _coerce(x), _coerce(y)
    if family == 1:
        cx = 6 * x * y
        cy = 3 * x * x - Fraction(9, 2) * x * y - 3 * y * y + Fraction(3, 2) * x - 6 * y
        cz = -8 * x * x - 4 * x
    else:
        cx = 6 * y
        cy = 12 * y * y - 9 * x - 9 * y
        cz = -x
    return _image(cx, cy, cz)


def rho2(family: int, x, y) -> Point:
    """The rescaling isomorphism (x, y) -> (u**2 x, u**3 y) from W onto X."""
    u = _family(family).u
    return (u * u * _coerce(x), u ** 3 * _coerce(y))


# ---------------------------------------------------------------------------
# exact root helpers
# ---------------------------------------------------------------------------


def fraction_sqrt(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    sn, sd = isqrt(n), isqrt(d)
    if sn * sn == n and sd * sd == d:
        return Fraction(sn, sd)
    return None


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots of a low-degree polynomial (ascending coefficients)."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots: List[Fraction] = []
    shift = 0
    while cs[0] == 0:
        shift += 1
        cs.pop(0)
    if shift:
        roots.append(Fraction(0))
    if len(cs) == 1:
        return sorted(set(roots))
    scale = lcm(*(c.denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    a0, an = ints[0], ints[-1]
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _horner(ints, cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _quadratic_rational_roots(a2: Fraction, a1: Fraction, a0: Fraction) -> List[Fraction]:
    disc = a1 * a1 - 4 * a2 * a0
    s = fraction_sqrt(disc)
    if s is None:
        return []
    r1 = (-a1 + s) / (2 * a2)
    r2 = (-a1 - s) / (2 * a2)
    return sorted({r1, r2})


def _line_meets_cubic(cubic: Form, slope: Fraction, intercept: Fraction) -> List[Fraction]:
    """x-values where (x, slope*x + intercept, 1) lies on the cubic."""
    coeffs = [Fraction(0)] * 4
    for (i, j, k), c in cubic.terms.items():
        # expand c * x^i * (s x + t)^j, z = 1
        base = [Fraction(0)] * (j + 1)
        for b in range(j + 1):
            base[b] = comb(j, b) * slope ** b * intercept ** (j - b)
        for b in range(j + 1):
            coeffs[i + b] += c * base[b]
    if all(c == 0 for c in coeffs):
        raise ValueError("line is contained in the cubic")
    return rational_roots(coeffs)


# ---------------------------------------------------------------------------
# fiber recovery through rho1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberReport:
    family: int
    target: Point
    case: str  # quadratic | linear | contracted-line | empty
    candidates: Tuple[Point, ...]

    def integer_candidates(self) -> List[IntPoint]:
        out = []
        for x, y in self.candidates:
            if x.denominator == 1 and y.denominator == 1:
                out.append((int(x), int(y)))
        return sorted(set(out))


def fiber_recover(family: int, a, b) -> FiberReport:
    """Rational solutions (x, y) of the inverse relations for rho1.

    Family 1: y = -a(4x+2)/3 and an x-quadratic obtained by eliminating y
    from the second coordinate relation.  When the quadratic degenerates to
    0 = 0 the target absorbs a whole contracted line, and the genuine curve
    preimages are the rational intersections of that line with the cubic.

    Family 2: x is linear in (a, b) once a != 0; a == 0 forces y = 0, a line
    contracted onto (0, 9).
    """
    row = _family(family)
    a, b = _coerce(a), _coerce(b)
    if family == 1:
        qa = 3 + 6 * a - Fraction(16, 3) * a * a + 8 * b
        qb = 11 * a + Fraction(3, 2) - Fraction(16, 3) * a * a + 4 * b
        qc = 4 * a - Fraction(4, 3) * a * a

        def lift(x: Fraction) -> Point:
            return (x, -a * (4 * x + 2) / 3)

        if qa == 0 and qb == 0 and qc == 0:
            xs = _line_meets_cubic(row.cubic, Fraction(-4, 3) * a, Fraction(-2, 3) * a)
            return FiberReport(1, (a, b), "contracted-line", tuple(lift(x) for x in xs))
        if qa == 0:
            if qb == 0:
                return FiberReport(1, (a, b), "empty", ())
            return FiberReport(1, (a, b), "linear", (lift(-qc / qb),))
        roots = _quadratic_rational_roots(qa, qb, qc)
        return FiberReport(1, (a, b), "quadratic", tuple(lift(x) for x in roots))

    if a == 0:
        if b == 9:
            xs = _line_meets_cubic(row.cubic, Fraction(0), Fraction(0))
            return FiberReport(2, (a, b), "contracted-line",
                               tuple((x, Fraction(0)) for x in xs))
        return FiberReport(2, (a, b), "empty", ())
    x = 3 * (9 - Fraction(3, 2) * a - b) / (a * a)
    return FiberReport(2, (a, b), "linear", ((x, -a * x / 6),))


# ---------------------------------------------------------------------------
# end-to-end reproduction of the integer point sets
# ---------------------------------------------------------------------------

@dataclass
class FamilyReport:
    family: int
    weierstrass_points_ok: bool
    s_integral_support_ok: bool
    rescale_model_ok: bool
    rescaled_points_ok: bool
    fiber_cases: Dict[str, int] = field(default_factory=dict)
    integer_candidates: Tuple[IntPoint, ...] = ()
    recovered_set: Tuple[IntPoint, ...] = ()
    expected_set: Tuple[IntPoint, ...] = ()
    brute_force_set: Tuple[IntPoint, ...] = ()
    omega_match: bool = False

    def passed(self) -> bool:
        return (self.weierstrass_points_ok and self.s_integral_support_ok
                and self.rescale_model_ok and self.rescaled_points_ok
                and self.omega_match)

    def to_json_dict(self) -> dict:
        return json_dict(self, passed=self.passed())


def verify_family(family: int, bound: int) -> FamilyReport:
    """Full dual-route check for one family.

    Route one: brute-force enumeration of integer points up to ``bound``.
    Route two: start from the finite S-integral Weierstrass list, pull every
    point back through rho1, keep the integer candidates, land on the curve.
    Both routes must produce the same set.  The completeness of the
    S-integral lists themselves is an external input; everything else here is
    verified exactly.  Raises InputError unless ``family`` is 1 or 2 and
    ``bound`` is an int of at least 10: below that the search box misses
    points, a failure that says nothing about the curves.
    """
    row = _family(family)
    require_int("bound", bound, 10)
    pts = signed_points(row.reps)
    w_ok = all(row.weierstrass.on_curve(x, y) for x, y in pts)
    support_ok = all(is_s_integral(v, row.primes) for pt in pts for v in pt)

    rescaled = row.weierstrass.rescaled(row.u, row.minimal.name)
    model_ok = ((rescaled.a2, rescaled.a4, rescaled.a6)
                == (row.minimal.a2, row.minimal.a4, row.minimal.a6))
    rescaled_pts_ok = all(row.minimal.on_curve(*rho2(family, x, y))
                          for x, y in pts)

    cases: Dict[str, int] = {}
    integer_candidates: set = set()
    for x, y in pts:
        rep = fiber_recover(family, x, y)
        cases[rep.case] = cases.get(rep.case, 0) + 1
        integer_candidates.update(rep.integer_candidates())

    on_cubic = {p for p in integer_candidates
                if row.cubic.evaluate((Fraction(p[0]), Fraction(p[1]), Fraction(1))) == 0}
    recovered = {(x, row.shear * x + y) for x, y in on_cubic}

    brute = set(row.curve.integral_points(bound))
    omega_match = recovered == row.omega == brute

    return FamilyReport(
        family=family,
        weierstrass_points_ok=w_ok,
        s_integral_support_ok=support_ok,
        rescale_model_ok=model_ok,
        rescaled_points_ok=rescaled_pts_ok,
        fiber_cases=cases,
        integer_candidates=tuple(sorted(integer_candidates)),
        recovered_set=tuple(sorted(recovered)),
        expected_set=tuple(sorted(row.omega)),
        brute_force_set=tuple(sorted(brute)),
        omega_match=omega_match,
    )
