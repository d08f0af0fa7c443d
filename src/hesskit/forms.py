"""Exact sparse arithmetic for homogeneous polynomials over the rationals.

A form in ``nvars`` variables x0..x_{nvars-1} is stored as integer numerators
over one shared positive denominator: ``_num`` maps packed monomial keys to
nonzero ``int`` numerators and ``_den`` is an ``int`` with
``gcd(_den, *_num.values()) == 1``, so the coefficient of x**e is
``_num[monomial_key(e)] / _den``.  The invariant makes the representation
unique: ``_den`` is the least common denominator of the coefficients, and
equal polynomials have equal ``(_num, _den)``.  Every product and sum
therefore runs on Python integers, with one gcd per result to restore the
invariant.

``dot(nvars, degree, terms)``, the sum of c*f*g over (c, f, g) triples, is
the one loop that builds a form from other forms: a whole sum of products
costs one dict and one gcd.  ``f * g`` is its one-term case, and ``f + g``,
``f - g``, ``-f`` and ``f.scale(c)`` are its cases with the constant form 1
as every second factor.  ``diff`` keeps its own loop: a derivative is no
sum.  So does ``exact_quotient``, which divides by a monomial times a form
monic in the last variable and returns None at a remainder.

A key packs an exponent tuple into one int with a fixed ``FIELD_BITS``-bit
field per exponent, x0 in the most significant field (Monagan & Pearce,
*Polynomial division using dynamic arrays, heaps, and packed exponent
vectors*, CASC 2007).  The width is the same for every form, so packing is
linear across forms: the key of a product monomial is the sum of its
factors' keys, ``diff`` reads one field with a shift and a mask, and keys
sort in the same order as the tuples they pack.  A field holds exponents
below 2**FIELD_BITS; ``Form(...)`` refuses a larger exponent and ``dot`` a
product degree that large, so a field never carries into its neighbour.

``second_partials`` is derived once per form and kept in a private slot,
so the Hessian kernels that read the matrix of one form share one
derivation; the matrix is a tuple of tuples, which no caller can change.
``powers(f, top)`` lists 1, f, ..., f**top, one product per power, for
the callers that need every power of one form.

``Form(nvars, degree, terms)`` checks ``nvars`` and ``degree`` with
``require_int`` and then makes one pass per exponent tuple, which refuses
an entry that is a bool or not an int (``InputError``), a negative entry
and one a field cannot hold, and packs the key as it goes; the tuple's
degree is checked after it.  An ``int`` coefficient is stored as it is;
any other goes through ``Fraction``, and the numerators are brought over
a common denominator only when some coefficient has one.  A zero
coefficient is dropped after its monomial passed the checks.
``Form.variable`` and ``**`` check their int arguments the same way.
``dot``, ``diff``, ``exact_quotient`` and the constant form 1 build their
results with the trusted constructor ``Form._make``, which only restores the
invariant and writes the slots through their descriptors.
Exponent tuples appear only at the edges: ``Form.terms`` is a read-only
mapping of exponent tuples to reduced ``Fraction`` coefficients and
``Form.numerators`` one to the stored ints, both computed on access from
``_num`` and ``_den``; a lookup with anything but a tuple of ``nvars`` ints
a field can hold finds nothing.
``coefficient``, ``sorted_terms``, ``evaluate``, ``str`` and
``common_monomial`` unpack keys the same way.  ``packed`` hands the keys
themselves to the rank path, which indexes its rows by ``monomial_key``.
Nothing in this module touches floating point.

The canonical term order used everywhere (printing, iteration, matrix
column indexing) is descending lexicographic on exponent tuples with x0 most
significant.  Within a fixed degree this is the usual degree-lexicographic
order.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, require_int

Exponent = Tuple[int, ...]

FIELD_BITS = 16  # bits of a packed key per exponent
_MASK = (1 << FIELD_BITS) - 1  # the largest exponent a field holds


def monomial_key(exps: Sequence[int]) -> int:
    """The packed key of x**exps, as ``Form`` stores it.

    Unchecked: every entry must be an int in [0, 2**FIELD_BITS), which holds
    for the monomials of any form.
    """
    key = 0
    for e in exps:
        key = key << FIELD_BITS | e
    return key


def _exponents(key: int, nvars: int) -> Exponent:
    """The exponent tuple a key packs, x0 first."""
    return tuple(key >> shift & _MASK
                 for shift in range(FIELD_BITS * (nvars - 1), -1, -FIELD_BITS))


def _lookup_key(exps, nvars: int) -> Optional[int]:
    """The key of ``exps`` in a form of ``nvars`` variables, or None when
    ``exps`` is no tuple of ``nvars`` ints that the fields can hold, so that
    such a lookup finds nothing rather than another monomial."""
    if type(exps) is not tuple or len(exps) != nvars:
        return None
    for e in exps:
        if not isinstance(e, int) or not 0 <= e <= _MASK:
            return None
    return monomial_key(exps)


def dim_sym(nvars: int, degree: int) -> int:
    """Dimension of the space of degree-``degree`` forms in ``nvars`` variables."""
    require_int("nvars", nvars, 1)
    require_int("degree", degree)
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """All exponent tuples of the given total degree, in canonical order.

    Canonical order is descending lexicographic, x0 most significant, so the
    first entry is (degree, 0, ..., 0) and the last is (0, ..., 0, degree).
    """
    require_int("nvars", nvars, 1)
    require_int("degree", degree, 0)
    # each pass extends every (prefix, degree left) by one exponent, largest
    # first, so the list stays in canonical order
    rows: List[Tuple[Exponent, int]] = [((), degree)]
    for _ in range(nvars - 1):
        rows = [(prefix + (e,), rest - e) for prefix, rest in rows
                for e in range(rest, -1, -1)]
    return [prefix + (rest,) for prefix, rest in rows]


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"coefficient must be int, Fraction or string, got {type(c)!r}")


class _Numerators(MappingABC):
    """Read-only view of a form's int numerators under exponent-tuple keys."""

    __slots__ = ("_num", "_den", "_nvars")

    def __init__(self, f: "Form"):
        self._num = f._num
        self._den = f._den
        self._nvars = f.nvars

    def _value(self, c: int):
        return c

    def __getitem__(self, exps: Exponent):
        key = _lookup_key(exps, self._nvars)
        if key not in self._num:
            raise KeyError(exps)
        return self._value(self._num[key])

    def __contains__(self, exps) -> bool:
        return _lookup_key(exps, self._nvars) in self._num

    def __iter__(self) -> Iterator[Exponent]:
        nvars = self._nvars
        return (_exponents(k, nvars) for k in self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Terms(_Numerators):
    """Read-only view of a form's coefficients as reduced ``Fraction`` values."""

    __slots__ = ()

    def _value(self, c: int) -> Fraction:
        return Fraction(c, self._den)


class Form:
    """An exactly represented homogeneous polynomial.

    Instances are immutable: all arithmetic returns new objects.  The zero
    form keeps a nominal degree so degree bookkeeping survives cancellation;
    two zero forms compare equal regardless of nominal degree.
    """

    __slots__ = ("nvars", "degree", "_num", "_den", "_partials")

    def __init__(self, nvars: int, degree: int, terms: Mapping[Exponent, Fraction]):
        require_int("nvars", nvars, 1)
        require_int("degree", degree, 0)
        num: Dict[int, object] = {}
        den = 1
        for exps, c in terms.items():
            if type(c) is not int:
                c = _coerce(c)
                if c.denominator == 1:
                    c = c.numerator
                else:
                    den = lcm(den, c.denominator)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length for nvars={nvars}")
            key = total = 0
            for e in exps:
                if type(e) is not int and (isinstance(e, bool)
                                           or not isinstance(e, int)):
                    raise InputError(f"exponents must be ints, got {exps!r}")
                if not 0 <= e <= _MASK:
                    raise ValueError(
                        f"negative exponent in {exps}" if e < 0 else
                        f"exponent in {exps} does not fit a {FIELD_BITS}-bit field")
                key = key << FIELD_BITS | e
                total += e
            if total != degree:
                raise ValueError(f"monomial {exps} is not of degree {degree}")
            if c:
                num[key] = c
        if den != 1:
            # The least common denominator is coprime to the set of numerators.
            num = {k: c.numerator * (den // c.denominator) for k, c in num.items()}
        _set_nvars(self, nvars)
        _set_degree(self, degree)
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def _make(nvars: int, degree: int, num: Dict[int, int], den: int) -> "Form":
        """Trusted constructor for results of arithmetic on valid forms.

        The caller guarantees what ``__init__`` would check: ``num`` maps the
        packed keys of monomials in ``nvars`` variables of total ``degree``
        to nonzero ints, and ``den`` > 0.  The only work done is dividing out
        ``gcd(den, *num.values())``.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        f = object.__new__(Form)
        _set_nvars(f, nvars)
        _set_degree(f, degree)
        _set_num(f, num)
        _set_den(f, den)
        return f

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Form is immutable")

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Exponent tuple -> nonzero reduced ``Fraction`` coefficient (read-only)."""
        return _Terms(self)

    @property
    def numerators(self) -> Mapping[Exponent, int]:
        """Exponent tuple -> nonzero int: the coefficients times the least
        common denominator (read-only)."""
        return _Numerators(self)

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int = 0) -> "Form":
        return Form(nvars, degree, {})

    @staticmethod
    def monomial(exps: Sequence[int], coeff=1) -> "Form":
        exps = tuple(exps)
        return Form(len(exps), sum(exps), {exps: coeff})

    @staticmethod
    def variable(nvars: int, index: int) -> "Form":
        require_int("nvars", nvars, 1)
        require_int("index", index, 0)
        if index >= nvars:
            raise InputError(f"index must be below nvars={nvars}, got {index}")
        exps = [0] * nvars
        exps[index] = 1
        return Form(nvars, 1, {tuple(exps): 1})

    @staticmethod
    def from_coeffs(nvars: int, degree: int, mapping: Mapping[Sequence[int], object]) -> "Form":
        return Form(nvars, degree, {tuple(k): v if type(v) is int else _coerce(v)
                                    for k, v in mapping.items()})

    # ----- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def num_terms(self) -> int:
        return len(self._num)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(_lookup_key(tuple(exps), self.nvars), 0),
                        self._den)

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        n, den = self.nvars, self._den
        return [(_exponents(k, n), Fraction(c, den))
                for k, c in sorted(self._num.items(), reverse=True)]

    def __iter__(self) -> Iterator[Tuple[Exponent, Fraction]]:
        return iter(self.sorted_terms())

    # ----- ring operations ----------------------------------------------

    def _sum(self, other: "Form", sign: int) -> "Form":
        # a zero operand of any nominal degree passes the other through
        degree = self.degree if self._num else other.degree
        one = _unit(self.nvars)
        return dot(self.nvars, degree, ((1, self, one), (sign, other, one)))

    def __add__(self, other: "Form") -> "Form":
        return self._sum(other, 1)

    def __sub__(self, other: "Form") -> "Form":
        return self._sum(other, -1)

    def __neg__(self) -> "Form":
        return dot(self.nvars, self.degree, ((-1, self, _unit(self.nvars)),))

    def scale(self, c) -> "Form":
        return dot(self.nvars, self.degree,
                   ((c if type(c) is int else _coerce(c), self,
                     _unit(self.nvars)),))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return dot(self.nvars, self.degree + other.degree, ((1, self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "Form":
        require_int("exponent", k, 0)
        if not k:
            return _unit(self.nvars)
        # square and multiply, starting from the first factor, not from 1
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # ----- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Form":
        """Exact partial derivative with respect to x_index."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index out of range")
        shift = FIELD_BITS * (self.nvars - 1 - index)
        unit = 1 << shift
        out: Dict[int, int] = {}
        for key, c in self._num.items():
            k = key >> shift & _MASK
            if k:
                out[key - unit] = c * k
        return Form._make(self.nvars, max(self.degree - 1, 0), out, self._den)

    def second_partials(self) -> Tuple[Tuple["Form", ...], ...]:
        """The symmetric matrix of second partial derivatives, row by row.

        It is derived on the first call and kept in a private slot, so every
        kernel that reads the matrix of one form shares one derivation; the
        rows are tuples, so no caller can change what the next one reads.
        """
        try:
            return self._partials
        except AttributeError:
            pass
        n = self.nvars
        firsts = [self.diff(i) for i in range(n)]
        mat: List[List[Form]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = firsts[i].diff(j)
        rows = tuple(map(tuple, mat))
        _set_partials(self, rows)
        return rows

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        pt = [_coerce(p) for p in point]
        total = Fraction(0)
        for key, c in self._num.items():
            v = Fraction(c)
            for i, k in enumerate(_exponents(key, self.nvars)):
                if k:
                    v *= pt[i] ** k
            total += v
        return total / self._den

    # ----- equality / hashing / display ---------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if not self._num and not other._num:
            return True
        return (self.degree == other.degree and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Form({self.nvars} vars, deg {self.degree}, {self.num_terms()} terms)"


# Form blocks attribute assignment, so its slots are written through their
# descriptors, which skip the attribute lookup of object.__setattr__.
_set_nvars, _set_degree, _set_num, _set_den, _set_partials = (
    vars(Form)[name].__set__ for name in Form.__slots__)


@cache
def _unit(nvars: int) -> Form:
    """The constant form 1 in ``nvars`` variables: with it as the second
    factor of every term, ``dot`` is a linear combination of forms.  Forms
    are immutable, so one is built per ``nvars`` and shared through the
    cache."""
    return Form._make(nvars, 0, {0: 1}, 1)


def packed(f: Form) -> Tuple[Mapping[int, int], int]:
    """``f`` as stored: its numerators under packed monomial keys (read-only)
    and their one positive denominator."""
    return MappingProxyType(f._num), f._den


def common_monomial(fs: Sequence[Form], nvars: int) -> Exponent:
    """The largest monomial dividing every term of the forms ``fs``, read
    off the packed keys field by field; all zeros when they have no term."""
    keys = [k for f in fs for k in f._num]
    if not keys:
        return (0,) * nvars
    return tuple(min(map((_MASK << shift).__and__, keys)) >> shift
                 for shift in range(FIELD_BITS * (nvars - 1), -1, -FIELD_BITS))


def dot(nvars: int, degree: int, terms) -> Form:
    """The sum of c*f*g over the triples (c, f, g) of ``terms``.

    c is an int or a ``Fraction``, f and g are forms in ``nvars`` variables.
    Every product runs into one dict over the terms' least common
    denominator, and the result is one ``_make``.  A term with a zero
    coefficient or factor is skipped, as ``+`` passes a zero form of any
    degree through; every other term needs ``deg f + deg g == degree``.  A
    ``degree`` of 2**FIELD_BITS or more is refused first, so no key field
    of the result can carry.
    """
    if degree > _MASK:
        raise ValueError(f"product degree {degree} does not fit a "
                         f"{FIELD_BITS}-bit field")
    live = []
    den = 1
    for c, f, g in terms:
        if f.nvars != nvars or g.nvars != nvars:
            raise ValueError("forms live in different variable counts")
        if type(c) is int:
            p, q = c, 1
        elif isinstance(c, Fraction):
            p, q = c.numerator, c.denominator
        else:
            raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")
        if not (p and f._num and g._num):
            continue
        if f.degree + g.degree != degree:
            raise ValueError(f"a product of degree {f.degree + g.degree} "
                             f"in a sum of degree {degree}")
        q *= f._den * g._den
        live.append((p, q, f._num, list(g._num.items())))
        if q != 1:
            den = lcm(den, q)
    # No field of a product key exceeds the degree, so none carries and
    # multiplying two monomials is adding their keys.
    acc: Dict[int, int] = {}
    get = acc.get
    for p, q, left, right in live:
        m = p * (den // q)
        for k1, c1 in left.items():
            c1 *= m
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    return Form._make(nvars, degree, acc, den)


def exact_quotient(f: Form, g: Form) -> Optional[Form]:
    """f / g when g divides f, else None.

    g must have exactly one term of top degree e in the last variable
    x_{n-1}, with coefficient 1 and g's other coefficients integers: a
    monomial, or a form monic in x_{n-1} such as x0*x1 + x2**2, or a product
    of the two.  Read as polynomials in x_{n-1}, g = m x_{n-1}**e + R with m
    a monomial in the other variables, and f = sum_t c_t x_{n-1}**t divides
    level by level from the top: the quotient's level t - e is c_t / m, and
    that times R is taken off the levels below t.  Dividing by the monomial
    m checks each exponent, and any term left below level e is a
    remainder; either way g does not divide f.  Every step is integer
    arithmetic on packed keys: x_{n-1} is the lowest field, so a key's level
    is ``key & _MASK``.
    """
    if f.nvars != g.nvars:
        raise ValueError("forms live in different variable counts")
    top = max((k & _MASK for k in g._num), default=-1)
    leads = [k for k in g._num if k & _MASK == top]
    if g._den != 1 or len(leads) != 1 or g._num[leads[0]] != 1:
        raise ValueError("the divisor needs one top term in the last "
                         "variable, with coefficient 1, and integer "
                         "coefficients")
    lead = leads[0]
    degree = f.degree - g.degree
    if degree < 0:
        return None
    rest = [(k, c) for k, c in g._num.items() if k != lead]
    # the exponents of m, which every divided key must reach
    floors = [(shift, e) for shift in range(FIELD_BITS, FIELD_BITS * f.nvars,
                                            FIELD_BITS)
              if (e := lead >> shift & _MASK)]
    levels: Dict[int, Dict[int, int]] = {}
    for k, c in f._num.items():
        levels.setdefault(k & _MASK, {})[k] = c
    out: Dict[int, int] = {}
    for t in range(max(levels, default=-1), top - 1, -1):
        for k, c in levels.pop(t, {}).items():
            if not c:
                continue
            for shift, e in floors:
                if k >> shift & _MASK < e:
                    return None
            k -= lead
            out[k] = c
            for k2, c2 in rest:
                key = k + k2
                level = levels.setdefault(key & _MASK, {})
                level[key] = level.get(key, 0) - c * c2
    if any(c for level in levels.values() for c in level.values()):
        return None
    return Form._make(f.nvars, degree, out, f._den)


# ----- convenience builders used throughout the package -----------------


def powers(f: Form, top: int) -> List[Form]:
    """[1, f, f**2, ..., f**top], one product per power past f itself."""
    out = [f ** 0, f][:top + 1]
    while len(out) <= top:
        out.append(out[-1] * f)
    return out


def random_form(nvars: int, degree: int, rng, coeff_bound: int = 9,
                density: float = 1.0) -> Form:
    """Random form with integer coefficients in [-coeff_bound, coeff_bound].

    ``rng`` is a random.Random; draws are consumed in canonical monomial order
    so a fixed seed pins the exact polynomial.  ``density`` < 1 zeroes a
    matching fraction of monomials (but never all of them).
    """
    require_int("coeff_bound", coeff_bound, 1)
    monos = monomials_of_degree(nvars, degree)
    terms: Dict[Exponent, int] = {}
    for e in monos:
        if density < 1.0 and rng.random() > density:
            continue
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[e] = c
    if not terms:
        e = monos[rng.randrange(len(monos))]
        terms[e] = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
    return Form(nvars, degree, terms)
