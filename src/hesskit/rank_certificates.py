"""Injectivity certificates for the differential of the Hessian map.

The differential at a form f sends a direction g to the first-order part of
hess(f + eps g).  Over the monomial bases of Sym^d and Sym^((r+1)(d-2)) this
is an exact rational matrix; the projective statement quotients the domain by
<f> and the target by <hess f>.  The quotient rank is computed as

    rank [M' | column(hess f)] - 1

where M' drops the column of f's coefficient-largest monomial, a concrete
complement of <f>.  Since the f-column itself is (r+1) times the Hessian
column, the span of [M' | hess] equals the span of [M | hess], making the
choice of complement immaterial; a randomized second complement re-checks
that on demand.

The image of g is trace(adj(D2 f) * D2 g), so a factor P of every adjugate
entry divides every image and Hess f.  At the special points q is invariant
and P is large: 16 q**5 at q**4 and 24 x0**2 q**9 at q**9 l**2 (r = 2).
``differential_matrix`` divides P = x**beta * q**alpha out without forming
adj(D2 f), since adj(P2 * S) = P2**(n - 1) * adj(S) for n x n matrices.
The largest factor P2 = x**gamma * q**sigma of the second partials is
divided out first, then the largest factor P' = x**beta' * q**alpha' of
the adjugate of the quotient S (``hessians.adjugate``): beta =
(n - 1) gamma + beta' and alpha = (n - 1) sigma + alpha', and, as the
variables and q are primes, P is the largest such factor of adj(D2 f).
Each monomial part is the entries' largest common monomial and each q
power the largest dividing every entry, with q the quadric
``orbit_checks.hyperbolic_q`` in three or more variables (in two, q is a
monomial); a factor of 1 is not divided.  Constants stay.  q is monic of
degree 2 in the last variable, so ``forms.exact_quotient`` divides level
by level in integers, and a nonzero remainder lowers the power: every
division is confirmed exact.  The columns and, through
``hess_from_adjugate``, the Hessian column are then read off the reduced
adjugate adj / P, over the monomials of degree n (d - 2) - deg P, and
``DifferentialMatrix`` records beta and alpha.  At q**9 l**2 the matrix
shrinks from 1540 x 231 to 276 x 231; a form with no common factor keeps
the full matrix.

Soundness: multiplication by P != 0 is an injective linear map T_P from the
forms of degree n (d - 2) - deg P into those of degree n (d - 2), and each
column of the full matrix M is T_P of the same column of the reduced
matrix N times a positive rational.  So M = T_P N D with D diagonal and
invertible, and any set of columns, the Hessian column included, has the
same rank in M as in N: a modular full column rank of N's columns is a
proof for M's.  It needs only P * (adj / P) = adj(D2 f), which the
identity adj(P2 * S) = P2**(n - 1) * adj(S) and the two exact divisions
give.  ``RankReport.matrix_shape`` is the shape of M, read off the two
dimensions.

Each column is an image form's integer numerators, that is the rational
column times its own positive denominator, which keeps the rank and the zero
pattern.  ``DifferentialMatrix`` indexes the target monomials once, by the
packed keys ``Form`` stores (``forms.monomial_key``), and keeps
every column as a sparse ``{row: numerator}`` dict, so the matrices handed to
``linalg.rank_with_certificate`` are ``IntColumns`` from the start: no
clearing, no ``Fraction`` and no dense matrix on the rank path unless the
exact fallback runs.  The column of a monomial direction x**e needs no form
of its own: d_i d_j x**e is one monomial, so the column is a weighted sum
of the reduced adjugate entries shifted by e - i - j, read off integer
tables built once per f.

Injectivity at the special points q**k, q**k l, q**(k-1) l**2 is conditional
on an integer condition having no root in a finite m-range; the certificate
evaluates the condition first and claims nothing when it fails.  A
``SpecialPoint`` is a kind and a k; its least k, powers, degree, condition
and m-range are all read off the one table ``orbit_checks.SPECIAL_POINTS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import curves
from .forms import Exponent, Form, common_monomial, dim_sym, \
    exact_quotient, monomial_key, monomials_of_degree, packed, powers
from .harmonic import QuadraticForm, dim_harmonic, harmonic_basis, harmonic_decompose
from .hessians import adjugate, adjugate_second_partials, adjugate_trace, \
    hess_from_adjugate
from .errors import InputError, VerificationError, require_int
from .linalg import IntColumns, rank_with_certificate
from .orbit_checks import (SPECIAL_POINTS, _predicted_constants, hyperbolic_q,
                           power_product)
from .records import json_dict


# ---------------------------------------------------------------------------
# special points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialPoint:
    """A distinguished orbit point: a kind of ``SPECIAL_POINTS`` and its k."""

    kind: str  # qk | qkl | qk1l2
    k: int

    def __post_init__(self):
        if self.kind not in SPECIAL_POINTS:
            raise InputError(f"unknown special point kind {self.kind!r}")
        require_int("k", self.k, SPECIAL_POINTS[self.kind].k_min)

    @staticmethod
    def at_degree(kind: str, d: int) -> "SpecialPoint":
        """The point of the given kind whose form has degree d."""
        row = SPECIAL_POINTS.get(kind)  # the constructor refuses an unknown kind
        least = SpecialPoint(kind, row.k_min if row else 0)
        require_int("d", d, least.degree)
        point = SpecialPoint(kind, least.k + (d - least.degree) // 2)
        if point.degree != d:
            parity = "odd" if least.degree % 2 else "even"
            raise InputError(f"{kind} needs an {parity} degree, got {d}")
        return point

    @property
    def degree(self) -> int:
        qp, lp = self.powers
        return 2 * qp + lp

    @property
    def powers(self) -> Tuple[int, int]:
        return SPECIAL_POINTS[self.kind].powers(self.k)

    @property
    def condition(self) -> str:
        return SPECIAL_POINTS[self.kind].condition

    def form(self, r: int) -> Form:
        require_int("r", r, 1)
        return power_product(r, *self.powers)

    def label(self) -> str:
        qp, lp = self.powers
        qpart = "q" if qp == 1 else f"q^{qp}"
        if lp == 0:
            return qpart
        lpart = "l" if lp == 1 else f"l^{lp}"
        return f"{qpart}*{lpart}"


# ---------------------------------------------------------------------------
# the differential as a matrix
# ---------------------------------------------------------------------------


def _indexed(f: Form, row_of: Mapping[int, int]) -> Dict[int, int]:
    """f's numerators as a sparse column, ``row_of`` mapping each packed
    monomial key to its row index."""
    return {row_of[k]: v for k, v in packed(f)[0].items()}


@dataclass
class DifferentialMatrix:
    row_monomials: List[Exponent]
    col_monomials: List[Exponent]
    columns: List[Dict[int, int]]  # image numerators, keyed by row index
    hess_column: Dict[int, int]
    # the factor x**monomial * q**q_power divided out of every column and
    # of the Hessian column
    monomial: Exponent
    q_power: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_monomials), len(self.col_monomials))

    def with_hess(self, selected: Iterable[int],
                  mults: Sequence[int] = ()) -> IntColumns:
        """The selected columns followed by the Hessian column.

        With ``mults``, the j-th selected column first gains ``mults[j]``
        times the Hessian column: a column operation, done as a sparse add.
        """
        cols = [self.columns[j] for j in selected]
        for j, c in enumerate(mults):
            col = cols[j] = dict(cols[j])
            for i, h in self.hess_column.items():
                v = col.get(i, 0) + c * h
                if v:
                    col[i] = v
                else:
                    del col[i]
        cols.append(self.hess_column)
        return IntColumns(len(self.row_monomials), cols)


def _monomial_images(adj: Sequence[Sequence[Form]], directions: Sequence[Exponent],
                     row_of: Mapping[int, int]) -> List[Dict[int, int]]:
    """The numerators of ``adjugate_trace(adj, x**e)`` for each direction e,
    keyed by row index, without building a form per direction.

    d_i d_j x**e is the single monomial e_i (e_j - [i = j]) x**(e - i - j),
    so the image of x**e is the sum over i <= j of that weight (doubled off
    the diagonal) times adj[i][j] shifted by e - i - j.  The entries are
    brought to one denominator D once; a column is then a shifted sum of the
    entries' integer numerators under the forms' own packed keys (``packed``
    and ``monomial_key``; packing is linear, so a shift is one addition, and
    a nonzero weight leaves no field below zero), reduced by gcd(D, *column)
    as ``Form._make`` would reduce the image, which at D = 1 is no
    reduction.  Each entry is added into every column in one pass over the
    directions.  ``row_of`` maps each target monomial's key to its row.
    """
    n = len(directions[0])
    units = [monomial_key([int(k == i) for k in range(n)]) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    entries = [packed(adj[i][j]) for i, j in pairs]
    den = lcm(*(entry_den for _, entry_den in entries))
    keys = [monomial_key(e) for e in directions]
    accs: List[Dict[int, int]] = [{} for _ in directions]
    for (i, j), (num, entry_den) in zip(pairs, entries):
        if not num:
            continue
        scale = (den // entry_den) * (2 if i != j else 1)
        drop = units[i] + units[j]
        table = [(k - drop, c * scale) for k, c in num.items()]
        diagonal = i == j
        for e, ke, acc in zip(directions, keys, accs):
            w = e[i] * (e[j] - diagonal)
            if w:
                for k, c in table:
                    k += ke
                    acc[k] = acc.get(k, 0) + w * c
    if den == 1:
        return [{row_of[k]: v for k, v in acc.items() if v} for acc in accs]
    columns = []
    for acc in accs:
        g = gcd(den, *acc.values())
        columns.append({row_of[k]: v // g for k, v in acc.items() if v})
    return columns


def _divide_common_factor(mat: Sequence[Sequence[Form]], q: Optional[Form]
                          ) -> Tuple[Exponent, int, Sequence[Sequence[Form]]]:
    """(beta, alpha, mat / P) for P = x**beta * q**alpha, the largest such
    factor of every entry of the symmetric matrix of forms ``mat``; q is
    ``hyperbolic_q`` in three or more variables and None in fewer, where
    alpha = 0.

    beta is the entries' ``common_monomial``.  alpha is first read off the
    entry with the fewest terms, by dividing it by q while the division is
    exact; every entry is then divided once by P, and a remainder anywhere
    lowers alpha by one and divides again.  Each entry of the result times
    P is the entry of ``mat``, confirmed by ``exact_quotient``'s zero
    remainder; at P = 1 ``mat`` itself is the result.
    """
    n = len(mat)
    live = [mat[i][j] for i in range(n) for j in range(i, n)
            if not mat[i][j].is_zero()]
    beta = common_monomial(live, n)
    factor = Form.monomial(beta)
    alpha = 0
    if q is not None and live:
        g = min(live, key=Form.num_terms)
        if any(beta):
            g = exact_quotient(g, factor)
        while (g := exact_quotient(g, q)) is not None:
            alpha += 1
    while alpha or any(beta):
        divisor = factor * q ** alpha if alpha else factor
        quotients = {(i, j): exact_quotient(mat[i][j], divisor)
                     for i in range(n) for j in range(i, n)}
        if None not in quotients.values():
            return beta, alpha, [[quotients[min(i, j), max(i, j)]
                                  for j in range(n)] for i in range(n)]
        alpha -= 1
    return beta, 0, mat


def _reduced_adjugate(f: Form
                      ) -> Tuple[Exponent, int, Sequence[Sequence[Form]]]:
    """(beta, alpha, adj(D2 f) / P) for P = x**beta * q**alpha, the largest
    such factor of every adjugate entry, as P2**(n - 1) * P' for P2 the
    factor of the second partials and P' that of adj(D2 f / P2)."""
    n1 = f.nvars - 1
    q = hyperbolic_q(n1) if n1 >= 2 else None
    gamma, sigma, small = _divide_common_factor(f.second_partials(), q)
    beta, alpha, adj = _divide_common_factor(adjugate(small), q)
    return (tuple(n1 * g + b for g, b in zip(gamma, beta)),
            n1 * sigma + alpha, adj)


def differential_matrix(f: Form) -> DifferentialMatrix:
    """Matrix of the Hessian differential at f over monomial bases, with the
    adjugate's common factor P divided out and each column scaled to
    integers by its own positive denominator.

    Column j is D_f(x**e_j) / P and the Hessian column Hess f / P, over the
    monomials of degree n (d - 2) - deg P; ``monomial`` and ``q_power``
    record P.
    """
    beta, alpha, adj = _reduced_adjugate(f)
    H = hess_from_adjugate(f, adj)
    if H.is_zero():
        raise ValueError("differential is not certified at a vanishing Hessian")
    col_monos = monomials_of_degree(f.nvars, f.degree)
    row_monos = monomials_of_degree(f.nvars, H.degree)
    row_of = {monomial_key(mono): i for i, mono in enumerate(row_monos)}
    return DifferentialMatrix(
        row_monomials=row_monos, col_monomials=col_monos,
        columns=_monomial_images(adj, col_monos, row_of),
        hess_column=_indexed(H, row_of), monomial=beta, q_power=alpha,
    )


# ---------------------------------------------------------------------------
# rank reports
# ---------------------------------------------------------------------------


@dataclass
class RankReport:
    point: str
    r: int
    d: int
    domain_dim: int
    matrix_shape: Tuple[int, int]
    rank: int
    injective: bool
    method: str
    probe_primes: Tuple[int, ...]
    precondition: Optional[dict] = None
    claim: str = "computed"
    complement_checked: bool = False

    def to_json_dict(self) -> dict:
        out = json_dict(self)
        if self.precondition is None:
            del out["precondition"]
        return out


def _largest_coefficient_monomial(f: Form) -> Tuple[int, ...]:
    """The monomial with the largest |coefficient|, canonical order as tie-break."""
    num = f.numerators
    return max(num, key=lambda e: (abs(num[e]), e))


def projective_injectivity(f: Form, label: Optional[str] = None,
                           rng: Optional[random.Random] = None) -> RankReport:
    """Rank of the induced map on tangent spaces of projective space.

    The domain complement drops f's coefficient-largest monomial; the Hessian
    column is appended so the quotient by <hess f> costs one final rank unit.
    With ``rng`` given, a second computation over a randomized complement
    (different dropped monomial, each column shifted by its own random
    multiple of the Hessian column) must reproduce the rank.
    """
    M = differential_matrix(f)
    n, d = f.nvars, f.degree
    domain_dim = dim_sym(n, d) - 1
    lead = _largest_coefficient_monomial(f)
    selected = [j for j, mono in enumerate(M.col_monomials) if mono != lead]
    matrix = M.with_hess(selected)
    rank, method, primes = rank_with_certificate(matrix)
    projective_rank = rank - 1

    complement_checked = False
    if rng is not None:
        others = [e for e in f.numerators if e != lead]
        drop = rng.choice(others) if others else lead
        sel2 = [j for j, mono in enumerate(M.col_monomials) if mono != drop]
        # column_j += c_j * hess column: a column operation, so the span of
        # [M'' | hess] and hence the rank must not change.
        mults = [1 + rng.randrange(3) for _ in sel2]
        rank2, _, _ = rank_with_certificate(M.with_hess(sel2, mults))
        if rank2 != rank:
            raise VerificationError("complement choice changed the quotient rank")
        complement_checked = True

    return RankReport(
        point=label or "form",
        r=n - 1, d=d,
        domain_dim=domain_dim,
        matrix_shape=(dim_sym(n, n * (d - 2)), dim_sym(n, d)),
        rank=projective_rank,
        injective=projective_rank == domain_dim,
        method=method,
        probe_primes=primes,
        complement_checked=complement_checked,
    )


def precondition_report(point: SpecialPoint, r: int) -> dict:
    """The point's condition over its m-range: row k of ``scan_condition``."""
    scan = curves.scan_condition(point.condition, r, point.k, point.k)
    return {
        "condition": point.condition,
        "k": point.k,
        "m_range": [curves.CONDITIONS[point.condition][1], point.k],
        "violations": [m for _, m in scan.violations],
        "holds": scan.clean,
    }


def verify_special_point_rank(point: SpecialPoint, r: int,
                              rng: Optional[random.Random] = None) -> RankReport:
    """Conditional injectivity certificate at one special point.

    The integer condition is evaluated first.  When it holds, the exact rank
    must certify injectivity, and a failure raises ``VerificationError``.
    When it is violated the rank is still computed and reported, but the
    claim field records that no injectivity statement is made either way.
    """
    require_int("r", r, 1)
    pre = precondition_report(point, r)
    f = point.form(r)
    report = projective_injectivity(f, label=point.label(), rng=rng)
    report.precondition = pre
    if pre["holds"]:
        report.claim = "injective"
        if not report.injective:
            raise VerificationError(
                f"condition holds at {point.label()} but rank "
                f"{report.rank} < {report.domain_dim}")
    else:
        report.claim = "no-claim"
    return report


# ---------------------------------------------------------------------------
# block structure at q**k
# ---------------------------------------------------------------------------


@dataclass
class BlockReport:
    k: int
    r: int
    blocks: List[dict] = field(default_factory=list)
    all_single_slot: bool = True
    all_scalar: bool = True

    def passed(self) -> bool:
        return self.all_single_slot and self.all_scalar

    def to_json_dict(self) -> dict:
        return json_dict(self, scalars_match=self.all_scalar,
                         passed=self.passed())


def block_structure_check(k: int, r: int) -> BlockReport:
    """The differential at q**k acts by a scalar on each harmonic block.

    For each i the directions q**(k-i) h with h harmonic of degree 2i must map
    to lam_i * q**((r+1)(k-1)-i) h with one scalar lam_i for the whole block,
    the first-order coefficient of the even perturbation family at m = i (at
    m = 0, by scaling, (r+1) times the Hessian constant).  As in
    ``verify_pairs``, a zero lam_i means the block maps to the zero form, in
    no slot, which covers the slot -1 of i = k = 1.
    """
    require_int("k", k, 1)
    require_int("r", r, 1)
    qform = QuadraticForm.canonical_hyperbolic(r)
    target_total = (r + 1) * (k - 1)
    qpows = powers(qform.polynomial(), max(k, target_total))
    adj = adjugate_second_partials(qpows[k])
    report = BlockReport(k=k, r=r)

    for i in range(0, k + 1):
        slot = target_total - i
        basis = harmonic_basis(2 * i, qform)
        lam = _predicted_constants("even", r, k, i)[1]
        scale = lam * qpows[slot] if lam else None
        single = scalar_ok = True
        for h in basis:
            img = adjugate_trace(adj, qpows[k - i] * h)
            slots = harmonic_decompose(img, qform)
            nonzero = [t for t, s in enumerate(slots) if not s.is_zero()]
            if nonzero != ([slot] if lam else []):
                single = False
            if not (img == scale * h if lam else img.is_zero()):
                scalar_ok = False
        report.blocks.append({
            "i": i,
            "block_dim": len(basis),
            "target_slot": slot,
            "scalar": str(lam),
            "single_slot": single,
            "scalar_holds": scalar_ok,
        })
        report.all_single_slot &= single
        report.all_scalar &= scalar_ok
    return report


# ---------------------------------------------------------------------------
# multiplication-projection injectivity
# ---------------------------------------------------------------------------


def pijk_injectivity(i: int, k: int, r: int) -> RankReport:
    """The map h -> top harmonic summand of h * l**k is injective on H_i."""
    require_int("i", i, 0)
    require_int("k", k, 1)  # k = 0 is the identity map: nothing to certify
    require_int("r", r, 1)
    qform = QuadraticForm.canonical_hyperbolic(r)
    basis = harmonic_basis(i, qform)
    lk = Form.monomial((k,) + (0,) * r)
    row_of = {monomial_key(mono): j
              for j, mono in enumerate(monomials_of_degree(r + 1, i + k))}
    matrix = IntColumns(len(row_of), [
        _indexed(harmonic_decompose(h * lk, qform)[0], row_of) for h in basis])
    rank, method, primes = rank_with_certificate(matrix)
    dim = dim_harmonic(r + 1, i)
    return RankReport(
        point=f"P(i={i},k={k})",
        r=r, d=i,
        domain_dim=dim,
        matrix_shape=(matrix.nrows, matrix.ncols),
        rank=rank,
        injective=rank == dim,
        method=method,
        probe_primes=primes,
        claim="injective" if rank == dim else "not-injective",
    )
