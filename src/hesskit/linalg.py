"""Exact linear algebra over the rationals, plus a mod-p fast path.

Every routine works on integer matrices.  ``clear_denominators`` scales each
row by the lcm of its denominators, which keeps the rank, the row space and
the solutions of A X = B; on an integer matrix it only copies.  One
fraction-free Gauss-Jordan routine (``_echelon``, Bareiss's integer-preserving
elimination carried through to the reduced form) then gives the exact rank,
solutions, inverse and nullspace; every division in it is exact.

The mod-p path reduces the same integer matrix modulo a large prime and
eliminates with vectorized int64 arithmetic; since reduction can only lower
rank, a full-column-rank result mod p is already a proof of full column rank
over the rationals.  Any other modular answer is advisory and must be
confirmed by the exact path.  ``rank_with_certificate`` clears once and hands
the same integer matrix to every probe prime and to the exact fallback.

Pivoting is deterministic throughout: first row with a nonzero entry in the
leftmost unfinished column.  No randomness, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import VerificationError

Matrix = List[List[Fraction]]
IntMatrix = List[List[int]]

# Default probe primes for the modular path: distinct primes above 2**30.
PROBE_PRIMES = (2147483647, 2147483629)


def clear_denominators(rows: Sequence[Sequence]) -> IntMatrix:
    """Scale each row by the lcm of its denominators; rank is unchanged.

    Entries are ints or Fractions; the result is a new integer matrix.
    """
    out: IntMatrix = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _echelon(m: IntMatrix, ncols: int) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination of ``m`` in place.

    Columns ``0 .. ncols-1`` are eliminated; any further columns (right-hand
    sides) are carried along.  Returns ``(pivot_cols, den)``: afterwards
    ``m[r][c] / den`` is the reduced row echelon form and its first
    ``len(pivot_cols)`` rows hold the pivots.  Each step replaces every other
    row by ``(p * row - row[col] * pivot_row) / den`` with ``p`` the new pivot
    and ``den`` the previous one; by Sylvester's identity the division is
    exact, so all entries stay integers (Bareiss, Math. Comp. 22, 1968).
    """
    nrows = len(m)
    pivots: List[int] = []
    den = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((i for i in range(row, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        prow = m[row]
        p = prow[col]
        for i in range(nrows):
            f = m[i][col]
            if i == row or (not f and p == den):
                continue
            m[i] = [(p * x - f * y) // den for x, y in zip(m[i], prow)]
        pivots.append(col)
        den = p
    return pivots, den


def rank_bareiss(rows: Sequence[Sequence]) -> int:
    """Exact rank via fraction-free elimination; entries ints or Fractions."""
    m = clear_denominators(rows)
    return len(_echelon(m, len(m[0]) if m else 0)[0])


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of the integer matrix ``m`` over GF(p), vectorized.

    Always a lower bound for the rational rank.  Requires p < 2**31 so that
    products of residues stay inside int64.
    """
    if p >= 1 << 31:
        raise ValueError("prime too large for the int64 elimination path")
    if not m:
        return 0
    a = np.array([[x % p for x in row] for row in m], dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        below = a[row + 1:, col]
        mask = below != 0
        if mask.any():
            a[row + 1:][mask] = (a[row + 1:][mask] - below[mask, None] * a[row][None, :]) % p
        row += 1
        rank += 1
    return rank


def rank_with_certificate(rows: Sequence[Sequence],
                          primes: Sequence[int] = PROBE_PRIMES,
                          force_exact: bool = False) -> Tuple[int, str, List[int]]:
    """Rank plus a record of how it was certified.

    Returns (rank, method, primes_used).  When every probe prime reports full
    column rank the answer is already exact ("modular-full-rank"); otherwise
    the Bareiss path decides and the modular answers are checked against it.
    A disagreement between a probe prime and the exact rank is tolerated only
    downward (an unlucky prime can drop rank, never raise it).
    """
    m = clear_denominators(rows)
    ncols = len(m[0]) if m else 0
    mod_ranks = [rank_mod_p(m, p) for p in primes]
    if not force_exact and mod_ranks and all(r == ncols for r in mod_ranks):
        return ncols, "modular-full-rank", list(primes)
    exact = rank_bareiss(m)
    for p, rp in zip(primes, mod_ranks):
        if rp > exact:
            raise VerificationError(f"mod-{p} rank {rp} exceeds exact rank {exact}")
    return exact, "bareiss", list(primes)


def _square(a: Sequence[Sequence]) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    return n


def solve_exact(a: Sequence[Sequence], rhs_cols: Sequence[Sequence]) -> Matrix:
    """Solve A X = B exactly for square invertible A.

    ``rhs_cols`` is given column-wise: rhs_cols[k] is the k-th right-hand
    side.  The result is returned column-wise as well.  Raises ValueError on a
    singular matrix.
    """
    n = _square(a)
    if any(len(c) != n for c in rhs_cols):
        raise ValueError("right-hand side has wrong length")
    m = clear_denominators([list(a[i]) + [c[i] for c in rhs_cols] for i in range(n)])
    pivots, den = _echelon(m, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [[Fraction(m[i][n + k], den) for i in range(n)] for k in range(len(rhs_cols))]


def invert(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse of a square matrix (row-major)."""
    n = len(a)
    cols = solve_exact(a, [[int(i == k) for i in range(n)] for k in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def nullspace(a: Sequence[Sequence], ncols: Optional[int] = None) -> Matrix:
    """Basis of the right nullspace of A, as a list of column vectors.

    Deterministic: reduced row echelon form with leftmost-pivot choice, one
    basis vector per free column in canonical column order, the free
    coordinate set to 1.
    """
    if not a:
        if ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        return [[Fraction(int(i == k)) for i in range(ncols)] for k in range(ncols)]
    n_cols = len(a[0])
    m = clear_denominators(a)
    pivots, den = _echelon(m, n_cols)
    basis: Matrix = []
    for fc in [c for c in range(n_cols) if c not in pivots]:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], den)
        basis.append(v)
    return basis
