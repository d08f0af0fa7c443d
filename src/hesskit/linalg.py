"""Exact linear algebra over the rationals, plus a mod-p fast path.

Ground truth for every rank claim is fraction-free Bareiss elimination on an
integer matrix (denominators cleared row by row).  The mod-p path reduces the
same integer matrix modulo a large prime and eliminates with vectorized int64
arithmetic; since reduction can only lower rank, a full-column-rank result mod
p is already a proof of full column rank over the rationals.  Any other
modular answer is advisory and must be confirmed by the exact path.

Pivoting is deterministic throughout: first row with a nonzero entry in the
leftmost unfinished column.  No randomness, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import VerificationError

Matrix = List[List[Fraction]]

# Default probe primes for the modular path: distinct primes above 2**30.
PROBE_PRIMES = (2147483647, 2147483629)


def _as_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]


def clear_denominators(rows: Sequence[Sequence]) -> List[List[int]]:
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    out: List[List[int]] = []
    for row in rows:
        fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(x * lcm) for x in fr])
    return out


def rank_bareiss(rows: Sequence[Sequence]) -> int:
    """Exact rank via fraction-free Bareiss elimination.

    Entries may be ints or Fractions; denominators are cleared first so all
    intermediate arithmetic is integer-only.
    """
    m = clear_denominators(rows)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for i in range(row + 1, nrows):
            mi = m[i]
            mic = mi[col]
            if mic == 0 and prev == 1:
                continue
            mr = m[row]
            for j in range(col, ncols):
                mi[j] = (p * mi[j] - mic * mr[j]) // prev
        prev = p
        row += 1
        rank += 1
    return rank


def rank_mod_p(rows: Sequence[Sequence], p: int) -> int:
    """Rank of the integer-cleared matrix over GF(p), vectorized.

    Always a lower bound for the rational rank.  Requires p < 2**31 so that
    products of residues stay inside int64.
    """
    if p >= 1 << 31:
        raise ValueError("prime too large for the int64 elimination path")
    cleared = clear_denominators(rows)
    if not cleared:
        return 0
    a = np.array([[x % p for x in row] for row in cleared], dtype=np.int64)
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
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    mod_ranks = [rank_mod_p(rows, p) for p in primes]
    if not force_exact and mod_ranks and all(r == ncols for r in mod_ranks):
        return ncols, "modular-full-rank", list(primes)
    exact = rank_bareiss(rows)
    for p, rp in zip(primes, mod_ranks):
        if rp > exact:
            raise VerificationError(f"mod-{p} rank {rp} exceeds exact rank {exact}")
    return exact, "bareiss", list(primes)


def solve_exact(a: Sequence[Sequence], rhs_cols: Sequence[Sequence]) -> Matrix:
    """Solve A X = B exactly for square invertible A.

    ``rhs_cols`` is given column-wise: rhs_cols[k] is the k-th right-hand
    side.  The result is returned column-wise as well.  Raises ValueError on a
    singular matrix.
    """
    a = _as_fraction_matrix(a)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    cols = [_as_fraction_matrix([col])[0] for col in rhs_cols]
    if any(len(c) != n for c in cols):
        raise ValueError("right-hand side has wrong length")
    aug = [a[i] + [c[i] for c in cols] for i in range(n)]
    width = n + len(cols)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [aug[i][j] - f * aug[col][j] for j in range(width)]
    return [[aug[i][n + k] for i in range(n)] for k in range(len(cols))]


def invert(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse of a square matrix (row-major)."""
    n = len(a)
    identity_cols = [[Fraction(1) if i == k else Fraction(0) for i in range(n)] for k in range(n)]
    cols = solve_exact(a, identity_cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def det_exact(a: Sequence[Sequence]) -> Fraction:
    a = _as_fraction_matrix(a)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    det = Fraction(1)
    m = [row[:] for row in a]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [m[i][j] - f * m[col][j] for j in range(col, n)]
                m[i] = [Fraction(0)] * col + m[i]
    return det


def nullspace(a: Sequence[Sequence], ncols: Optional[int] = None) -> Matrix:
    """Basis of the right nullspace of A, as a list of column vectors.

    Deterministic: reduced row echelon form with leftmost-pivot choice, one
    basis vector per free column in canonical column order, the free
    coordinate set to 1.
    """
    a = _as_fraction_matrix(a)
    if not a:
        if ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        return [[Fraction(1) if i == k else Fraction(0) for i in range(ncols)]
                for k in range(ncols)]
    n_cols = len(a[0])
    m = [row[:] for row in a]
    nrows = len(m)
    pivots: List[int] = []
    row = 0
    for col in range(n_cols):
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [m[i][j] - f * m[row][j] for j in range(n_cols)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis
