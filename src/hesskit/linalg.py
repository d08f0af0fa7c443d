"""Exact linear algebra over the rationals, plus a mod-p fast path.

Every exact routine works on dense integer matrices.  ``clear_denominators``
is the one step from a dense input to integers: it checks that the rows have
one length and that every entry is an int or a ``Fraction``, then scales each
row by the lcm of its denominators, which keeps the rank, the row space and
the solutions of A X = B.  One fraction-free Gauss-Jordan routine
(``_echelon``, Bareiss's integer-preserving elimination carried through to
the reduced form) then gives the exact rank, solutions, inverse and
nullspace; every division in it is exact.

The rank path works on ``IntColumns``, a sparse integer matrix stored as one
``{row: value}`` dict per column.  Callers that build their matrix column by
column (the differential matrices) hand it over as is; a dense rational
input is cleared once and turned into the same columns.  ``rank_mod_p`` is
the one modular elimination: it reduces the columns mod q and eliminates
the residues as they are, one sparse Gaussian elimination on Python dicts
under the original row and column indices.  Its pivot rule is
Markowitz's, not ``_echelon``'s: the column with the fewest live rows, then
the row in it with the fewest entries, ties to the lower index.  A
singleton column always goes first and a singleton row is the pivot chosen
in its column, both without fill-in, so the structured first step of
LaMacchia & Odlyzko (CRYPTO '90) needs no pass of its own.

With one probe prime p, q is p itself.  ``rank_with_certificate`` runs it
once for all probe primes, with q their lcm (about 2**62 for the default
two), and takes a pivot only when it is a unit mod q.  Reduced mod each
prime, that run is an elimination over GF(p) with nonzero pivots, and what
it leaves is 0 mod q, so its rank is the rank mod every probe prime.  At a
pivot that is not a unit the run stops, and each prime gets a run of its
own.  Since reduction can only lower rank, a full-column-rank result mod p
is already a proof of full column rank over the rationals, and the rank
path takes it as the answer.  Any other modular answer is advisory and must be confirmed by
the exact path, the only place where the columns become a dense Python
matrix.

Pivoting is deterministic throughout; ``_echelon`` takes the first row with
a nonzero entry in the leftmost unfinished column.  No randomness, no
floats.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import VerificationError

Matrix = List[List[Fraction]]
IntMatrix = List[List[int]]

# Default probe primes for the modular path: distinct primes above 2**30.
PROBE_PRIMES = (2147483647, 2147483629)


def _is_probe_prime(p) -> bool:
    """True for an int (not a bool) that is a prime below 2**31.

    Miller-Rabin with the bases 2, 3, 5, 7 has no strong pseudoprime below
    3 215 031 751 (Pomerance, Selfridge & Wagstaff, Math. Comp. 35, 1980),
    so on this range the test is exact.
    """
    if not isinstance(p, int) or isinstance(p, bool) or not 2 <= p < 1 << 31:
        return False
    for a in (2, 3, 5, 7):
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_probe_primes(primes: Sequence) -> None:
    for p in primes:
        if not _is_probe_prime(p):
            raise ValueError(f"probe {p!r} is not a prime below 2**31")


def clear_denominators(rows: Sequence[Sequence]) -> IntMatrix:
    """Scale each row by the lcm of its denominators; rank is unchanged.

    Entries must be ints or Fractions (``TypeError`` otherwise) and all rows
    one length (``ValueError`` otherwise); the result is a new integer matrix.
    """
    width = len(rows[0]) if rows else 0
    out: IntMatrix = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix: rows have different lengths")
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} is not an int or a Fraction")
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


class IntColumns:
    """Sparse integer matrix: ``nrows`` and one ``{row: value}`` dict per
    column, zeros not stored.  Treated as immutable once built."""

    __slots__ = ("nrows", "columns")

    def __init__(self, nrows: int, columns: Sequence[Dict[int, int]]):
        self.nrows = nrows
        self.columns = list(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "IntColumns":
        """Clear a dense rational matrix once and store its columns."""
        m = clear_denominators(rows)
        columns: List[Dict[int, int]] = [{} for _ in range(len(m[0]) if m else 0)]
        for i, row in enumerate(m):
            for col, x in zip(columns, row):
                if x:
                    col[i] = x
        return cls(len(m), columns)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def dense(self) -> IntMatrix:
        """A fresh dense row-major integer copy."""
        out = [[0] * len(self.columns) for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
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


def rank_bareiss(matrix: Union[IntColumns, Sequence[Sequence]]) -> int:
    """Exact rank via fraction-free elimination.

    ``matrix`` is ``IntColumns`` or dense rows of ints and Fractions.
    """
    if isinstance(matrix, IntColumns):
        m, ncols = matrix.dense(), matrix.ncols
    else:
        m = clear_denominators(matrix)
        ncols = len(m[0]) if m else 0
    return len(_echelon(m, ncols)[0])


def _residues(columns: Sequence[Dict[int, int]], q: int) -> List[Dict[int, int]]:
    """Fresh columns reduced mod q, entries that vanish dropped."""
    return [{i: r for i, x in col.items() if (r := x % q)} for col in columns]


def rank_mod_p(m: IntColumns, p: int, *more: int) -> Optional[int]:
    """Rank of the integer matrix ``m`` modulo each probe prime, by one
    sparse elimination.

    Always a lower bound for the rational rank.  Every probe must be a prime
    below 2**31, the range on which ``_is_probe_prime`` is exact.  The
    elimination runs modulo q, the lcm of the probes, and takes a pivot only
    if it is a unit mod q; at the first one that is not, it stops and
    returns ``None``.  A run that ends gives the rank modulo every probe:
    reduced mod a probe, each step is a step over that prime field with a
    nonzero pivot, and every entry left is 0 mod q, so 0 mod the probe.
    With one probe q = p, every nonzero residue is a unit and the run always
    ends.

    Rows are ``{col: residue}`` dicts and columns sets of live rows, both
    under the original indices; ``m`` is not touched.  Each step pivots in
    the column with the fewest live rows (a heap of counts whose stale
    entries are skipped), on the row there with the fewest entries, ties to
    the lower index: Markowitz's rule (Management Sci. 3, 1957) taken column
    first.  A singleton column always goes first, and a singleton row is the
    choice in its column; neither makes fill-in.

    Built for the sparse matrices the library makes: the 1540 x 231 matrix
    of ``certify(20)`` is 1.2% nonzero, and none with 5 000 cells or more in
    ``certify(4..30)`` or the seed-0 suite is above 8.5%.  Dense input is
    slow: a random 60 x 60 takes about 25 ms and a 120 x 120 about 190 ms
    mod one prime, where a vectorized int64 loop takes 4 and 15 ms (2 cores,
    Python 3.11).
    """
    primes = (p, *more)
    _check_probe_primes(primes)
    q = lcm(*primes)
    rows: Dict[int, Dict[int, int]] = {}
    cols: List[set] = []
    for c, col in enumerate(_residues(m.columns, q)):
        cols.append(set(col))
        for r, x in col.items():
            if r in rows:
                rows[r][c] = x
            else:
                rows[r] = {c: x}
    heap = [(len(live), c) for c, live in enumerate(cols) if live]
    heapify(heap)
    rank = 0
    while heap:
        n, c = heappop(heap)
        live = cols[c]
        if n != len(live):
            continue
        r = min([(len(rows[i]), i) for i in live])[1]
        prow = rows.pop(r)
        pivot = prow.pop(c)
        if gcd(pivot, q) != 1:
            return None
        cols[c] = set()
        live.discard(r)
        for j in prow:
            cols[j].discard(r)
        if live:
            # row i becomes row i - f / pivot * (pivot row), f its entry in c
            neg = q - pow(pivot, -1, q)
            scaled = [(j, y * neg % q) for j, y in prow.items()]
            for i in live:
                row = rows[i]
                f = row.pop(c)
                for j, y in scaled:
                    if j not in row:
                        row[j] = f * y % q
                        cols[j].add(i)
                    elif x := (row[j] + f * y) % q:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(i)
        for j in prow:
            if cols[j]:
                heappush(heap, (len(cols[j]), j))
        rank += 1
    return rank


def rank_with_certificate(matrix: Union[IntColumns, Sequence[Sequence]],
                          primes: Sequence[int] = PROBE_PRIMES
                          ) -> Tuple[int, str, List[int]]:
    """Rank plus a record of how it was certified.

    ``matrix`` is ``IntColumns`` or dense rows of ints and Fractions; every
    probe must be a prime below 2**31.  Returns (rank, method, primes_used).
    The modular ranks come from one ``rank_mod_p`` run modulo the lcm of
    all probes, which gives the rank modulo each of them; only if that run
    meets a pivot that is not a unit does each probe prime get a run of its
    own.  One rule, with no option to bypass it: when every probe prime
    reports full column rank that is already the proof
    ("modular-full-rank"); any other outcome goes to the Bareiss path,
    which decides, and the modular answers are checked against it.  A
    disagreement between a probe prime and the exact rank is tolerated only
    downward (an unlucky prime can drop rank, never raise it).
    """
    _check_probe_primes(primes)
    m = matrix if isinstance(matrix, IntColumns) else IntColumns.from_rows(matrix)
    fused = rank_mod_p(m, *primes) if primes else None
    mod_ranks = ([fused] * len(primes) if fused is not None
                 else [rank_mod_p(m, p) for p in primes])
    if mod_ranks and all(r == m.ncols for r in mod_ranks):
        return m.ncols, "modular-full-rank", list(primes)
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


def nullspace(a: Sequence[Sequence]) -> Matrix:
    """Basis of the right nullspace of A, as a list of column vectors.

    Deterministic: reduced row echelon form with leftmost-pivot choice, one
    basis vector per free column in canonical column order, the free
    coordinate set to 1.  A needs at least one row.
    """
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
