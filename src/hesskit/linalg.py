"""Exact linear algebra over the rationals, plus a modular fast path.

Every exact routine works on dense integer matrices.  ``clear_denominators``
is the one step from a dense input to integers: it checks that the rows have
one length and that every entry is an int or a ``Fraction``, then scales each
row by the lcm of its denominators, which keeps the rank, the row space and
the solutions of A X = B.  One fraction-free Gauss-Jordan routine
(``_echelon``, Bareiss's integer-preserving elimination carried through to
the reduced form) then gives the exact rank, inverse and nullspace; every
division in it is exact.

The rank path works on ``IntColumns``, a sparse integer matrix stored as one
``{row: value}`` dict per column.  Callers that build their matrix column by
column (the differential matrices) hand it over as is; a dense rational
input is cleared once and turned into the same columns.  ``rank_mod_p`` is
the one modular elimination: it reduces the columns mod q, any int q >= 2,
and eliminates the residues left-looking, under the original row indices:
each column in turn, densest first, is reduced against the pivot columns
already taken by fraction-free steps v <- c*v - f*b, then takes its pivot
on the row that the fewest columns touch.  On these very sparse matrices
this is the usual choice over finite fields (Dumas & Villard, CASC 2002):
it stores only the taken columns and takes no inverse.

The elimination takes a pivot only when it is a unit mod q and stops at
the first one that is not.  So a run that ends with r pivots shows an
r x r minor, on the pivot rows and columns, that is a unit mod q, hence a
nonzero integer, and the rational rank is at least r.  This holds for any
modulus q >= 2, prime or not, so no primality test is needed.
``rank_with_certificate`` runs it once, with q the product of the two
``PROBE_PRIMES`` (about 2**62).  A result equal to the column count is a
proof of full column rank over the rationals, and the rank path takes it
as the answer.  Any other result, a stopped run included, goes to the
exact path, the only place where the columns become a dense Python matrix.

Pivoting is deterministic throughout; ``_echelon`` takes the first row with
a nonzero entry in the leftmost unfinished column.  No randomness, no
floats.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import VerificationError, require_int

Matrix = List[List[Fraction]]
IntMatrix = List[List[int]]

# The probe primes: distinct primes above 2**30.  The rank path eliminates
# modulo their product and names them in every report.
PROBE_PRIMES = (2147483647, 2147483629)


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


def _echelon(m: IntMatrix) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination of ``m`` in place, every column.

    Returns ``(pivot_cols, den)``: afterwards ``m[r][c] / den`` is the
    reduced row echelon form and its first ``len(pivot_cols)`` rows hold the
    pivots.  Each step replaces every other row by
    ``(p * row - row[col] * pivot_row) / den`` with ``p`` the new pivot and
    ``den`` the previous one; by Sylvester's identity the division is exact,
    so all entries stay integers (Bareiss, Math. Comp. 22, 1968).
    """
    nrows = len(m)
    pivots: List[int] = []
    den = 1
    for col in range(len(m[0]) if m else 0):
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
    m = matrix.dense() if isinstance(matrix, IntColumns) else clear_denominators(matrix)
    return len(_echelon(m)[0])


def _residues(columns: Sequence[Dict[int, int]], q: int) -> List[Dict[int, int]]:
    """Fresh columns reduced mod q, entries that vanish dropped."""
    return [{i: r for i, x in col.items() if (r := x % q)} for col in columns]


def rank_mod_p(m: IntColumns, q: int) -> Optional[int]:
    """Rank of the integer matrix ``m`` modulo q, an int >= 2, by one
    fraction-free column elimination that takes only unit pivots; ``None``
    at the first pivot that is not a unit mod q.

    Always a lower bound for the rational rank.  Each residue column v is
    reduced against the columns b already taken, in the order they were
    taken, by v <- c*v - f*b, with c the unit pivot of b and f the entry of
    v on b's pivot row: a unit times v minus an earlier column, so no
    inverse is taken.  A taken column is 0 on every earlier pivot row, so
    the taken columns restricted to the pivot rows, in the order taken, are
    triangular with the pivots on the diagonal.  The minor of ``m`` on the
    r pivot rows and columns of a run that ends is that triangle's
    determinant times a unit: a unit mod q, so a nonzero integer, and the
    rational rank is at least r.  Nothing here needs q to be prime.  A
    column that reduces to 0 is, times a unit, a combination of the taken
    ones, so for every prime p dividing q, r is the rank mod p.  For a prime
    q every nonzero residue is a unit and the run always ends.

    The columns go densest first (a stable sort by entry count), and a
    column's pivot is its entry on the row that the fewest residue columns
    touch, ties to the lower index: one int per row, computed once, orders
    the rows that way.  Both rules are measured: on the complement re-check
    matrix of ``qk1l2`` at d = 30 the run takes about 6 ms; when the rules
    were chosen it took 10 ms against 27 ms in input order, 510 ms with each
    column's lowest row as its pivot and 220 ms with neither (Markowitz's
    elimination, which this replaced: 15-24 ms).  Reducing by an earlier
    column can put an entry on a later pivot row, so a column that meets
    pivot rows walks their positions through a heap; one that meets none,
    more than half of them at ``certify(17..20)``, builds no heap.  ``m``
    is not touched.

    Built for the sparse matrices the library makes: the 276 x 231 matrix
    of ``certify(20)`` is 1.3% nonzero, about 3.6 entries per column, and
    takes about 0.8 ms; none with 5 000 cells or more in ``certify(4..30)``
    or the seed-0 suite is above 3.1%.  Dense input is slow, and slower
    than under the Markowitz elimination, for the scaling by c at every
    step: modulo the probes' product a random 60 x 60 takes about 31 ms
    (Markowitz 21-34) and a 120 x 120 250 ms (Markowitz 160-190), 2 cores,
    Python 3.11.
    """
    require_int("q", q, 2)
    columns = sorted(_residues(m.columns, q), key=len, reverse=True)
    touched = Counter(chain.from_iterable(columns))
    # one int per row that orders the pivot rows: fewest columns, then lower row
    order = {i: t * m.nrows + i for i, t in touched.items()}
    position: Dict[int, int] = {}
    taken: List[Tuple[int, int, Dict[int, int]]] = []
    for v in columns:
        heap = [position[i] for i in v if i in position]
        if heap:
            heapify(heap)
        while heap:
            r, c, b = taken[heappop(heap)]
            f = v.pop(r, 0)
            if not f:
                continue
            # v <- c*v - f*b, whose entry on r cancels
            v = {i: x * c % q for i, x in v.items()}
            for i, y in b.items():
                if i not in v:
                    v[i] = -f * y % q
                    if i in position:
                        heappush(heap, position[i])
                elif x := (v[i] - f * y) % q:
                    v[i] = x
                else:
                    del v[i]
        if v:
            r = min(v, key=order.__getitem__)
            c = v.pop(r)
            if gcd(c, q) != 1:
                return None
            position[r] = len(taken)
            taken.append((r, c, v))
    return len(taken)


def rank_with_certificate(matrix: Union[IntColumns, Sequence[Sequence]]
                          ) -> Tuple[int, str, List[int]]:
    """Rank plus a record of how it was certified.

    ``matrix`` is ``IntColumns`` or dense rows of ints and Fractions.
    Returns (rank, method, probe primes).  One rule, with no option to
    bypass it: one ``rank_mod_p`` run modulo the product of ``PROBE_PRIMES``
    that reports full column rank is already the proof
    ("modular-full-rank"); any other outcome goes to the Bareiss path, which
    decides, and the modular rank is checked against it.  A modular rank
    below the exact one can happen (reduction can drop rank); one above it
    is a fault.
    """
    primes = list(PROBE_PRIMES)
    m = matrix if isinstance(matrix, IntColumns) else IntColumns.from_rows(matrix)
    q = prod(primes)
    mod_rank = rank_mod_p(m, q)
    if mod_rank == m.ncols:
        return m.ncols, "modular-full-rank", primes
    exact = rank_bareiss(m)
    if mod_rank is not None and mod_rank > exact:
        raise VerificationError(f"mod-{q} rank {mod_rank} exceeds exact rank {exact}")
    return exact, "bareiss", primes


def invert(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse of a square matrix (row-major).

    [A | I] is eliminated at full width.  It has rank n whatever A is, so
    the elimination always takes n pivots, and A is invertible exactly when
    they are the columns 0 .. n-1; the right block is then A**-1.  Raises
    ValueError on a matrix that is not square or is singular.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    m = clear_denominators([list(row) + [int(i == k) for k in range(n)]
                            for i, row in enumerate(a)])
    pivots, den = _echelon(m)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(x, den) for x in row[n:]] for row in m]


def nullspace(a: Sequence[Sequence]) -> Matrix:
    """Basis of the right nullspace of A, as a list of column vectors.

    Deterministic: reduced row echelon form with leftmost-pivot choice, one
    basis vector per free column in canonical column order, the free
    coordinate set to 1.  A needs at least one row.
    """
    n_cols = len(a[0])
    m = clear_denominators(a)
    pivots, den = _echelon(m)
    basis: Matrix = []
    for fc in [c for c in range(n_cols) if c not in pivots]:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], den)
        basis.append(v)
    return basis
