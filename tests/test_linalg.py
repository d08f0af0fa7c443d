import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from hesskit import linalg, rank_certificates
from hesskit.errors import InputError, VerificationError
from hesskit.linalg import (PROBE_PRIMES, IntColumns, invert, nullspace,
                            rank_bareiss, rank_with_certificate)
from hesskit.rank_certificates import SpecialPoint

from conftest import form_route_matrix, special_points


@st.composite
def matrices(draw, max_dim=5, bound=9, sparse=False, square=False):
    """Rational matrices; ``sparse`` makes about three entries in four 0,
    so elimination meets rows that are already zero in the pivot column."""
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    entry = st.fractions(min_value=-bound, max_value=bound, max_denominator=4)
    if sparse:
        entry = st.integers(0, 3).flatmap(
            lambda k, value=entry: value if k == 0 else st.just(Fraction(0)))
    data = draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return [[Fraction(x) for x in row] for row in data]


@st.composite
def int_columns(draw, max_dim=6):
    """Sparse integer matrices as ``IntColumns``: zero columns and all-zero
    rows are common, and entries run from small negatives to beyond 2**63."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    entry = st.one_of(st.integers(-9, 9), st.integers(2 ** 63, 2 ** 70),
                      st.integers(-2 ** 70, -2 ** 63)).filter(bool)
    columns = [draw(st.dictionaries(st.integers(0, nrows - 1), entry,
                                    max_size=3)) if nrows else {}
               for _ in range(ncols)]
    return IntColumns(nrows, columns)


@st.composite
def peelable(draw, p):
    """``IntColumns`` with the structure singleton peeling feeds on, mod p:
    a random core about two thirds full, a chain of two-entry columns whose
    singleton rows appear only one removal at a time, forced singleton
    columns and rows, empty rows and columns, and entries that are multiples
    of p; rows and columns shuffled.  ``markowitz_rank_mod_p`` peels such
    matrices; ``rank_mod_p`` meets them as one more column order.
    """
    entry = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * p),
                      st.integers(2 ** 63, 2 ** 70)).filter(bool)
    nrows = draw(st.integers(0, 6))
    cell = st.one_of(st.just(0), entry, entry)
    columns = [{i: x for i, x in enumerate(draw(st.lists(
                   cell, min_size=nrows, max_size=nrows))) if x}
               for _ in range(draw(st.integers(0, 6)))]
    links = draw(st.integers(0, 4))
    if links:
        # row nrows + t meets columns t - 1 and t of the chain only
        chain = [nrows + t for t in range(links + 1)]
        columns += [{chain[t]: draw(entry), chain[t + 1]: draw(entry)}
                    for t in range(links)]
        if columns[:-links] and draw(st.booleans()):
            # tie the chain's far end into the core
            j = draw(st.integers(0, len(columns) - links - 1))
            columns[j] = {**columns[j], chain[-1]: draw(entry)}
        nrows += links + 1
    for _ in range(draw(st.integers(0, 2))):
        columns.append({draw(st.integers(0, nrows)): draw(entry)})
        nrows += 1
    for _ in range(draw(st.integers(0, 2)) if columns else 0):
        j = draw(st.integers(0, len(columns) - 1))
        columns[j] = {**columns[j], nrows: draw(entry)}
        nrows += 1
    nrows += draw(st.integers(0, 2))
    columns += [{}] * draw(st.integers(0, 2))
    perm = draw(st.permutations(range(nrows)))
    columns = [{perm[i]: x for i, x in col.items()}
               for col in draw(st.permutations(columns))]
    return IntColumns(nrows, columns)


@st.composite
def fill_cores(draw, p):
    """``IntColumns`` whose eliminations make fill-in that matters: in an
    n x n core two permutations, one a cyclic shift of the other, give every
    row and column two entries, so no singleton peels the core and each
    reduction fills in an entry the next one must clear.  The cycle's
    entries are 1 or -1, so its determinant is 0 or 2 and the core is
    singular over the rationals about half the time: only the filled
    entries show it.  Up to two extra cells (multiples of p among them) and
    up to two extra rows; rows and columns shuffled.
    """
    entry = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * p),
                      st.integers(2 ** 63, 2 ** 70)).filter(bool)
    sign = st.sampled_from((1, -1))
    n = draw(st.integers(2, 7))
    perm = draw(st.permutations(range(n)))
    columns = [{perm[c]: draw(sign), perm[(c + 1) % n]: draw(sign)}
               for c in range(n)]
    nrows = n + draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(0, n - 1))
        columns[c] = {**columns[c], draw(st.integers(0, nrows - 1)): draw(entry)}
    rows = draw(st.permutations(range(nrows)))
    columns = [{rows[i]: x for i, x in col.items()}
               for col in draw(st.permutations(columns))]
    return IntColumns(nrows, columns)


def dense_rank_mod_p(m, p):
    """Gaussian elimination over GF(p) on every residue: no peeling."""
    rows = [[x % p for x in row] for row in m.dense()]
    rank = 0
    for c in range(m.ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def markowitz_rank_mod_p(m, q):
    """The sparse elimination ``rank_mod_p`` replaced, kept as an oracle:
    rows as ``{col: residue}`` dicts, columns as sets of live rows, the
    column with the fewest live rows pivoted on its row with the fewest
    entries (Markowitz's rule taken column first), ties to the lower index;
    ``None`` at the first pivot that is not a unit mod q."""
    rows = {}
    cols = []
    for c, col in enumerate(linalg._residues(m.columns, q)):
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


def sympy_rank_mod_p(m, p):
    if not m.nrows or not m.ncols:
        return 0
    return DomainMatrix([[GF(p)(x) for x in row] for row in m.dense()],
                        (m.nrows, m.ncols), GF(p)).rank()


def sympy_of(m):
    return sympy.Matrix(m.nrows, m.ncols, [x for row in m.dense() for x in row])


def fractions_of(sympy_matrix):
    return [Fraction(int(x.p), int(x.q)) for x in sympy_matrix]


# Fraction-free elimination that skips a row with a zero in the pivot column
# without scaling it by the pivot turns later exact divisions into floors.
ZERO_PIVOT_ROWS = [[0, 0, 0, 0], [0, -1, 0, 2], [-3, -2, 0, 0], [0, 1, 0, 0]]


class TestRank:
    @settings(max_examples=60)
    @given(m=matrices())
    def test_bareiss_matches_sympy(self, m):
        assert rank_bareiss(m) == sympy.Matrix(m).rank()

    @settings(max_examples=60)
    @given(m=matrices())
    def test_certificate_rank_is_exact(self, m):
        rank, method, primes = rank_with_certificate(m)
        assert rank == sympy.Matrix(m).rank()
        assert primes == list(PROBE_PRIMES)
        if method == "modular-full-rank":
            # the shortcut only ever certifies full column rank
            assert rank == len(m[0])
        else:
            assert method == "bareiss"

    def test_full_column_rank_mod_p_skips_the_elimination(self, monkeypatch):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert rank_bareiss(m) == sympy.Matrix(m).rank() == 2

        def refuse(matrix):
            raise RuntimeError("Bareiss run on a full-rank-mod-p matrix")

        monkeypatch.setattr(linalg, "rank_bareiss", refuse)
        rank, method, _ = rank_with_certificate(m)
        assert rank == 2 and method == "modular-full-rank"

    def test_rank_deficient_never_certified_modular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        rank, method, _ = rank_with_certificate(m)
        assert rank == 1 and method == "bareiss"

    def test_modular_rank_above_exact_is_a_verification_error(self, monkeypatch):
        # rank 1 over Q; a fake mod-p rank of 2 is above it yet below the full
        # column rank 3, so the exact path runs and must catch it
        m = [[1, 2, 3], [2, 4, 6]]
        assert rank_bareiss(m) == 1
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, q: 2)
        with pytest.raises(VerificationError, match="exceeds exact rank 1"):
            rank_with_certificate(m)


ONE = IntColumns(1, [{0: 1}])


SPECIAL_POINTS_4_TO_9 = list(special_points(range(4, 10)))

# Mod 7 the first pivot (column 0, row 0) fills row 2 in column 2, and the
# pivot in column 1 cancels that entry; the determinant is -84 = -12 * 7.
FILL_CANCELS = IntColumns(3, [{0: 6, 2: 2}, {1: 6, 2: 2}, {0: 4, 1: 3}])
# Mod 7 the pivot in column 0 empties column 1; the determinant is -14.
EMPTIES_A_COLUMN = IntColumns(2, [{0: 4, 1: 6}, {0: 3, 1: 1}])


class TestProbePrimes:
    def test_probe_primes_are_distinct_primes(self):
        assert len(set(PROBE_PRIMES)) == len(PROBE_PRIMES) == 2
        assert all(sympy.isprime(p) and p > 2 ** 30 for p in PROBE_PRIMES)

    @pytest.mark.parametrize("q", [1, 0, -7, True, 2.0, None])
    def test_modulus_below_two_is_refused(self, q):
        with pytest.raises(InputError, match="q must be an int >= 2"):
            linalg.rank_mod_p(ONE, q)

    def test_composite_probe_cannot_claim_full_rank(self, monkeypatch):
        # mod 4, 2 has no inverse: the run stops instead of counting two pivots
        m = [[2, 1], [2, 1]]
        assert linalg.rank_mod_p(IntColumns.from_rows(m), 4) is None
        assert rank_with_certificate(m) == (1, "bareiss", list(PROBE_PRIMES))
        monkeypatch.setattr(linalg, "PROBE_PRIMES", (4,))
        assert rank_with_certificate(m) == (1, "bareiss", [4])

    def test_a_repeated_probe_is_one_modulus(self, monkeypatch):
        # the run is modulo the product, 49: a repeated factor needs no care
        monkeypatch.setattr(linalg, "PROBE_PRIMES", (7, 7))
        assert rank_with_certificate([[1, 0], [0, 1]]) == (
            2, "modular-full-rank", [7, 7])
        assert rank_with_certificate([[7, 0], [0, 1]]) == (
            2, "bareiss", [7, 7])

    @pytest.mark.parametrize("columns, rank", [
        ([{0: 1, 1: 2}], 1), ([{0: 2, 1: 1}], None),
        ([{0: 1, 1: 2}, {0: 3}], None)])
    def test_the_pivot_rule_decides_where_a_run_stops(self, columns, rank):
        # mod 6, 1 is a unit and 2 is not.  One column: both rows are
        # touched once and the tie goes to row 0.  With a second column on
        # row 0, row 1 is the less touched and takes the pivot 2.
        assert linalg.rank_mod_p(IntColumns(2, columns), 6) == rank

    def test_default_primes_pass(self):
        for p in PROBE_PRIMES:
            assert linalg.rank_mod_p(ONE, p) == 1

    @pytest.mark.parametrize("entry, fused", [
        (PROBE_PRIMES[0], None), (PROBE_PRIMES[1], None),
        (PROBE_PRIMES[0] * PROBE_PRIMES[1], 0)])
    def test_entry_divisible_by_a_probe_goes_to_bareiss(self, entry, fused):
        # a lone entry that is no unit modulo the probes' product is a pivot
        # that stops the run, though nothing is reduced by it; their product
        # itself is 0
        q = prod(PROBE_PRIMES)
        assert linalg.rank_mod_p(IntColumns(1, [{0: entry}]), q) == fused
        assert rank_with_certificate([[entry]]) == (
            1, "bareiss", list(PROBE_PRIMES))


RAGGED = ([[1], [2, 3]], [[1, 2], [3]])
RANK_ROUTES = (rank_bareiss, rank_with_certificate, nullspace)


class TestMalformed:
    @pytest.mark.parametrize("route", RANK_ROUTES)
    @pytest.mark.parametrize("rows", RAGGED)
    def test_ragged_rows_are_refused(self, route, rows):
        with pytest.raises(ValueError, match="ragged"):
            route(rows)

    @pytest.mark.parametrize("route", RANK_ROUTES)
    @pytest.mark.parametrize("entry", [1.5, "1", None])
    def test_inexact_entry_is_refused(self, route, entry):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            route([[entry, 2]])


class TestIntColumns:
    """The sparse rank path against the dense copy, rank_bareiss and sympy."""

    @settings(max_examples=150)
    @given(m=int_columns(), p=st.sampled_from(PROBE_PRIMES + (2, 3, 7)))
    def test_residues_match_the_dense_copy(self, m, p):
        dense = m.dense()
        assert len(dense) == m.nrows
        assert all(len(row) == m.ncols for row in dense)
        residues = linalg._residues(m.columns, p)
        assert all(0 < x < p for col in residues for x in col.values())
        assert IntColumns(m.nrows, residues).dense() == [
            [x % p for x in row] for row in dense]

    @settings(max_examples=150)
    @given(m=int_columns())
    def test_rank_matches_bareiss_and_sympy(self, m):
        rank = sympy_of(m).rank()
        assert rank_bareiss(m) == rank_bareiss(m.dense()) == rank
        got, method, primes = rank_with_certificate(m)
        assert got == rank and primes == list(PROBE_PRIMES)
        if method == "modular-full-rank":
            assert rank == m.ncols
        else:
            assert method == "bareiss"
        # one rule: the modular answer stands only at full column rank
        full = linalg.rank_mod_p(m, prod(PROBE_PRIMES)) == m.ncols
        assert method == ("modular-full-rank" if full else "bareiss")
        # small primes drop rank often; the exact path must still decide
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PROBE_PRIMES", (2, 3))
            got, _, primes = rank_with_certificate(m)
        assert (got, primes) == (rank, [2, 3])

    @pytest.mark.parametrize("p", (2, 3) + PROBE_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_peeled_rank_matches_unpeeled_elimination(self, p, data):
        m = data.draw(peelable(p))
        before = [dict(col) for col in m.columns]
        rank = linalg.rank_mod_p(m, p)
        assert rank == dense_rank_mod_p(m, p)
        if p < 5:
            assert rank == sympy_rank_mod_p(m, p)
        assert m.columns == before

    def test_singleton_only_modulo_p(self):
        # mod 3 each column is one entry on row 1, and the second reduces to
        # 0 against the first.  Mod 5 both columns have two entries and the
        # 2 x 2 block has determinant 0, so again one column reduces to 0.
        m = IntColumns(2, [{0: 3, 1: 1}, {0: 6, 1: 2}])
        for p in (3, 5, 7) + PROBE_PRIMES:
            assert linalg.rank_mod_p(m, p) == dense_rank_mod_p(m, p) == 1

    def test_chain_of_singletons_peels_completely(self):
        # rows 0 and 3 are the only singletons at first, and peeling exposes
        # one row at a time; a column order must get the same rank (mod 3
        # the entries 3 and 6 vanish)
        m = IntColumns(4, [{0: 1, 1: 2}, {1: 3, 2: 4}, {2: 5, 3: 6}])
        assert linalg.rank_mod_p(m, 7) == 3
        for p in (3, 5, 7) + PROBE_PRIMES:
            assert linalg.rank_mod_p(m, p) == dense_rank_mod_p(m, p)

    @pytest.mark.parametrize("p", (2, 3, 5, 7) + PROBE_PRIMES)
    @pytest.mark.parametrize("m", [
        FILL_CANCELS,
        EMPTIES_A_COLUMN,
        # duplicate columns, and columns equal only mod 7
        IntColumns(3, [{0: 1, 2: 5}, {1: 2}, {0: 1, 2: 5}, {1: 9}]),
        IntColumns(2, [{0: 7, 1: 3}, {1: 3}]),
        IntColumns(3, [{}, {}]),
        IntColumns(4, []),
        IntColumns(0, []),
        # rows 1 to 3 are in no column
        IntColumns(5, [{0: 1}, {4: 2}, {0: 3, 4: 1}]),
    ])
    def test_explicit_cases_match_dense_elimination(self, m, p):
        before = [dict(col) for col in m.columns]
        assert linalg.rank_mod_p(m, p) == dense_rank_mod_p(m, p)
        assert m.columns == before

    def test_fill_cancelled_and_emptied_column_modulo_seven(self):
        assert linalg.rank_mod_p(FILL_CANCELS, 7) == 2
        assert linalg.rank_mod_p(FILL_CANCELS, 11) == rank_bareiss(FILL_CANCELS) == 3
        assert linalg.rank_mod_p(EMPTIES_A_COLUMN, 7) == 1
        assert linalg.rank_mod_p(EMPTIES_A_COLUMN, 11) == 2

    @pytest.mark.parametrize("point", SPECIAL_POINTS_4_TO_9, ids=str)
    def test_differential_matrices_match_dense_elimination(self, point):
        # every entry is even, so mod 2 the rank is 0; mod 3 to 13 the ranks
        # drop part way (qk1l2 at d = 8: 36 mod 5, 0 mod 7, 44 mod 11)
        f = point.form(2)
        M = form_route_matrix(f)
        lead = rank_certificates._largest_coefficient_monomial(f)
        for m in (M.with_hess(range(len(M.col_monomials))),
                  M.with_hess([j for j, mono in enumerate(M.col_monomials)
                               if mono != lead])):
            for p in (2, 3, 5, 7, 11, 13) + PROBE_PRIMES:
                assert linalg.rank_mod_p(m, p) == dense_rank_mod_p(m, p)

    @pytest.mark.parametrize("p", (2, 3, 5, 7) + PROBE_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_fill_in_matches_dense_elimination(self, p, data):
        m = data.draw(fill_cores(p))
        before = [dict(col) for col in m.columns]
        assert linalg.rank_mod_p(m, p) == dense_rank_mod_p(m, p)
        assert m.columns == before

    def test_dense_input_becomes_the_same_columns(self):
        m = IntColumns.from_rows([[Fraction(1, 2), 0], [0, 0], [3, Fraction(-1, 3)]])
        assert (m.nrows, m.columns) == (3, [{0: 1, 2: 9}, {2: -1}])
        assert m.dense() == [[1, 0], [0, 0], [9, -1]]


def fused_rank(m, p1, p2):
    """The one run modulo p1 * p2: it stops, or gives both per-prime ranks."""
    before = [dict(col) for col in m.columns]
    rank = linalg.rank_mod_p(m, p1 * p2)
    assert rank is None or rank == linalg.rank_mod_p(m, p1) == linalg.rank_mod_p(m, p2)
    assert m.columns == before
    return rank


FUSED_PAIRS = (PROBE_PRIMES, (5, 7), (2, 3))


class TestFusedRank:
    """One elimination modulo the product of two probe primes against the
    per-prime runs; with small primes non-unit pivots and rank drops occur."""

    @pytest.mark.parametrize("point", SPECIAL_POINTS_4_TO_9, ids=str)
    def test_differential_matrices(self, point):
        f = point.form(2)
        M = form_route_matrix(f)
        lead = rank_certificates._largest_coefficient_monomial(f)
        for m in (M.with_hess(range(len(M.col_monomials))),
                  M.with_hess([j for j, mono in enumerate(M.col_monomials)
                               if mono != lead])):
            for pair in FUSED_PAIRS[1:]:
                fused_rank(m, *pair)
            # no entry met modulo the default probes is divisible by either
            assert fused_rank(m, *PROBE_PRIMES) is not None

    def test_both_outcomes_at_degree_four(self):
        # qk: 15 modulo 5 and 7 alike; qk1l2: 9 modulo 5 and 10 modulo 7, so
        # the run modulo 35 cannot end
        qk, qk1l2 = (form_route_matrix(SpecialPoint(kind, 2).form(2))
                     for kind in ("qk", "qk1l2"))
        assert fused_rank(qk.with_hess(range(len(qk.col_monomials))), 5, 7) == 15
        m = qk1l2.with_hess(range(len(qk1l2.col_monomials)))
        assert (linalg.rank_mod_p(m, 5), linalg.rank_mod_p(m, 7)) == (9, 10)
        assert fused_rank(m, 5, 7) is None

    @settings(max_examples=150)
    @given(m=st.one_of(int_columns(), fill_cores(35)),
           pair=st.sampled_from(FUSED_PAIRS))
    def test_random_matrices(self, m, pair):
        fused_rank(m, *pair)

    @settings(max_examples=300)
    @given(m=int_columns(),
           q=st.sampled_from((4, 8, 9, 12, 35, 2 * 3 * 5 * 7,
                              PROBE_PRIMES[0] ** 2, prod(PROBE_PRIMES))))
    def test_any_modulus_gives_a_lower_bound(self, m, q):
        # only unit pivots: a run that ends shows a minor that is a unit mod
        # q, so nonzero; its rank is the rank mod every prime factor of q
        rank = linalg.rank_mod_p(m, q)
        if rank is not None:
            assert rank <= rank_bareiss(m)
            assert all(linalg.rank_mod_p(m, p) == rank
                       for p in sympy.primefactors(q))


SMALL_AND_PROBE = (2, 3, 5, 7, PROBE_PRIMES[0])


def ranked_special_point_matrices(point):
    """The matrices ``verify_special_point_rank`` ranks at ``point``, r = 2:
    [M' | hess] and its randomized-complement re-check."""
    seen = []
    rank_mod_p = linalg.rank_mod_p
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rank_mod_p",
                   lambda m, q: seen.append(m) or rank_mod_p(m, q))
        rank_certificates.verify_special_point_rank(
            point, 2, rng=random.Random(7))
    assert len(seen) == 2
    return seen


class TestAgainstMarkowitz:
    """``rank_mod_p`` against the Markowitz elimination it replaced."""

    @pytest.mark.parametrize("p", SMALL_AND_PROBE)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_random_matrices(self, p, data):
        m = data.draw(st.one_of(int_columns(), peelable(p), fill_cores(p)))
        before = [dict(col) for col in m.columns]
        assert linalg.rank_mod_p(m, p) == markowitz_rank_mod_p(m, p)
        assert m.columns == before

    @pytest.mark.parametrize("point", list(special_points(range(4, 21))), ids=str)
    def test_special_point_matrices(self, point):
        # modulo the probes' product both runs end, at the same rank; the
        # complement re-check matrix is compared up to d = 12
        q = prod(PROBE_PRIMES)
        matrices = ranked_special_point_matrices(point)
        for m in matrices if point.degree <= 12 else matrices[:1]:
            rank = linalg.rank_mod_p(m, q)
            assert rank is not None and rank == markowitz_rank_mod_p(m, q)

    @settings(max_examples=200)
    @given(data=st.data(), p=st.sampled_from(SMALL_AND_PROBE))
    def test_column_order_does_not_change_the_rank(self, data, p):
        m = data.draw(st.one_of(int_columns(), peelable(p), fill_cores(p)))
        shuffled = IntColumns(m.nrows, data.draw(st.permutations(m.columns)))
        assert linalg.rank_mod_p(shuffled, p) == linalg.rank_mod_p(m, p)


class TestDetSolve:
    def test_solve_recovers_solution(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        rhs = [Fraction(5), Fraction(10)]
        x = [sum(a * b for a, b in zip(row, rhs)) for row in invert(m)]
        assert [sum(m[i][j] * x[j] for j in range(2)) for i in range(2)] == rhs

    @pytest.mark.parametrize("m", [[[1, 2]], [[1, 2], [3]], [[1], [2]]])
    def test_non_square_is_refused(self, m):
        with pytest.raises(ValueError, match="square"):
            invert(m)

    @pytest.mark.parametrize("m", [
        [[1, 2], [2, 4]],
        [[0, 1], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[Fraction(1, 2), 1, 3], [1, 2, 6], [0, 1, 1]]],
        ids=["rank-1", "zero-column", "zero-last-column", "zero", "fractions"])
    def test_singular_is_refused(self, m):
        # [A | I] always has n pivots; a singular A shows as a pivot that
        # runs on into the identity block
        with pytest.raises(ValueError, match="singular"):
            invert(m)

    def test_nullspace_vectors_annihilate(self):
        m = [[Fraction(1), Fraction(2), Fraction(3)],
             [Fraction(2), Fraction(4), Fraction(6)]]
        basis = nullspace(m)
        assert len(basis) == 2
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m)


class TestSparse:
    """Every exact routine against sympy on mostly-zero matrices."""

    @settings(max_examples=150)
    @given(m=matrices(sparse=True))
    def test_rank_matches_sympy(self, m):
        rank = sympy.Matrix(m).rank()
        assert rank_bareiss(m) == rank
        got, method, primes = rank_with_certificate(m)
        assert (got, primes) == (rank, list(PROBE_PRIMES))
        assert method == "bareiss" or rank == len(m[0])

    @settings(max_examples=150)
    @given(m=matrices(sparse=True))
    def test_nullspace_matches_sympy(self, m):
        expected = [fractions_of(v) for v in sympy.Matrix(m).nullspace()]
        assert nullspace(m) == expected

    @settings(max_examples=150)
    @given(m=matrices(sparse=True, square=True))
    def test_det_invert_solve_match_sympy(self, m):
        sm = sympy.Matrix(m)
        if sm.det() == 0:
            with pytest.raises(ValueError, match="singular"):
                invert(m)
            return
        inv = sm.inv()
        assert invert(m) == [fractions_of(inv.row(i)) for i in range(len(m))]

    def test_zero_pivot_rows_keep_their_rank(self):
        assert sympy.Matrix(ZERO_PIVOT_ROWS).rank() == 3
        assert rank_bareiss(ZERO_PIVOT_ROWS) == 3
        assert rank_with_certificate(ZERO_PIVOT_ROWS) == (
            3, "bareiss", list(PROBE_PRIMES))
