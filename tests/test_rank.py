import random
from functools import partial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hesskit.forms
import hesskit.hessians
from conftest import RATIONAL, form_route_matrix, forms, special_points
from hesskit import linalg, rank_certificates
from hesskit.curves import CONDITIONS, even_a
from hesskit.errors import InputError, VerificationError
from hesskit.forms import Form, dim_sym, exact_quotient, monomials_of_degree
from hesskit.harmonic import (QuadraticForm, harmonic_basis,
                              harmonic_decompose)
from hesskit.hessians import (adjugate, adjugate_second_partials,
                              hess_from_adjugate)
from hesskit.orbit_checks import (SPECIAL_POINTS, closed_form_constant,
                                  hyperbolic_q, pair_m_range)
from hesskit.reports import certify
from hesskit.rank_certificates import (DifferentialMatrix, SpecialPoint,
                                       block_structure_check,
                                       differential_matrix, pijk_injectivity,
                                       precondition_report,
                                       projective_injectivity,
                                       verify_special_point_rank)

def bareiss_quotient_ranks(f):
    """Exact oracle for ``projective_injectivity``: Bareiss rank minus one of
    [M' | hess] over the complement it uses, its shape, and of [M | hess] over
    every column, which must agree since the f-column lies in the span of the
    Hessian column.  M is the full matrix of the Form route, with no factor
    divided out."""
    M = form_route_matrix(f)
    lead = rank_certificates._largest_coefficient_monomial(f)
    selected = M.with_hess(
        [j for j, mono in enumerate(M.col_monomials) if mono != lead])
    every = M.with_hess(range(len(M.col_monomials)))
    return (linalg.rank_bareiss(selected) - 1, (selected.nrows, selected.ncols),
            linalg.rank_bareiss(every) - 1)


# (kind, k) -> (rank, projective domain dim) for r = 2, computed exactly
# once and frozen.  Every one of these is full rank.
INJECTIVE_POINTS = {
    ("qk", 2): (14, 14),
    ("qk", 3): (27, 27),
    ("qk", 4): (44, 44),
    ("qkl", 2): (20, 20),
    ("qkl", 3): (35, 35),
    ("qk1l2", 3): (27, 27),
    ("qk1l2", 4): (44, 44),
}


class TestSpecialPointRanks:
    @pytest.mark.parametrize("kind,k", sorted(INJECTIVE_POINTS))
    def test_frozen_certificates(self, kind, k):
        rank, dom = INJECTIVE_POINTS[(kind, k)]
        point = SpecialPoint(kind, k)
        rep = verify_special_point_rank(point, r=2, rng=random.Random(7))
        assert rep.rank == rank
        assert rep.domain_dim == dom
        d = point.degree
        assert rep.matrix_shape == (dim_sym(3, 3 * (d - 2)), dim_sym(3, d))
        assert rep.injective
        assert rep.claim == "injective"
        assert rep.precondition["holds"]

    def test_cubic_cone_point_drops_rank(self):
        """At q*l the differential has rank 5 on a 9-dimensional domain."""
        rep = verify_special_point_rank(SpecialPoint("qkl", 1), r=2)
        assert (rep.rank, rep.domain_dim) == (5, 9)
        assert not rep.injective
        assert rep.claim == "no-claim"
        assert rep.precondition["violations"] == [1]

    def test_rank_below_claim_is_a_verification_error(self, monkeypatch):
        real = rank_certificates.projective_injectivity

        def rank_drops(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.rank, rep.injective = rep.rank - 1, False
            return rep

        monkeypatch.setattr(rank_certificates, "projective_injectivity",
                            rank_drops)
        with pytest.raises(VerificationError, match="rank 13 < 14"):
            verify_special_point_rank(SpecialPoint("qk", 2), r=2)

    def test_degree_fourteen_condition_root(self):
        pre = precondition_report(SpecialPoint("qk", 7), r=2)
        assert pre["violations"] == [3]
        assert not pre["holds"]

    def test_exact_path_agrees_with_modular(self):
        point = SpecialPoint("qk", 2)
        rep = verify_special_point_rank(point, r=2)
        assert rep.method == "modular-full-rank"
        rank, _, every = bareiss_quotient_ranks(point.form(2))
        assert rep.rank == rank == every

    @pytest.mark.parametrize("kind,k", sorted(INJECTIVE_POINTS))
    def test_exact_route_matches_modular_route(self, kind, k):
        f = SpecialPoint(kind, k).form(2)
        mod = projective_injectivity(f, rng=random.Random(7))
        rank, shape, every = bareiss_quotient_ranks(f)
        assert mod.method == "modular-full-rank"
        assert (mod.rank, mod.matrix_shape) == (rank, shape)
        assert every == rank
        assert mod.complement_checked

    def test_modular_route_needs_no_dense_matrix(self, monkeypatch):
        f = SpecialPoint("qkl", 3).form(2)

        def refuse(*args, **kwargs):
            raise RuntimeError("dense route taken")

        monkeypatch.setattr(linalg, "clear_denominators", refuse)
        monkeypatch.setattr(linalg, "_echelon", refuse)
        rep = projective_injectivity(f, rng=random.Random(7))
        assert rep.injective and rep.method == "modular-full-rank"
        assert rep.complement_checked

    @pytest.mark.parametrize("kind,d,k", [("qk", 2, 1), ("qk", 8, 4),
                                          ("qkl", 3, 1), ("qkl", 9, 4),
                                          ("qk1l2", 4, 2), ("qk1l2", 8, 4)])
    def test_point_at_degree(self, kind, d, k):
        point = SpecialPoint.at_degree(kind, d)
        assert point == SpecialPoint(kind, k) and point.degree == d

    @pytest.mark.parametrize("kind,d", [("qk", 5), ("qkl", 4), ("qk1l2", 7)])
    def test_point_at_degree_refuses_the_wrong_parity(self, kind, d):
        with pytest.raises(InputError, match="degree, got"):
            SpecialPoint.at_degree(kind, d)

    def test_univariate_form_is_injective(self):
        rep = projective_injectivity(Form.monomial((4,)))
        assert rep.rank == rep.domain_dim == 0
        assert rep.injective

    # The tables the point table replaced, per kind, as literals: least k,
    # least degree, pair kind, least m, condition and powers at k.
    @pytest.mark.parametrize("kind,k_min,d_min,pair,m_min,condition,powers", [
        ("qk", 1, 2, "even", 1, "evenA", lambda k: (k, 0)),
        ("qkl", 1, 3, "odd", 0, "odd", lambda k: (k, 1)),
        ("qk1l2", 2, 4, "even2", 0, "evenB", lambda k: (k - 1, 2)),
    ])
    def test_point_table_keeps_the_per_kind_values(
            self, kind, k_min, d_min, pair, m_min, condition, powers):
        with pytest.raises(InputError, match=f"k must be an int >= {k_min},"):
            SpecialPoint(kind, k_min - 1)
        with pytest.raises(InputError, match=f"d must be an int >= {d_min},"):
            SpecialPoint.at_degree(kind, d_min - 1)
        assert SpecialPoint.at_degree(kind, d_min) == SpecialPoint(kind, k_min)
        assert SPECIAL_POINTS[kind].pair == pair
        for k in range(k_min, 12):
            point = SpecialPoint(kind, k)
            assert point.powers == powers(k)
            assert point.degree == 2 * k + (kind == "qkl")
            assert point.condition == condition
            assert pair_m_range(pair, 2, k) == range(m_min, k + 1)
            assert precondition_report(point, 2)["m_range"] == [m_min, k]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_precondition_matches_a_loop_over_m(self, r):
        """The report against the loop over the pair's m-range it replaced."""
        held = set()
        for point in special_points(range(2, 31)):
            ms = pair_m_range(SPECIAL_POINTS[point.kind].pair, r, point.k)
            fn = CONDITIONS[point.condition][0]
            violations = [m for m in ms if fn(r, point.k, m) == 0]
            assert precondition_report(point, r) == {
                "condition": point.condition,
                "k": point.k,
                "m_range": [ms.start, point.k],
                "violations": violations,
                "holds": not violations,
            }
            held.add(not violations)
        assert held == {True, False}

    def test_invalid_points_rejected(self):
        with pytest.raises(ValueError):
            SpecialPoint("qq", 2)
        with pytest.raises(ValueError):
            SpecialPoint("qk1l2", 1)
        for k in (True, 2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="k must be an int"):
                SpecialPoint("qk", k)
        for args in ((2, True, 2), (True, 2, 2), (2, 2, True), (2.0, 2, 2),
                     (2, 2.5, 2), (2, 2, "2")):
            with pytest.raises(ValueError, match="must be an int >="):
                pijk_injectivity(*args)


# certify(d).rank for d = 17..20: (point, matrix shape, rank), computed once
# and frozen; each was settled by full rank modulo both probe primes.
CERTIFY_DEEP = {
    17: ("q^8*l", [1081, 171], 170),
    18: ("q^8*l^2", [1225, 190], 189),
    19: ("q^9*l", [1378, 210], 209),
    20: ("q^9*l^2", [1540, 231], 230),
}


class TestCertifyDeepRanks:
    @pytest.mark.parametrize("d", sorted(CERTIFY_DEEP))
    def test_frozen_rank_reports(self, d):
        point, shape, rank = CERTIFY_DEEP[d]
        rep = certify(d).rank
        assert (rep["point"], rep["matrix_shape"], rep["rank"]) == (point, shape, rank)
        assert rep["method"] == "modular-full-rank"
        assert rep["probe_primes"] == [2147483647, 2147483629]
        assert rep["injective"] and rep["claim"] == "injective"


def times_factor(M, column):
    """The numerators of ``column`` of M, a sparse column over
    ``M.row_monomials``, times the factor x**monomial * q**q_power that M
    records."""
    n = len(M.monomial)
    P = Form.monomial(M.monomial)
    if M.q_power:
        P = P * hyperbolic_q(n - 1) ** M.q_power
    g = Form.from_coeffs(n, sum(M.row_monomials[0]),
                         {M.row_monomials[i]: v for i, v in column.items()})
    return dict((g * P).numerators)


def assert_matches_form_route(f):
    """P times each column of ``differential_matrix(f)``, and P times its
    Hessian column, equal the Form route's full columns dict for dict."""
    full = form_route_matrix(f)
    if not full.hess_column:
        with pytest.raises(ValueError, match="vanishing Hessian"):
            differential_matrix(f)
        return
    M = differential_matrix(f)
    assert M.col_monomials == full.col_monomials
    row_of = {e: i for i, e in enumerate(full.row_monomials)}

    def full_rows(numerators):
        return {row_of[e]: v for e, v in numerators.items()}

    assert [full_rows(times_factor(M, col)) for col in M.columns] == full.columns
    assert full_rows(times_factor(M, M.hess_column)) == full.hess_column


CERTIFY_DEEP_POINTS = [("qkl", 8), ("qk1l2", 9), ("qkl", 9), ("qk1l2", 10)]


class TestMonomialShiftColumns:
    """``differential_matrix`` times its recorded factor against the Form
    route, dict for dict: the mod-p outcome depends on the exact integers,
    not only on the rank."""

    @pytest.mark.parametrize("nvars,examples", [(2, 60), (3, 60), (4, 12)])
    def test_random_forms(self, nvars, examples):
        @settings(max_examples=examples, deadline=None)
        @given(data=st.data())
        def check(data):
            f = data.draw(forms(
                nvars=nvars, min_degree=2, max_degree=6,
                denominators=data.draw(st.sampled_from([(1,), RATIONAL])),
                sparse=data.draw(st.booleans())))
            assert_matches_form_route(f)

        check()

    @pytest.mark.parametrize("kind,k", sorted(INJECTIVE_POINTS) + CERTIFY_DEEP_POINTS)
    def test_special_points(self, kind, k):
        assert_matches_form_route(SpecialPoint(kind, k).form(2))

    def test_shared_denominator_is_reduced(self):
        # every coefficient over 6: the image columns must come out reduced
        f = Form.from_coeffs(3, 3, {(3, 0, 0): "1/6", (1, 1, 1): "5/6",
                                    (0, 1, 2): "-1/6", (0, 0, 3): "7/6"})
        assert_matches_form_route(f)

    def test_products_do_not_grow_with_directions(self, monkeypatch):
        """Only the adjugate and Hess f, read off it, multiply forms: the same
        count at 15 directions (d = 4) as at 91 (d = 12).  Each (c, f, g)
        triple handed to ``forms.dot``, by ``*`` or by a kernel, is one
        product."""
        calls = []
        original = hesskit.forms.dot

        def counting(nvars, degree, terms):
            terms = list(terms)
            calls.extend(terms)
            return original(nvars, degree, terms)

        monkeypatch.setattr(hesskit.forms, "dot", counting)
        monkeypatch.setattr(hesskit.hessians, "dot", counting)
        counts = []
        for d in (4, 12):
            rng = random.Random(d)
            f = Form.from_coeffs(3, d, {e: rng.randint(1, 9)
                                        for e in monomials_of_degree(3, d)})
            calls.clear()
            hess_from_adjugate(f, adjugate_second_partials(f))
            kernels = len(calls)
            calls.clear()
            differential_matrix(f)
            counts.append((len(calls), kernels))
        monkeypatch.undo()
        assert counts[0] == counts[1]
        assert counts[0][0] == counts[0][1]


def component_rank(m):
    """Exact rank of the IntColumns ``m``: Bareiss on each component of
    columns joined through shared rows.  No row meets two components, so
    the rank is the sum, and Bareiss never sees a whole matrix: the full
    one at r = 3, d = 9 has 4 495 rows."""
    parent = list(range(m.ncols))

    def find(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    owner = {}
    for j, col in enumerate(m.columns):
        for i in col:
            parent[find(j)] = find(owner.setdefault(i, j))
    groups = {}
    for j in range(m.ncols):
        groups.setdefault(find(j), []).append(j)
    total = 0
    for cols in groups.values():
        rows = {i: k for k, i in enumerate(sorted({i for j in cols
                                                   for i in m.columns[j]}))}
        total += linalg.rank_bareiss(linalg.IntColumns(len(rows), [
            {rows[i]: v for i, v in m.columns[j].items()} for j in cols]))
    return total


# (kind, d) -> (q_power, monomial, shape of the reduced matrix) at r = 2,
# computed once and frozen: P = x**monomial * q**q_power is the adjugate's
# largest common factor, and the full matrices are 5-6 times taller.
REDUCED_FACTORS = {
    ("qk", 8): (5, (0, 0, 0), (45, 45)),
    ("qk", 12): (9, (0, 0, 0), (91, 91)),
    ("qk1l2", 14): (9, (2, 0, 0), (153, 120)),
    ("qkl", 17): (13, (0, 0, 0), (210, 171)),
    ("qk1l2", 18): (13, (2, 0, 0), (231, 190)),
    ("qkl", 19): (15, (0, 0, 0), (253, 210)),
    ("qk1l2", 20): (15, (2, 0, 0), (276, 231)),
    ("qk", 32): (29, (0, 0, 0), (561, 561)),
    ("qk1l2", 32): (27, (2, 0, 0), (630, 561)),
    ("qk", 64): (61, (0, 0, 0), (2145, 2145)),
    ("qk1l2", 64): (59, (2, 0, 0), (2278, 2145)),
}


class TestReducedDifferential:
    """The rank path ranks D_f / P, for P the adjugate's common factor."""

    @pytest.mark.parametrize("kind,d", sorted(REDUCED_FACTORS))
    def test_frozen_factors(self, kind, d):
        M = differential_matrix(SpecialPoint.at_degree(kind, d).form(2))
        assert (M.q_power, M.monomial, M.shape) == REDUCED_FACTORS[kind, d]

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("point", list(special_points(range(4, 10))), ids=str)
    def test_reduced_rank_is_the_full_bareiss_rank(self, point, r):
        f = point.form(r)
        full, M = form_route_matrix(f), differential_matrix(f)
        lead = rank_certificates._largest_coefficient_monomial(f)
        selected = [j for j, mono in enumerate(M.col_monomials) if mono != lead]
        rank = component_rank(full.with_hess(selected))
        assert component_rank(M.with_hess(selected)) == rank
        assert projective_injectivity(f).rank == rank - 1
        every = range(len(M.col_monomials))
        assert component_rank(M.with_hess(every)) == rank

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_factor_is_the_largest(self, data):
        """On both matrices the library divides, the second partials and
        the adjugate of their quotient, P times each reduced entry is the
        entry, and the reduced entries share no variable and, in three or
        more variables, no q."""
        nvars = data.draw(st.integers(2, 4))
        if data.draw(st.booleans()):
            kind = data.draw(st.sampled_from(sorted(SPECIAL_POINTS)))
            f = SpecialPoint(kind, data.draw(st.integers(2, 5))).form(nvars - 1)
        else:
            f = data.draw(forms(nvars=nvars, min_degree=2, max_degree=5,
                                sparse=True))
        q = hyperbolic_q(nvars - 1)
        divide = partial(rank_certificates._divide_common_factor,
                         q=q if nvars >= 3 else None)
        small = divide(f.second_partials())[2]
        for mat in (f.second_partials(), adjugate(small)):
            beta, alpha, reduced = divide(mat)
            P = Form.monomial(beta) * q ** alpha
            assert [[g * P for g in row] for row in reduced] == \
                [list(row) for row in mat]
            live = [g for row in reduced for g in row if not g.is_zero()]
            if not live:  # as at f = x0**2: nothing to divide
                assert (beta, alpha) == ((0,) * nvars, 0)
                continue
            for i in range(nvars):
                assert any(e[i] == 0 for g in live for e in g.numerators)
            if nvars >= 3:
                assert any(exact_quotient(g, q) is None for g in live)

    def test_a_remainder_lowers_the_q_power(self):
        """The entry with the fewest terms has q**2, another only q: every
        entry is divided by q once."""
        q = hyperbolic_q(2)
        A = q * q  # three terms
        B = q * Form.from_coeffs(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1,
                                        (0, 0, 2): 1, (1, 0, 1): 1})
        assert A.num_terms() < B.num_terms()
        adj = [[A, B, A], [B, A, B], [A, B, A]]
        beta, alpha, reduced = rank_certificates._divide_common_factor(adj, q)
        assert (beta, alpha) == ((0, 0, 0), 1)
        assert reduced[0][0] == q and reduced[0][1] * q == B

    def test_forced_fallback_ranks_the_reduced_matrix(self, monkeypatch):
        """With the modular answer forced short of full, Bareiss decides on
        the 91 x 91 reduced matrix at q**6, not the 496 x 91 full one."""
        shapes = []
        exact = linalg.rank_bareiss

        def recording(m):
            shapes.append((m.nrows, m.ncols))
            return exact(m)

        monkeypatch.setattr(linalg, "rank_mod_p", lambda m, q: None)
        monkeypatch.setattr(linalg, "rank_bareiss", recording)
        rep = projective_injectivity(SpecialPoint.at_degree("qk", 12).form(2))
        assert shapes == [(91, 91)]
        assert (rep.rank + 1, rep.method) == (91, "bareiss")
        assert rep.matrix_shape == (496, 91) and rep.injective


def adjugate_first(f):
    """The route the library left, kept as an oracle: (beta, alpha, adj / P)
    for P = x**beta * q**alpha found on the full adjugate of the second
    partials.  beta is read off exponent tuples; alpha off the entry with
    the fewest terms, lowered while any entry leaves a remainder."""
    adj = adjugate_second_partials(f)
    n = len(adj)
    live = [adj[i][j] for i in range(n) for j in range(i, n)
            if not adj[i][j].is_zero()]
    beta = tuple(map(min, zip(*(e for entry in live
                                for e in entry.numerators)))) or (0,) * n
    factor = Form.monomial(beta)
    q = hyperbolic_q(n - 1) if n >= 3 else None
    alpha = 0
    if q is not None and live:
        g = exact_quotient(min(live, key=Form.num_terms), factor)
        while (g := exact_quotient(g, q)) is not None:
            alpha += 1
    while True:
        divisor = factor * q ** alpha if alpha else factor
        quotients = {(i, j): exact_quotient(adj[i][j], divisor)
                     for i in range(n) for j in range(i, n)}
        if None not in quotients.values():
            return beta, alpha, [[quotients[min(i, j), max(i, j)]
                                  for j in range(n)] for i in range(n)]
        alpha -= 1


def assert_matches_adjugate_first(f):
    """The library's (beta, alpha, reduced adjugate) is the oracle's.  A
    zero adjugate, as at f = x0**3, has no largest factor and never reaches
    a matrix (its Hessian vanishes): both routes must then give zeros."""
    beta, alpha, reduced = rank_certificates._reduced_adjugate(f)
    expected = adjugate_first(f)
    if all(g.is_zero() for row in expected[2] for g in row):
        assert all(g.is_zero() for row in reduced for g in row)
        return
    assert (beta, alpha, [list(row) for row in reduced]) == expected


class TestFactoredPartials:
    """The factor taken out of the second partials before the adjugate is
    built gives the same (beta, alpha, reduced adjugate) as dividing the
    full adjugate.  At r = 3 the oracle's full adjugate grows fast (4.8 s
    over d = 4...32), so r = 3 stops at d = 14."""

    @pytest.mark.parametrize("r,top", [(2, 64), (3, 14)])
    def test_special_points(self, r, top):
        for point in special_points(range(4, top + 1)):
            assert_matches_adjugate_first(point.form(r))

    def test_a_remainder_in_the_second_partials_lowers_sigma(self):
        """At q * (-x0**2 x1 x2 - 2 x0 x2**3 - x1**2 x2**2) the second
        partial with the fewest terms, d0 d0 f, is divisible by q and the
        others are not: sigma is 0, and the result is the oracle's."""
        q = hyperbolic_q(2)
        f = q * Form.from_coeffs(3, 4, {(2, 1, 1): -1, (1, 0, 3): -2,
                                        (0, 2, 2): -1})
        partials = f.second_partials()
        assert min((g.num_terms(), i, j) for i, row in enumerate(partials)
                   for j, g in enumerate(row)) == (2, 0, 0)
        assert exact_quotient(partials[0][0], q) is not None
        assert rank_certificates._divide_common_factor(partials, q)[:2] == \
            ((0, 0, 0), 0)
        assert_matches_adjugate_first(f)

    @pytest.mark.parametrize("nvars,examples,top", [(2, 30, 2), (3, 30, 2),
                                                    (4, 8, 1)])
    def test_random_forms(self, nvars, examples, top):
        """Random forms, integer or rational, sparse or dense, times a
        random monomial and power of q, so that both divisions have work;
        ``top`` bounds each exponent and the power of q."""
        q = hyperbolic_q(nvars - 1)

        @settings(max_examples=examples, deadline=None)
        @given(data=st.data())
        def check(data):
            g = data.draw(forms(
                nvars=nvars, min_degree=0, max_degree=2 + top,
                denominators=data.draw(st.sampled_from([(1,), RATIONAL])),
                sparse=data.draw(st.booleans())))
            e = data.draw(st.lists(st.integers(0, top), min_size=nvars,
                                   max_size=nvars))
            f = g * Form.monomial(e) * q ** data.draw(st.integers(0, top))
            if f.degree >= 2:
                assert_matches_adjugate_first(f)

        check()


SPARSE_CUBICS = (
    {(2, 0, 1): 2, (0, 3, 0): -3, (0, 0, 3): 1},
    {(3, 0, 0): -2, (0, 2, 1): 3, (0, 1, 2): 1},
)


class TestSparseCubics:
    """Sparse ternary cubics whose matrices once broke the rank path."""

    @pytest.mark.parametrize("coeffs", SPARSE_CUBICS)
    def test_exact_route_matches_modular_route(self, coeffs):
        f = Form.from_coeffs(3, 3, coeffs)
        mod = projective_injectivity(f, rng=random.Random(70))
        rank, shape, every = bareiss_quotient_ranks(f)
        assert (mod.rank, mod.matrix_shape) == (rank, shape)
        assert every == rank
        assert mod.complement_checked

    def test_zero_pivot_rows_keep_their_rank(self):
        # 2*x0^2*x2 - 3*x1^3 + x2^3; its matrix has rows that are zero in a
        # pivot column while the previous pivot is 1
        f = Form.from_coeffs(3, 3, {(2, 0, 1): 2, (0, 3, 0): -3, (0, 0, 3): 1})
        rep = projective_injectivity(f)
        M = differential_matrix(f)
        full = M.with_hess(range(len(M.col_monomials))).dense()
        assert rep.rank == sympy.Matrix(full).rank() - 1 == 6
        assert rep.method == "bareiss"

    def test_complement_recheck_keeps_the_span(self):
        # -2*x0^3 + 3*x1^2*x2 + x1*x2^2: per-entry multipliers of the
        # Hessian column raised the rank of the second complement
        f = Form.from_coeffs(3, 3, {(3, 0, 0): -2, (0, 2, 1): 3, (0, 1, 2): 1})
        rep = projective_injectivity(f, rng=random.Random(70))
        assert rep.complement_checked
        assert rep.rank == projective_injectivity(f).rank

    def test_complement_matrix_is_a_column_operation(self):
        M = differential_matrix(Form.from_coeffs(3, 3, SPARSE_CUBICS[1]))
        selected = range(1, len(M.col_monomials))
        mults = [1 + j % 3 for j in selected]
        shifted = M.with_hess(selected, mults)
        plain = M.with_hess(selected).dense()
        assert shifted.dense() == [
            [x + c * row[-1] for x, c in zip(row, mults)] + [row[-1]]
            for row in plain]
        assert all(all(col.values()) for col in shifted.columns)
        # an entry that cancels is dropped, not stored as 0
        tiny = DifferentialMatrix([(0,), (1,)], [(1,)], [{0: -2, 1: 1}], {0: 1},
                                  monomial=(0,), q_power=0)
        assert tiny.with_hess([0], [2]).columns == [{1: 1}, {0: 1}]

    def test_complement_rank_change_is_a_verification_error(self, monkeypatch):
        real = rank_certificates.rank_with_certificate
        calls = []

        def second_disagrees(rows, **kwargs):
            rank, method, primes = real(rows, **kwargs)
            calls.append(rank)
            return rank + (len(calls) == 2), method, primes

        monkeypatch.setattr(rank_certificates, "rank_with_certificate",
                            second_disagrees)
        f = Form.from_coeffs(3, 3, {(3, 0, 0): -2, (0, 2, 1): 3, (0, 1, 2): 1})
        with pytest.raises(VerificationError, match="complement"):
            projective_injectivity(f, rng=random.Random(70))
        assert len(calls) == 2


class TestBlockStructure:
    @pytest.mark.parametrize("k,scalars", [
        (2, ["-144", "-72", "96"]),
        (3, ["-810", "-540", "90", "1080"]),
    ])
    def test_frozen_block_scalars(self, k, scalars):
        rep = block_structure_check(k, r=2)
        assert rep.passed()
        assert [b["scalar"] for b in rep.blocks] == scalars

    def test_block_dimensions_and_slots(self):
        rep = block_structure_check(2, r=2)
        assert [b["block_dim"] for b in rep.blocks] == [1, 5, 9]
        assert [b["target_slot"] for b in rep.blocks] == [3, 2, 1]

    def test_scalars_pairwise_distinct(self):
        # distinct eigenvalues make the block decomposition canonical
        for k in (2, 3):
            scalars = [b["scalar"] for b in block_structure_check(k, 2).blocks]
            assert len(set(scalars)) == len(scalars)

    def test_rank_one_case_rejected(self):
        with pytest.raises(ValueError):
            block_structure_check(0, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_k_one_top_block_maps_to_zero(self, r):
        # at q the block i = 1 has slot -1, no power of q: its scalar
        # vanishes and the block must map to the zero form
        rep = block_structure_check(1, r)
        assert rep.passed()
        top = rep.blocks[1]
        assert (top["i"], top["target_slot"], top["scalar"]) == (1, -1, "0")
        assert top["single_slot"] and top["scalar_holds"]

    def test_zero_scalar_block_lands_in_no_slot(self):
        assert even_a(3, 3, 2) == 0
        rep = block_structure_check(3, 3)
        assert rep.passed()
        assert [b["scalar"] for b in rep.blocks] == ["-6480", "-4320", "0", "6480"]

    @pytest.mark.parametrize("k,r", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 1)])
    def test_block_i_zero_scalar_is_the_scaled_hessian_constant(self, k, r):
        # the direction q**k at q**k: scaling gives (r+1) times the constant
        scalar = block_structure_check(k, r).blocks[0]["scalar"]
        assert scalar == str((r + 1) * closed_form_constant(r, k, 0))


class TestMultiplicationProjection:
    @pytest.mark.parametrize("i,k,r,rank", [(1, 1, 2, 3), (0, 3, 2, 1),
                                            (2, 2, 3, 9)])
    def test_frozen_ranks(self, i, k, r, rank):
        rep = pijk_injectivity(i, k, r)
        # exact oracle: Bareiss on the same map, built from dense rationals
        qform = QuadraticForm.canonical_hyperbolic(r)
        lk = Form.monomial((k,) + (0,) * r)
        tops = [harmonic_decompose(h * lk, qform)[0]
                for h in harmonic_basis(i, qform)]
        dense = [[top.coefficient(mono) for top in tops]
                 for mono in monomials_of_degree(r + 1, i + k)]
        assert linalg.rank_bareiss(dense) == rank
        assert rep.rank == rank
        assert rep.injective
        assert rep.domain_dim == rank

    def test_identity_power_rejected(self):
        with pytest.raises(ValueError):
            pijk_injectivity(2, 0, 2)
