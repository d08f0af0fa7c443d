import random

import pytest
import sympy

from hesskit import linalg, rank_certificates
from hesskit.errors import VerificationError
from hesskit.forms import Form, dim_sym
from hesskit.rank_certificates import (DifferentialMatrix, SpecialPoint,
                                       block_structure_check,
                                       differential_matrix, pijk_injectivity,
                                       precondition_report,
                                       projective_injectivity,
                                       verify_special_point_rank)

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
        a = verify_special_point_rank(SpecialPoint("qk", 2), r=2)
        b = verify_special_point_rank(SpecialPoint("qk", 2), r=2,
                                      force_exact=True)
        assert a.rank == b.rank
        assert a.method == "modular-full-rank"
        assert b.method == "bareiss"

    @pytest.mark.parametrize("kind,k", sorted(INJECTIVE_POINTS))
    def test_exact_route_matches_modular_route(self, kind, k):
        f = SpecialPoint(kind, k).form(2)
        mod = projective_injectivity(f, rng=random.Random(7))
        exact = projective_injectivity(f, rng=random.Random(7), force_exact=True)
        assert mod.method == "modular-full-rank" and exact.method == "bareiss"
        assert (mod.rank, mod.matrix_shape) == (exact.rank, exact.matrix_shape)
        assert mod.complement_checked and exact.complement_checked

    def test_modular_route_needs_no_dense_matrix(self, monkeypatch):
        f = SpecialPoint("qkl", 3).form(2)

        def refuse(*args, **kwargs):
            raise RuntimeError("dense route taken")

        monkeypatch.setattr(linalg, "clear_denominators", refuse)
        monkeypatch.setattr(linalg, "_echelon", refuse)
        rep = projective_injectivity(f, rng=random.Random(7))
        assert rep.injective and rep.method == "modular-full-rank"
        assert rep.complement_checked

    def test_invalid_points_rejected(self):
        with pytest.raises(ValueError):
            SpecialPoint("qq", 2)
        with pytest.raises(ValueError):
            SpecialPoint("qk1l2", 1)


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
        exact = projective_injectivity(f, rng=random.Random(70), force_exact=True)
        assert exact.method == "bareiss"
        assert (mod.rank, mod.matrix_shape) == (exact.rank, exact.matrix_shape)
        assert mod.complement_checked and exact.complement_checked

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
        tiny = DifferentialMatrix(1, 1, [(0,), (1,)], [(1,)], [{0: -2, 1: 1}], {0: 1})
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


class TestMultiplicationProjection:
    @pytest.mark.parametrize("i,k,r,rank", [(1, 1, 2, 3), (0, 3, 2, 1),
                                            (2, 2, 3, 9)])
    def test_frozen_ranks(self, i, k, r, rank):
        rep = pijk_injectivity(i, k, r)
        assert pijk_injectivity(i, k, r, force_exact=True).rank == rank
        assert rep.rank == rank
        assert rep.injective
        assert rep.domain_dim == rank

    def test_identity_power_rejected(self):
        with pytest.raises(ValueError):
            pijk_injectivity(2, 0, 2)
